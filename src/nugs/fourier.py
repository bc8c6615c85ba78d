"""Fourier transforms of basis and test functions at arbitrary frequencies.

The transform convention is ``F(w) = int_0^1 f(x) exp(-2 pi i w x) dx``.

For the polynomial kinds every basis function is a per-cell Legendre
polynomial, whose transform has the closed form

    int_a^b phi_n(x) exp(-2 pi i w x) dx
        = sqrt((2n+1) h) * exp(-pi i w (a+b)) * (-i)^n * j_n(pi w h)

with h = b - a and j_n the spherical Bessel function (odd/even in w, so
negative frequencies follow by parity).  All orders j_0..j_{p-1} come from
one vectorized pass (``spherical_jn_orders``): the power series below
z = 0.5; closed-form j_0, j_1 and the upward recurrence
j_{n+1} = (2n+1)/z j_n - j_{n-1} where z >= p - 1, in which range it is
stable; and Miller's downward recurrence between the two, normalized by
sum_n (2n+1) j_n^2 = 1.  Basis transforms then contract the per-cell
table with the basis coefficients in one matrix product.

Quadrature is used only for user-supplied functions and as a cross-check
oracle in the tests.  Its panels have equal width within each jump-free
segment, so the exponential at node a_j + c_q factors into a per-panel
and a per-node table joined by one matrix product per segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import sampling, spaces
from .errors import QuadratureError
from .quadrature import gauss_rule, panel_edges, panel_nodes, panel_segments
from .sampling import SampleSet
from .spaces import OrthoBasis, SpaceSpec
from .validation import as_complex_array, as_weight_array, check_same_length

_TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class FunctionSpec:
    """A square-integrable function on (0, 1).

    Either a closure-free expression tree over {x, const, +, -, *, neg,
    pow, sin, cos, exp} or a member of a reconstruction space given by its
    coefficients.  ``jumps`` lists interior discontinuity locations so that
    quadrature panels never straddle one.
    """

    kind: str                                   # "expr" | "coeffs"
    expr: tuple = ()
    space: SpaceSpec | None = None
    coefficients: tuple = ()
    jumps: tuple[float, ...] = ()

    @classmethod
    def from_expr(cls, expr, jumps=()) -> "FunctionSpec":
        return cls(kind="expr", expr=_as_tuple_tree(expr),
                   jumps=tuple(float(t) for t in jumps))

    @classmethod
    def from_coefficients(cls, space: SpaceSpec, coefficients) -> "FunctionSpec":
        coeffs = tuple(complex(c) for c in np.asarray(coefficients).ravel())
        if len(coeffs) != spaces.dimension(space):
            raise ValueError("coefficient count must match the space dimension")
        jumps = tuple(float(t) for t in spaces.breakpoints(space)[1:-1])
        return cls(kind="coeffs", space=space, coefficients=coeffs, jumps=jumps)

    @classmethod
    def benchmark(cls) -> "FunctionSpec":
        """The built-in smooth benchmark x^2 + x sin(4 pi x) - e^{x/2} cos(3 pi x)^2."""
        x = ("x",)
        expr = ("sub",
                ("add", ("pow", x, 2),
                 ("mul", x, ("sin", ("mul", ("const", 4 * np.pi), x)))),
                ("mul", ("exp", ("mul", ("const", 0.5), x)),
                 ("pow", ("cos", ("mul", ("const", 3 * np.pi), x)), 2)))
        return cls(kind="expr", expr=expr)

    def to_json(self) -> str:
        if self.kind == "expr":
            return json.dumps({"kind": "expr", "expr": _tree_to_json(self.expr),
                               "jumps": list(self.jumps)})
        return json.dumps({"kind": "coeffs", "space": json.loads(self.space.to_json()),
                           "coefficients": [[c.real, c.imag] for c in self.coefficients]})

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        d = json.loads(text)
        if d["kind"] == "expr":
            return cls.from_expr(d["expr"], d.get("jumps", ()))
        space = SpaceSpec.from_json(json.dumps(d["space"]))
        coeffs = [complex(re, im) for re, im in d["coefficients"]]
        return cls.from_coefficients(space, coeffs)


def _as_tuple_tree(node):
    if isinstance(node, (list, tuple)):
        return tuple(_as_tuple_tree(c) if isinstance(c, (list, tuple)) else c
                     for c in node)
    raise ValueError(f"malformed expression node {node!r}")


def _tree_to_json(node):
    return [(_tree_to_json(c) if isinstance(c, tuple) else c) for c in node]


def _eval_expr(node, x):
    op = node[0]
    if op == "x":
        return x
    if op == "const":
        return np.full_like(x, float(node[1]))
    if op == "add":
        return _eval_expr(node[1], x) + _eval_expr(node[2], x)
    if op == "sub":
        return _eval_expr(node[1], x) - _eval_expr(node[2], x)
    if op == "mul":
        return _eval_expr(node[1], x) * _eval_expr(node[2], x)
    if op == "neg":
        return -_eval_expr(node[1], x)
    if op == "pow":
        return _eval_expr(node[1], x) ** int(node[2])
    if op == "sin":
        return np.sin(_eval_expr(node[1], x))
    if op == "cos":
        return np.cos(_eval_expr(node[1], x))
    if op == "exp":
        return np.exp(_eval_expr(node[1], x))
    raise ValueError(f"unknown expression op {op!r}")


@lru_cache(maxsize=128)
def cached_basis(space: SpaceSpec) -> OrthoBasis:
    return spaces.build_basis(space)


def evaluate_function(f: FunctionSpec, x) -> np.ndarray:
    """Pointwise values of a function spec (complex for coefficient members)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if f.kind == "expr":
        return _eval_expr(f.expr, xs)
    basis = cached_basis(f.space)
    return np.asarray(f.coefficients) @ spaces.evaluate(basis, xs)


# ---------------------------------------------------------------------------
# closed-form transforms


def interval_exponential(a: float, b: float, omega) -> complex | np.ndarray:
    """Transform of the indicator of [a, b): (b-a) e^{-pi i w (a+b)} sinc(w (b-a))."""
    if not a < b:
        raise ValueError("need a < b")
    w = np.asarray(omega, dtype=float)
    out = (b - a) * np.exp(-1j * np.pi * w * (a + b)) * np.sinc(w * (b - a))
    return out if out.ndim else complex(out)


def spherical_jn_orders(z, p: int) -> np.ndarray:
    """Spherical Bessel functions j_0..j_{p-1} at z >= 0; shape (p, *z.shape).

    Absolute error is a few ulp of 1 for every order (|j_n| <= 1).
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty((p, flat.size))
    small = flat < 0.5
    upward = ~small & (flat >= p - 1)
    miller = ~(small | upward)
    for sel, method in ((small, _jn_series), (upward, _jn_upward), (miller, _jn_miller)):
        if sel.any():
            out[:, sel] = method(flat[sel], p)
    return out.reshape((p,) + z.shape)


def _jn_series(z: np.ndarray, p: int) -> np.ndarray:
    # j_n(z) = z^n / (2n+1)!! * sum_k (-z^2/2)^k / (k! (2n+3)(2n+5)..(2n+2k+1));
    # for z < 0.5 the terms past k = 8 are below 1e-21
    out = np.empty((p, z.size))
    y = -0.5 * z * z
    lead = np.ones_like(z)
    acc = np.empty_like(z)
    for n in range(p):
        if n:
            lead *= z / (2 * n + 1)
        acc.fill(1.0)
        for k in range(8, 0, -1):
            acc *= y / (k * (2 * n + 2 * k + 1))
            acc += 1.0
        np.multiply(lead, acc, out=out[n])
    return out


def _jn_closed01(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j0 = np.sin(z) / z
    return j0, (j0 - np.cos(z)) / z


def _jn_upward(z: np.ndarray, p: int) -> np.ndarray:
    out = np.empty((p, z.size))
    j0, j1 = _jn_closed01(z)
    out[0] = j0
    if p > 1:
        out[1] = j1
    inv = 1.0 / z
    for n in range(1, p - 1):
        out[n + 1] = (2 * n + 1) * inv * out[n] - out[n - 1]
    return out


def _jn_miller(z: np.ndarray, p: int) -> np.ndarray:
    # Downward from an order far enough above z that j_top is negligible,
    # rescaling by 1e-100 whenever a value passes 1e100 so that the running
    # sum of (2n+1) f_n^2 cannot overflow; the sign comes from the larger
    # of the closed-form j_0, j_1 (their zeros interlace).
    top = p + 16 + int(math.sqrt(40 * p))
    out = np.zeros((p, z.size))
    nxt = np.zeros_like(z)
    cur = np.full_like(z, 1e-30)
    total = np.zeros_like(z)
    inv = 1.0 / z
    for n in range(top, 0, -1):
        scaled = (2 * n + 1) * cur
        total += scaled * cur
        if n < p:
            out[n] = cur
        prev = scaled * inv
        prev -= nxt
        big = np.abs(prev) > 1e100
        if big.any():
            prev[big] *= 1e-100
            cur[big] *= 1e-100
            total[big] *= 1e-200
            out[:, big] *= 1e-100
        nxt, cur = cur, prev
    total += cur * cur
    out[0] = cur
    j0, j1 = _jn_closed01(z)
    ref = np.where(np.abs(j0) >= np.abs(j1), j0 * out[0], j1 * out[1])
    return out * np.copysign(1.0 / np.sqrt(total), ref)


def cell_transforms(breaks: np.ndarray, p: int, omegas: np.ndarray) -> np.ndarray:
    """Transforms of every normalized cell-Legendre function, (n_w, n_cell, p)."""
    w = np.asarray(omegas, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    h = b - a
    jn = spherical_jn_orders(np.pi * np.abs(w)[:, None] * h[None, :], p)
    phase = np.exp(-1j * np.pi * w[:, None] * (a + b)[None, :]) * np.sqrt(h)[None, :]
    # (-i)^n for w >= 0 and i^n = (-1)^n (-i)^n for w < 0
    phase_odd = phase * np.where(w < 0, -1.0, 1.0)[:, None]
    out = np.empty((w.size, h.size, p), dtype=complex)
    for n in range(p):
        turn = math.sqrt(2 * n + 1) * (-1j) ** n
        out[:, :, n] = (phase_odd if n % 2 else phase) * (turn * jn[n])
    return out


def basis_transform(basis: OrthoBasis, omega) -> np.ndarray:
    """Transforms of all basis functions; shape (dim,) or (n_w, dim)."""
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    if basis.orders is not None:
        diff = w[:, None] - basis.orders[None, :]
        out = np.exp(-1j * np.pi * diff) * np.sinc(diff)
    else:
        out = np.empty((w.size, basis.dim), dtype=complex)
        # sum over cells and orders as one (n_w, n_cell*p) x (n_cell*p, dim) product
        coeffs = basis.coeffs.reshape(basis.dim, -1).T
        for lo in range(0, w.size, 512):
            chunk = slice(lo, min(lo + 512, w.size))
            t = cell_transforms(basis.breaks, basis.local_dim, w[chunk])
            out[chunk] = t.reshape(t.shape[0], -1) @ coeffs
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# quadrature transforms of arbitrary functions


@dataclass(frozen=True)
class FourierData:
    """Complex transform samples paired with their frequencies and weights."""

    samples: SampleSet
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        vals = as_complex_array(self.values, "values")
        wts = as_weight_array(self.weights, "weights")
        check_same_length(self.samples.points, vals, "samples", "values")
        check_same_length(self.samples.points, wts, "samples", "weights")
        vals.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "weights", wts)


def transform_integrals(f: FunctionSpec, omegas, abs_tol: float = 1e-12,
                        nodes: int = 16) -> np.ndarray:
    """Quadrature values of F(w) on an arbitrary frequency list.

    One composite panel grid (split at jumps, panel width at most
    1/(4 max|w| + 1)) is shared by all frequencies so the function is
    evaluated once; convergence is certified per frequency by comparison
    with the halved grid, and stragglers are refined individually.
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    width = 1.0 / (4.0 * wmax + 1.0)
    vals = _batched_oscillatory(f, w, width, nodes)
    ref = _batched_oscillatory(f, w, width / 2.0, nodes)
    bad = np.abs(ref - vals) > abs_tol
    out = ref
    for i in np.nonzero(bad)[0]:
        out[i] = _refine_single(f, float(w[i]), width / 4.0, nodes, abs_tol)
    return out


def _batched_oscillatory(f: FunctionSpec, w: np.ndarray, width: float,
                         nodes: int) -> np.ndarray:
    # On a segment of m panels of width h starting at lo, node q of panel j
    # sits at a_j + c_q with a_j = lo + j h and c_q = h (1 + x_q) / 2, so
    # sum_{j,q} e^{-2 pi i w (a_j + c_q)} g_jq = sum_j e^{-2 pi i w a_j} (E_c g^T)_j.
    x, wq = gauss_rule(nodes)
    out = np.zeros(w.size, dtype=complex)
    for lo, hi, m in panel_segments(0.0, 1.0, f.jumps, width):
        h = (hi - lo) / m
        starts = lo + h * np.arange(m)
        offsets = h / 2.0 * (1.0 + x)
        fw = (evaluate_function(f, (starts[:, None] + offsets).ravel()).reshape(m, nodes)
              * (h / 2.0 * wq))
        chunk = max(1, int(1e6 // m))
        for c in range(0, w.size, chunk):
            sel = slice(c, min(c + chunk, w.size))
            per_node = np.exp(-_TWO_PI * 1j * w[sel, None] * offsets) @ fw.T
            per_panel = np.exp(-_TWO_PI * 1j * w[sel, None] * starts)
            out[sel] += (per_panel * per_node).sum(axis=1)
    return out


def _refine_single(f: FunctionSpec, omega: float, width: float, nodes: int,
                   abs_tol: float, max_rounds: int = 10) -> complex:
    prev = None
    for _ in range(max_rounds):
        edges = panel_edges(0.0, 1.0, f.jumps, width)
        xs, ws = panel_nodes(edges, nodes)
        val = complex(np.exp(-2j * np.pi * omega * xs) @ (evaluate_function(f, xs) * ws))
        if prev is not None and abs(val - prev) <= abs_tol:
            return val
        prev = val
        width /= 2.0
    raise QuadratureError(
        f"transform quadrature did not converge at frequency {omega:g}")


def sample_function(f: FunctionSpec, s: SampleSet, abs_tol: float = 1e-12) -> FourierData:
    """Transform samples of ``f`` on a sample set, with midpoint weights attached."""
    values = transform_integrals(f, s.points, abs_tol=abs_tol)
    return FourierData(samples=s, values=values, weights=sampling.weights(s))


def project(f: FunctionSpec, basis: OrthoBasis, abs_tol: float = 1e-12) -> np.ndarray:
    """Coefficients of the orthogonal projection of ``f`` onto the space."""
    if basis.orders is not None:
        # projection coefficients are transform values at the integer orders
        return transform_integrals(f, basis.orders.astype(float), abs_tol=abs_tol)
    cuts = sorted(set(f.jumps) | set(basis.breaks[1:-1]))
    nodes = max(24, basis.local_dim + 8)
    coeffs = None
    width = 0.25
    for _ in range(8):
        edges = panel_edges(0.0, 1.0, cuts, width)
        xs, ws = panel_nodes(edges, nodes)
        vals = evaluate_function(f, xs) * ws
        new = spaces.evaluate(basis, xs) @ vals
        if coeffs is not None and np.max(np.abs(new - coeffs)) <= abs_tol:
            return new
        coeffs = new
        width /= 2.0
    raise QuadratureError("projection quadrature did not converge")


def l2_error(f: FunctionSpec, coefficients, basis: OrthoBasis,
             tol: float = 1e-10) -> float:
    """L2 distance on (0, 1) between ``f`` and a coefficient vector.

    Panels honor both the function's jumps and the basis cells; refinement
    stops when the returned norm is stable to ``tol``.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    cuts = sorted(set(f.jumps) | set(basis.breaks[1:-1]))
    nodes = max(24, basis.local_dim + 8)

    def integrand(xs):
        g = coeffs @ spaces.evaluate(basis, xs)
        return np.abs(evaluate_function(f, xs) - g) ** 2

    width = 0.125
    prev = None
    for _ in range(8):
        edges = panel_edges(0.0, 1.0, cuts, width)
        xs, ws = panel_nodes(edges, nodes)
        val = math.sqrt(max(float(ws @ integrand(xs)), 0.0))
        if prev is not None and abs(val - prev) <= tol * max(1.0, val):
            return val
        prev = val
        width /= 2.0
    raise QuadratureError("error-norm quadrature did not converge")


def function_norm(f: FunctionSpec, tol: float = 1e-10) -> float:
    """L2 norm of a function spec on (0, 1)."""
    space = SpaceSpec.piecewise_const(1)
    return l2_error(f, np.zeros(1), cached_basis(space), tol=tol)


# ---------------------------------------------------------------------------
# CSV exchange


def save_data_csv(path, data: FourierData) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("omega,re,im,weight\n")
        for w, v, mu in zip(data.samples.points, data.values, data.weights):
            fh.write(f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r},{float(mu)!r}\n")


def load_data_csv(path, bandwidth: float | None = None) -> tuple[FourierData, bool]:
    """Read ``omega,re,im[,weight]`` rows.

    Returns the data and a flag telling whether weights came from the file;
    when the column is absent they are computed from the points.
    """
    omegas, vals, wts = [], [], []
    with open(path, encoding="utf-8") as fh:
        header = [c.strip() for c in fh.readline().strip().split(",")]
        if header[:3] != ["omega", "re", "im"]:
            raise ValueError(f"{path}: expected header omega,re,im[,weight]")
        has_w = len(header) > 3 and header[3] == "weight"
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != (4 if has_w else 3):
                raise ValueError(f"{path}:{lineno}: expected "
                                 f"{4 if has_w else 3} fields, got {len(parts)}")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed number") from None
            omegas.append(row[0])
            vals.append(complex(row[1], row[2]))
            if has_w:
                wts.append(row[3])
    order = np.argsort(omegas)
    pts = np.asarray(omegas)[order]
    if bandwidth is None:
        bandwidth = float(np.max(np.abs(pts)))
    s = SampleSet(points=pts, bandwidth=bandwidth)
    values = np.asarray(vals)[order]
    weights = np.asarray(wts)[order] if has_w else sampling.weights(s)
    return FourierData(samples=s, values=values, weights=weights), has_w
