"""Fourier transforms of basis and test functions at arbitrary frequencies.

The transform convention is ``F(w) = int_0^1 f(x) exp(-2 pi i w x) dx``.
Test functions are expression trees over one table of numpy ufuncs, or
space members.  Samples of F read from a CSV file or given to the estimator
are sorted and weighted by one constructor, ``FourierData.from_samples``.

For the polynomial kinds every basis function is a per-cell Legendre
polynomial, whose transform has the closed form

    int_a^b phi_n(x) exp(-2 pi i w x) dx
        = sqrt((2n+1) h) * exp(-pi i w (a+b)) * (-i)^n * j_n(pi w h)

with h = b - a and j_n the spherical Bessel function (odd/even in w, so
negative frequencies follow by parity).  All orders j_0..j_{p-1} come from
one vectorized pass (``spherical_jn_orders``): the power series below
z = 3, 16 terms by Horner's rule on a table of their coefficients, built
once per p; closed-form j_0, j_1 and the upward recurrence
j_{n+1} = (2n+1)/z j_n - j_{n-1} where z >= p - 1, in which range it is
stable; and Miller's downward recurrence, normalized by
sum_n (2n+1) j_n^2 = 1, only for 3 <= z < p - 1.  That range is empty for
p <= 4, so cells of degree at most 3, and with them every spline probe,
never run Miller's loop of about p + 16 + sqrt(40 p) steps.  Basis
transforms of the cell kinds (piecewise polynomials, splines, piecewise
constants) then contract the per-cell table with the basis coefficients in
one matrix product, the table built 2^16 entries (and at least 512
frequencies) at a time.

A fitted member is one polynomial of degree < p on each cell, so it is
folded into per-cell Legendre coefficients, (cells, p), before it is
evaluated: ``member_transform`` contracts the cell table with that one
vector instead of the dim columns of the design, and coefficient functions
and ``l2_error`` read member values through ``spaces.member_values``,
without a dim x nodes table of basis values.

The exponentials and the global polynomials are instead a phase times a
real table times units, A = diag(e^{-i pi w}) B D (``_real_table``, the
one place that tells the kinds apart), which ``basis_transform``,
``member_transform``, the stability probes (``experiments``) and the solve
(``solver``) all read.  An exponential of integer order j has the
transform e^{-i pi (w-j)} sinc(w-j) = e^{-i pi w} B_wj, where B_wj =
sin(pi w) / (pi (w-j)), (-1)^j at w = j, and D = I (``_trig_factors``).
With k = rint(w) and r = w - k exact, e^{-i pi w} = (-1)^k e^{-i pi r} and
sin(pi w) = (-1)^k sin(pi r): no argument exceeds pi/2, pi w is never
rounded, and a design or member costs one sine and one exponential per
frequency.  The Legendre degree n on [0, 1] has B_wn = sqrt(2n+1) j_n(pi w)
and D_nn = (-i)^n (``_legendre_factors``), the real table of
``_real_order_factors`` at the width 1 (j_n at |w| with the parity of n);
its phase is computed as ``cell_transforms`` computes that of the cell
[0, 1], so the design is bitwise the one-cell table.

A cell's factor sqrt(2n+1) (-i)^n j_n(pi w h) depends on the cell only
through its width h, so ``cell_transforms`` computes one Bessel table per
distinct width and gathers it back to the cells; every step is
elementwise, so the result is bitwise that of a per-cell table.  It pays
in proportion to the cells that share a width: ``np.linspace`` partitions
have a handful of distinct widths (they differ in the last bit), not one
per cell, and piecewise constants on up to 64 cells skip most of their
table; on partitions whose cells all differ the sort and gather are pure
overhead.

``bspline_weighted_gram`` gives the spline stability probe the weighted
Gram of the raw clamped B-splines on l uniform cells without their
N x (l+d) transform matrix, and real: the B-splines are mirror images, so
the Gram is real in the basis of their sums and differences
(``spaces._mirror_fold``).  The interior B-splines are translates of one
cardinal B-spline with a closed-form transform, so their block is Toeplitz,
and its mirror Hankel, in l-d lag sums.  At most the first d B-splines get
transform columns, laid out once per (d, min(l, 2d+1)) (``_bspline_border``),
so a probe pays only for its sums over the samples.

``uniform_cell_lags`` gives the concentration matrices of piecewise
constants and splines (``analysis.concentration_matrix``) the same kind of
structure: on L uniform cells the product conj(T_{j,n}) T_{k,m} of two cell
transforms is h conj(f_n) f_m e^{-2 pi i w (k-j) h}, so the weighted Gram
of all the cell transforms is block Toeplitz, and its p^2 lag sequences of
length L are ``_lag_sums`` of one order-factor table at the width 1/L.
The frequencies may be split into parts, the band segments of a residual
curve, whose sums are kept apart from one table of each kind.

The lag sums of both callers and the transform quadrature sum over an
arithmetic progression of phases e^{-2 pi i w t step}, t < count, and take
them from one helper, ``_phase_tables``: with s = ceil(sqrt(count)) and
t = q s + r the phase is a coarse (q) times a fine (r) factor, so a
frequency costs about 2 sqrt(count) complex exponentials, and no table has
a column per t.

Quadrature is used only for user-supplied functions and as a cross-check
oracle in the tests.  Its panels have equal width h within each jump-free
segment, so the exponential at node lo + j h + c_k is that of the node
offset lo + c_k times the panel phase e^{-2 pi i w j h}, which
``_phase_tables`` splits (``_batched_oscillatory``): on m panels a
frequency costs 16 + 2 sqrt(m) exponentials.  The transform, projection
and L2-error quadratures are certified by ``quadrature.refine``; the
transform grid is shared by all frequencies and halved as a whole until
every frequency agrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sampling, spaces
from .quadrature import gauss_rule, panel_edges, panel_nodes, panel_segments, refine
from .sampling import SampleSet
from .spaces import OrthoBasis, SpaceSpec
from .validation import (as_complex_array, as_float_array, as_weight_array,
                         check_positive_finite, check_same_length, complex_pairs, csv_rows,
                         is_real_number, json_field, write_csv)

_TWO_PI = 2.0 * np.pi
# Gauss nodes per panel of the transform quadrature
_TRANSFORM_NODES = 16
# agreement of two panel widths at which a transform or projection is kept
_TRANSFORM_TOL = 1e-12
# relative agreement of two panel widths at which an L2 error is kept
_L2_TOL = 1e-10
# entries of the (coarse panel rows x nodes, frequencies) table that the
# transform quadrature builds for one chunk of frequencies
_CHUNK_ENTRIES = 1_000_000
# entries of the (frequencies, cells x orders) cell table that
# ``_contract_cells`` builds at once: a narrow table pays the Bessel set-up
# once per chunk, so it takes many frequencies per chunk
_CELL_ENTRIES = 1 << 16
# spherical Bessel power series: used below this argument, with this many terms
_SERIES_BELOW = 3.0
_SERIES_TERMS = 16


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class FunctionSpec:
    """A square-integrable function on (0, 1).

    Either a closure-free expression tree or a member of a reconstruction
    space given by its coefficients.  A tree's leaves are ``x`` and ``const``
    literals; ``pow`` raises a subtree to an integer, and the other ops (neg,
    sin, cos, exp, add, sub, mul) are numpy ufuncs, one table (``_UFUNCS``)
    giving each its function and arity.  ``jumps`` lists interior
    discontinuity locations so that quadrature panels never straddle one.
    ``from_expr`` (and so ``from_json``) checks every op, its arity, the
    finite ``const`` literals and the integer ``pow`` exponents, and that
    the jumps are finite.
    """

    kind: str                                   # "expr" | "coeffs"
    expr: tuple = ()
    space: SpaceSpec | None = None
    coefficients: tuple = ()
    jumps: tuple[float, ...] = ()

    @classmethod
    def from_expr(cls, expr, jumps=()) -> "FunctionSpec":
        values = np.atleast_1d(jumps)
        if not all(is_real_number(t) and math.isfinite(t) for t in values):
            raise ValueError(f"jumps must be finite numbers, got {jumps!r}")
        return cls(kind="expr", expr=_as_tuple_tree(expr),
                   jumps=tuple(float(t) for t in values))

    @classmethod
    def from_coefficients(cls, space: SpaceSpec, coefficients) -> "FunctionSpec":
        coeffs = tuple(spaces.check_member(spaces.dimension(space), coefficients).tolist())
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
            return json.dumps({"kind": "expr", "expr": self.expr,
                               "jumps": list(self.jumps)})
        return json.dumps({"kind": "coeffs", "space": json.loads(self.space.to_json()),
                           "coefficients": [[c.real, c.imag] for c in self.coefficients]})

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        d = json.loads(text)
        kind = json_field(d, "kind")
        if kind == "expr":
            return cls.from_expr(json_field(d, "expr"), d.get("jumps", ()))
        if kind != "coeffs":
            raise ValueError(f"function: unknown kind {kind!r}, expected 'expr' or 'coeffs'")
        space = SpaceSpec.from_json(json.dumps(json_field(d, "space")))
        return cls.from_coefficients(
            space, complex_pairs(json_field(d, "coefficients"), "coefficients"))


# the ops over subexpressions; each takes its ufunc's nin of them
_UFUNCS = {"neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp,
           "add": np.add, "sub": np.subtract, "mul": np.multiply}
# number of arguments of each op; pow's second is its integer exponent
_ARITY = {"x": 0, "const": 1, "pow": 2, **{op: f.nin for op, f in _UFUNCS.items()}}


def _as_tuple_tree(node):
    """An expression as nested tuples, checked node by node: a known op with
    its arity, a finite number for ``const`` and an integer (2 or 2.0) for
    the exponent of ``pow``; a ``ValueError`` names ``expr``."""
    if not isinstance(node, (list, tuple)) or not node:
        raise ValueError(f"expr: malformed expression node {node!r}")
    op, args = node[0], tuple(node[1:])
    if not isinstance(op, str) or op not in _ARITY:
        raise ValueError(f"expr: unknown op {op!r}")
    if len(args) != _ARITY[op]:
        raise ValueError(f"expr: {op!r} takes {_ARITY[op]} argument(s), got {len(args)}")
    if op == "const":
        if not (is_real_number(args[0]) and math.isfinite(args[0])):
            raise ValueError(f"expr: const must be a finite number, got {args[0]!r}")
        return (op, args[0])
    if op == "pow":
        # the bound keeps int(exponent) a numpy int64 when it is evaluated
        if not (is_real_number(args[1]) and abs(args[1]) <= 2**53
                and float(args[1]).is_integer()):
            raise ValueError(f"expr: the pow exponent must be an integer of magnitude "
                             f"at most 2**53, got {args[1]!r}")
        return (op, _as_tuple_tree(args[0]), args[1])
    return (op, *(_as_tuple_tree(a) for a in args))


def _eval_expr(node, x):
    """Values of a tree that ``_as_tuple_tree`` has checked."""
    op = node[0]
    if op == "x":
        return x
    if op == "const":
        return np.full_like(x, float(node[1]))
    if op == "pow":
        return _eval_expr(node[1], x) ** int(node[2])
    return _UFUNCS[op](*(_eval_expr(a, x) for a in node[1:]))


@lru_cache(maxsize=128)
def cached_basis(space: SpaceSpec) -> OrthoBasis:
    return spaces.build_basis(space)


def evaluate_function(f: FunctionSpec, x) -> np.ndarray:
    """Pointwise values of a function spec (complex for coefficient members)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if f.kind == "expr":
        return _eval_expr(f.expr, xs)
    return spaces.member_values(cached_basis(f.space), f.coefficients, xs)


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
    small = flat < _SERIES_BELOW
    upward = ~small & (flat >= p - 1)
    miller = ~(small | upward)
    for sel, method in ((small, _jn_series), (upward, _jn_upward), (miller, _jn_miller)):
        if sel.any():
            out[:, sel] = method(flat[sel], p)
    return out.reshape((p,) + z.shape)


@lru_cache(maxsize=None)
def _series_table(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The power-series coefficients c_nk of ``_jn_series``, (p, 16), and the
    odd numbers 2n+1 for 1 <= n < p, (p-1, 1)."""
    n = np.arange(p)[:, None]
    k = np.arange(1, _SERIES_TERMS)
    coef = np.ones((p, _SERIES_TERMS))
    coef[:, 1:] = np.cumprod(1.0 / (k * (2 * n + 2 * k + 1)), axis=1)
    odd = (2 * n[1:] + 1).astype(float)
    coef.setflags(write=False)
    odd.setflags(write=False)
    return coef, odd


def _jn_series(z: np.ndarray, p: int) -> np.ndarray:
    # j_n(z) = z^n / (2n+1)!! * sum_k c_nk y^k with y = -z^2/2 and
    # c_nk = 1 / (k! (2n+3)(2n+5)..(2n+2k+1)); for z < 3 the terms past
    # k = 15 are below 1e-21.  All orders at once: the leading factors
    # z^n / (2n+1)!! as a running product over n, and the sums by Horner's
    # rule in y on the (p, 16) table c.  Every step is elementwise in z; a
    # BLAS product of c with the powers of y is not, because its kernel
    # depends on the array's size, so a value's last bits would depend on
    # the other arguments of the call.
    coef, odd = _series_table(p)
    y = -0.5 * z * z
    acc = np.repeat(coef[:, -1:], z.size, axis=1)
    for c in coef[:, -2::-1].T:
        acc *= y
        acc += c[:, None]
    steps = np.ones((p, z.size))
    steps[1:] = z / odd
    return np.cumprod(steps, axis=0) * acc


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
    # of the closed-form j_0, j_1 (their zeros interlace).  |f_{n-1}| <=
    # ((2n+1) max(1/z) + 1) max(|f_n|, |f_{n+1}|), so the product of these
    # factors bounds every value; the elementwise check runs only once that
    # bound passes 1e99 (a decade of slack for its rounding), and each check
    # restarts the bound from the largest value left.
    top = p + 16 + int(math.sqrt(40 * p))
    out = np.zeros((p, z.size))
    nxt = np.zeros_like(z)
    cur = np.full_like(z, 1e-30)
    total = np.zeros_like(z)
    inv = 1.0 / z
    inv_max = float(inv.max())
    bound = 1e-30
    for n in range(top, 0, -1):
        scaled = (2 * n + 1) * cur
        total += scaled * cur
        if n < p:
            out[n] = cur
        prev = scaled * inv
        prev -= nxt
        bound *= (2 * n + 1) * inv_max + 1.0
        if bound > 1e99:
            big = np.abs(prev) > 1e100
            if big.any():
                _rescale(big, prev, cur, total, out)
            bound = max(float(np.abs(prev).max()), float(np.abs(cur).max()))
        nxt, cur = cur, prev
    total += cur * cur
    out[0] = cur
    j0, j1 = _jn_closed01(z)
    ref = np.where(np.abs(j0) >= np.abs(j1), j0 * out[0], j1 * out[1])
    return out * np.copysign(1.0 / np.sqrt(total), ref)


def _rescale(big: np.ndarray, prev: np.ndarray, cur: np.ndarray, total: np.ndarray,
             out: np.ndarray) -> None:
    """Miller's values at the points ``big`` times 1e-100 in place, their
    running sum of (2n+1) f_n^2 times 1e-200."""
    prev[big] *= 1e-100
    cur[big] *= 1e-100
    total[big] *= 1e-200
    out[:, big] *= 1e-100


def _real_order_factors(w: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """sqrt(2n+1) j_n(pi w h) for n < p, (n_w, n_h, p), for cell widths h of
    shape (n_h,): the table of |w|, with (-1)^n for w < 0 (j_n has the
    parity of n)."""
    jn = spherical_jn_orders(np.pi * np.abs(w)[:, None] * h[None, :], p)
    root = np.sqrt(2 * np.arange(p) + 1)
    parity = np.where((w < 0)[:, None], root * (-1.0) ** np.arange(p), root)
    return jn.transpose(1, 2, 0) * parity[:, None, :]


def _trig_factors(w: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{-i pi (w-j)} sinc(w-j) for consecutive integer orders j as the phase
    e^{-i pi w}, (n_w,), and the real table B of the module docstring, (n_w, n_j)."""
    k = np.rint(w)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    with np.errstate(invalid="ignore"):  # 0/0 where w = j, set below
        b = (sign * np.sin(np.pi * (w - k)) / np.pi)[:, None] / (w[:, None] - orders)
    on = np.flatnonzero((w == k) & (k >= orders[0]) & (k <= orders[-1]))
    b[on, (k[on] - orders[0]).astype(int)] = sign[on]
    return sign * np.exp(-1j * np.pi * (w - k)), b


def _legendre_factors(w: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The transforms of the Legendre degrees n < p on the one cell [0, 1]
    as the phase e^{-i pi w}, (n_w,), times the real table
    sqrt(2n+1) j_n(pi w) of ``_real_order_factors``, (n_w, p), times (-i)^n.
    The phase is that of ``cell_transforms`` on [0, 1], so the product is
    bitwise its table (up to the sign of zeros)."""
    return np.exp(-1j * np.pi * w), _real_order_factors(w, np.ones(1), p)[:, 0, :]


def _turns(p: int) -> np.ndarray:
    """(-i)^n for n < p."""
    return np.array([1, -1j, -1, 1j])[np.arange(p) % 4]


def _order_factors(w: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """sqrt(2n+1) (-i)^n j_n(pi w h) for n < p, (n_w, n_h, p): the real
    table of ``_real_order_factors`` times (-i)^n."""
    return _real_order_factors(w, h, p) * _turns(p)


def cell_transforms(breaks: np.ndarray, p: int, omegas: np.ndarray) -> np.ndarray:
    """Transforms of every normalized cell-Legendre function, (n_w, n_cell, p)."""
    w = np.asarray(omegas, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    h = b - a
    widths, cell_width = np.unique(h, return_inverse=True)
    phase = np.exp(-1j * np.pi * w[:, None] * (a + b)[None, :]) * np.sqrt(h)[None, :]
    return phase[:, :, None] * _order_factors(w, widths, p)[:, cell_width, :]


def uniform_cell_lags(cells: int, p: int, omegas, weights, parts) -> list[np.ndarray]:
    """Weighted products of the cell transforms on ``cells`` uniform cells,
    by lag, one (p, p, cells) array for each slice of the frequencies in
    ``parts``: entry [n, m, t] is
    sum_v weights_v conj(T_{j,n}(w_v)) T_{j+t,m}(w_v) over the slice, the
    same for every j.

    With h = 1/cells, T_{j,n}(w) = sqrt(h) e^{-pi i w (2j+1) h} f_n(w), where
    f_n(w) = sqrt(2n+1) (-i)^n j_n(pi w h) does not depend on j, so the
    product is h conj(f_n) f_m e^{-2 pi i w t h}: one order-factor table at
    the width h and p^2 lag sequences from one ``_lag_sums``.
    """
    w = np.asarray(omegas, dtype=float)
    h = 1.0 / cells
    f = _order_factors(w, np.array([h]), p)[:, 0, :]
    v = (f.conj() * (h * np.asarray(weights, dtype=float))[:, None])[:, :, None] * f[:, None, :]
    return [s.reshape(p, p, cells)
            for s in _lag_sums(v.reshape(w.size, p * p), w, h, cells, parts)]


def bspline_weighted_gram(d: int, l: int, omegas, weights) -> np.ndarray:
    """Weighted Gram A^H diag(weights) A of the transforms A of the n = l+d
    raw clamped B-splines of degree d on l uniform cells, folded by
    ``spaces._mirror_fold`` into a real symmetric (n, n) array.

    The centred transforms C_i = e^{i pi w} A_i satisfy C_{n-1-i} =
    conj(C_i).  The interior B-splines d..l-1 have centred transforms
    N^(w) e^{-2 pi i w (i-d) h}, h = 1/l, N^(w) = h e^{-pi i w ((d+1) h - 1)}
    sinc(w h)^{d+1}, so entry (i, k) of their block is c_{i-k} = sum_n mu_n
    |N^(w_n)|^2 e^{2 pi i w_n (i-k) h}, and entry (i, n-1-k) is c_{i+k-n+1}.
    One ``_lag_sums`` gives the lags and their products with the first
    min(d, ceil(n/2)) B-splines, the only ones with transform columns.
    """
    w = np.asarray(omegas, dtype=float)
    mu = np.asarray(weights, dtype=float)
    n, p, h, l0 = l + d, d + 1, 1.0 / l, min(l, 2 * d + 1)
    c = n - n // 2  # the top rows, through the middle one
    coeffs = _bspline_border(d, l0)
    cells, b = np.arange(coeffs.shape[0] // p), coeffs.shape[1]
    f = _order_factors(w, np.array([h]), p)[:, 0, :] * math.sqrt(h)
    phase = np.exp(-1j * np.pi * w[:, None] * ((2 * cells + 1) * h - 1))
    a = ((phase[:, :, None] * f[:, None, :]).reshape(w.size, cells.size * p)
         @ (math.sqrt(l0 / l) * coeffs))
    weighted = a.conj() * mu[:, None]
    top = np.empty((c, n), dtype=complex)
    top[:b, :b] = weighted.T @ a
    top[:b, n - b:] = (weighted.T @ a.conj())[:, ::-1]
    if l > d:
        nhat = h * np.exp(-1j * np.pi * w * ((d + 1) * h - 1)) * np.sinc(w * h) ** (d + 1)
        lagged = _lag_sums(np.column_stack((mu * np.abs(nhat) ** 2, weighted * nhat[:, None])),
                           w, h, l - d, [slice(None)])[0]
        # interior rows of the Toeplitz block, entry (i, k) = run[m-1-i+k] of
        # run = [c_{m-1} .. c_0 .. c_{1-m}]; the lag sums are c_{-t} = conj(c_t)
        m, lag, cross = l - d, lagged[0], lagged[1:]
        run = np.concatenate((lag[::-1].conj(), lag[1:]))
        top[d:, d:l] = np.lib.stride_tricks.sliding_window_view(run, m)[::-1][:c - d]
        top[:d, d:l] = cross
        top[d:, :d] = cross[:, :c - d].conj().T
        # entry (i, n-1-k) of an interior row is entry (k, n-1-i) of a border one
        top[d:, l:] = cross[::-1, l - c:m][:, ::-1].T
    return spaces._mirror_fold(top)


@lru_cache(maxsize=64)
def _bspline_border(d: int, l0: int) -> np.ndarray:
    """The coefficients, (cells x orders, b), of the first b = min(d,
    ceil((l0+d)/2)) B-splines on the first cells of l0 = min(l, 2d+1), which
    they touch (``spaces._bspline_table``); at l > l0 the cells keep their
    indices and the coefficients scale by sqrt(l0/l)."""
    p, b = d + 1, min(d, (l0 + d + 1) // 2)
    cells = np.arange(min(b, l0))
    # coeffs[c, n, i]: order-n coefficient of B-spline i on cell c, which
    # touches B-splines c + r, r <= d ([cell, order, r])
    coeffs = np.zeros((cells.size, p, l0 + d))
    coeffs[cells[:, None], :, cells[:, None] + np.arange(p)] = (
        spaces._bspline_table(d, l0)[cells].transpose(0, 2, 1))
    coeffs = coeffs[:, :, :b].reshape(cells.size * p, b)
    coeffs.setflags(write=False)
    return coeffs


def _lag_sums(v: np.ndarray, w: np.ndarray, step: float, count: int,
              parts: list[slice]) -> list[np.ndarray]:
    """sum_n v[n, b] e^{-2 pi i w_n t step} for t < count, (v.shape[1], count),
    one sum over each slice of n in ``parts``: v is scaled by the coarse
    table of ``_phase_tables`` and one product per slice with the fine
    table sums over its n."""
    coarse, fine = _phase_tables(w, step, count)
    scaled = (v[:, :, None] * coarse.T[:, None, :]).reshape(w.size, -1)
    return [(scaled[r].T @ fine.T[r]).reshape(v.shape[1], -1)[:, :count] for r in parts]


def _phase_tables(w: np.ndarray, step: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The phases e^{-2 pi i w t step}, t < count, as coarse times fine
    factors: with s = ceil(sqrt(count)) and t = q s + r, the tables of
    e^{-2 pi i w q s step}, (ceil(count/s), n_w), and of e^{-2 pi i w r step},
    (s, n_w)."""
    s = math.isqrt(count - 1) + 1
    fine = np.exp(-_TWO_PI * 1j * step * w * np.arange(s)[:, None])
    coarse = np.exp(-_TWO_PI * 1j * (s * step) * w * np.arange(-(-count // s))[:, None])
    return coarse, fine


def _real_table(basis: OrthoBasis, w: np.ndarray):
    """The design of trig and Legendre at the frequencies w as
    diag(phase) B diag(turn): the phase e^{-i pi w}, (n_w,), the real table
    B, (n_w, dim), and the units turn, 1 for trig and (-i)^n for Legendre;
    None for the cell kinds, whose design is complex.  The one place that
    tells these kinds apart."""
    if basis.orders is not None:
        return *_trig_factors(w, basis.orders), 1.0
    if basis.space.kind == "legendre":
        return *_legendre_factors(w, basis.dim), _turns(basis.dim)
    return None


def basis_transform(basis: OrthoBasis, omega) -> np.ndarray:
    """Transforms of all basis functions; shape (dim,) or (n_w, dim)."""
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    table = _real_table(basis, w)
    if table is None:
        out = _contract_cells(basis, w, basis.coeffs.reshape(basis.dim, -1).T)
    else:
        phase, b, turn = table
        out = phase[:, None] * b * turn
    return out[0] if scalar else out


def member_transform(basis: OrthoBasis, coefficients, omega) -> np.ndarray:
    """Transform of the member with the given coefficients, (n_w,).

    A cell-kind member is folded into per-cell Legendre coefficients first,
    so the cell transforms are contracted with one vector instead of the
    dim columns of the design.  Trig and Legendre scale the real product
    B (turn c) by the phase.
    """
    coeffs = spaces.check_member(basis.dim, coefficients)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    table = _real_table(basis, w)
    if table is None:
        return _contract_cells(basis, w, np.tensordot(coeffs, basis.coeffs, (0, 0)).ravel())
    phase, b, turn = table
    c = turn * coeffs
    return phase * (b @ np.column_stack((c.real, c.imag))).view(complex)[:, 0]


def _contract_cells(basis: OrthoBasis, w: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (n_w, n_cell*p) table of cell transforms times ``right``, which
    is indexed by (cell, order) on its first axis; the table is built
    ``_CELL_ENTRIES`` entries, and never fewer than 512 frequencies, at a
    time."""
    rows = max(512, _CELL_ENTRIES // basis.coeffs[0].size)
    out = np.empty((w.size,) + right.shape[1:], dtype=complex)
    for lo in range(0, w.size, rows):
        chunk = slice(lo, min(lo + rows, w.size))
        t = cell_transforms(basis.breaks, basis.local_dim, w[chunk])
        out[chunk] = t.reshape(t.shape[0], -1) @ right
    return out


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

    @classmethod
    def from_samples(cls, omegas, values, weights=None, bandwidth=None, *,
                     names: tuple[str, str, str] = ("omegas", "values", "weights"),
                     bandwidth_name: str = "bandwidth") -> "FourierData":
        """1-D samples in any order; midpoint weights by default.  Errors call
        the frequencies, values and weights by ``names`` and the bandwidth by
        ``bandwidth_name``; each array is checked (1-D, finite, weights
        non-negative) before anything else."""
        name, values_name, weights_name = names
        omegas = as_float_array(omegas, name)
        values = as_complex_array(values, values_name)
        if weights is not None:
            weights = as_weight_array(weights, weights_name)
        check_same_length(omegas, values, name, values_name)
        order = np.argsort(omegas)
        pts = omegas[order]
        repeated, wmax = pts[1:][np.diff(pts) == 0], float(max(-pts[0], pts[-1]))
        if repeated.size:
            raise ValueError(f"{name} repeats the frequency {float(repeated[0])!r}")
        if bandwidth is not None and wmax > check_positive_finite(bandwidth, bandwidth_name):
            raise ValueError(f"{name} exceeds {bandwidth_name} {float(bandwidth)!r}: "
                             f"|w| = {wmax!r}")
        s = SampleSet(points=pts, bandwidth=bandwidth)
        if weights is None:
            return cls(s, values[order], sampling.weights(s))
        check_same_length(omegas, weights, name, weights_name)
        return cls(s, values[order], weights[order])


def transform_integrals(f: FunctionSpec, omegas) -> np.ndarray:
    """Quadrature values of F(w) on an arbitrary frequency list.

    One composite panel grid (split at jumps, panel width at most
    1/(4 max|w| + 1)) is shared by all frequencies, so the function is
    evaluated once per width; the grid is halved until every frequency
    agrees with the previous width to 1e-12.  ``omegas`` is a
    scalar or a 1-D list of finite frequencies, possibly empty.
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if w.ndim != 1:
        raise ValueError(f"omegas must be a scalar or 1-dimensional, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("omegas contains non-finite values")
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    return refine(lambda width: _batched_oscillatory(f, w, width),
                  1.0 / (4.0 * wmax + 1.0),
                  lambda new, old: np.all(np.abs(new - old) <= _TRANSFORM_TOL), "transform")


def _batched_oscillatory(f: FunctionSpec, w: np.ndarray, width: float) -> np.ndarray:
    # On a segment of m panels of width h starting at lo, node k of panel
    # j = q s + r sits at lo + j h + c_k with c_k = h (1 + x_k) / 2, so with
    # the tables of ``_phase_tables(w, h, m)`` and g[j, k] the weighted values,
    # F(w) = sum_k e^{-2 pi i w (lo + c_k)} sum_q coarse[q] sum_r fine[r] g[q s + r, k].
    # g, zero-padded to whole rows of s panels and regrouped as (q, k) x r,
    # meets the fine table in one matrix product; the sums over q and k are
    # elementwise.  A real g takes a real product with the fine table's
    # (re, im) pairs.
    x, wq = gauss_rule(_TRANSFORM_NODES)
    out = np.zeros(w.size, dtype=complex)
    for lo, hi, m in panel_segments(0.0, 1.0, f.jumps, width):
        h = (hi - lo) / m
        s = math.isqrt(m - 1) + 1
        rows = -(-m // s)
        offsets = h / 2.0 * (1.0 + x)
        values = evaluate_function(f, (lo + h * np.arange(m)[:, None] + offsets).ravel())
        g = np.zeros((rows * s, _TRANSFORM_NODES), dtype=values.dtype)
        g[:m] = values.reshape(m, _TRANSFORM_NODES) * (h / 2.0 * wq)
        g = g.reshape(rows, s, _TRANSFORM_NODES).transpose(0, 2, 1).reshape(-1, s)
        chunk = max(1, int(_CHUNK_ENTRIES // g.shape[0]))
        for c in range(0, w.size, chunk):
            wc = w[c:c + chunk]
            coarse, fine = _phase_tables(wc, h, m)
            per = g @ fine if np.iscomplexobj(g) else (g @ fine.view(float)).view(complex)
            per = per.reshape(rows, _TRANSFORM_NODES, wc.size)
            per *= coarse[:, None, :]
            node = np.exp(-_TWO_PI * 1j * (lo + offsets)[:, None] * wc)
            node *= per.sum(axis=0)
            out[c:c + chunk] += node.sum(axis=0)
    return out


def sample_function(f: FunctionSpec, s: SampleSet) -> FourierData:
    """Transform samples of ``f`` on a sample set, with midpoint weights attached."""
    values = transform_integrals(f, s.points)
    return FourierData(samples=s, values=values, weights=sampling.weights(s))


def project(f: FunctionSpec, basis: OrthoBasis) -> np.ndarray:
    """Coefficients of the orthogonal projection of ``f`` onto the space."""
    if basis.orders is not None:
        # projection coefficients are transform values at the integer orders
        return transform_integrals(f, basis.orders.astype(float))

    def estimate(width):
        xs, ws = _panel_rule(f, basis, width)
        return spaces.evaluate(basis, xs) @ (evaluate_function(f, xs) * ws)

    return refine(estimate, 0.25,
                  lambda new, old: np.max(np.abs(new - old)) <= _TRANSFORM_TOL, "projection")


def l2_error(f: FunctionSpec, coefficients, basis: OrthoBasis) -> float:
    """L2 distance on (0, 1) between ``f`` and a coefficient vector.

    Panels honor both the function's jumps and the basis cells; refinement
    stops when the returned norm is stable to 1e-10 (relative above 1).
    """

    def estimate(width):
        xs, ws = _panel_rule(f, basis, width)
        g = spaces.member_values(basis, coefficients, xs)
        return math.sqrt(max(float(ws @ np.abs(evaluate_function(f, xs) - g) ** 2), 0.0))

    return refine(estimate, 0.125,
                  lambda new, old: abs(new - old) <= _L2_TOL * max(1.0, new), "L2 error")


def _panel_rule(f: FunctionSpec, basis: OrthoBasis, width: float):
    """Composite rule on (0, 1) split at the function's jumps and the basis
    cells, exact for products of basis members."""
    cuts = sorted(set(f.jumps) | set(basis.breaks[1:-1]))
    return panel_nodes(panel_edges(0.0, 1.0, cuts, width), max(24, basis.local_dim + 8))


# ---------------------------------------------------------------------------
# CSV exchange


def save_data_csv(path, data: FourierData) -> None:
    write_csv(path, ("omega", "re", "im", "weight"),
              np.column_stack((data.samples.points, data.values.real, data.values.imag,
                               data.weights)).ravel().tolist())


def load_data_csv(path, bandwidth: float | None = None, *,
                  bandwidth_name: str = "bandwidth") -> tuple[FourierData, bool]:
    """Read ``omega,re,im[,weight]`` rows, against a bandwidth called
    ``bandwidth_name`` in errors.

    Returns the data and a flag telling whether weights came from the file;
    when the column is absent they are computed from the points.
    """
    def fields(header):
        names = [c.strip() for c in header.split(",")]
        if names[:3] != ["omega", "re", "im"]:
            raise ValueError(f"{path}: expected header omega,re,im[,weight]")
        return 4 if names[3:4] == ["weight"] else 3

    table = csv_rows(path, fields)
    # a view of the (re, im) pairs keeps signed zeros, which re + 1j*im drops
    values = np.ascontiguousarray(table[:, 1:3]).view(complex)[:, 0]
    mu = table[:, 3] if table.shape[1] == 4 else None
    names = (f"{path}: omega", f"{path}: re/im", f"{path}: weight")
    return (FourierData.from_samples(table[:, 0], values, mu, bandwidth, names=names,
                                     bandwidth_name=bandwidth_name), mu is not None)
