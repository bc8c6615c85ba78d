"""Scaling experiments: stability-limited dimension versus bandwidth.

For a space family indexed by an integer (exponential order, polynomial
degree, or spline cell count at fixed degree) and a sampling scheme, the
selected dimension parameter is the largest one whose stability ratio
stays below a threshold.  Sweeping the bandwidth produces the scaling
tables and error curves; the ratios reported per family are M/K for
exponentials, M/sqrt(K) for polynomials and M d^2/K for splines.

The stability search evaluates only the lower frame constant, which is
basis-independent, so splines use the raw B-spline Gram in a generalized
eigenproblem instead of orthonormalizing at every probe.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import scipy.linalg

from . import fourier, sampling, solver, spaces, svgplot
from .errors import BandwidthTooSmallError
from .fourier import FunctionSpec
from .sampling import SampleSet, SchemeSpec
from .spaces import SpaceSpec

FAMILIES = ("trig", "legendre", "spline")


@dataclass(frozen=True)
class ScalingRow:
    family: str
    k: float
    n: int
    m: int
    ratio: float
    c_ratio: float


@dataclass(frozen=True)
class ErrorRow:
    family: str
    k: float
    n: int
    m: int
    error: float


def family_space(family: str, m: int, d: int = 0) -> SpaceSpec:
    if family == "trig":
        return SpaceSpec.trig(m)
    if family == "legendre":
        return SpaceSpec.legendre(m)
    if family == "spline":
        return SpaceSpec.spline(d, m)
    raise ValueError(f"unknown family {family!r}")


def _family_dim(family: str, m: int, d: int) -> int:
    if family == "trig":
        return 2 * m + 1
    if family == "legendre":
        return m + 1
    return m + d


def plan_scheme(kind: str, k: float, *, delta_max: float = 0.9,
                oversample: float = 1.2, theta: float = 0.2,
                seed: int = 0) -> SchemeSpec:
    """Sample count coupling for a bandwidth.

    Uniform and jittered schemes use ``N = ceil(2K * oversample / delta_max)``.
    The log scheme's largest gap grows like 2 K log(N) / N, so its count is
    increased until the measured density actually meets ``delta_max``;
    a fixed formula would leave the stability threshold unreachable.
    """
    n = math.ceil(2.0 * k * oversample / delta_max)
    if kind != "log":
        return SchemeSpec(kind=kind, n=n, k=k, theta=theta if kind == "jittered" else 0.0,
                          seed=seed)
    n += n % 2
    spec = SchemeSpec(kind="log", n=n, k=k, seed=seed)
    for _ in range(64):
        if sampling.density(sampling.generate(spec)) <= delta_max:
            return spec
        n = math.ceil(n * 1.3)
        n += n % 2
        spec = replace(spec, n=n)
    raise ValueError(f"could not reach density {delta_max} with a log scheme at K={k}")


class _StabilityEvaluator:
    """Memoized stability ratio c(M) for one family over one sample set."""

    def __init__(self, family: str, s: SampleSet, d: int = 0):
        self.family = family
        self.s = s
        self.d = d
        self.mu = sampling.weights(s)
        self.delta = sampling.density(s)
        self._cache: dict[int, float] = {}
        self._trig_design = None

    @property
    def cap(self) -> int:
        """Largest family index with dimension at most N."""
        n = len(self.s)
        if self.family == "trig":
            return (n - 1) // 2
        if self.family == "legendre":
            return n - 1
        return n - self.d

    def ratio(self, m: int) -> float:
        if m not in self._cache:
            self._cache[m] = solver.frame_constants(self.delta, self._frame_lower(m)).ratio
        return self._cache[m]

    def _frame_lower(self, m: int) -> float:
        if _family_dim(self.family, m, self.d) > len(self.s):
            return 0.0
        if self.family == "trig":
            a = self._trig_columns(m)
        elif self.family == "legendre":
            a = self._legendre_columns(m)
        else:
            return self._spline_lower(m)
        return solver.weighted_lower(a, self.mu)

    def _trig_columns(self, m: int) -> np.ndarray:
        cap = self.cap
        if self._trig_design is None:
            basis = spaces.build_basis(SpaceSpec.trig(cap))
            self._trig_design = fourier.basis_transform(basis, self.s.points)
        return self._trig_design[:, cap - m:cap + m + 1]

    def _legendre_columns(self, m: int) -> np.ndarray:
        # exactly m + 1 orders per probe: Miller's recurrence starts above the
        # highest order, so a shared table would make c(m) depend on the
        # search path in its last bits
        return fourier.cell_transforms(np.array((0.0, 1.0)), m + 1, self.s.points)[:, 0, :]

    def _spline_lower(self, l: int) -> float:
        d = self.d
        raw = spaces._bspline_cell_coeffs(d, l)
        nb = raw.shape[0]
        t = fourier.cell_transforms(np.linspace(0.0, 1.0, l + 1), d + 1, self.s.points)
        a = t.reshape(t.shape[0], -1) @ raw.reshape(nb, -1).T
        m1 = (a.conj() * self.mu[:, None]).T @ a
        gram = raw.reshape(nb, -1) @ raw.reshape(nb, -1).T
        lam = scipy.linalg.eigh(m1, gram.astype(complex), eigvals_only=True,
                                subset_by_index=(0, 0))
        return max(float(lam[0]), 0.0)


def _search_max(ev: _StabilityEvaluator, threshold: float,
                hint: int | None = None) -> int:
    cap = ev.cap
    if cap < 1 or not ev.ratio(1) <= threshold:
        raise BandwidthTooSmallError(
            f"bandwidth too small: no stable dimension for {ev.family} "
            f"(N={len(ev.s)}, K={ev.s.bandwidth:g})")
    lo = 1
    if hint is not None and 1 < hint <= cap and ev.ratio(hint) <= threshold:
        lo = hint
    probe = lo
    while probe < cap:
        probe = min(2 * probe, cap)
        if ev.ratio(probe) <= threshold:
            lo = probe
        else:
            break
    if lo == cap:
        return cap
    hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ev.ratio(mid) <= threshold:
            lo = mid
        else:
            hi = mid
    return lo


def max_stable_dimension(family: str, s: SampleSet, threshold: float = 3.0,
                         *, d: int = 0, hint: int | None = None) -> int:
    """Largest family index whose stability ratio stays at or below the
    threshold; exponential growth then bisection.

    Raises ``BandwidthTooSmallError`` when not even index 1 is stable.
    The returned M is maximal in the sense ratio(M) <= threshold and
    either M is the count cap or ratio(M+1) > threshold.
    """
    return _search_max(_StabilityEvaluator(family, s, d), threshold, hint)


def _scaling_cell(family, kind, d, threshold, delta_max, oversample, theta, seed,
                  k, hint=None):
    spec = plan_scheme(kind, k, delta_max=delta_max, oversample=oversample,
                       theta=theta, seed=seed)
    s = sampling.generate(spec)
    ev = _StabilityEvaluator(family, s, d)
    m = _search_max(ev, threshold, hint)
    if family == "trig":
        ratio = m / k
    elif family == "legendre":
        ratio = m / math.sqrt(k)
    else:
        ratio = m * d * d / k
    return ScalingRow(family=family, k=k, n=len(s), m=m, ratio=ratio,
                      c_ratio=ev.ratio(m))


def _error_cell(f, family, kind, d, threshold, delta_max, oversample, theta, seed,
                k, hint=None):
    spec = plan_scheme(kind, k, delta_max=delta_max, oversample=oversample,
                       theta=theta, seed=seed)
    s = sampling.generate(spec)
    m = max_stable_dimension(family, s, threshold, d=d, hint=hint)
    basis = fourier.cached_basis(family_space(family, m, d))
    data = fourier.sample_function(f, s)
    rec = solver.reconstruct(basis, data)
    err = fourier.l2_error(f, rec.coefficients, basis)
    return ErrorRow(family=family, k=k, n=len(s), m=m, error=err)


def default_k_grid(kmin: float = 5.0, kmax: float = 200.0, count: int = 20) -> np.ndarray:
    return np.geomspace(kmin, kmax, count)


def _sweep(cell, k_grid, jobs: int) -> list:
    """Rows of ``cell(k, hint)`` across the grid.  Serially each bandwidth's
    search starts from the previous selected index; parallel cells search
    from scratch."""
    ks = (default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)).tolist()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(cell, ks))
    rows, hint = [], None
    for k in ks:
        rows.append(cell(k, hint))
        hint = rows[-1].m
    return rows


def scaling_table(family: str, kind: str, k_grid=None, *, d: int = 0,
                  threshold: float = 3.0, delta_max: float = 0.9,
                  oversample: float = 1.2, theta: float = 0.2, seed: int = 0,
                  jobs: int = 1) -> list[ScalingRow]:
    """Selected dimension and ratio across a bandwidth grid (one family)."""
    return _sweep(partial(_scaling_cell, family, kind, d, threshold, delta_max,
                          oversample, theta, seed), k_grid, jobs)


def error_curve(f: FunctionSpec, family: str, kind: str, k_grid=None, *,
                d: int = 0, threshold: float = 3.0, delta_max: float = 0.9,
                oversample: float = 1.2, theta: float = 0.2, seed: int = 0,
                jobs: int = 1) -> list[ErrorRow]:
    """Reconstruction error across a bandwidth grid with the stability-
    selected dimension at each bandwidth."""
    return _sweep(partial(_error_cell, f, family, kind, d, threshold, delta_max,
                          oversample, theta, seed), k_grid, jobs)


def run_figure_panels(out_dir, *, seed: int = 0, k_grid=None, jobs: int = 1,
                      threshold: float = 3.0, delta_max: float = 0.9,
                      theta: float = 0.2, spline_degrees=(1, 2, 3)) -> list[str]:
    """Write the four benchmark panels (scaling and error, jittered and log).

    Each panel is one CSV (with a leading family column) plus one
    self-contained SVG.  Returns the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ks = default_k_grid(count=16) if k_grid is None else np.asarray(k_grid, dtype=float)
    fam_list = [("trig", 0), ("legendre", 0)] + [("spline", d) for d in spline_degrees]
    f = FunctionSpec.benchmark()
    written = []
    for kind in ("jittered", "log"):
        srows: list[ScalingRow] = []
        erows: list[ErrorRow] = []
        for family, d in fam_list:
            label = family if family != "spline" else f"spline_d{d}"
            rows = scaling_table(family, kind, ks, d=d, threshold=threshold,
                                 delta_max=delta_max, theta=theta, seed=seed,
                                 jobs=jobs)
            srows += [replace(r, family=label) for r in rows]
            rows = error_curve(f, family, kind, ks, d=d, threshold=threshold,
                               delta_max=delta_max, theta=theta, seed=seed,
                               jobs=jobs)
            erows += [replace(r, family=label) for r in rows]
        spath = out / f"scaling_{kind}.csv"
        write_scaling_csv(spath, srows, with_family=True)
        epath = out / f"error_{kind}.csv"
        write_error_csv(epath, erows, with_family=True)
        labels = [lab for lab in dict.fromkeys(r.family for r in srows)]
        svgplot.line_plot(
            out / f"scaling_{kind}.svg",
            [(lab, [r.k for r in srows if r.family == lab],
              [r.ratio for r in srows if r.family == lab]) for lab in labels],
            title=f"dimension ratios, {kind} sampling", xlabel="K",
            ylabel="ratio", logx=True)
        svgplot.line_plot(
            out / f"error_{kind}.svg",
            [(lab, [r.k for r in erows if r.family == lab],
              [r.error for r in erows if r.family == lab]) for lab in labels],
            title=f"reconstruction error, {kind} sampling", xlabel="K",
            ylabel="L2 error", logx=True, logy=True)
        written += [str(spath), str(epath),
                    str(out / f"scaling_{kind}.svg"), str(out / f"error_{kind}.svg")]
    return written


def write_scaling_csv(path, rows: list[ScalingRow], *, with_family: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(("family," if with_family else "") + "k,n,m,ratio,c_ratio\n")
        for r in rows:
            prefix = f"{r.family}," if with_family else ""
            fh.write(f"{prefix}{float(r.k)!r},{r.n},{r.m},"
                     f"{float(r.ratio)!r},{float(r.c_ratio)!r}\n")


def write_error_csv(path, rows: list[ErrorRow], *, with_family: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(("family," if with_family else "") + "k,n,m,error\n")
        for r in rows:
            prefix = f"{r.family}," if with_family else ""
            fh.write(f"{prefix}{float(r.k)!r},{r.n},{r.m},{float(r.error)!r}\n")
