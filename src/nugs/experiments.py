"""Scaling experiments: stability-limited dimension versus bandwidth.

For a space family indexed by an integer (exponential order, polynomial
degree, or spline cell count at fixed degree) and a sampling scheme, the
selected dimension parameter is the largest one whose stability ratio
stays below a threshold; the ratios reported per family are M/K for
exponentials, M/sqrt(K) for polynomials and M d^2/K for splines.

One cell per bandwidth does all the work of a sweep: it plans the scheme,
draws the sample set once and runs the stability search once, then builds
the scaling row from that search and, given a function, the error row by
reconstructing at the same M on the same set.  ``scaling_table`` and
``error_curve`` keep one of the two rows; ``run_figure_panels`` keeps both,
so the figure pays for one search per scheme, family and bandwidth.

Every stability judgement reads one pencil: the weighted Gram W of the
family's basis at index M against its L2 Gram G, whose smallest eigenvalue
is the lower frame constant, so ratio(M) = (1+delta)/sqrt(lambda_min(W, G)).
``ratio`` is that eigenvalue from ``scipy.linalg.eigh`` on the pencil built
at M itself, and is the only source of the reported c_ratio.  Other probes
only compare it with the threshold: ratio(M) <= threshold is
lambda_min(W, G) >= t, and W - sG has a Cholesky factor exactly when
lambda_min(W, G) > s, so two factorizations at t plus and minus a band
(``PROBE_BAND``) decide every probe outside the band; inside it,
and at index 1, ``ratio`` decides.  For trig and legendre G = I and W comes
from the scaled design; a probe reads a principal block of the Gram of the
widest probe so far (the doubling probe), while ``ratio`` builds its own, so
c_ratio does not depend on which probes came first.  The constant is
basis-independent, so a spline pencil is that of the raw B-splines: a
Hermitian Toeplitz interior plus 2d border columns
(``fourier.bspline_weighted_gram``) against a banded L2 Gram
(``spaces._bspline_gram``), with no N x (l+d) design.
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
from .validation import check_count, check_positive_finite, check_threshold, write_csv

FAMILIES = ("trig", "legendre", "spline")
# factor on the sample count 2K / delta_max in ``plan_scheme``
OVERSAMPLE = 1.2
# the density a planned scheme meets, and the jitter of a jittered one
_DELTA_MAX = 0.9
_THETA = 0.2
# Half-width, in units of (1 + delta)^2, of the band around the stability
# search's cut t = ((1 + delta)/threshold)^2 on lambda_min(W, G) inside which
# a probe's Cholesky test (``_StabilityEvaluator.passes``) defers to the exact
# eigenvalue.  (1 + delta)^2 bounds lambda_max(W, G), so it is the scale of W.
# Forming W (N terms per entry, n columns) moves lambda_min by at most about
# n N u (1 + delta)^2 (u = 2^-53), and the Cholesky factorization by about
# n^2 u (1 + delta)^2: 2e-10 of the scale at N = 4380, n = 401.  Measured
# over every probe of the K = 30 and K = 200 searches on log and jittered
# sets, the shift at which W - sG stops factoring is within 3e-15 of the
# scale of the exact lambda_min.  Outside the band every decision is
# therefore the exact eigenvalue's, which the search reads as 0 (an infinite
# ratio) when it is not positive.
PROBE_BAND = 1e-8


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


def plan_scheme(kind: str, k: float, *, delta_max: float = _DELTA_MAX,
                theta: float = _THETA, seed: int = 0) -> SchemeSpec:
    """Sample count coupling for a bandwidth.

    Uniform and jittered schemes use ``N = ceil(2K * OVERSAMPLE / delta_max)``.
    The log scheme's largest gap grows like 2 K log(N) / N, so its count is
    increased until the measured density actually meets ``delta_max``;
    a fixed formula would leave the stability threshold unreachable.
    """
    n = math.ceil(2.0 * check_positive_finite(k, "k") * OVERSAMPLE
                  / check_positive_finite(delta_max, "delta_max"))
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
    """Stability ratio c(M) for one family over one sample set: exact and
    memoized (``ratio``), or only compared with a threshold (``passes``)."""

    def __init__(self, family: str, s: SampleSet, d: int = 0):
        self.family = family
        self.s = s
        self.d = d
        self.mu = sampling.weights(s)
        self.delta = sampling.density(s)
        self._cache: dict[int, float] = {}
        # trig, legendre: (index, upper triangle of conj(W)) of the widest probe
        self._wide: tuple[int, np.ndarray] | None = None
        self._passed: tuple[int, np.ndarray, np.ndarray] | None = None  # spline: (l, W, G)

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
            self._cache[m] = solver.frame_constants(self.delta, self._lower(m)).ratio
        return self._cache[m]

    def passes(self, m: int, threshold: float) -> bool:
        """Whether ``ratio(m) <= threshold``, decided without an eigensolver.

        ratio(m) <= threshold is lambda_min(W, G) >= t = ((1+delta)/threshold)^2
        for the probe's weighted Gram W and L2 Gram G.  W - sG has a Cholesky
        factor exactly when lambda_min(W, G) > s, so factoring it at s = t
        plus and minus ``PROBE_BAND`` (1+delta)^2 decides every probe
        outside that band; inside it the exact ``ratio(m)`` decides.
        """
        w, g = self._grams(m)
        scale, t = (1.0 + self.delta) ** 2, float(threshold) ** -2.0
        if _factors(w - scale * (t + PROBE_BAND) * g):
            ok = True
        elif not _factors(w - scale * (t - PROBE_BAND) * g):
            ok = False
        else:
            ok = self.ratio(m) <= threshold
        if ok and self.family == "spline":
            self._passed = (m, w, g)
        return ok

    def _lower(self, m: int) -> float:
        """lambda_min(W, G) at index m, clamped at 0, from the pencil built at
        m.  Only a spline probe's pencil is reused: a trig or Legendre probe
        reads a block of a wider Gram, whose rounding depends on the probes
        that came before."""
        if self._passed is not None and self._passed[0] == m:
            w, g = self._passed[1:]
        else:
            w, g = self._pencil(m)
        lam = scipy.linalg.eigh(w, g, lower=False, eigvals_only=True, subset_by_index=(0, 0))
        return max(float(lam[0]), 0.0)

    def _pencil(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Weighted and L2 Gram of the family's basis at index m, of which
        only the upper triangles are read.  For trig and legendre the first
        is the upper triangle of conj(W), which has W's eigenvalues, from
        the scaled design without a conjugated copy."""
        if self.family == "spline":
            w = fourier.bspline_weighted_gram(self.d, m, self.s.points, self.mu)
            # the L2 Gram depends only on (d, m), and is finite
            return _checked(w, self.family, m), spaces._bspline_gram(self.d, m)
        b = solver.design_matrix(spaces.build_basis(family_space(self.family, m)), self.s)
        b *= np.sqrt(self.mu)[:, None]
        return _checked(scipy.linalg.blas.zherk(1.0, b.T), self.family, m), np.eye(b.shape[1])

    def _grams(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The pencil at index m for a probe.  Trig and Legendre Grams are
        principal blocks of one weighted Gram, built afresh only when m
        exceeds its index: the centred 2m+1 orders for trig, the leading
        m+1 degrees for Legendre."""
        if self.family == "spline":
            return self._pencil(m)
        if self._wide is None or m > self._wide[0]:
            self._wide = (m, self._pencil(m)[0])
        wide, w = self._wide
        n = spaces.dimension(family_space(self.family, m))
        lo = wide - m if self.family == "trig" else 0
        return w[lo:lo + n, lo:lo + n], np.eye(n)


def _checked(a: np.ndarray, family: str, m: int) -> np.ndarray:
    """``a`` when finite: a Cholesky test reads a NaN pivot as a failed probe."""
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError(f"non-finite Gram matrix for the {family} probe "
                                    f"at index {m}")
    return a


def _factors(a: np.ndarray) -> bool:
    """Whether the Hermitian matrix with ``a``'s upper triangle has a
    Cholesky factor, i.e. is numerically positive definite; ``a`` is
    overwritten."""
    return scipy.linalg.lapack.zpotrf(a, overwrite_a=True)[1] == 0


def _search_max(ev: _StabilityEvaluator, threshold: float,
                hint: int | None = None) -> int:
    check_threshold(threshold)
    cap = ev.cap
    if cap < 1 or not ev.ratio(1) <= threshold:
        raise BandwidthTooSmallError(
            f"bandwidth too small: no stable dimension for {ev.family} "
            f"(N={len(ev.s)}, K={ev.s.bandwidth:g})")
    lo = 1
    if hint is not None and 1 < hint <= cap and ev.passes(hint, threshold):
        lo = hint
    probe = lo
    while probe < cap:
        probe = min(2 * probe, cap)
        if ev.passes(probe, threshold):
            lo = probe
        else:
            break
    if lo == cap:
        return cap
    hi = probe
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ev.passes(mid, threshold):
            lo = mid
        else:
            hi = mid
    return lo


def _check_ratio_degree(family: str, d: int) -> None:
    if family == "spline" and d < 1:
        raise ValueError(f"the spline ratio M d^2/K needs degree d >= 1, got d={d}")


def max_stable_dimension(family: str, s: SampleSet, threshold: float = 3.0,
                         *, d: int = 0, hint: int | None = None) -> int:
    """Largest family index whose stability ratio stays at or below the
    threshold; exponential growth then bisection.

    Raises ``BandwidthTooSmallError`` when not even index 1 is stable.
    The returned M is maximal in the sense ratio(M) <= threshold and
    either M is the count cap or ratio(M+1) > threshold.
    """
    return _search_max(_StabilityEvaluator(family, s, d), threshold, hint)


def _cell(f, family, kind, d, threshold, delta_max, theta, seed, k, hint=None):
    """One bandwidth: draw the planned sample set, search it once, and return
    the scaling row with the error of ``f`` at the same m (None without f)."""
    spec = plan_scheme(kind, k, delta_max=delta_max, theta=theta, seed=seed)
    s = sampling.generate(spec)
    ev = _StabilityEvaluator(family, s, d)
    m = _search_max(ev, threshold, hint)
    if family == "trig":
        ratio = m / k
    elif family == "legendre":
        ratio = m / math.sqrt(k)
    else:
        ratio = m * d * d / k
    row = ScalingRow(family=family, k=k, n=len(s), m=m, ratio=ratio, c_ratio=ev.ratio(m))
    del ev  # its Grams are not needed for the error row
    if f is None:
        return row, None
    basis = fourier.cached_basis(family_space(family, m, d))
    rec = solver.reconstruct(basis, fourier.sample_function(f, s))
    err = fourier.l2_error(f, rec.coefficients, basis)
    return row, ErrorRow(family=family, k=k, n=len(s), m=m, error=err)


def default_k_grid(kmin: float = 5.0, kmax: float = 200.0, count: int = 20) -> np.ndarray:
    return np.geomspace(check_positive_finite(kmin, "kmin"),
                        check_positive_finite(kmax, "kmax"), check_count(count, "kcount"))


def _sweep(cell, k_grid, jobs: int) -> list:
    """Row pairs of ``cell(k, hint)`` across the grid.  Serially each
    bandwidth's search starts from the previous selected index; parallel
    cells search from scratch."""
    ks = (default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)).tolist()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(cell, ks))
    rows, hint = [], None
    for k in ks:
        rows.append(cell(k, hint))
        hint = rows[-1][0].m
    return rows


def scaling_table(family: str, kind: str, k_grid=None, *, d: int = 0,
                  threshold: float = 3.0, delta_max: float = _DELTA_MAX,
                  theta: float = _THETA, seed: int = 0, jobs: int = 1) -> list[ScalingRow]:
    """Selected dimension and ratio across a bandwidth grid (one family)."""
    _check_ratio_degree(family, d)
    return [row for row, _ in _sweep(partial(_cell, None, family, kind, d, threshold,
                                             delta_max, theta, seed), k_grid, jobs)]


def error_curve(f: FunctionSpec, family: str, kind: str, k_grid=None, *, d: int = 0,
                threshold: float = 3.0, seed: int = 0, jobs: int = 1) -> list[ErrorRow]:
    """Reconstruction error across a bandwidth grid with the stability-
    selected dimension at each bandwidth, on the default schemes of ``plan_scheme``."""
    return [row for _, row in _sweep(partial(_cell, f, family, kind, d, threshold,
                                             _DELTA_MAX, _THETA, seed), k_grid, jobs)]


def run_figure_panels(out_dir, *, seed: int = 0, k_grid=None, jobs: int = 1,
                      threshold: float = 3.0, delta_max: float = _DELTA_MAX,
                      spline_degrees=(1, 2, 3)) -> list[str]:
    """Write the four benchmark panels (scaling and error, jittered and log).

    Each panel is one CSV (with a leading family column) plus one
    self-contained SVG.  Returns the paths written.
    """
    fam_list = [("trig", 0), ("legendre", 0)] + [("spline", d) for d in spline_degrees]
    for d in spline_degrees:
        _check_ratio_degree("spline", d)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ks = default_k_grid(count=16) if k_grid is None else np.asarray(k_grid, dtype=float)
    f = FunctionSpec.benchmark()
    written = []
    for kind in ("jittered", "log"):
        srows: list[ScalingRow] = []
        erows: list[ErrorRow] = []
        for family, d in fam_list:
            label = family if family != "spline" else f"spline_d{d}"
            for srow, erow in _sweep(partial(_cell, f, family, kind, d, threshold,
                                             delta_max, _THETA, seed), ks, jobs):
                srows.append(replace(srow, family=label))
                erows.append(replace(erow, family=label))
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
    family = ("family",) if with_family else ()
    write_csv(path, family + ("k", "n", "m", "ratio", "c_ratio"),
              [v for r in rows for v in (r.family,) * with_family
               + (float(r.k), r.n, r.m, float(r.ratio), float(r.c_ratio))])


def write_error_csv(path, rows: list[ErrorRow], *, with_family: bool = False) -> None:
    family = ("family",) if with_family else ()
    write_csv(path, family + ("k", "n", "m", "error"),
              [v for r in rows for v in (r.family,) * with_family
               + (float(r.k), r.n, r.m, float(r.error))])
