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
Given no grid, a sweep runs ``default_k_grid()``: the 16 points of figure1.

Every search starts where the paper's laws put its answer (``_law``): at
ceil(K) for trig and splines, whose stable index grows linearly in the
bandwidth K, and at ceil(sqrt(K)) for Legendre, whose bandwidth grows
quadratically in the degree.  So a cell depends only on its own bandwidth,
and a sweep runs the same cells serially or on a process pool.  A start
that passes is doubled until a probe fails, and one that fails bounds a
bisection from 1.  Trig orders and Legendre degrees are nested spaces, so
lambda_min(W, G) cannot rise with M (Cauchy interlacing) and the selected
M does not depend on the start.  Spline spaces are nested
from 1 to any l and from l to 2l but not from l to l+1, where lambda_min
may rise; there the search keeps its contract, ratio(M) <= threshold and M
is the cap or ratio(M+1) > threshold, from any start.

Every stability judgement reads one pencil: the weighted Gram W of the
family's basis at index M against its L2 Gram G, whose smallest eigenvalue
is the lower frame constant, so ratio(M) = (1+delta)/sqrt(lambda_min(W, G)).
``ratio`` is that eigenvalue from ``scipy.linalg.eigh`` on the pencil built
at M itself, and is the only source of the reported c_ratio.  Other probes
only compare it with the threshold: ratio(M) <= threshold is
lambda_min(W, G) >= t, and W - sG has a Cholesky factor exactly when
lambda_min(W, G) > s, so two factorizations at t plus and minus a band
(``PROBE_BAND``) decide every probe outside the band; inside it,
and at index 1, ``ratio`` decides.  For trig and legendre G = I, and the
design is A = diag(e^{-i pi w}) B D with B the real table of
``fourier._real_table`` (D = I for trig, diag((-i)^j) for Legendre), the
table that ``solver.reconstruct`` factorizes too, so W = A^H M A
(M = diag(mu)) is a unitary similarity of the real symmetric B^T M B.
``dsyrk`` builds that, and no complex design or identity matrix is
formed.  A probe reads a principal block of the Gram of the widest probe
so far (the start or a doubling probe), while ``ratio`` builds its own, so
c_ratio does not depend on which probes came first.  The constant is
basis-independent, so a spline pencil is that of the raw B-splines folded
by their mirror symmetry (``fourier.bspline_weighted_gram``) against their
folded L2 Gram of half-width d, with no N x (l+d) design.  So every pencil
is real: a Cholesky test is ``dpotrf``, and ``ratio`` runs the real ``eigh``.

A probe's shift has one path, ``_shifted``: it subtracts s times the upper
band of G from those diagonals of a Fortran-ordered copy of W, the d+1
diagonals of ``spaces._bspline_band`` for a spline and the one diagonal of
ones of the identity for trig and Legendre, and ``potrf`` reads only that
upper triangle.  ``ratio``'s ``eigh`` reads only the upper triangle of G
too, and takes the spline band written into a zero matrix (``_shifted``
of zero by -1): there is one L2 Gram, the band.
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
# the stability ratio a selected dimension stays at or below
_THRESHOLD = 3.0
# kmin, kmax and count of the geometric bandwidth grid of a sweep given none
_K_GRID = (5.0, 200.0, 16)
# the spline degrees of the figure panels
_SPLINE_DEGREES = (1, 2, 3)
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
    a fixed formula would leave the stability threshold unreachable.  The
    counts are tried on the raw points that ``sampling.generate`` draws, and
    only the spec of the count that meets it is built and checked.
    """
    n = math.ceil(2.0 * check_positive_finite(k, "k") * OVERSAMPLE
                  / check_positive_finite(delta_max, "delta_max"))
    if kind != "log":
        return SchemeSpec(kind=kind, n=n, k=k, theta=theta if kind == "jittered" else 0.0,
                          seed=seed)
    check_count(seed, "seed", 0)
    n += n % 2
    for _ in range(64):
        if sampling._density(sampling._log_points(n, k), float(k)) <= delta_max:
            return SchemeSpec(kind="log", n=n, k=k, seed=seed)
        n = math.ceil(n * 1.3)
        n += n % 2
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
        # trig, legendre: (index, upper triangle of W) of the widest probe
        self._wide: tuple[int, np.ndarray] | None = None
        self._passed: tuple[int, np.ndarray] | None = None  # spline: (l, W)

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
        outside that band; inside it the exact ``ratio(m)`` decides.  G is
        banded: the probe reads only its upper band.
        """
        w, band = self._probe(m)
        scale, t = (1.0 + self.delta) ** 2, float(threshold) ** -2.0
        if _factors(_shifted(w, band, scale * (t + PROBE_BAND))):
            ok = True
        elif not _factors(_shifted(w, band, scale * (t - PROBE_BAND))):
            ok = False
        else:
            ok = self.ratio(m) <= threshold
        if ok and self.family == "spline":
            self._passed = (m, w)
        return ok

    def _lower(self, m: int) -> float:
        """lambda_min(W, G) at index m, clamped at 0."""
        lam = scipy.linalg.eigh(*self._pencil(m), lower=False, eigvals_only=True,
                                subset_by_index=(0, 0))
        return max(float(lam[0]), 0.0)

    def _pencil(self, m: int) -> tuple[np.ndarray, np.ndarray | None]:
        """W and G at index m for the exact eigenvalue, W built at m itself.
        Only a spline probe's W is reused: a trig or Legendre probe reads a
        block of a wider Gram, whose rounding depends on the probes that came
        before.  For splines G is ``spaces._bspline_band`` written into a
        zero matrix, the upper triangle that ``eigh`` reads with
        ``lower=False``; for trig and Legendre it is None, the identity, and
        ``eigh`` solves the standard problem."""
        if self.family != "spline":
            return self._weighted(m), None
        reuse = self._passed is not None and self._passed[0] == m
        w = self._passed[1] if reuse else self._weighted(m)
        return w, _shifted(np.zeros(w.shape), spaces._bspline_band(self.d, m), -1.0)

    def _weighted(self, m: int) -> np.ndarray:
        """Weighted Gram of the family's basis at index m, of which only the
        upper triangle is read.  For trig and legendre it is the real
        symmetric B^T M B of the real table B of ``fourier._real_table``,
        from ``dsyrk``: a diagonal unitary similarity of A^H M A, so it has
        the same eigenvalues.  Its basis is built afresh, not through
        ``fourier.cached_basis``, so that probe spaces stay out of that cache."""
        if self.family == "spline":
            w = fourier.bspline_weighted_gram(self.d, m, self.s.points, self.mu)
        else:
            basis = spaces.build_basis(family_space(self.family, m))
            b = fourier._real_table(basis, self.s.points)[1]
            b *= np.sqrt(self.mu)[:, None]
            w = scipy.linalg.blas.dsyrk(1.0, b.T)
        return _checked(w, self.family, m)

    def _probe(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The pencil at index m for a probe: W and the upper band of G.  A
        spline's band is ``spaces._bspline_band``.  Trig and Legendre Grams
        are principal blocks of one real weighted Gram, built afresh only
        when m exceeds its index: the centred 2m+1 orders for trig, the
        leading m+1 degrees for Legendre; their G is the identity, a band
        of one diagonal."""
        if self.family == "spline":
            return self._weighted(m), spaces._bspline_band(self.d, m)
        if self._wide is None or m > self._wide[0]:
            self._wide = (m, self._weighted(m))
        wide, w = self._wide
        n = spaces.dimension(family_space(self.family, m))
        lo = wide - m if self.family == "trig" else 0
        return w[lo:lo + n, lo:lo + n], np.ones((1, n))


def _checked(a: np.ndarray, family: str, m: int) -> np.ndarray:
    """``a`` when finite: a Cholesky test reads a NaN pivot as a failed probe."""
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError(f"non-finite Gram matrix for the {family} probe "
                                    f"at index {m}")
    return a


def _shifted(w: np.ndarray, band: np.ndarray, s: float) -> np.ndarray:
    """The upper triangle of W - sG in a new Fortran-ordered array, for a G
    of which ``band`` holds the upper band, band[k, i] = G[i, i+k]: the
    shift touches only those diagonals of a copy of W."""
    a = w.copy(order="F")
    n, flat = a.shape[0], a.reshape(-1, order="F")  # a view: entry (i, j) at i + j n
    for k, diagonal in enumerate(band):
        flat[k * n::n + 1] -= s * diagonal[:n - k]
    return a


def _factors(a: np.ndarray) -> bool:
    """Whether the real symmetric matrix with ``a``'s upper triangle has a
    Cholesky factor (``dpotrf``), i.e. is numerically positive definite;
    ``a`` is overwritten."""
    return scipy.linalg.lapack.dpotrf(a, overwrite_a=True)[1] == 0


def _law(family: str, k: float) -> int:
    """The family's index at bandwidth K by the paper's law: ceil(K), or
    ceil(sqrt(K)) for Legendre."""
    return math.ceil(math.sqrt(k) if family == "legendre" else k)


def _search_max(ev: _StabilityEvaluator, threshold: float) -> int:
    """An index M <= cap with ratio(M) <= threshold and either M = cap or
    ratio(M+1) > threshold.  The first probe is the family's ``_law`` at the
    bandwidth, clamped to [1, cap]; it is doubled while probes pass, and if
    it fails it is the upper end of a bisection from 1."""
    check_threshold(threshold)
    cap = ev.cap
    if cap < 1 or not ev.ratio(1) <= threshold:
        raise BandwidthTooSmallError(
            f"bandwidth too small: no stable dimension for {ev.family} "
            f"(N={len(ev.s)}, K={ev.s.bandwidth:g})")
    lo = hi = min(max(_law(ev.family, ev.s.bandwidth), 1), cap)
    if lo > 1 and not ev.passes(lo, threshold):
        lo = 1
    else:
        while lo < cap:
            hi = min(2 * lo, cap)
            if not ev.passes(hi, threshold):
                break
            lo = hi
        if lo == cap:
            return cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ev.passes(mid, threshold):
            lo = mid
        else:
            hi = mid
    return lo


def max_stable_dimension(family: str, s: SampleSet, threshold: float = _THRESHOLD,
                         *, d: int = 0) -> int:
    """Largest family index whose stability ratio stays at or below the
    threshold: the search probes first at the bandwidth's law (ceil(K), or
    ceil(sqrt(K)) for Legendre), doubles from there while probes pass, then
    bisects.

    Raises ``BandwidthTooSmallError`` when not even index 1 is stable.
    The returned M is maximal in the sense ratio(M) <= threshold and
    either M is the count cap or ratio(M+1) > threshold.
    """
    return _search_max(_StabilityEvaluator(family, s, check_count(d, "d", 0)), threshold)


def _cell(f, family, kind, d, threshold, delta_max, theta, seed, k):
    """One bandwidth: draw the planned sample set, search it once, and return
    the scaling row with the error of ``f`` at the same m (None without f)."""
    spec = plan_scheme(kind, k, delta_max=delta_max, theta=theta, seed=seed)
    s = sampling.generate(spec)
    ev = _StabilityEvaluator(family, s, d)
    m = _search_max(ev, threshold)
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


def default_k_grid(kmin: float = _K_GRID[0], kmax: float = _K_GRID[1],
                   count: int = _K_GRID[2]) -> np.ndarray:
    return np.geomspace(check_positive_finite(kmin, "kmin"),
                        check_positive_finite(kmax, "kmax"), check_count(count, "kcount"))


def _sweep(cell, k_grid, jobs: int) -> list:
    """Row pairs of ``cell(k)`` across the grid, mapped on ``jobs``
    processes.  A cell depends only on its bandwidth, so every ``jobs``
    gives the same rows."""
    ks = (default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)).tolist()
    if not ks:
        raise ValueError("k_grid must hold at least one bandwidth, got an empty grid")
    if check_count(jobs, "jobs") == 1:
        return list(map(cell, ks))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(cell, ks))


def scaling_table(family: str, kind: str, k_grid=None, *, d: int = 0,
                  threshold: float = _THRESHOLD, delta_max: float = _DELTA_MAX,
                  theta: float = _THETA, seed: int = 0, jobs: int = 1) -> list[ScalingRow]:
    """Selected dimension and ratio across a bandwidth grid (one family)."""
    check_count(d, "d", 0)
    if family == "spline" and d < 1:
        raise ValueError(f"the spline ratio M d^2/K needs degree d >= 1, got d={d}")
    return [row for row, _ in _sweep(partial(_cell, None, family, kind, d, threshold,
                                             delta_max, theta, seed), k_grid, jobs)]


def error_curve(f: FunctionSpec, family: str, kind: str, k_grid=None, *, d: int = 0,
                threshold: float = _THRESHOLD, seed: int = 0, jobs: int = 1) -> list[ErrorRow]:
    """Reconstruction error across a bandwidth grid with the stability-
    selected dimension at each bandwidth, on the default schemes of ``plan_scheme``."""
    check_count(d, "d", 0)
    return [row for _, row in _sweep(partial(_cell, f, family, kind, d, threshold,
                                             _DELTA_MAX, _THETA, seed), k_grid, jobs)]


def run_figure_panels(out_dir, *, seed: int = 0, k_grid=None, jobs: int = 1,
                      threshold: float = _THRESHOLD,
                      delta_max: float = _DELTA_MAX) -> list[str]:
    """Write the four benchmark panels (scaling and error, jittered and log).

    Each panel is one CSV (with a leading family column) plus one
    self-contained SVG.  Returns the paths written.
    """
    fam_list = [("trig", 0), ("legendre", 0)] + [("spline", d) for d in _SPLINE_DEGREES]
    f = FunctionSpec.benchmark()
    written = []
    for kind in ("jittered", "log"):
        srows, erows = [], []
        for family, d in fam_list:
            label = _label(family, d)
            for srow, erow in _sweep(partial(_cell, f, family, kind, d, threshold,
                                             delta_max, _THETA, seed), k_grid, jobs):
                srows.append(replace(srow, family=label))
                erows.append(replace(erow, family=label))
        panels = (_write_panel(out_dir, f"scaling_{kind}", srows,
                               f"dimension ratios, {kind} sampling"),
                  _write_panel(out_dir, f"error_{kind}", erows,
                               f"reconstruction error, {kind} sampling"))
        written += [path for pair in zip(*panels) for path in pair]  # CSVs, then SVGs
    return written


def _label(family: str, d: int) -> str:
    return family if family != "spline" else f"spline_d{d}"


def _write_panel(out_dir, stem: str, rows: list, title: str, *,
                 with_family: bool = True) -> list[str]:
    """Write ``rows``, all scaling or all error rows whose families are their
    series labels, to ``stem``.csv and ``stem``.svg, making ``out_dir`` only
    now that the sweep has checked every option.  Returns both paths."""
    out, scaling = Path(out_dir), all(isinstance(r, ScalingRow) for r in rows)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{stem}.csv", out / f"{stem}.svg"]
    if scaling:
        write_scaling_csv(paths[0], rows, with_family=with_family)
    else:
        write_error_csv(paths[0], rows)
    series = [(lab, [r.k for r in rows if r.family == lab],
               [r.ratio if scaling else r.error for r in rows if r.family == lab])
              for lab in dict.fromkeys(r.family for r in rows)]
    svgplot.line_plot(paths[1], series, title=title, xlabel="K",
                      ylabel="ratio" if scaling else "L2 error", logy=not scaling)
    return [str(p) for p in paths]


def write_scaling_csv(path, rows: list[ScalingRow], *, with_family: bool = False) -> None:
    family = ("family",) if with_family else ()
    write_csv(path, family + ("k", "n", "m", "ratio", "c_ratio"),
              [v for r in rows for v in (r.family,) * with_family
               + (float(r.k), r.n, r.m, float(r.ratio), float(r.c_ratio))])


def write_error_csv(path, rows: list[ErrorRow]) -> None:
    write_csv(path, ("family", "k", "n", "m", "error"),
              [v for r in rows for v in (r.family, float(r.k), r.n, r.m, float(r.error))])
