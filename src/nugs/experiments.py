"""Scaling experiments: stability-limited dimension versus bandwidth.

For a space family indexed by an integer (exponential order, polynomial
degree, or spline cell count at fixed degree) and a sampling scheme, the
selected dimension parameter is the largest one whose stability ratio
stays below a threshold; the ratios reported per family are M/K for
exponentials, M/sqrt(K) for polynomials and M d^2/K for splines.

A sweep checks every option and draws every sample set of its grid before
the first cell runs or a pool starts.  One cell per set samples the function
on it once and, for each family, searches it once, builds the scaling row
from that search and, given a function, the error row by a weighted least-
squares fit at the same M on the same set, solved on the pencil the search
certified there (``_StabilityEvaluator.fit``).  ``scaling_table`` and
``error_curve`` sweep one family and keep one of the two rows;
``run_figure_panels`` sweeps all five once per scheme and keeps both, so the
figure draws, samples and searches once per scheme and K for each family.
Given no grid, a sweep runs ``default_k_grid()``: the 16 points of figure1.

Every search starts where the paper's laws put its answer (``_law``): at
ceil(K) for trig and splines, whose stable index grows linearly in the
bandwidth K, and at ceil(sqrt(K)) for Legendre, whose bandwidth grows
quadratically in the degree.  So a cell depends only on its own set, and
a sweep runs the same cells serially or on a process pool.  A start
that passes is doubled until a probe fails, and one that fails bounds a
bisection from 1.  Trig orders and Legendre degrees are nested spaces, so
lambda_min(W, G) cannot rise with M (Cauchy interlacing) and the selected
M does not depend on the start.  Spline spaces are nested
from 1 to any l and from l to 2l but not from l to l+1, where lambda_min
may rise; there the search keeps its contract, ratio(M) <= threshold and M
is the cap or ratio(M+1) > threshold, from any start.  The same nesting
makes index 1 the smallest space of every family, so the search takes it
to pass and reads ratio(1) only when it ends at 1.

Every stability judgement reads the pencil (W, G) of ``solver.pencil`` at
the probe's index (``_probe``): ``ratio`` is the exact eigenvalue of
``solver.pencil_lower``, memoized, and the only source of the reported
c_ratio; ``passes`` compares it with the threshold by the Cholesky tests
of ``solver.pencil_test`` and asks ``ratio`` only inside their band, and
at index 1 when the search ends there.  There is one W per index, which
both read alike: for trig and Legendre a principal block of the widest Gram
built so far, for splines the last one that passed or one built at M.  A
cell's probes depend only on its set, so c_ratio does too.  The
error row's solve (``solver._certified_fit``) factors that same W at the
selected M, with the widest trig or Legendre probe's scaled table at its
columns for the right-hand side, and measures the member in the pencil's
basis (``spaces._raw_basis``): the raw B-splines for splines.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

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
        # (index, W, band, table) of ``solver.pencil``: for trig and Legendre
        # the widest pencil built, whose principal blocks are the narrower;
        # a spline's last that passed
        self._kept: tuple | None = None

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
        """Whether ``ratio(m) <= threshold``, decided without an eigensolver
        outside the band of ``solver.pencil_test``: ratio(m) <= threshold is
        lambda_min(W, G) >= t (1+delta)^2 with t = threshold^-2."""
        w, band = self._probe(m)
        ok = solver.pencil_test(w, band, float(threshold) ** -2.0, (1.0 + self.delta) ** 2)
        if ok is None:
            ok = self.ratio(m) <= threshold
        if ok and self.family == "spline":
            self._kept = (m, w, band, None)
        return ok

    def fit(self, m: int, values: np.ndarray) -> np.ndarray:
        """Coefficients in ``spaces._raw_basis`` at index m of the weighted
        fit to the samples ``values``, solved by ``solver._certified_fit`` on
        the pencil that ``_probe`` reads at m, and for trig and Legendre on
        the kept table's columns at m: certified once the search has
        selected m."""
        w, _ = self._probe(m)
        table = None
        if self.family != "spline":
            t, phase, turn = self._kept[3]
            cols = self._block(m)
            table = t[:, cols], phase, turn[cols]
        return solver._certified_fit(family_space(self.family, m, self.d), self.s.points,
                                     self.mu, values, w, table)

    def _lower(self, m: int) -> float:
        """lambda_min(W, G) at index m, clamped at 0, on the probe's pencil."""
        return solver.pencil_lower(*self._probe(m))

    def _probe(self, m: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The pencil at index m, read by the Cholesky tests and by the exact
        ratio alike.  A spline's is the kept one when it is at m, else built
        at m.  A trig or Legendre W is a principal block of the kept Gram,
        built afresh only when m exceeds its index."""
        if self.family == "spline":
            if self._kept is not None and self._kept[0] == m:
                return self._kept[1:3]
            return solver.pencil(family_space(self.family, m, self.d), self.s.points,
                                 self.mu)[:2]
        if self._kept is None or m > self._kept[0]:
            self._kept = (m, *solver.pencil(family_space(self.family, m), self.s.points,
                                            self.mu))
        block = self._block(m)
        return self._kept[1][block, block], None

    def _block(self, m: int) -> slice:
        """The columns at index m of the kept trig or Legendre pencil: the
        centred 2m+1 orders for trig, the leading m+1 degrees for Legendre."""
        wide, w = self._kept[:2]
        cut = wide - m  # dropped from both ends for trig, from the end for Legendre
        return slice(cut if self.family == "trig" else 0, len(w) - cut)


def _law(family: str, k: float) -> int:
    """The family's index at bandwidth K by the paper's law: ceil(K), or
    ceil(sqrt(K)) for Legendre."""
    return math.ceil(math.sqrt(k) if family == "legendre" else k)


def _search_max(ev: _StabilityEvaluator, threshold: float) -> int:
    """An index M <= cap with ratio(M) <= threshold and either M = cap or
    ratio(M+1) > threshold.  The first probe is the family's ``_law`` at the
    bandwidth, clamped to [1, cap]; it is doubled while probes pass, and if
    it fails it is the upper end of a bisection from 1.

    Index 1 is taken to pass, and ratio(1) is read only when the search
    ends there: every space of the family holds the one at index 1 (P_d for
    splines), so a probe above 1 that passes has shown ratio(1) <= threshold
    too.  With cap < 1 no probe is made."""
    cap = ev.cap
    lo = hi = min(max(_law(ev.family, ev.s.bandwidth), 1), cap)
    if lo > 1 and not ev.passes(lo, threshold):
        lo = 1
    else:
        while lo < cap:
            hi = min(2 * lo, cap)
            if not ev.passes(hi, threshold):
                break
            lo = hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ev.passes(mid, threshold):
            lo = mid
        else:
            hi = mid
    if lo > 1 or (cap >= 1 and ev.ratio(1) <= threshold):
        return lo
    raise BandwidthTooSmallError(
        f"bandwidth too small: no stable dimension for {ev.family} "
        f"(N={len(ev.s)}, K={ev.s.bandwidth:g})")


def max_stable_dimension(family: str, s: SampleSet, threshold: float = _THRESHOLD,
                         *, d: int = 0) -> int:
    """Largest family index whose stability ratio stays at or below the
    threshold: the search probes first at the bandwidth's law (ceil(K), or
    ceil(sqrt(K)) for Legendre), doubles from there while probes pass, then
    bisects.

    Raises ``BandwidthTooSmallError`` when not even index 1 is stable,
    which the search reads only when it ends at 1: a larger index that
    passes holds index 1.  The returned M is maximal in the sense
    ratio(M) <= threshold and either M is the count cap or
    ratio(M+1) > threshold.
    """
    if not isinstance(s, SampleSet):
        raise ValueError(f"s must be a SampleSet, got {type(s).__name__}")
    check_threshold(threshold)
    return _search_max(_StabilityEvaluator(family, s, check_count(d, "d", 0)), threshold)


def _cell(f, families, threshold, s: SampleSet) -> list[tuple]:
    """One drawn set: sample ``f`` on it once, then per ``(family, d)`` search
    it once and return the scaling row and the error of ``f`` at the same m
    (None without f), solved on the pencil the search certified at m and
    measured in the pencil's own basis, with no design, QR or orthonormal basis."""
    k, n = s.bandwidth, len(s)
    values = None if f is None else fourier.transform_integrals(f, s.points)
    pairs = []
    for family, d in families:
        ev = _StabilityEvaluator(family, s, d)
        m = _search_max(ev, threshold)
        ratio = (m * d * d if family == "spline" else m) / (
            math.sqrt(k) if family == "legendre" else k)
        row, err = ScalingRow(family, k, n, m, ratio, ev.ratio(m)), None
        if f is not None:
            basis = spaces._raw_basis(family_space(family, m, d))
            err = ErrorRow(family, k, n, m, fourier.l2_error(f, ev.fit(m, values), basis))
        pairs.append((row, err))
    return pairs


def default_k_grid(kmin: float = _K_GRID[0], kmax: float = _K_GRID[1],
                   count: int = _K_GRID[2]) -> np.ndarray:
    return np.geomspace(check_positive_finite(kmin, "kmin"),
                        check_positive_finite(kmax, "kmax"), check_count(count, "kcount"))


def _sweep(f, families, threshold, kind, k_grid, delta_max, theta, seed,
           jobs: int) -> list[tuple]:
    """Row pairs of each ``(family, d)`` across the grid, one tuple per family,
    from ``_cell`` mapped on ``jobs`` processes once every option is checked
    and every set of the grid drawn.  A cell depends only on its set, so
    every ``jobs`` gives the same rows."""
    for family, d in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
        check_count(d, "d", 0)
    check_threshold(threshold)
    try:
        ks = default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    except (TypeError, ValueError):
        ks = None
    if ks is None or ks.ndim != 1:
        raise ValueError(f"k_grid must be a 1-D sequence of numbers, got {k_grid!r}")
    ks = ks.tolist()
    if not ks:
        raise ValueError("k_grid must hold at least one bandwidth, got an empty grid")
    for k in ks:
        check_positive_finite(k, "k_grid entry k")
    check_count(jobs, "jobs")
    sets = [sampling.generate(plan_scheme(kind, k, delta_max=delta_max, theta=theta,
                                          seed=seed)) for k in ks]
    cell = partial(_cell, f, families, threshold)
    if jobs == 1:
        return list(zip(*map(cell, sets)))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(zip(*pool.map(cell, sets)))


def scaling_table(family: str, kind: str, k_grid=None, *, d: int = 0,
                  threshold: float = _THRESHOLD, delta_max: float = _DELTA_MAX,
                  theta: float = _THETA, seed: int = 0, jobs: int = 1) -> list[ScalingRow]:
    """Selected dimension and ratio across a bandwidth grid (one family)."""
    if family == "spline" and d == 0:  # ``_sweep`` rejects a negative or non-integer d
        raise ValueError(f"the spline ratio M d^2/K needs degree d >= 1, got d={d}")
    return [row for row, _ in _sweep(None, [(family, d)], threshold, kind, k_grid,
                                     delta_max, theta, seed, jobs)[0]]


def error_curve(f: FunctionSpec, family: str, kind: str, k_grid=None, *, d: int = 0,
                threshold: float = _THRESHOLD, seed: int = 0, jobs: int = 1) -> list[ErrorRow]:
    """Reconstruction error across a bandwidth grid with the stability-
    selected dimension at each bandwidth, on the default schemes of ``plan_scheme``."""
    if not isinstance(f, FunctionSpec):
        raise ValueError(f"f must be a FunctionSpec, got {f!r}")
    return [row for _, row in _sweep(f, [(family, d)], threshold, kind, k_grid, _DELTA_MAX,
                                     _THETA, seed, jobs)[0]]


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
        for (family, d), pairs in zip(fam_list, _sweep(f, fam_list, threshold, kind, k_grid,
                                                       delta_max, _THETA, seed, jobs)):
            label = _label(family, d)
            for srow, erow in pairs:
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
