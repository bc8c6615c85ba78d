import json
import math

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import sici

from nugs import analysis, fourier, spaces
from nugs.analysis import (band_requirement_fit, concentration_matrix, gap, gap_bound,
                           residual, residual_curve, verify_gap_bound,
                           verify_triangle_bound)
from nugs.fourier import basis_transform
from nugs.quadrature import panel_edges, panel_nodes
from nugs.spaces import SpaceSpec, build_basis, evaluate

# one space of each kind
KIND_SPACES = [SpaceSpec.trig(5), SpaceSpec.legendre(8), SpaceSpec.spline(3, 8),
               SpaceSpec.piecewise_const(16),
               SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4])]


def test_residual_single_constant_sine_integral_oracle():
    # closed form: E^2 = 1 - (2/pi)(Si(pi) - 2/pi) for one constant cell at z=1/2
    si = sici(np.pi)[0]
    expected = np.sqrt(1 - (2 / np.pi) * (si - 2 / np.pi))
    assert residual(SpaceSpec.piecewise_const(1), 0.5) == pytest.approx(expected, abs=5e-4)
    assert residual(SpaceSpec.piecewise_const(1), 0.5) == pytest.approx(expected, abs=1e-12)


def test_residual_rejects_nonpositive_band():
    with pytest.raises(ValueError):
        residual(SpaceSpec.trig(1), 0.0)


def test_residual_monotone_and_vanishing():
    zs = np.geomspace(0.5, 64.0, 10)
    curve = residual_curve(SpaceSpec.legendre(3), zs)
    assert np.all(np.diff(curve.e) <= 1e-12)
    assert np.all((curve.e >= 0) & (curve.e <= 1))
    # polynomial transform tails carry energy ~ 1/z
    assert curve.e[-1] == pytest.approx(curve.e[-2] * np.sqrt(curve.z[-2] / curve.z[-1]),
                                        rel=0.15)


def test_residual_exhausted_at_huge_band():
    # transform mass is exhausted once the band is enormous
    assert residual(SpaceSpec.piecewise_const(1), 1e6) <= 1e-3


def test_concentration_spectrum_in_unit_interval():
    lam = np.linalg.eigvalsh(concentration_matrix(build_basis(SpaceSpec.trig(2)), 3.0))
    assert lam[0] >= -1e-10
    assert lam[-1] <= 1.0 + 1e-10


def test_band_requirement_scales_linearly_in_cells():
    eps = 0.5
    cells = [2, 4, 8, 16]
    slope, intercept, zs = band_requirement_fit(eps, cells)
    assert slope > 0
    fitted = slope * np.asarray(cells) + intercept
    rel = np.abs(fitted - zs) / zs
    assert np.max(rel) < 0.08
    assert abs(intercept) < 0.6 * slope


def test_gap_contained_subspace_is_zero():
    assert gap(SpaceSpec.piecewise_const(4), SpaceSpec.piecewise_const(2)) <= 1e-12
    # spline of degree d on the same knots sits inside the piecewise space
    pp = SpaceSpec.piecewise_poly([0.25, 0.5, 0.75], [2, 2, 2, 2])
    assert gap(pp, SpaceSpec.spline(2, 4)) <= 1e-12


def test_gap_positive_when_not_contained():
    assert gap(SpaceSpec.piecewise_const(2), SpaceSpec.piecewise_const(3)) > 0.1


def test_gap_hand_value():
    g = gap(SpaceSpec.piecewise_const(2), SpaceSpec.legendre(1))
    assert g == pytest.approx(0.5, abs=1e-10)


def test_gap_range():
    rng = np.random.default_rng(2)
    for _ in range(6):
        l = int(rng.integers(1, 9))
        m = int(rng.integers(0, 5))
        g = gap(SpaceSpec.piecewise_const(l), SpaceSpec.legendre(m))
        assert -1e-12 <= g <= 1.0 + 1e-12


def test_gap_bound_hand_case():
    rep = verify_gap_bound(SpaceSpec.legendre(1), 2)
    assert rep.precondition_ok
    assert rep.gap == pytest.approx(0.5, abs=1e-10)
    assert rep.bound == pytest.approx(2 * np.sqrt(3) / (2 * np.pi), rel=1e-12)
    assert rep.holds


def test_gap_bound_aligned_constants():
    rep = verify_gap_bound(SpaceSpec.piecewise_const(4), 8)
    assert rep.gap <= 1e-12
    assert rep.holds


def test_gap_bound_precondition_violation_reports():
    # space cells are finer than the reference partition: no assertion made
    rep = verify_gap_bound(SpaceSpec.piecewise_const(8), 4)
    assert not rep.precondition_ok
    assert rep.holds is None


@pytest.mark.parametrize("cells", [0, -1, 2.5, 2.0, True])
@pytest.mark.parametrize("check", [
    lambda cells: gap_bound(SpaceSpec.legendre(2), cells),
    lambda cells: verify_gap_bound(SpaceSpec.legendre(2), cells),
    lambda cells: verify_triangle_bound(SpaceSpec.legendre(2), cells, 4.0),
    lambda cells: band_requirement_fit(0.5, [2, cells]),
], ids=["gap_bound", "verify_gap_bound", "verify_triangle_bound", "band_requirement_fit"])
def test_reference_cell_count_rejected(check, cells):
    # a fractional count would build floor(cells) reference cells but bound
    # for the fraction; zero divides by zero
    with pytest.raises(ValueError, match="cells.* must be an integer >= 1"):
        check(cells)


def test_gap_bound_piecewise_case_pinned():
    rep = verify_gap_bound(SpaceSpec.piecewise_poly([1 / 3], [2, 2]), 9)
    assert rep.precondition_ok
    assert rep.holds
    # regression values from the first verified run; the bound recombines
    # the sharp growth constants 23.2379 and 3/sqrt(1/3)
    assert rep.gap == pytest.approx(0.7114582486, abs=1e-8)
    gamma = 23.237900077244504
    zeta = 3 / np.sqrt(1 / 3)
    assert rep.bound == pytest.approx(
        np.sqrt(gamma**2 / (9 * np.pi) ** 2 + 4 * zeta**2 / 9), rel=1e-9)


def test_triangle_bound_for_reference_space_itself():
    rep = verify_triangle_bound(SpaceSpec.piecewise_const(8), 8, 6.0)
    assert rep.gap <= 1e-12
    assert abs(rep.tail - rep.reference_tail) <= 1e-12
    assert rep.holds


def test_triangle_bound_legendre_pinned():
    rep = verify_triangle_bound(SpaceSpec.legendre(3), 16, 10.0)
    assert rep.holds
    # regression values from the first verified run
    assert rep.tail == pytest.approx(0.3176290, abs=2e-6)
    assert rep.reference_tail == pytest.approx(0.5546480, abs=2e-6)
    assert rep.gap == pytest.approx(0.2336735, abs=2e-6)


def test_triangle_bound_trig():
    rep = verify_triangle_bound(SpaceSpec.trig(4), 32, 8.0)
    assert rep.holds
    assert rep.slack >= -1e-10


def test_triangle_bound_randomized_grid():
    rng = np.random.default_rng(4)
    for _ in range(8):
        kind = rng.choice(["trig", "legendre", "spline"])
        if kind == "trig":
            t = SpaceSpec.trig(int(rng.integers(1, 5)))
        elif kind == "legendre":
            t = SpaceSpec.legendre(int(rng.integers(0, 6)))
        else:
            t = SpaceSpec.spline(int(rng.integers(1, 3)), int(rng.integers(2, 6)))
        cells = int(rng.integers(8, 40))
        z = float(rng.uniform(2.0, 20.0))
        rep = verify_triangle_bound(t, cells, z)
        assert rep.slack >= -1e-10


def test_residual_curve_csv(tmp_path):
    curve = residual_curve(SpaceSpec.legendre(2), [1.0, 2.0, 4.0])
    path = tmp_path / "residual.csv"
    curve.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,e"
    assert len(lines) == 4


def _fixed_panel_concentration(basis, z, width):
    """The whole band (-z, z) on 12-node Gauss panels of a fixed width."""
    xs, ws = panel_nodes(panel_edges(-z, z, (0.0,), width), 12)
    phi = basis_transform(basis, xs)
    return (phi.conj() * ws[:, None]).T @ phi


@pytest.fixture
def concentration_layouts(monkeypatch):
    """Panel edges of every estimate ``concentration_matrix`` makes."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(panel_edges(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(analysis, "panel_edges", spy)
    return seen


@pytest.mark.parametrize("z", [0.05, 0.5, 1.0, 3.0, 60.0, 200.0])
@pytest.mark.parametrize("space", KIND_SPACES, ids=lambda s: s.kind)
def test_concentration_matches_fixed_eighth_width_rule(space, z, concentration_layouts):
    basis = build_basis(space)
    got = concentration_matrix(basis, z)
    if space.kind == "trig":
        assert concentration_layouts == []  # closed form, no panels
    else:
        assert len(concentration_layouts) == 2  # converged at the first comparison
        assert not np.array_equal(*concentration_layouts)  # and compared two layouts
    want = _fixed_panel_concentration(basis, z, 0.125)
    assert np.max(np.abs(got - want)) <= 1e-12


def _pconst_residual_by_sine_integrals(cells, z):
    # the concentration matrix of L orthonormal cell indicators is Toeplitz,
    # B_n = (2/pi) int_0^U cos(2 n u) sin(u)^2 / u^2 du with U = pi z / L;
    # G(a) = int_0^U (1 - cos(a u)) / u^2 du = a Si(a U) - (1 - cos(a U)) / U
    # gives B_n = (G(2|n+1|) + G(2|n-1|) - 2 G(2|n|)) / (2 pi)
    u = np.pi * z / cells

    def g(a):
        a = np.abs(a).astype(float)
        return np.where(a > 0, a * sici(a * u)[0] - (1.0 - np.cos(a * u)) / u, 0.0)

    n = np.arange(cells)
    col = (g(2 * (n + 1)) + g(2 * (n - 1)) - 2.0 * g(2 * n)) / (2.0 * np.pi)
    lam = np.linalg.eigvalsh(toeplitz(col))[0]
    return np.sqrt(max(1.0 - min(max(lam, 0.0), 1.0), 0.0))


@pytest.mark.parametrize("cells", [4, 16, 64])
def test_residual_of_uniform_constants_pinned_by_sine_integrals(cells):
    space = SpaceSpec.piecewise_const(cells)
    for z in [0.05, 0.5, 1.0, 3.7, 20.0, 64.0, 200.0]:
        assert abs(residual(space, z) - _pconst_residual_by_sine_integrals(cells, z)) <= 1e-10


def _gap_by_quadrature(u, v):
    """Gap from the cross Gram of the two orthonormal bases, integrated by a
    40-node Gauss rule on every cell of the merged partition."""
    bu, bv = build_basis(u), build_basis(v)
    cuts = np.unique(np.concatenate((bu.breaks, bv.breaks)))
    xg, wg = np.polynomial.legendre.leggauss(40)
    h = np.diff(cuts)
    xs = ((cuts[:-1] + h / 2)[:, None] + (h / 2)[:, None] * xg).ravel()
    ws = ((h / 2)[:, None] * wg).ravel()
    cross = (evaluate(bu, xs).conj() * ws) @ evaluate(bv, xs).T
    if bv.dim > bu.dim:
        return 1.0
    smin = np.linalg.svd(cross, compute_uv=False)[-1]
    return float(np.sqrt(max(1.0 - smin**2, 0.0)))


def test_gap_between_exponential_spaces():
    assert gap(SpaceSpec.trig(5), SpaceSpec.trig(2)) == 0.0
    assert gap(SpaceSpec.trig(3), SpaceSpec.trig(3)) == 0.0
    assert gap(SpaceSpec.trig(2), SpaceSpec.trig(5)) == 1.0


def test_gap_exponentials_against_linear_hand_value():
    # the constant lies in both spaces; sqrt(12)(x - 1/2) has coefficients
    # of modulus sqrt(3)/pi on e^{+-2 pi i x}, so the gap is sqrt(1 - 6/pi^2)
    assert gap(SpaceSpec.trig(1), SpaceSpec.legendre(1)) == pytest.approx(
        np.sqrt(1 - 6 / np.pi**2), abs=1e-14)


@pytest.mark.parametrize("u, v", [
    (SpaceSpec.trig(1), SpaceSpec.legendre(2)), (SpaceSpec.legendre(2), SpaceSpec.trig(1)),
    (SpaceSpec.trig(2), SpaceSpec.spline(1, 4)), (SpaceSpec.spline(1, 4), SpaceSpec.trig(1)),
    (SpaceSpec.piecewise_const(5), SpaceSpec.trig(0)),
    (SpaceSpec.trig(1), SpaceSpec.legendre(3)), (SpaceSpec.legendre(1), SpaceSpec.trig(1)),
], ids=lambda s: s.kind)
def test_gap_exponentials_against_polynomials_both_orders(u, v):
    # the last two have dim v > dim u, so some member of v is orthogonal to u
    assert gap(u, v) == pytest.approx(_gap_by_quadrature(u, v), abs=1e-12)


def test_gap_evaluates_each_polynomial_basis_once(monkeypatch):
    calls = []
    real = spaces.evaluate

    def counting(basis, x):
        calls.append(basis.space)
        return real(basis, x)

    monkeypatch.setattr(spaces, "evaluate", counting)
    pairs = [(SpaceSpec.piecewise_const(40), SpaceSpec.spline(3, 5)),
             (SpaceSpec.piecewise_const(9), SpaceSpec.piecewise_poly([1 / 3], [2, 2])),
             (SpaceSpec.legendre(5), SpaceSpec.legendre(2))]
    for u, v in pairs:
        calls.clear()
        gap(u, v)
        assert calls == [u, v]
    calls.clear()
    gap(SpaceSpec.trig(2), SpaceSpec.legendre(1))
    assert calls == []


@pytest.mark.parametrize("u, v", [
    (SpaceSpec.piecewise_const(16), SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4])),
    (SpaceSpec.piecewise_const(7), SpaceSpec.spline(3, 8)),
    (SpaceSpec.piecewise_poly([0.25, 0.5], [2, 1, 2]), SpaceSpec.legendre(4)),
], ids=lambda s: s.kind)
def test_gap_of_polynomial_spaces_matches_quadrature(u, v):
    assert gap(u, v) == pytest.approx(_gap_by_quadrature(u, v), abs=1e-12)


def _merged_frame_coeffs_by_cell(basis, cuts, p):
    """Reference re-expansion, one merged cell at a time."""
    out = np.empty((basis.dim, cuts.size - 1, p))
    norm = np.sqrt(2 * np.arange(p) + 1)
    xg, wg = np.polynomial.legendre.leggauss(p + basis.local_dim)
    for j, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        h = b - a
        xs = (a + b) / 2 + h / 2 * xg
        phi = spaces.legendre_values(p, 2 * (xs - a) / h - 1) * (norm / np.sqrt(h))[:, None]
        out[:, j, :] = (evaluate(basis, xs) * (h / 2 * wg)) @ phi.T
    return out


@pytest.mark.parametrize("space, cells", [
    (SpaceSpec.spline(3, 5), 40), (SpaceSpec.piecewise_poly([1 / 3], [2, 2]), 9),
    (SpaceSpec.legendre(6), 32), (SpaceSpec.piecewise_const(8), 64),
    (SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4]), 7),
], ids=lambda s: getattr(s, "kind", str(s)))
def test_merged_frame_coeffs_match_per_cell_loop(space, cells):
    # one evaluation and one contraction against the per-cell loop they
    # replaced.  The loop reads each node's local coordinate back from its
    # rounded position, which moves it by up to 4 ulp(x) / h: 3e-14 at
    # h = 1/64, times |P_n'| <= 10 for n <= 4.  Measured: at most 1.5e-14
    # of the largest coefficient (spline 3, 40 cells)
    basis = build_basis(space)
    cuts = np.unique(np.concatenate((basis.breaks, np.linspace(0, 1, cells + 1))))
    p = basis.local_dim + 1
    got = analysis._merged_frame_coeffs(basis, cuts, p)
    want = _merged_frame_coeffs_by_cell(basis, cuts, p)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 3e-13 * np.max(np.abs(want))
    flat = got.reshape(basis.dim, -1)
    assert np.max(np.abs(flat @ flat.T - np.eye(basis.dim))) <= 1e-13


def test_triangle_report_json_has_every_field():
    report = analysis.TriangleReport(tail=0.1, reference_tail=0.2, gap=0.05, slack=0.15,
                                     holds=True)
    assert json.loads(report.to_json()) == {"tail": 0.1, "reference_tail": 0.2, "gap": 0.05,
                                            "slack": 0.15, "holds": True}


def test_band_requirement_fit_rejects_a_top_z_still_above_eps(monkeypatch):
    # a factor of 0 caps the search at z = 2, where one cell's residual is far above 1e-12
    monkeypatch.setattr(analysis, "_Z_HI_FACTOR", 0.0)
    with pytest.raises(ValueError, match="residual at z=2 still above 1e-12 for L=1"):
        band_requirement_fit(1e-12, [1, 2])


def _half_band_nodes(z, width):
    """The (0, z) panel nodes and weights of one ``concentration_matrix`` estimate."""
    return panel_nodes(panel_edges(0.0, z, (0.0,), width), 12)


def _dense_half_band(basis, xs, ws):
    """2 Re of the dense basis-transform product on the given nodes."""
    phi = basis_transform(basis, xs)
    return 2.0 * ((phi.conj() * ws[:, None]).T @ phi).real


@pytest.mark.parametrize("space", [
    SpaceSpec.piecewise_const(2), SpaceSpec.piecewise_const(3), SpaceSpec.piecewise_const(64),
    SpaceSpec.spline(3, 5), SpaceSpec.spline(2, 4), SpaceSpec.spline(1, 40),
    SpaceSpec.spline(3, 40)], ids=str)
@pytest.mark.parametrize("z", [0.3, 1.7, 3.5, 60.0])
def test_block_toeplitz_path_matches_dense_product(space, z):
    # splines with l < 2d, l = 2d and l = 40; z below and above 2
    basis = build_basis(space)
    for width in (min(2.0, z), min(2.0, z) / 2):
        xs, ws = _half_band_nodes(z, width)
        got = analysis._toeplitz_concentration(basis, xs, ws, [xs.size])[0]
        assert np.max(np.abs(got - _dense_half_band(basis, xs, ws))) <= 1e-13


@pytest.mark.parametrize("cells", [16, 64, 400])
def test_piecewise_constant_concentration_is_twice_the_lag_layout(cells):
    # the basis coefficients are the identity, so 2 C G C^T is 2 G exactly:
    # lag k - j of the cell transforms' Gram in block (j, k), its transpose below
    basis = build_basis(SpaceSpec.piecewise_const(cells))
    xs, ws = _half_band_nodes(3.5, 1.0)
    lags = fourier.uniform_cell_lags(cells, 1, xs, ws, [slice(None)])[0].real[0, 0]
    j = np.arange(cells)
    gram = lags[np.abs(j[:, None] - j)]
    assert np.array_equal(analysis._toeplitz_concentration(basis, xs, ws, [xs.size])[0],
                          2.0 * gram)


@pytest.mark.parametrize("space", [SpaceSpec.piecewise_const(64), SpaceSpec.spline(3, 40)],
                         ids=str)
def test_block_toeplitz_path_sums_across_node_chunks(space):
    basis = build_basis(space)
    xs, ws = _half_band_nodes(400.0, 1.0)
    assert len(analysis._node_chunks(xs.size, basis.dim)) == 2
    got = analysis._toeplitz_concentration(basis, xs, ws, [xs.size])[0]
    assert np.max(np.abs(got - _dense_half_band(basis, xs, ws))) <= 1e-13


@pytest.mark.parametrize("space", [SpaceSpec.piecewise_const(16), SpaceSpec.spline(2, 9)],
                         ids=str)
def test_uniform_cell_concentration_builds_no_transform_table(space, monkeypatch):
    # at z = 7.5 every estimate has at least 48 nodes, so the cell Gram of
    # at most 27 x 27 entries takes the block-Toeplitz path
    basis = build_basis(space)
    want = concentration_matrix(basis, 7.5)

    def refuse(*args, **kwargs):
        raise AssertionError("the block-Toeplitz path builds no transform table")

    monkeypatch.setattr(fourier, "cell_transforms", refuse)
    monkeypatch.setattr(fourier, "basis_transform", refuse)
    assert np.array_equal(concentration_matrix(basis, 7.5), want)
    assert 0.0 <= residual(space, 7.5) <= 1.0


BAD_Z = [(float("nan"), "nan"), (float("inf"), "inf"), ("3", "'3'"), (True, "True"),
         (0.0, "0.0"), (-1.0, "-1.0")]


@pytest.mark.parametrize("z, shown", BAD_Z)
@pytest.mark.parametrize("call", [
    lambda z: residual(SpaceSpec.legendre(2), z),
    lambda z: verify_triangle_bound(SpaceSpec.legendre(2), 4, z),
    lambda z: concentration_matrix(build_basis(SpaceSpec.legendre(2)), z),
], ids=["residual", "verify_triangle_bound", "concentration_matrix"])
def test_band_analysis_rejects_a_bad_z(call, z, shown):
    with pytest.raises(ValueError, match=f"z must be finite and positive, got {shown}"):
        call(z)


@pytest.mark.parametrize("z, shown", BAD_Z)
def test_residual_curve_rejects_a_bad_z_in_zs(z, shown):
    with pytest.raises(ValueError,
                       match=f"z in zs must be finite and positive, got {shown}"):
        residual_curve(SpaceSpec.legendre(2), [1.0, z, 2.0])


@pytest.mark.parametrize("eps", [float("nan"), 2.0, 1.0, 0.0, -0.1, "0.1", True])
def test_band_requirement_fit_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match=r"eps must be a number in \(0, 1\)"):
        band_requirement_fit(eps, [2, 4])


@pytest.mark.parametrize("space, z, toeplitz", [
    (SpaceSpec.piecewise_const(64), 0.5, [False, True]),   # 12, then 24 nodes
    (SpaceSpec.spline(3, 40), 4.0, [False, True]),         # 24, then 48 nodes for L p = 160
    (SpaceSpec.spline(1, 16), 0.5, [True, True]),
    (SpaceSpec.legendre(3), 60.0, [False, False]),
    (SpaceSpec.piecewise_poly([0.5], [1, 1]), 60.0, [False, False]),
], ids=str)
def test_concentration_path_follows_kind_and_node_count(space, z, toeplitz, monkeypatch):
    taken = []
    real = analysis._toeplitz_concentration

    def spy(*args):
        taken[-1] = True
        return real(*args)

    real_edges = analysis.panel_edges

    def edges(*args, **kwargs):
        taken.append(False)
        return real_edges(*args, **kwargs)

    monkeypatch.setattr(analysis, "_toeplitz_concentration", spy)
    monkeypatch.setattr(analysis, "panel_edges", edges)
    concentration_matrix(build_basis(space), z)
    assert taken == toeplitz


@pytest.mark.parametrize("counts", [[], [2], [2, 2], [3, 3, 3]])
def test_band_requirement_fit_needs_two_distinct_cell_counts(counts, monkeypatch):
    def refuse(*args):
        raise AssertionError("no residual before the cell counts are checked")

    monkeypatch.setattr(analysis, "residual_from_basis", refuse)
    with pytest.raises(ValueError, match="cell_counts must hold at least two distinct"):
        band_requirement_fit(0.5, counts)


def test_trig_concentration_ignores_the_tolerance(monkeypatch):
    # closed form: no refinement a tolerance could stop or fail
    basis = build_basis(SpaceSpec.trig(3))
    want = concentration_matrix(basis, 4.5)
    for tol in (-1.0, 0.0, 1e-3):
        monkeypatch.setattr(analysis, "_CONCENTRATION_TOL", tol)
        assert np.array_equal(concentration_matrix(basis, 4.5), want)


def _trig_entry_by_mpmath(mpmath, j, k, z):
    """int_{-z}^{z} sin^2(pi w) / (pi^2 (w - j) (w - k)) dw, split at the integers."""
    pi = mpmath.pi
    z = mpmath.mpf(z)
    cuts = [-z, *range(math.floor(-z) + 1, math.ceil(z)), z]
    return mpmath.quad(lambda w: mpmath.sin(pi * w) ** 2 / (pi**2 * (w - j) * (w - k)), cuts)


@pytest.mark.parametrize("z", [0.3, 1.0, 2.0, 3.5])
def test_trig_concentration_matches_mpmath_quadrature(z):
    # z = 1 and 2 put z - j = 0 on an order
    mpmath = pytest.importorskip("mpmath")
    got = concentration_matrix(build_basis(SpaceSpec.trig(2)), z)
    assert got.dtype == float and np.array_equal(got, got.T)
    with mpmath.workdps(20):
        for j in range(-2, 3):
            for k in range(j, 3):
                want = float(_trig_entry_by_mpmath(mpmath, j, k, z))
                assert abs(got[j + 2, k + 2] - want) <= 5e-16


@pytest.mark.parametrize("z", [0.3, 1.0, 3.0, 7.5, 60.0])
def test_constants_have_one_residual_on_every_concentration_path(z, monkeypatch):
    # trig(0), legendre(0) and piecewise_const(1) all span the constants:
    # closed form, dense quadrature and block-Toeplitz lag sums
    toeplitz = []
    real = analysis._toeplitz_concentration
    monkeypatch.setattr(analysis, "_toeplitz_concentration",
                        lambda *args: toeplitz.append(1) or real(*args))
    es = [residual(SpaceSpec.trig(0), z), residual(SpaceSpec.legendre(0), z)]
    assert not toeplitz
    es.append(residual(SpaceSpec.piecewise_const(1), z))
    assert toeplitz
    assert max(es) - min(es) <= 1e-13


@pytest.mark.parametrize("m", [0, 5])
def test_trig_concentration_builds_no_transforms_and_no_nodes(m, monkeypatch):
    basis = build_basis(SpaceSpec.trig(m))
    want = concentration_matrix(basis, 7.5)

    def refuse(*args, **kwargs):
        raise AssertionError("the trig closed form evaluates no transform at any node")

    monkeypatch.setattr(fourier, "basis_transform", refuse)
    monkeypatch.setattr(analysis, "panel_nodes", refuse)
    assert np.array_equal(concentration_matrix(basis, 7.5), want)
    assert 0.0 <= residual(SpaceSpec.trig(m), 7.5) <= 1.0


def test_residual_curve_csv_bytes(tmp_path):
    curve = analysis.ResidualCurve(SpaceSpec.trig(1), np.array([0.5, 3.0, 1e3]),
                                   np.array([0.9, 0.1 + 0.2, 2.5e-17]))
    curve.save_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == (
        b"z,e\n0.5,0.9\n3.0,0.30000000000000004\n1000.0,2.5e-17\n")


# unsorted, with repeats, on both sides of z = 2
CURVE_BANDS = [7.5, 0.3, 3.0, 1.7, 60.0, 3.0, 0.3]


@pytest.mark.parametrize("space", KIND_SPACES, ids=lambda s: s.kind)
def test_residual_curve_matches_the_residual_band_by_band(space):
    curve = residual_curve(space, CURVE_BANDS)
    assert np.array_equal(curve.z, CURVE_BANDS)
    want = np.array([residual(space, z) for z in CURVE_BANDS])
    assert np.max(np.abs(curve.e - want)) <= 1e-14


@pytest.mark.parametrize("space", KIND_SPACES, ids=lambda s: s.kind)
def test_one_band_curve_is_the_residual_and_no_band_an_empty_curve(space):
    for z in (0.3, 3.0, 60.0):
        assert residual_curve(space, [z]).e.tolist() == [residual(space, z)]
    empty = residual_curve(space, [])
    assert empty.z.shape == empty.e.shape == (0,)


@pytest.mark.parametrize("space", KIND_SPACES, ids=lambda s: s.kind)
def test_residual_curve_is_non_increasing(space):
    e = residual_curve(space, np.geomspace(0.05, 200.0, 16)).e
    assert np.all(np.diff(e) <= 1e-15)


@pytest.mark.parametrize("space, passes", [
    (SpaceSpec.legendre(8), "basis_transform"),
    (SpaceSpec.piecewise_poly([0.3, 0.7], [3, 2, 4]), "basis_transform"),
    (SpaceSpec.piecewise_const(16), "_order_factors"),
    (SpaceSpec.spline(3, 8), "_order_factors"),
], ids=str)
def test_six_band_curve_makes_one_transform_pass_per_round(space, passes, monkeypatch):
    # band by band, two rounds per band would make 12 passes; the segments
    # between successive bands share each round's one transform or
    # order-factor table
    calls = {"basis_transform": 0, "_order_factors": 0}
    for name in calls:
        real = getattr(fourier, name)
        monkeypatch.setattr(fourier, name, lambda *a, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    residual_curve(space, np.geomspace(0.5, 200.0, 6))
    assert calls[passes] == 2
    if passes == "_order_factors":
        assert calls["basis_transform"] == 0


def _stack(basis, zs):
    return np.array(list(analysis._concentrations(basis, zs)))


@pytest.mark.parametrize("space", KIND_SPACES, ids=lambda s: s.kind)
def test_concentrations_are_running_sums_of_segment_integrals(space):
    basis = build_basis(space)
    got = _stack(basis, [0.3, 1.7, 3.0, 60.0])
    assert got.shape == (4, basis.dim, basis.dim)
    for b, z in zip(got, [0.3, 1.7, 3.0, 60.0]):
        assert np.max(np.abs(b - concentration_matrix(basis, z))) <= 1e-13
    # each segment adds a positive semidefinite integral
    assert all(np.linalg.eigvalsh(d)[0] >= -1e-14 for d in np.diff(got, axis=0))
    assert list(analysis._concentrations(basis, [])) == []


@pytest.mark.parametrize("space", KIND_SPACES[1:], ids=lambda s: s.kind)
def test_segments_summed_across_node_chunks(space, monkeypatch):
    # 50-node chunks cut the 12-node panels and the segments mid-way
    basis = build_basis(space)
    want = _stack(basis, [0.3, 1.7, 3.0, 60.0])
    monkeypatch.setattr(analysis, "_node_chunks", lambda count, dim: [
        slice(lo, lo + 50) for lo in range(0, count, 50)])
    got = _stack(basis, [0.3, 1.7, 3.0, 60.0])
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("space", KIND_SPACES[1:], ids=lambda s: s.kind)
@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_curve_bands_refined_a_group_at_a_time(space, per_group, monkeypatch):
    # a budget of per_group matrices: no refinement holds more, and the
    # groups' running sums continue each other
    zs = np.geomspace(0.05, 200.0, 7)
    basis = fourier.cached_basis(space)
    want = _stack(basis, zs.tolist())
    widest = []
    real = analysis._concentration_fixed
    monkeypatch.setattr(analysis, "_CURVE_ENTRIES", per_group * basis.dim**2 + 0.5)
    monkeypatch.setattr(analysis, "_concentration_fixed", lambda basis, bands, widths:
                        widest.append(len(bands) - 1) or real(basis, bands, widths))
    got = _stack(basis, zs.tolist())
    assert max(widest) == per_group
    assert np.max(np.abs(got - want)) <= 1e-14
    curve = residual_curve(space, zs)
    assert np.max(np.abs(curve.e - [residual(space, z) for z in zs])) <= 1e-14
