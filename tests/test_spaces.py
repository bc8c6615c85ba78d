import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import BSpline

from dense_bspline import dense_bspline_coeffs, folded_bincount_gram, mirror_fold
from nugs import experiments, spaces
from nugs.spaces import (GrowthConstants, SpaceSpec, _bspline_all_values, _bspline_blocks,
                         build_basis, breakpoints,
                         derivative_growth, dimension, evaluate,
                         growth_constants, member_values, min_spacing, sup_growth)

ALL_SPECS = [
    SpaceSpec.trig(3),
    SpaceSpec.legendre(5),
    SpaceSpec.piecewise_poly([0.3, 0.7], [3, 1, 4]),
    SpaceSpec.spline(3, 6),
    SpaceSpec.spline(1, 2),
    SpaceSpec.piecewise_const(4),
]


def quad_inner(basis, i, j):
    """Independent Gram oracle: QUADPACK on each cell."""
    total = 0.0
    for a, b in zip(basis.breaks[:-1], basis.breaks[1:]):
        if basis.orders is not None:
            fr = quad(lambda x: (evaluate(basis, x)[i] * np.conj(evaluate(basis, x)[j])).real,
                      a, b, limit=200)[0]
            fi = quad(lambda x: (evaluate(basis, x)[i] * np.conj(evaluate(basis, x)[j])).imag,
                      a, b, limit=200)[0]
            total += fr + 1j * fi
        else:
            total += quad(lambda x: evaluate(basis, x)[i] * evaluate(basis, x)[j],
                          a, b, limit=200)[0]
    return total


def test_dimensions():
    assert dimension(SpaceSpec.trig(3)) == 7
    assert dimension(SpaceSpec.piecewise_poly([0.5], [2, 4])) == 8
    assert dimension(SpaceSpec.spline(3, 10)) == 13
    assert dimension(SpaceSpec.legendre(0)) == 1
    assert dimension(SpaceSpec.piecewise_const(9)) == 9


def test_spline_dimension_matches_rank():
    # oracle: rank of the space of C^{d-1} piecewise cubics sampled densely
    basis = build_basis(SpaceSpec.spline(3, 10))
    xs = np.linspace(0, 1, 400, endpoint=False)
    vals = evaluate(basis, xs)
    assert np.linalg.matrix_rank(vals, tol=1e-8) == 13


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind + str(dimension(s)))
def test_gram_identity_by_quadrature(spec):
    basis = build_basis(spec)
    dim = basis.dim
    idx = np.random.default_rng(1).choice(dim * dim, size=min(dim * dim, 12), replace=False)
    for flat in idx:
        i, j = divmod(int(flat), dim)
        val = quad_inner(basis, i, j)
        assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_piecewise_const_basis_is_scaled_indicators():
    basis = build_basis(SpaceSpec.piecewise_const(2))
    assert np.allclose(evaluate(basis, 0.25), [np.sqrt(2), 0])
    assert np.allclose(evaluate(basis, 0.75), [0, np.sqrt(2)])


def test_legendre_basis_closed_form():
    basis = build_basis(SpaceSpec.legendre(1))
    xs = np.linspace(0, 1, 11, endpoint=False)
    vals = evaluate(basis, xs)
    assert np.allclose(vals[0], 1.0)
    assert np.allclose(vals[1], np.sqrt(3) * (2 * xs - 1))
    assert np.allclose(evaluate(basis, 0.5), [1.0, 0.0])


def test_trig_eval_at_zero():
    basis = build_basis(SpaceSpec.trig(1))
    assert np.allclose(evaluate(basis, 0.0), [1, 1, 1])


def test_evaluate_rejects_outside_domain():
    basis = build_basis(SpaceSpec.legendre(2))
    with pytest.raises(ValueError):
        evaluate(basis, 1.0)
    with pytest.raises(ValueError):
        evaluate(basis, -0.1)


def test_half_open_cells():
    basis = build_basis(SpaceSpec.piecewise_const(2))
    assert np.allclose(evaluate(basis, 0.5), [0, np.sqrt(2)])


def test_spline_space_nests_in_piecewise_poly():
    # project each spline basis function onto the same-knot piecewise space
    d, l = 3, 5
    spline = build_basis(SpaceSpec.spline(d, l))
    knots = breakpoints(spline.space)[1:-1]
    pp = build_basis(SpaceSpec.piecewise_poly(knots, [d] * l))
    xs = np.linspace(0, 1, 800, endpoint=False)
    sv = evaluate(spline, xs)
    pv = evaluate(pp, xs)
    # least-squares residual of each spline function in the piecewise frame
    coeffs, *_ = np.linalg.lstsq(pv.T, sv.T, rcond=None)
    resid = sv.T - pv.T @ coeffs
    assert np.max(np.abs(resid)) < 1e-10


def test_build_rejects_coincident_knots():
    with pytest.raises(ValueError):
        SpaceSpec.piecewise_poly([0.5, 0.5 + 1e-15], [1, 1, 1])


def test_gamma_trig_bernstein_equality():
    for m in range(1, 17):
        assert derivative_growth(SpaceSpec.trig(m)) == pytest.approx(2 * np.pi * m, rel=1e-8)


def test_gamma_piecewise_const_vanishes():
    for l in (1, 3, 8):
        assert derivative_growth(SpaceSpec.piecewise_const(l)) == 0.0


def test_gamma_legendre_matches_quadrature_eigen_oracle():
    # independent oracle: Gram matrices of values/derivatives on a dense grid
    m = 4
    basis = build_basis(SpaceSpec.legendre(m))
    xs, ws = np.polynomial.legendre.leggauss(60)
    xs = (xs + 1) / 2
    ws = ws / 2
    vals = evaluate(basis, xs)
    eps = 1e-7
    dvals = (evaluate(basis, np.clip(xs + eps, 0, 1 - 1e-12)) - vals) / eps
    dgram = (dvals * ws) @ dvals.T
    lam = np.linalg.eigvalsh(dgram)
    assert derivative_growth(SpaceSpec.legendre(m)) == pytest.approx(
        np.sqrt(lam[-1]), rel=1e-5)


def test_gamma_hand_value_degree_one():
    # extremizer sqrt(12) (x - 1/2): derivative norm sqrt(12)
    assert derivative_growth(SpaceSpec.legendre(1)) == pytest.approx(2 * np.sqrt(3), rel=1e-12)


def test_gamma_piecewise_scales_inversely_with_cell_width():
    g1 = derivative_growth(SpaceSpec.piecewise_poly([], [3]))
    g = derivative_growth(SpaceSpec.piecewise_poly([0.25], [3, 3]))
    # narrowest cell has width 1/4: growth is 4x the unit-interval value
    assert g == pytest.approx(4 * g1, rel=1e-10)


def test_markov_bound_holds_from_degree_four():
    # the sqrt(2) M^2 form only holds from M=4 upward (see test_acceptance)
    for m in range(4, 21):
        assert derivative_growth(SpaceSpec.legendre(m)) <= np.sqrt(2) * m * m


def test_markov_bound_piecewise_scaled_by_min_spacing():
    eta = 0.3
    for m in (4, 6):
        g = derivative_growth(SpaceSpec.piecewise_poly([0.3, 0.7], [m, m, m]))
        assert g <= np.sqrt(2) * m * m / eta


def test_zeta_legendre_kernel_value():
    for m in (0, 1, 2, 5, 9):
        assert sup_growth(SpaceSpec.legendre(m)) == pytest.approx(m + 1, rel=1e-10)


def test_zeta_legendre_grid_search_oracle():
    # brute force: max of the kernel diagonal on a fine grid
    m = 6
    basis = build_basis(SpaceSpec.legendre(m))
    xs = np.linspace(0, 1, 20001, endpoint=False)
    vals = evaluate(basis, xs)
    brute = np.sqrt(np.max(np.sum(vals**2, axis=0)))
    z = sup_growth(SpaceSpec.legendre(m))
    assert z >= brute - 1e-9
    assert z == pytest.approx(m + 1, rel=1e-8)


def test_zeta_piecewise_const():
    for l in (1, 4, 16):
        assert sup_growth(SpaceSpec.piecewise_const(l)) == pytest.approx(np.sqrt(l), rel=1e-12)


def test_zeta_scaling_with_interval_length():
    # degree-M space restricted to a cell of width |I|: (M+1)/sqrt(|I|)
    z = sup_growth(SpaceSpec.piecewise_poly([0.25], [2, 2]))
    assert z == pytest.approx(3 / np.sqrt(0.25), rel=1e-10)


def test_growth_constants_bundle():
    gc = growth_constants(SpaceSpec.trig(2))
    assert isinstance(gc, GrowthConstants)
    assert gc.derivative_growth == pytest.approx(4 * np.pi)
    assert gc.sup_growth == pytest.approx(np.sqrt(5))


def test_min_spacing():
    assert min_spacing(SpaceSpec.trig(4)) == 1.0
    assert min_spacing(SpaceSpec.piecewise_poly([0.3, 0.7], [1, 1, 1])) == pytest.approx(0.3)
    assert min_spacing(SpaceSpec.spline(2, 8)) == pytest.approx(1 / 8)


def test_space_json_round_trip():
    for spec in ALL_SPECS:
        assert SpaceSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("l", [1, 2, 7, 40])
def test_bspline_values_match_scipy_design_matrix(d, l):
    tau = np.concatenate((np.zeros(d + 1), np.arange(1, l) / l, np.ones(d + 1)))
    x = np.concatenate((np.arange(l) / l, np.random.default_rng(d + l).uniform(0.0, 1.0, 200)))
    got = _bspline_all_values(d, l, x)
    want = BSpline.design_matrix(x, tau, d).toarray().T
    assert got.shape == (l + d, x.size)
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) <= 1e-15


def _band_gram(d, l):
    """The folded L2 Gram that the stability ratio reads: the band written
    into the upper triangle of a zero matrix."""
    return experiments._shifted(np.zeros((l + d, l + d)), spaces._bspline_band(d, l), -1.0)


def _symmetric(upper):
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("l", [1, 2, 5, 23])
def test_banded_bspline_gram_matches_dense(d, l):
    raw = dense_bspline_coeffs(d, l).reshape(l + d, -1)
    upper = _band_gram(d, l)
    assert np.array_equal(upper, np.triu(upper))
    gram = _symmetric(upper)
    assert np.max(np.abs(gram - mirror_fold(raw @ raw.T))) <= 1e-15
    # the fold keeps half-width d in its [even | middle | odd] order
    rows, cols = np.indices(gram.shape)
    assert np.all(gram[np.abs(rows - cols) > d] == 0.0)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_bspline_gram_scatter_matches_dense(d):
    # the band adds each entry's cell terms in the order of an (r, c) loop
    # over the cells' local Grams, so its upper triangle is that of the
    # loop's fold bit for bit
    for l in (2 * d + 1, 2 * d + 2, 100):
        raw = dense_bspline_coeffs(d, l).reshape(l + d, -1)
        upper = _band_gram(d, l)
        assert np.max(np.abs(_symmetric(upper) - mirror_fold(raw @ raw.T))) <= 1e-15
        blocks = _bspline_blocks(d, l)
        local = blocks.transpose(0, 2, 1) @ blocks
        loop, j = np.zeros((l + d, l + d)), np.arange(l)
        for r in range(d + 1):
            for c in range(d + 1):
                loop[j + r, j + c] += local[:, r, c]
        assert np.array_equal(upper, np.triu(spaces._mirror_fold(loop[:(l + d + 1) // 2])))


@pytest.mark.parametrize("d", range(6))
def test_bspline_band_bitwise_equal_to_upper_band_of_gram(d):
    # the band sums each entry in bincount's order, so every bit of the
    # folded dense Gram's upper band, zero-padded at the end of each diagonal
    for l in sorted({1, 2, d, d + 1, 2 * d + 1, 2 * d + 2, 60} - {0}):
        band, gram = spaces._bspline_band(d, l), folded_bincount_gram(d, l)
        assert band.shape == (d + 1, l + d)
        want = np.array([np.concatenate((np.diagonal(gram, k), np.zeros(k)))
                         for k in range(d + 1)])
        assert np.array_equal(band.view(np.uint64), want.view(np.uint64)), l


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_rescaled_bspline_blocks_match_dense(d):
    for l in sorted({1, d, 2 * d, 2 * d + 1, 2 * d + 2, 23, 100} - {0}):
        j = np.arange(l)[:, None]
        want = dense_bspline_coeffs(d, l)[j + np.arange(d + 1), j].transpose(0, 2, 1)
        got = _bspline_blocks(d, l)
        assert got.shape == (l, d + 1, d + 1)
        assert np.max(np.abs(got - want)) <= 1e-14
        if l <= 2 * d + 1:
            assert np.array_equal(got, want)


def _bspline_blocks_by_mpmath(mpmath, d, l, cells):
    """Oracle: the blocks of ``cells``, [c, n, r], projected at 40 digits
    from Cox-de Boor on exact knots by a (d+1)-point Gauss rule, which is
    exact for the degree <= 2d products."""
    p = d + 1
    tau = [0] * d + [mpmath.mpf(k) / l for k in range(l + 1)] + [1] * d

    def bspline(i, r, x):
        if r == 0:
            return 1 if tau[i] <= x < tau[i + 1] else 0
        out = 0
        if tau[i + r] > tau[i]:
            out += (x - tau[i]) / (tau[i + r] - tau[i]) * bspline(i, r - 1, x)
        if tau[i + r + 1] > tau[i + 1]:
            out += (tau[i + r + 1] - x) / (tau[i + r + 1] - tau[i + 1]) * bspline(i + 1, r - 1, x)
        return out

    gx = [mpmath.findroot(lambda t: mpmath.legendre(p, t), t0)
          for t0 in np.polynomial.legendre.leggauss(p)[0]]
    gw = [2 * (1 - t**2) / (p * mpmath.legendre(p - 1, t)) ** 2 for t in gx]
    h = mpmath.mpf(1) / l
    out = np.empty((len(cells), p, p))
    for c, j in enumerate(cells):
        for n in range(p):
            for r in range(p):
                out[c, n, r] = float(sum(
                    w * h / 2 * bspline(j + r, d, j * h + h / 2 * (1 + t))
                    * mpmath.sqrt((2 * n + 1) / h) * mpmath.legendre(n, t)
                    for t, w in zip(gx, gw)))
    return out


@pytest.mark.parametrize("d, l", [(1, 16), (3, 8), (3, 60), (3, 243), (1, 794)])
def test_bspline_blocks_and_spline_basis_raw_array_match_mpmath(monkeypatch, d, l):
    # the border cells and a middle one, against 40-digit coefficients; the
    # raw array is the one build_basis hands to its QR
    mpmath = pytest.importorskip("mpmath")
    cells = sorted({*range(min(l, d + 1)), *range(max(0, l - d - 1), l), l // 2})
    with mpmath.workdps(40):
        want = _bspline_blocks_by_mpmath(mpmath, d, l, cells)
    assert np.max(np.abs(_bspline_blocks(d, l)[cells] - want)) <= 1e-15
    factored = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a: factored.append(a.copy()) or qr(a))
    build_basis(SpaceSpec.spline(d, l))
    raw = factored[0].T.reshape(l + d, l, d + 1)
    j = np.array(cells)[:, None]
    got = raw[j + np.arange(d + 1), j].transpose(0, 2, 1)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("d, l", [(1, 794), (3, 243), (2, 30)])
def test_spline_basis_evaluates_bsplines_on_at_most_2d_plus_1_cells(monkeypatch, d, l):
    sizes = []
    values = spaces._bspline_all_values
    monkeypatch.setattr(spaces, "_bspline_all_values",
                        lambda *args: sizes.append(args[2].size) or values(*args))
    spaces._bspline_table.cache_clear()
    build_basis(SpaceSpec.spline(d, l))
    assert sizes and max(sizes) <= (2 * d + 1) * (d + 1)


def test_bspline_gram_is_hat_mass_matrix_at_degree_one():
    l = 9
    h = 1.0 / l
    want = (h / 6) * (4 * np.eye(l + 1) + np.eye(l + 1, k=1) + np.eye(l + 1, k=-1))
    want[0, 0] = want[-1, -1] = h / 3
    assert np.allclose(_symmetric(_band_gram(1, l)), mirror_fold(want), rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS + [SpaceSpec.legendre(60), SpaceSpec.spline(3, 40)],
                         ids=lambda s: s.kind + str(dimension(s)))
def test_member_values_match_basis_values(spec):
    # the member folded per cell against the dim x len(x) table of basis
    # values; measured differences are at most 5.0e-16 of the largest value
    # (legendre 60), so 1e-14 of it leaves a wide margin
    basis = build_basis(spec)
    rng = np.random.default_rng(12)
    coeffs = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    xs = np.concatenate((breakpoints(spec)[:-1], rng.uniform(0, 1, 200)))  # 0 and every break
    want = coeffs @ evaluate(basis, xs)
    got = member_values(basis, coeffs, xs)
    assert got.shape == (xs.size,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(ALL_SPECS + [SpaceSpec.legendre(60), SpaceSpec.spline(3, 40)]),
       st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=1,
                max_size=50),
       st.integers(min_value=0))
def test_basis_values_are_the_unit_members(spec, xs, i):
    # measured differences are at most 2.7e-16 of the function's largest value
    basis = build_basis(spec)
    i %= basis.dim
    want = member_values(basis, np.eye(basis.dim)[i], xs)
    got = evaluate(basis, xs)[i]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


@pytest.mark.parametrize("bad", [np.ones(3), np.ones(5), np.ones((4, 2)),
                                 [1.0, np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]],
                         ids=["short", "long", "2-D", "nan", "inf"])
def test_member_values_rejects_bad_coefficients(bad):
    basis = build_basis(SpaceSpec.piecewise_const(4))
    with pytest.raises(ValueError, match="coefficients"):
        member_values(basis, bad, [0.5])


@pytest.mark.parametrize("build, message", [
    (lambda: SpaceSpec(kind="wavelet"), "unknown space kind 'wavelet'"),
    (lambda: SpaceSpec.trig(-1), "order must be nonnegative"),
    (lambda: SpaceSpec.legendre(-2), "order must be nonnegative"),
    (lambda: SpaceSpec.piecewise_poly([0.0], [1, 1]), "knots must lie strictly inside"),
    (lambda: SpaceSpec.piecewise_poly([0.5, 1.0], [1, 1, 1]), "knots must lie strictly inside"),
    (lambda: SpaceSpec.piecewise_poly([0.5, 0.5], [1, 1, 1]),
     "knots must be separated by more than 1e-14"),
    (lambda: SpaceSpec.piecewise_poly([0.5], [1]), "need one degree per subinterval"),
    (lambda: SpaceSpec.piecewise_poly([0.5], [1, -1]), "degrees must be nonnegative"),
    (lambda: SpaceSpec(kind="piecewise_poly", knots=(0.5,), degrees=1),
     "degrees must be a sequence of integers, got 1"),
    (lambda: SpaceSpec.piecewise_poly([0.5], 2), "degrees must be a sequence of integers, got 2"),
    (lambda: SpaceSpec(kind="piecewise_poly", knots=(0.5,), degrees=None),
     "degrees must be a sequence of integers, got None"),
    (lambda: SpaceSpec.piecewise_poly([0.5], None), "degrees must be a sequence"),
    (lambda: SpaceSpec.spline(-1, 4), "spline needs degree >= 0 and cells >= 1"),
    (lambda: SpaceSpec.spline(2, 0), "spline needs degree >= 0 and cells >= 1"),
    (lambda: SpaceSpec.piecewise_const(0), "piecewise_const needs cells >= 1"),
])
def test_space_spec_validation_messages(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# each integer field of SpaceSpec, set through a factory or the constructor
INTEGER_FIELDS = [
    pytest.param("degree", SpaceSpec.trig, id="trig"),
    pytest.param("degree", SpaceSpec.legendre, id="legendre"),
    pytest.param("degree", lambda v: SpaceSpec.spline(v, 4), id="spline-degree"),
    pytest.param("cells", lambda v: SpaceSpec.spline(1, v), id="spline-cells"),
    pytest.param("cells", SpaceSpec.piecewise_const, id="piecewise_const"),
    pytest.param("degrees", lambda v: SpaceSpec.piecewise_poly([0.5], [1, v]),
                 id="piecewise_poly"),
    pytest.param("degree", lambda v: SpaceSpec(kind="trig", degree=v), id="constructor-trig"),
    pytest.param("cells", lambda v: SpaceSpec(kind="piecewise_const", cells=v),
                 id="constructor-piecewise_const"),
]


@pytest.mark.parametrize("value", [True, 2.5, 2.0])
@pytest.mark.parametrize("field, build", INTEGER_FIELDS)
def test_space_spec_rejects_a_non_integer(field, build, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        build(value)


@pytest.mark.parametrize("field, build", INTEGER_FIELDS)
def test_space_spec_stores_a_numpy_integer_as_int(field, build):
    spec = build(np.int64(2))
    stored = getattr(spec, field)
    assert all(type(v) is int for v in (stored if field == "degrees" else (stored,)))
    assert spec == build(2)
    assert SpaceSpec.from_json(spec.to_json()) == spec


def test_piecewise_bases_are_the_cell_order_identity():
    assert np.array_equal(build_basis(SpaceSpec.legendre(3)).coeffs, np.eye(4)[:, None, :])
    assert np.array_equal(build_basis(SpaceSpec.piecewise_const(5)).coeffs,
                          np.eye(5)[:, :, None])
    coeffs = build_basis(SpaceSpec.piecewise_poly([0.2, 0.6], [1, 0, 2])).coeffs
    want = np.zeros((6, 3, 3))
    for row, (cell, order) in enumerate([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2)]):
        want[row, cell, order] = 1.0
    assert np.array_equal(coeffs, want)


def _growth_by_brute_force(spec):
    """Both growth constants of a space cell by cell, from the cell Gram of
    its basis (Gauss quadrature of ``evaluate`` values) and its pseudo-
    inverse: the sup of the kernel diagonal v(x)^T G^+ v(x) on a fine grid,
    and the largest eigenvalue of the derivative Gram, whose entries come
    from exact Legendre derivatives (numpy's ``legder``), against G."""
    basis = build_basis(spec)
    p = basis.local_dim
    xg, wg = np.polynomial.legendre.leggauss(p + 1)
    # dmat[k, n]: order-k coefficient of d/dt of the normalized P_n
    dmat = np.zeros((p, p))
    for n in range(p):
        dmat[:n, n] = np.polynomial.legendre.legder(np.eye(p)[n])[:n] * np.sqrt(
            (2 * n + 1) / (2 * np.arange(n) + 1))
    gamma = zeta = 0.0
    for j, (a, b) in enumerate(zip(basis.breaks[:-1], basis.breaks[1:])):
        h = b - a
        v = evaluate(basis, a + h / 2 * (xg + 1))
        gram = (v * (h / 2 * wg)) @ v.T
        lam, vecs = np.linalg.eigh(gram)
        keep = lam > 1e-10 * lam[-1]
        half = vecs[:, keep] / np.sqrt(lam[keep])           # G^+ = half half^T
        grid = a + h * np.concatenate((np.linspace(0, 1, 4001)[:-1], [1 - 1e-13]))
        kernel = np.sum((half.T @ evaluate(basis, grid)) ** 2, axis=0)
        zeta = max(zeta, np.sqrt(kernel.max()))
        deriv = basis.coeffs[:, j, :] @ dmat.T * (2 / h)   # derivative coefficients
        dgram = half.T @ deriv @ deriv.T @ half
        gamma = max(gamma, np.sqrt(np.linalg.eigvalsh(dgram)[-1]))
    return gamma, zeta


@pytest.mark.parametrize("spec", [
    SpaceSpec.spline(0, 3), SpaceSpec.spline(1, 4), SpaceSpec.spline(2, 5),
    SpaceSpec.spline(3, 6), SpaceSpec.spline(5, 2), SpaceSpec.spline(3, 1),
    SpaceSpec.piecewise_poly([0.3, 0.7], [3, 1, 4]),
    SpaceSpec.piecewise_poly([0.1, 0.15, 0.9], [0, 5, 1, 2]),
    SpaceSpec.piecewise_poly([0.25, 0.5], [2, 1, 2]),
], ids=lambda s: s.kind + str(dimension(s)))
def test_growth_constants_match_brute_force_oracle(spec):
    gamma, zeta = _growth_by_brute_force(spec)
    gc = growth_constants(spec)
    assert gc.derivative_growth == pytest.approx(gamma, rel=1e-9)
    # the grid's last point sits 1e-13 of a cell short of the maximizing end
    assert gc.sup_growth == pytest.approx(zeta, rel=1e-9)


def test_growth_constants_build_no_basis(monkeypatch):
    def no_basis(space):
        raise AssertionError(f"build_basis({space})")

    monkeypatch.setattr(spaces, "build_basis", no_basis)
    for spec in ALL_SPECS + [SpaceSpec.spline(3, 40), SpaceSpec.legendre(0)]:
        gc = growth_constants(spec)
        assert np.isfinite(gc.derivative_growth) and gc.sup_growth > 0


@pytest.mark.parametrize("text, message", [
    ('{"kind": "legendre", "m": 2.7}', "m must be an integer >= 0, got 2.7"),
    ('{"kind": "trig", "m": true}', "m must be an integer >= 0, got True"),
    ('{"kind": "spline", "d": 3}', "expected a JSON object with the key 'l'"),
    ('{"kind": "piecewise_const", "l": 0}', "l must be an integer >= 1, got 0"),
    ('{"kind": "piecewise_poly", "knots": [0.5], "degrees": [1, 1.5]}',
     "degrees must be an integer >= 0, got 1.5"),
    ('{"kind": "nope", "knots": [], "degrees": [1]}', "unknown space kind 'nope'"),
    ('{"m": 2}', "expected a JSON object with the key 'kind'"),
    ('["legendre", 2]', "expected a JSON object with the key 'kind'"),
])
def test_space_from_json_rejects_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        SpaceSpec.from_json(text)


def test_build_basis_rejects_cells_narrower_than_knot_separation():
    with pytest.raises(ValueError, match="cells narrower than 1e-14"):
        build_basis(SpaceSpec.piecewise_poly([1e-16], [0, 0]))


@pytest.mark.parametrize("knots", [("0.5",), 0.5, (True,)])
def test_space_spec_knots_must_be_finite_real_numbers(knots):
    with pytest.raises(ValueError, match="knots must be a sequence of finite real numbers"):
        SpaceSpec(kind="piecewise_poly", knots=knots, degrees=(1, 1))


def test_space_spec_stores_knots_as_floats():
    spec = SpaceSpec(kind="piecewise_poly", knots=[np.float32(0.5)], degrees=(1, 1))
    assert spec.knots == (0.5,) and type(spec.knots[0]) is float


@pytest.mark.parametrize("change, message", [
    ({"knots": 5}, "knots must be a list, got 5"),
    ({"knots": 0.5}, "knots must be a list, got 0.5"),
    ({"degrees": 3}, "degrees must be a list, got 3"),
    ({"knots": ["0.5"]}, "knots must be a number, got '0.5'"),
    ({"knots": [None]}, "knots must be a number, got None"),
    ({"knots": [True]}, "knots must be a number, got True"),
])
def test_space_from_json_checks_the_knot_and_degree_lists(change, message):
    d = json.loads(SpaceSpec.piecewise_poly([0.5], [1, 2]).to_json())
    with pytest.raises(ValueError, match=message):
        SpaceSpec.from_json(json.dumps({**d, **change}))
