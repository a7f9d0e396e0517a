import copy

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from elacomplex import derham, fa_toolbox as fa

from conftest import BOUNDARY_CONFIGS


@pytest.fixture(scope="module")
def torus():
    return derham.cubical_complex(derham.torus_cells())


@pytest.fixture(scope="module")
def box():
    return derham.cubical_complex(derham.solid_box_cells())


# --- inner products and adjoints -------------------------------------------


def test_inner_product_rejects_bad_grams():
    with pytest.raises(fa.NotSPD):
        fa.InnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(fa.NotSPD):
        fa.InnerProduct(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(fa.DimensionMismatch):
        fa.InnerProduct(np.zeros((2, 3)))


def test_adjoint_identity_grams_is_transpose():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 6))
    gd, gc = fa.InnerProduct.identity(6), fa.InnerProduct.identity(4)
    assert np.allclose(fa.adjoint(A, gd, gc), A.T)


def test_adjoint_pairing_and_involution():
    rng = np.random.default_rng(1)
    gd = fa.InnerProduct(fa.random_spd(5, rng))
    gc = fa.InnerProduct(fa.random_spd(3, rng))
    A = rng.normal(size=(3, 5))
    Astar = fa.adjoint(A, gd, gc)
    for _ in range(10):
        x, y = rng.normal(size=5), rng.normal(size=3)
        assert abs(gc.inner(A @ x, y) - gd.inner(x, Astar @ y)) < 1e-12 * (
            1 + abs(gc.inner(A @ x, y))
        )
    back = fa.adjoint(Astar, gc, gd)
    assert np.allclose(back, A, atol=1e-12)
    with pytest.raises(fa.DimensionMismatch):
        fa.adjoint(A, gc, gd)


# --- kernels and cohomology -------------------------------------------------


def test_kernel_basis_trivial_cases():
    g3 = fa.InnerProduct.identity(3)
    assert fa.kernel_basis(np.zeros((3, 3)), g3).shape[1] == 3
    assert fa.kernel_basis(np.eye(3), g3).shape[1] == 0


def test_kernel_basis_path_graph():
    d = derham.path_graph_gradient(4)
    g = fa.InnerProduct.identity(4)
    B = fa.kernel_basis(d, g)
    assert B.shape[1] == 1
    v = B[:, 0]
    assert np.allclose(v, v[0] * np.ones(4), atol=1e-12)
    assert abs(g.inner(v, v) - 1.0) < 1e-12


def test_kernel_basis_weighted_orthonormal():
    rng = np.random.default_rng(5)
    g = fa.InnerProduct(fa.random_spd(6, rng))
    A = np.vstack([rng.normal(size=6)])  # rank 1
    B = fa.kernel_basis(A, g)
    assert B.shape[1] == 5
    gram = B.T @ g.G @ B
    assert np.allclose(gram, np.eye(5), atol=1e-10)
    assert np.max(np.abs(A @ B)) < 1e-10


def test_cohomology_everything_harmonic():
    cx = fa.FiniteComplex(
        [np.eye(1), np.eye(2), np.eye(1)],
        [np.zeros((2, 1)), np.zeros((1, 2))],
    )
    assert fa.cohomology(cx, 1).dimension == 2


def test_cohomology_basis_properties(torus):
    rep = fa.cohomology(torus, 1)
    assert rep.dimension == 1
    B = rep.basis
    g = torus.gram(1)
    assert np.allclose(B.T @ g.G @ B, np.eye(1), atol=1e-10)
    assert np.max(np.abs(torus.op(1) @ B)) < 1e-8
    assert np.max(np.abs(torus.op(0).T @ g.G @ B)) < 1e-8


def test_cohomology_dimension_weight_independent(torus):
    rng = np.random.default_rng(11)
    base_dims = [fa.cohomology(torus, n).dimension for n in range(4)]
    for _ in range(5):
        grams = [fa.random_spd(d, rng) for d in torus.dims]
        cx = fa.FiniteComplex(grams, torus.operators)
        dims = [fa.cohomology(cx, n).dimension for n in range(4)]
        assert dims == base_dims


def test_cohomology_basis_width_is_the_dimension(torus, box, complexes_p4):
    complexes = [torus, box] + [
        complexes_p4[gt].finite_complex() for gt in BOUNDARY_CONFIGS
    ]
    for cx in complexes:
        for n in range(len(cx.dims)):
            rep = fa.cohomology(cx, n)
            assert rep.basis.shape == (cx.dims[n], rep.dimension)


def test_cohomology_json_dict_is_the_stacked_kernel(torus):
    # the basis is the kernel of A_1 stacked on A_0^T G_1, at the tolerance
    # set by the largest singular value of the stacked rows
    rep = fa.cohomology(torus, 1)
    g = torus.gram(1)
    stacked = np.vstack([torus.op(1), torus.op(0).T @ g.G])
    smax = np.linalg.svd(g.transformed(stacked), compute_uv=False)[0]
    assert rep.rank_tol == fa.default_rank_tol(stacked.shape, smax)
    data = rep.to_json_dict()
    assert list(data) == ["n", "dimension", "basis", "rank_tol"]
    assert data == {
        "n": 1,
        "dimension": 1,
        "basis": fa.kernel_basis(stacked, g, tol=rep.rank_tol).tolist(),
        "rank_tol": rep.rank_tol,
    }


def test_cohomology_basis_width_mismatch_raises(torus):
    cx = fa.FiniteComplex([g.G for g in torus.spaces], torus.operators)
    rep = fa.cohomology(cx, 1)
    forged = fa.CohomologyReport(cx, 1, rep.dimension + 1, rep.rank_tol)
    with pytest.raises(fa.SolverFailure):
        forged.basis


def test_composition_norms_are_the_checked_products(torus, complexes_p4):
    for cx in (torus, complexes_p4["X0"].finite_complex()):
        A = cx.operators
        expected = [float(np.max(np.abs(A[i + 1] @ A[i]))) for i in range(2)]
        assert cx.composition_norms() == expected


# --- Helmholtz ---------------------------------------------------------------


def test_helmholtz_pure_range(torus):
    rng = np.random.default_rng(2)
    u = rng.normal(size=torus.dims[0])
    x = torus.op(0) @ u
    res = fa.helmholtz(x, torus, 1)
    g = torus.gram(1)
    assert g.norm(x - res.x_range) < 1e-10 * max(1.0, g.norm(x))
    assert g.norm(res.x_harm) < 1e-10
    assert g.norm(res.x_costar) < 1e-10


def test_helmholtz_harmonic_vector(torus):
    h = fa.cohomology(torus, 1).basis[:, 0]
    res = fa.helmholtz(h, torus, 1)
    g = torus.gram(1)
    assert g.norm(res.x_harm - h) < 1e-10
    assert g.norm(res.x_range) < 1e-10
    assert g.norm(res.x_costar) < 1e-10


def test_helmholtz_random_orthogonality(torus):
    rng = np.random.default_rng(3)
    g = torus.gram(1)
    for _ in range(20):
        x = rng.normal(size=torus.dims[1])
        res = fa.helmholtz(x, torus, 1)
        nx = max(g.norm(x), 1.0)
        assert res.residual < 1e-10 * nx
        for v in res.pairings.values():
            assert abs(v) < 1e-10 * nx * nx


def test_helmholtz_operator_scales_computed_once_per_level(monkeypatch):
    cx = derham.cubical_complex(derham.torus_cells())
    calls = []
    real = fa.adjoint

    def spy(A, g_dom, g_cod):
        # helmholtz takes A_n* only when it fills its per-level cache
        calls.append(A.shape)
        return real(A, g_dom, g_cod)

    monkeypatch.setattr(fa, "adjoint", spy)
    rng = np.random.default_rng(5)
    for n in (1, 2):
        g = cx.gram(n)
        A_prev, A_n = cx.op(n - 1), cx.op(n)
        op_a = float(np.max(np.abs(A_n)))
        op_b = float(np.max(np.abs(A_prev.T @ g.G)))
        for _ in range(20):
            x = rng.normal(size=cx.dims[n])
            res = fa.helmholtz(x, cx, n)
            # the uncached formula for the kernel residuals
            e2 = max(float(np.linalg.norm(x)), 1.0e-300)
            res_a = float(np.max(np.abs(A_n @ res.x_harm)))
            res_b = float(np.max(np.abs(A_prev.T @ (g.G @ res.x_harm))))
            assert res.kernel_residuals == (
                res_a / max(1.0, op_a * e2),
                res_b / max(1.0, op_b * e2),
            )
    assert calls == [cx.op(1).shape, cx.op(2).shape]


def test_helmholtz_kernel_element_has_no_costar(torus):
    rng = np.random.default_rng(4)
    K = fa.kernel_basis(torus.op(1), torus.gram(1))
    x = K @ rng.normal(size=K.shape[1])
    res = fa.helmholtz(x, torus, 1)
    assert torus.gram(1).norm(res.x_costar) < 1e-10 * max(
        1.0, torus.gram(1).norm(x)
    )


# --- Poincare ----------------------------------------------------------------


def test_poincare_diagonal_example():
    A = np.diag([0.0, 2.0, 3.0])
    g = fa.InnerProduct.identity(3)
    rep = fa.poincare_constant(A, g, g)
    assert abs(rep.constant - 0.5) < 1e-12
    e = rep.extremal / np.linalg.norm(rep.extremal)
    assert np.allclose(np.abs(e), [0, 1, 0], atol=1e-12)


def test_poincare_path_graph():
    d = derham.path_graph_gradient(3)
    g3, g2 = fa.InnerProduct.identity(3), fa.InnerProduct.identity(2)
    rep = fa.poincare_constant(d, g3, g2)
    # path Laplacian spectrum {0, 1, 3} -> smallest positive sigma = 1
    assert abs(rep.constant - 1.0) < 1e-10


def test_poincare_sharpness_and_zero(torus):
    rep = fa.poincare_constant(torus.op(0), torus.gram(0), torus.gram(1))
    x = rep.extremal
    lhs = torus.gram(0).norm(x)
    rhs = rep.constant * torus.gram(1).norm(torus.op(0) @ x)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)
    with pytest.raises(fa.ZeroOperator):
        fa.poincare_constant(
            np.zeros((2, 2)),
            fa.InnerProduct.identity(2),
            fa.InnerProduct.identity(2),
        )


def test_mixed_estimate(torus):
    c0 = fa.poincare_constant(torus.op(0), torus.gram(0), torus.gram(1)).constant
    c1 = fa.poincare_constant(torus.op(1), torus.gram(1), torus.gram(2)).constant
    rng = np.random.default_rng(8)
    g = torus.gram(1)
    H = fa.cohomology(torus, 1).basis
    for _ in range(25):
        x = rng.normal(size=torus.dims[1])
        x = x - H @ (H.T @ (g.G @ x))  # remove harmonic part
        holds, slack = fa.mixed_estimate_check(x, torus, c0, c1)
        assert holds, slack
    with pytest.raises(fa.NotOrthogonalToHarmonics):
        fa.mixed_estimate_check(H[:, 0], torus, c0, c1)


# --- reduced inverse and regular decomposition ------------------------------


def test_reduced_inverse_invertible_case():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    g = fa.InnerProduct.identity(4)
    P = fa.reduced_inverse(A, g, g)
    assert np.allclose(P, np.linalg.inv(A), atol=1e-10)


def test_reduced_inverse_properties(torus):
    A = torus.op(0)
    gd, gc = torus.gram(0), torus.gram(1)
    P = fa.reduced_inverse(A, gd, gc)
    # A P A = A (identity on the range)
    assert np.max(np.abs(A @ P @ A - A)) < 1e-10
    # range of P is G-perpendicular to N(A)
    K = fa.kernel_basis(A, gd)
    if K.size:
        assert np.max(np.abs(K.T @ gd.G @ P)) < 1e-10
    # |P| equals the Poincare constant
    c = fa.poincare_constant(A, gd, gc).constant
    assert abs(fa.operator_norm(P, gc, gd) - c) < 1e-10 * c


def test_regular_decomposition_trivial_level(torus):
    # cohomology vanishes at n=2 on the torus fixture
    ops = fa.regular_decomposition(torus, 2)
    A_prev = torus.op(1)
    assert ops.two_term_defect(A_prev) < 1e-10
    assert ops.three_term_defect(A_prev) < 1e-10
    q1 = ops.q1
    assert np.max(np.abs(q1 @ q1 - q1)) < 1e-10
    n_op = ops.complement
    assert np.max(np.abs(n_op @ n_op - n_op)) < 1e-10
    assert np.max(np.abs(q1 @ n_op)) < 1e-10
    assert np.max(np.abs(n_op @ q1)) < 1e-10


def test_regular_decomposition_harmonic_term(torus):
    # at n=1 the torus has one harmonic direction: the two-term identity
    # picks up exactly the harmonic defect, the three-term identity closes
    ops = fa.regular_decomposition(torus, 1)
    A_prev = torus.op(0)
    assert ops.harm_dim == 1
    assert ops.three_term_defect(A_prev) < 1e-10
    assert ops.two_term_defect(A_prev) > 1e-3
    # Q1 vanishes on N(A_1)
    K = fa.kernel_basis(torus.op(1), torus.gram(1))
    assert np.max(np.abs(ops.q1 @ K)) < 1e-10
    # norm bound |Q1 x| <= |P| |A1 x|
    rng = np.random.default_rng(10)
    p_norm = fa.operator_norm(ops.potential_n, torus.gram(2), torus.gram(1))
    g1, g2 = torus.gram(1), torus.gram(2)
    for _ in range(10):
        x = rng.normal(size=torus.dims[1])
        assert g1.norm(ops.q1 @ x) <= p_norm * g2.norm(torus.op(1) @ x) * (
            1 + 1e-10
        ) + 1e-12


def test_regular_decomposition_rejects_bad_potential(torus):
    bad = np.zeros((torus.dims[1], torus.dims[2]))
    with pytest.raises(fa.InvalidPotential):
        fa.regular_decomposition(torus, 1, p_n=bad)


# --- kernel projector images and pre-bases ----------------------------------


def test_kernel_projector_images_trivial(box):
    rep = fa.kernel_projector_images(box, 1)
    assert rep["harm_dim"] == 0
    assert rep["image_rank_star"] == 0
    assert rep["image_rank_ker"] == 0
    assert rep["spans_agree"]
    assert rep["projector_kills_range"] < 1e-10


def test_kernel_projector_images_torus(torus):
    rep = fa.kernel_projector_images(torus, 1)
    assert rep["harm_dim"] == 1
    assert rep["image_rank_star"] == 1
    assert rep["image_rank_ker"] == 1
    assert rep["spans_agree"]
    assert rep["projector_kills_range"] < 1e-10


def test_pre_basis_check_accepts_harmonics_and_perturbations(torus):
    H = fa.cohomology(torus, 1).basis
    assert fa.pre_basis_check(H, torus)["passed"]
    rng = np.random.default_rng(12)
    perturbed = H + torus.op(0) @ rng.normal(size=(torus.dims[0], H.shape[1]))
    assert fa.pre_basis_check(perturbed, torus)["passed"]


def test_pre_basis_check_rejects_range_vector(torus):
    rng = np.random.default_rng(13)
    b = torus.op(0) @ rng.normal(size=torus.dims[0])
    rep = fa.pre_basis_check(b[:, None], torus)
    assert not rep["passed"]
    assert rep["projected_rank"] == 0


def test_pre_basis_check_cardinality(torus):
    H = fa.cohomology(torus, 1).basis
    with pytest.raises(fa.WrongCardinality):
        fa.pre_basis_check(np.hstack([H, H]), torus)


# --- chain ends ---------------------------------------------------------------


def test_zero_size_linear_algebra():
    # the toolbox takes empty operators and 0-dimensional spaces on its
    # normal path, so it relies on these factorizations of empty arrays
    for m, n in ((0, 3), (3, 0), (0, 0)):
        A = np.zeros((m, n))
        assert np.linalg.svd(A, compute_uv=False).shape == (0,)
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        assert s.shape == (0,)
        _same_bits(U, np.eye(m))
        _same_bits(Vt, np.eye(n))
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        assert (U.shape, s.shape, Vt.shape) == ((m, 0), (0,), (0, n))
        assert np.linalg.matrix_rank(A) == 0
    E = np.zeros((0, 0))
    assert np.linalg.cholesky(E).shape == (0, 0)
    assert cho_solve(cho_factor(E), E).shape == (0, 0)
    assert solve_triangular(E, E).shape == (0, 0)
    # empty right-hand sides against a nonempty factor
    G = fa.random_spd(3, np.random.default_rng(24))
    L = np.linalg.cholesky(G)
    assert cho_solve(cho_factor(G), np.zeros((3, 0))).shape == (3, 0)
    assert solve_triangular(L, np.zeros((3, 0)), lower=True).shape == (3, 0)


@pytest.mark.parametrize("name", ["torus", "solid_box", "all", "X0,X1"])
def test_chain_ends_take_the_normal_path(name, torus, box, complexes_p4):
    cx = {"torus": torus, "solid_box": box}.get(name)
    cx = cx or complexes_p4[name].finite_complex()
    for n in (-1, 4):
        assert cx.gram(n).dim == 0
        assert cx.gram(n).G.shape == (0, 0)
    for n in range(-2, 5):
        assert cx.op(n).shape == (cx.gram(n + 1).dim, cx.gram(n).dim)
    rng = np.random.default_rng(25)
    for n in (0, 3):
        g, A_n, A_prev = cx.gram(n), cx.op(n), cx.op(n - 1)
        rep = fa.cohomology(cx, n)
        H = rep.basis
        assert H.shape == (cx.dims[n], rep.dimension)
        K = fa.kernel_basis(A_n, g)
        assert np.allclose(K.T @ g.G @ K, np.eye(K.shape[1]), atol=1e-10)
        assert fa._max_abs(A_n @ K) < 1e-8
        x = rng.standard_normal(cx.dims[n])
        h = fa.helmholtz(x, cx, n)
        assert h.residual < 1e-10 * max(1.0, g.norm(x))
        assert not (h.x_range if n == 0 else h.x_costar).any()
        images = fa.kernel_projector_images(cx, n)
        assert images["harm_dim"] == rep.dimension
        assert images["image_rank_star"] == images["image_rank_ker"] == rep.dimension
        assert images["spans_agree"]
        assert images["projector_kills_range"] < 1e-10
        assert fa.pre_basis_check(H, cx, n)["passed"]
        d = fa.regular_decomposition(cx, n)
        assert d.harm_dim == rep.dimension
        assert d.three_term_defect(A_prev) <= 1e-12
        assert (d.two_term_defect(A_prev) <= 1e-12) == (rep.dimension == 0)


# --- identity Grams -----------------------------------------------------------


def _same_bits(a, b, path="result"):
    """Equal values and equal sign bits, through dicts, tuples and lists."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _same_bits(a[k], b[k], "%s[%r]" % (path, k))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same_bits(x, y, "%s[%d]" % (path, i))
    elif isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape, path
        assert np.array_equal(a, b), path
        assert np.array_equal(np.signbit(a), np.signbit(b)), path
    else:
        assert a == b, path


def _forced_generic(cx):
    """cx with every space on the generic congruences, factored by Cholesky."""
    spaces = []
    for g in cx.spaces:
        forced = copy.copy(g)
        forced.is_identity = False
        forced.L = np.linalg.cholesky(g.G)
        spaces.append(forced)
    return fa.FiniteComplex(spaces, cx.operators)


def _public_results(cx):
    """Every public fa_toolbox result on the complex cx."""
    out = {}
    rng = np.random.default_rng(21)
    for n in range(len(cx.dims)):
        rep = fa.cohomology(cx, n)
        out["cohomology", n] = (rep.dimension, rep.rank_tol, rep.basis)
        out["harmonic_projector", n] = fa.harmonic_projector(cx, n)
    for i in range(len(cx.operators)):
        A, gd, gc = cx.op(i), cx.gram(i), cx.gram(i + 1)
        out["kernel_basis", i] = fa.kernel_basis(A, gd)
        out["rank_of", i] = fa.rank_of(A, gd, gc)
        out["adjoint", i] = fa.adjoint(A, gd, gc)
        out["reduced_inverse", i] = fa.reduced_inverse(A, gd, gc)
        out["operator_norm", i] = fa.operator_norm(A, gd, gc)
    constants = fa.complex_constants(cx)
    for name, rep in constants.items():
        out[name] = rep and (rep.constant, rep.sigma_min, rep.extremal, rep.rank_tol)
    for n in (1, 2):
        for t in range(3):
            h = fa.helmholtz(rng.standard_normal(cx.dims[n]), cx, n)
            out["helmholtz", n, t] = (
                h.x_range, h.x_harm, h.x_costar, h.pairings, h.residual,
                h.kernel_residuals,
            )
        d = fa.regular_decomposition(cx, n)
        out["regular_decomposition", n] = (
            d.q1, d.q0, d.complement, d.harmonic, d.potential_n,
            d.potential_prev, d.harm_dim,
        )
        out["kernel_projector_images", n] = fa.kernel_projector_images(cx, n)
    H = fa.cohomology(cx, 1).basis
    B = H + cx.op(0) @ rng.standard_normal((cx.dims[0], H.shape[1]))
    out["pre_basis_check"] = fa.pre_basis_check(B, cx)
    for t in range(3):
        x = rng.standard_normal(cx.dims[1])
        x = x - H @ (H.T @ cx.gram(1).apply_gram(x))
        out["mixed_estimate_check", t] = fa.mixed_estimate_check(
            x, cx, constants["c0"].constant, constants["c1"].constant
        )
    return out


@pytest.mark.parametrize(
    "cells",
    [derham.torus_cells(), derham.solid_box_cells(), derham.solid_box_cells(2, 3, 4)],
    ids=["torus", "solid_box", "box_2x3x4"],
)
def test_identity_grams_skip_congruences_bit_identically(cells):
    cx = derham.cubical_complex(cells)
    assert all(g.is_identity for g in cx.spaces)
    # the Cholesky factor of I is bitwise I, sign bits included
    for g in cx.spaces:
        _same_bits(np.linalg.cholesky(g.G), g.L)
    generic = _forced_generic(cx)
    assert not any(g.is_identity for g in generic.spaces)
    _same_bits(_public_results(cx), _public_results(generic))


def _generic_congruences(G, M):
    """Each congruence of the Gram G applied to M, by the generic formulas."""
    G = 0.5 * (G + G.T)
    L = np.linalg.cholesky(G)
    x = M[:, 0]
    return [
        L.T @ M,
        solve_triangular(L.T, M, lower=False),
        solve_triangular(L, M.T, lower=True).T,
        M @ L.T,
        M @ G,
        G @ x,
        cho_solve(cho_factor(G), M),
        float(x @ G @ M[:, 1]),
    ]


def _congruences(g, M):
    x = M[:, 0]
    return [
        g.to_orthonormal(M),
        g.from_orthonormal(M),
        g.transformed(M),
        g.untransformed(M),
        g.times_gram(M),
        g.apply_gram(x),
        g.solve_gram(M),
        g.inner(x, M[:, 1]),
    ]


def _non_identity_grams():
    n = 4
    diagonal = np.eye(n)
    diagonal[2, 2] = np.nextafter(1.0, 2.0)
    tiny = np.eye(n)
    tiny[0, 3] = tiny[3, 0] = 1e-300
    negative_zero = np.eye(n)
    negative_zero[1, 2] = negative_zero[2, 1] = -0.0
    return {
        "diagonal": diagonal,
        "tiny": tiny,
        "negative_zero": negative_zero,
        "spd": fa.random_spd(n, np.random.default_rng(23)),
    }


@pytest.mark.parametrize("name", sorted(_non_identity_grams()))
def test_grams_not_exactly_identity_take_the_generic_path(name):
    G = _non_identity_grams()[name]
    before = G.copy()
    g = fa.InnerProduct(G)
    assert not g.is_identity
    _same_bits(g.L, np.linalg.cholesky(0.5 * (G + G.T)))
    M = np.random.default_rng(22).standard_normal((4, 4))
    _same_bits(_congruences(g, M), _generic_congruences(G, M))
    _same_bits(G, before)


def test_identity_detection():
    assert fa.InnerProduct.identity(5).is_identity
    assert fa.InnerProduct.identity(0).is_identity
    # -0.0 at (i, j) and (j, i) survives symmetrisation and is generic; a
    # lone -0.0 becomes +0.0 there (-0.0 + 0.0 = +0.0), so it is identity
    lone = np.eye(3)
    lone[0, 1] = -0.0
    g = fa.InnerProduct(lone)
    assert g.is_identity
    assert not np.signbit(g.G).any()
    assert np.signbit(lone[0, 1])  # the caller's array is unchanged
    assert not fa.InnerProduct(2.0 * np.eye(3)).is_identity
    for cells in (derham.torus_cells(), derham.solid_box_cells()):
        cx = derham.cubical_complex(cells)
        loaded = fa.FiniteComplex.from_json_dict(cx.to_json_dict())
        assert all(g.is_identity for g in cx.spaces + loaded.spaces)


def test_identity_results_are_fresh_arrays(torus):
    # skipped congruences return their argument: results that escape must
    # still own their data, neither aliasing the caller's operator nor
    # pinning a whole SVD factor
    A, gd, gc = torus.op(0), torus.gram(0), torus.gram(1)
    before = A.copy()
    results = [
        fa.adjoint(A, gd, gc),
        fa.kernel_basis(A, gd),
        fa.poincare_constant(A, gd, gc).extremal,
        fa.reduced_inverse(A, gd, gc),
        fa.cohomology(torus, 1).basis,
    ]
    for r in results:
        assert r.base is None
        assert not np.shares_memory(r, A)
    _same_bits(A, before)


# --- complex construction ----------------------------------------------------


def test_complex_rejects_bad_shapes():
    with pytest.raises(fa.DimensionMismatch) as info:
        fa.FiniteComplex([np.eye(2), np.eye(2)], [np.zeros((3, 2))])
    assert not isinstance(info.value, fa.NotAComplex)


def test_complex_rejects_noncomplex():
    A0 = np.ones((2, 2))
    A1 = np.ones((2, 2))
    with pytest.raises(fa.NotAComplex, match="complex property violated"):
        fa.FiniteComplex([np.eye(2)] * 3, [A0, A1])


def test_json_roundtrip(torus):
    data = torus.to_json_dict()
    cx = fa.FiniteComplex.from_json_dict(data)
    assert cx.dims == torus.dims
    for a, b in zip(cx.operators, torus.operators):
        assert np.array_equal(a, b)
