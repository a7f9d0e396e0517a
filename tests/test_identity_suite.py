import random

import pytest

from elacomplex import identity_suite as ids
from elacomplex import poly_calculus as pc
from elacomplex.poly_calculus import Div, Grad, Poly3, PolyMatField, Rot, grad, rotrot_t
from elacomplex.rational import Q


def test_registry_has_28_cases():
    assert len(ids.ALL_IDENTITY_IDS) == 28
    assert ids.ALL_IDENTITY_IDS[0] == "ELA-A01"
    assert ids.ALL_IDENTITY_IDS[-1] == "ELA-SCHWARZ"


def test_registry_file_matches_code():
    assert ids.load_registry_file() == ids.registry_metadata()


def test_unknown_identity():
    with pytest.raises(ids.UnknownIdentity):
        ids.run_identity("ELA-A99")


def test_all_pass_quick():
    for rep in ids.run_all(trials=5, degree=3, seed=11):
        assert rep.passed, (rep.identity_id, rep.failures)


def test_every_mutation_detected():
    for rep in ids.run_all(trials=5, degree=3, seed=11, mutated=True):
        assert not rep.passed, rep.identity_id
        assert rep.failures
        ce = rep.failures[0]["counterexample"]
        assert isinstance(ce, str) and ce


def test_reports_deterministic():
    a = ids.run_identity("ELA-A09", trials=8, degree=3, seed=3)
    b = ids.run_identity("ELA-A09", trials=8, degree=3, seed=3)
    da, db = a.to_dict(), b.to_dict()
    assert da == db


def test_conditional_inputs_constructed_not_rejected():
    rng = random.Random(5)
    S = ids._sample("skew", rng, 3)
    assert pc.sym(S) == PolyMatField.zero()
    T = ids._sample("tracefree", rng, 3)
    assert pc.trace(T).is_zero()
    Y = ids._sample("symmetric", rng, 3)
    assert Y == Y.transpose()


# --- oracles for the product rules and commutation -------------------------


def test_leibniz_div_hand_example():
    # phi = x, T = [[y,0,0],[0,0,0],[0,0,0]]
    x = Poly3.variable(0)
    y = Poly3.variable(1)
    z = Poly3.zero()
    T = PolyMatField((y, z, z, z, z, z, z, z, z))
    lhs, rhs = ids.leibniz_div(x, T)
    assert lhs == rhs
    # Div(x T) row 1 = d/dx (x y) = y
    assert lhs[0] == y


def test_leibniz_div_random():
    rng = random.Random(17)
    for _ in range(10):
        phi = pc.random_poly(rng, 3)
        T = pc.random_mat_field(rng, 3)
        lhs, rhs = ids.leibniz_div(phi, T)
        assert lhs == rhs


def test_psi_vanishes_for_affine_cutoff():
    rng = random.Random(23)
    affine = Poly3({(0, 0, 0): Q(3), (1, 0, 0): Q(-2), (0, 0, 1): Q(1, 5)})
    for _ in range(10):
        S = pc.sym(pc.random_mat_field(rng, 3))
        assert ids.derive_psi(affine, S) == PolyMatField.zero()


def test_psi_bilinear_in_tensor_slot():
    rng = random.Random(29)
    phi = pc.random_poly(rng, 3)
    S1 = pc.sym(pc.random_mat_field(rng, 3))
    S2 = pc.sym(pc.random_mat_field(rng, 3))
    a, b = Q(3), Q(-1, 2)
    lhs = ids.derive_psi(phi, S1.scale(a) + S2.scale(b))
    rhs = ids.derive_psi(phi, S1).scale(a) + ids.derive_psi(phi, S2).scale(b)
    assert lhs == rhs


def test_psi_depends_only_on_hessian_of_cutoff():
    rng = random.Random(31)
    phi = pc.random_poly(rng, 3)
    affine = Poly3({(1, 0, 0): Q(7), (0, 1, 0): Q(-3), (0, 0, 0): Q(1)})
    S = pc.sym(pc.random_mat_field(rng, 3))
    assert ids.derive_psi(phi + affine, S) == ids.derive_psi(phi, S)


def test_psi_pointwise_in_tensor_slot():
    # replacing S by S + sum_k (x_k - p_k) M_k leaves psi(phi, .)(p) fixed
    rng = random.Random(37)
    phi = pc.random_poly(rng, 3)
    S = pc.sym(pc.random_mat_field(rng, 3))
    p = (Q(1, 2), Q(-1, 3), Q(2))
    S2 = S
    for axis in range(3):
        M = pc.sym(pc.random_mat_field(rng, 0))
        shifted = Poly3.variable(axis) - Poly3.constant(p[axis])
        S2 = S2 + PolyMatField(tuple(shifted * e for e in M.entries))
    assert S2 != S
    a = ids.derive_psi(phi, S).eval(p)
    b = ids.derive_psi(phi, S2).eval(p)
    assert a == b


@pytest.mark.parametrize("mutated", [False, True])
def test_cut_cases_run_the_tested_helpers(monkeypatch, mutated):
    # ELA-CUT1/2 build their clauses from leibniz_div/derive_psi, passing
    # the case's mutation scale, so the oracles above check the suite's code
    t = ids.MUTATION_FACTOR if mutated else Q(1)
    calls = []
    for name in ("leibniz_div", "derive_psi"):
        real = getattr(ids, name)

        def spy(*args, _name=name, _real=real):
            calls.append((_name, args[2:]))
            return _real(*args)

        monkeypatch.setattr(ids, name, spy)
    trials = 2
    for case, helper, per_trial in (
        ("ELA-CUT1", "leibniz_div", 1),
        ("ELA-CUT2", "derive_psi", 6),
    ):
        calls.clear()
        rep = ids.run_identity(case, trials=trials, degree=2, seed=4, mutated=mutated)
        assert rep.passed is not mutated
        assert calls == [(helper, (t,))] * (per_trial * trials)


def test_schwarz_commutation_explicit_alphas():
    rng = random.Random(41)
    S = pc.sym(pc.random_mat_field(rng, 5))
    T = pc.random_mat_field(rng, 5)
    for alpha in ((1, 0, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1)):
        l1, r1 = ids.schwarz_check(alpha, S)
        assert l1 == r1
        l2, r2 = ids.schwarz_check_div(alpha, T)
        assert l2 == r2


# --- a couple of hand-checked concrete cases -------------------------------


def test_a04_concrete():
    # u = x^2: Div(u id) = (2x, 0, 0) = grad u
    u = Poly3.monomial(2, 0, 0)
    assert Div(pc.scalar_id(u)) == grad(u)
    assert Div(pc.scalar_id(u))[0] == Poly3.monomial(1, 0, 0, 2)


def test_a12_concrete():
    # v = (x^2, y^2, z^2): both sides equal (4/3)(dx, dy, dz) of div v? check raw
    v = pc.PolyVecField(
        (Poly3.monomial(2, 0, 0), Poly3.monomial(0, 2, 0), Poly3.monomial(0, 0, 2))
    )
    lhs = Div(pc.dev(Grad(v)).transpose()).scale(3)
    rhs = grad(pc.div(v)).scale(2)
    assert lhs == rhs


def test_a15_a16_split_rotrot():
    rng = random.Random(43)
    S = pc.random_mat_field(rng, 3)
    total = rotrot_t(S)
    assert rotrot_t(pc.sym(S)) == pc.sym(total)
    assert rotrot_t(pc.skw(S)) == pc.skw(total)
    assert rotrot_t(pc.sym(S)) + rotrot_t(pc.skw(S)) == total


def test_suite_runtime_budget():
    import time

    t0 = time.perf_counter()
    reps = ids.run_all(trials=20, degree=3, seed=0)
    dt = time.perf_counter() - t0
    assert all(r.passed for r in reps)
    assert dt < 30.0
