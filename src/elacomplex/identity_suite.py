"""Machine verification of the operator identities behind the elasticity
complex.

Cases ELA-A01 .. ELA-A25 cover a catalogue of pointwise/differential
identities for spn, sym, skw, dev, Grad, Rot, Div on 3D fields: A01-A16 are
the main chains of the sixteen catalogue items, A17-A25 the conditional and
"in particular" clauses split into their own cases, in order of appearance.
ELA-CUT1 / ELA-CUT2 check the multiplication (cutting) rules for Div and
rotrot_t, and ELA-SCHWARZ checks that both operators commute with mixed
partial derivatives.  Those cases build their clauses from the public
helpers `leibniz_div`, `derive_psi` and `schwarz_check*`, the mutation scale
t passed through, so the helpers the unit tests check are the code the
suite runs.

All checks are exact (rational arithmetic, zero tolerance) on seeded random
polynomial inputs.  Every case carries a designated coefficient that a
mutation run perturbs; a correct harness must then report failure with a
printable counterexample.
"""

import json
import random
from dataclasses import dataclass, field
from importlib import resources

from . import poly_calculus as pc
from .poly_calculus import (
    Div,
    Grad,
    Poly3,
    PolyMatField,
    PolyVecField,
    Rot,
    div,
    grad,
    rot,
    rotrot_t,
)
from .rational import Q


class UnknownIdentity(KeyError):
    """Raised when an identity id is not in the registry."""


# the mutation multiplier applied to each case's designated coefficient;
# 3/2 turns the literal 2 in "2 skw Grad v = spn rot v" into a 3
MUTATION_FACTOR = Q(3, 2)


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    item: int  # 1-based index into the formula catalogue
    statement: str
    inputs: tuple
    build: object  # (rng_inputs, t) -> list of (clause_label, lhs, rhs)


@dataclass
class VerificationReport:
    identity_id: str
    passed: bool
    trials: int
    degree: int
    seed: int
    mutated: bool
    failures: list = field(default_factory=list)

    def to_dict(self):
        return {
            "identity_id": self.identity_id,
            "passed": self.passed,
            "trials": self.trials,
            "degree": self.degree,
            "seed": self.seed,
            "mutated": self.mutated,
            "failures": self.failures,
        }


# ---------------------------------------------------------------------------
# helpers used by the case builders
# ---------------------------------------------------------------------------


def _spn_t(v, t):
    """spn with the (0,1) entry scaled by t; t=1 gives the honest spn."""
    m = pc.spn(v)
    e = list(m.entries)
    e[1] = e[1].scale(t)
    return PolyMatField(e)


def _id_t(u, t):
    """u * diag(1, 1, t)."""
    z = Poly3()
    return PolyMatField((u, z, z, z, u, z, z, z, u.scale(t)))


def _scale_entry(S, i, j, t):
    e = list(S.entries)
    e[3 * i + j] = e[3 * i + j].scale(t)
    return PolyMatField(e)


def _trace_t(S, t):
    e = S.entries
    return e[0] + e[4] + e[8].scale(t)


def leibniz_div(phi, T, t=1):
    """Both sides of Div(phi T) = phi Div T + T grad phi, the last term
    scaled by t (t=1 gives the honest rule; ELA-CUT1 mutates t)."""
    lhs = Div(phi * T)
    rhs = phi * Div(T) + (T @ grad(phi)).scale(t)
    return lhs, rhs


def derive_psi(phi, S, t=1):
    """Algebraic remainder of the product rule for rotrot_t.

    Defined as the residual

        psi = rotrot_t(phi S) - phi rotrot_t(S)
              - 2 t sym((spn grad phi) Rot S),

    with t=1, which vanishes for affine phi and depends only on the Hessian
    of phi and the pointwise value of S (checked by ELA-CUT2's oracles,
    which mutate t).
    """
    main = rotrot_t(phi * S)
    lower = phi * rotrot_t(S) + pc.sym(pc.spn(grad(phi)) @ Rot(S)).scale(2 * t)
    return main - lower


def schwarz_check(alpha, S):
    """Both sides of rotrot_t(d^alpha S) = d^alpha rotrot_t(S)."""
    return rotrot_t(S.partial(alpha)), rotrot_t(S).partial(alpha)


def schwarz_check_div(alpha, T):
    """Both sides of Div(d^alpha T) = d^alpha Div T."""
    return Div(T.partial(alpha)), Div(T).partial(alpha)


# ---------------------------------------------------------------------------
# the case registry
# ---------------------------------------------------------------------------


def _case(identity_id, item, statement, inputs):
    def wrap(fn):
        _REGISTRY[identity_id] = IdentityCase(
            identity_id, item, statement, tuple(inputs), fn
        )
        return fn

    return wrap


_REGISTRY = {}


@_case("ELA-A01", 1, "(spn v) w = v x w = -(spn w) v", ("vector", "vector"))
def _a01(ins, t):
    v, w = ins
    return [
        ("spn-apply", _spn_t(v, t) @ w, pc.cross(v, w)),
        ("antisymmetry", pc.cross(v, w), -(pc.spn(w) @ v)),
    ]


@_case("ELA-A02", 2, "sym spn v = 0 and dev(u id) = 0", ("vector", "scalar"))
def _a02(ins, t):
    v, u = ins
    return [
        ("sym-spn", pc.sym(_spn_t(v, t)), PolyMatField.zero()),
        ("dev-id", pc.dev(pc.scalar_id(u)), PolyMatField.zero()),
    ]


@_case(
    "ELA-A03",
    3,
    "tr Grad v = div v and 2 skw Grad v = spn rot v",
    ("vector",),
)
def _a03(ins, t):
    (v,) = ins
    return [
        ("trace", pc.trace(Grad(v)), div(v)),
        ("skew", pc.skw(Grad(v)).scale(2 * t), pc.spn(rot(v))),
    ]


@_case(
    "ELA-A04",
    4,
    "Div(u id) = grad u and Rot(u id) = -spn grad u",
    ("scalar",),
)
def _a04(ins, t):
    (u,) = ins
    return [
        ("div", Div(pc.scalar_id(u)), grad(u)),
        ("rot", Rot(_id_t(u, t)), -pc.spn(grad(u))),
    ]


@_case(
    "ELA-A05",
    5,
    "Div spn v = -rot v and Div skw S = -rot spn_inv skw S",
    ("vector", "matrix"),
)
def _a05(ins, t):
    v, S = ins
    return [
        ("spn", Div(_spn_t(v, t)), -rot(v)),
        ("skew", Div(pc.skw(S)), -rot(pc.spn_inv(pc.skw(S)))),
    ]


@_case(
    "ELA-A06",
    6,
    "Rot spn v = (div v) id - (Grad v)^T, likewise for skw S",
    ("vector", "matrix"),
)
def _a06(ins, t):
    v, S = ins
    w = pc.spn_inv(pc.skw(S))
    return [
        ("spn", Rot(_spn_t(v, t)), pc.scalar_id(div(v)) - Grad(v).transpose()),
        ("skew", Rot(pc.skw(S)), pc.scalar_id(div(w)) - Grad(w).transpose()),
    ]


@_case("ELA-A07", 7, "dev Rot spn v = -(dev Grad v)^T", ("vector",))
def _a07(ins, t):
    (v,) = ins
    return [
        ("main", pc.dev(Rot(_spn_t(v, t))), -pc.dev(Grad(v)).transpose()),
    ]


@_case(
    "ELA-A08",
    8,
    "-2 Rot sym Grad v = 2 Rot skw Grad v = -(Grad rot v)^T",
    ("vector",),
)
def _a08(ins, t):
    (v,) = ins
    a = Rot(pc.sym(Grad(v))).scale(-2 * t)
    b = Rot(pc.skw(Grad(v))).scale(2)
    c = -Grad(rot(v)).transpose()
    return [("first", a, b), ("second", b, c)]


@_case(
    "ELA-A09",
    9,
    "2 spn_inv skw Rot S = Div S^T - grad tr S = Div(S - (tr S) id)^T",
    ("matrix",),
)
def _a09(ins, t):
    (S,) = ins
    a = pc.spn_inv(pc.skw(Rot(S))).scale(2 * t)
    b = Div(S.transpose()) - grad(pc.trace(S))
    c = Div((S - pc.scalar_id(pc.trace(S))).transpose())
    return [("first", a, b), ("second", b, c)]


@_case("ELA-A10", 10, "tr Rot S = 2 div spn_inv skw S", ("matrix",))
def _a10(ins, t):
    (S,) = ins
    return [
        ("main", pc.trace(Rot(S)), div(pc.spn_inv(pc.skw(S))).scale(2 * t)),
    ]


@_case(
    "ELA-A11",
    11,
    "2 (Grad spn_inv skw S)^T = (tr Rot skw S) id - 2 Rot skw S",
    ("matrix",),
)
def _a11(ins, t):
    (S,) = ins
    w = pc.spn_inv(pc.skw(S))
    lhs = Grad(w).transpose().scale(2 * t)
    rhs = pc.scalar_id(pc.trace(Rot(pc.skw(S)))) - Rot(pc.skw(S)).scale(2)
    return [("main", lhs, rhs)]


@_case("ELA-A12", 12, "3 Div(dev Grad v)^T = 2 grad div v", ("vector",))
def _a12(ins, t):
    (v,) = ins
    return [
        (
            "main",
            Div(pc.dev(Grad(v)).transpose()).scale(3 * t),
            grad(div(v)).scale(2),
        ),
    ]


@_case(
    "ELA-A13",
    13,
    "2 Rot sym Grad v = -2 Rot skw Grad v = -Rot spn rot v = (Grad rot v)^T",
    ("vector",),
)
def _a13(ins, t):
    (v,) = ins
    a = Rot(pc.sym(Grad(v))).scale(2 * t)
    b = Rot(pc.skw(Grad(v))).scale(-2)
    c = -Rot(pc.spn(rot(v)))
    d = Grad(rot(v)).transpose()
    return [("first", a, b), ("second", b, c), ("third", c, d)]


@_case(
    "ELA-A14",
    14,
    "2 Div sym Rot S = -2 Div skw Rot S = rot Div S^T",
    ("matrix",),
)
def _a14(ins, t):
    (S,) = ins
    a = Div(pc.sym(Rot(S))).scale(2 * t)
    b = Div(pc.skw(Rot(S))).scale(-2)
    c = rot(Div(S.transpose()))
    return [("first", a, b), ("second", b, c)]


@_case(
    "ELA-A15", 15, "rotrot_t(sym S) = sym rotrot_t(S)", ("matrix",)
)
def _a15(ins, t):
    (S,) = ins
    return [("main", rotrot_t(pc.sym(S)).scale(t), pc.sym(rotrot_t(S)))]


@_case(
    "ELA-A16", 16, "rotrot_t(skw S) = skw rotrot_t(S)", ("matrix",)
)
def _a16(ins, t):
    (S,) = ins
    return [("main", rotrot_t(pc.skw(S)).scale(t), pc.skw(rotrot_t(S)))]


@_case(
    "ELA-A17",
    1,
    "(spn v)(spn_inv S) = -S v for sym S = 0",
    ("vector", "skew"),
)
def _a17(ins, t):
    v, S = ins
    return [("main", (pc.spn(v) @ pc.spn_inv(S)).scale(t), -(S @ v))]


@_case("ELA-A18", 4, "rot Div(u id) = 0", ("scalar",))
def _a18(ins, t):
    (u,) = ins
    return [("main", rot(Div(_id_t(u, t))), PolyVecField.zero())]


@_case("ELA-A19", 4, "rot spn_inv Rot(u id) = 0", ("scalar",))
def _a19(ins, t):
    (u,) = ins
    return [("main", rot(pc.spn_inv(Rot(_id_t(u, t)))), PolyVecField.zero())]


@_case("ELA-A20", 4, "sym Rot(u id) = 0", ("scalar",))
def _a20(ins, t):
    (u,) = ins
    return [("main", pc.sym(Rot(_id_t(u, t))), PolyMatField.zero())]


@_case("ELA-A21", 5, "div Div skw S = 0", ("matrix",))
def _a21(ins, t):
    (S,) = ins
    return [
        ("main", div(Div(_scale_entry(pc.skw(S), 0, 1, t))), Poly3.zero()),
    ]


@_case(
    "ELA-A22", 9, "rot Div S^T = 2 rot spn_inv skw Rot S", ("matrix",)
)
def _a22(ins, t):
    (S,) = ins
    lhs = rot(Div(S.transpose())).scale(t)
    rhs = rot(pc.spn_inv(pc.skw(Rot(S)))).scale(2)
    return [("main", lhs, rhs)]


@_case(
    "ELA-A23",
    9,
    "2 skw Rot S = spn Div S^T for tr S = 0",
    ("tracefree",),
)
def _a23(ins, t):
    (S,) = ins
    return [
        ("main", pc.skw(Rot(S)).scale(2 * t), pc.spn(Div(S.transpose()))),
    ]


@_case("ELA-A24", 10, "tr Rot S = 0 for skw S = 0", ("symmetric",))
def _a24(ins, t):
    (S,) = ins
    return [("main", _trace_t(Rot(S), t), Poly3.zero())]


@_case(
    "ELA-A25",
    10,
    "tr Rot sym S = 0 and tr Rot skw S = tr Rot S",
    ("matrix",),
)
def _a25(ins, t):
    (S,) = ins
    return [
        ("sym", _trace_t(Rot(pc.sym(S)), t), Poly3.zero()),
        ("skw", pc.trace(Rot(pc.skw(S))), pc.trace(Rot(S))),
    ]


@_case(
    "ELA-CUT1",
    0,
    "Div(phi T) = phi Div T + T grad phi",
    ("scalar", "matrix"),
)
def _cut1(ins, t):
    phi, T = ins
    return [("main", *leibniz_div(phi, T, t))]


@_case(
    "ELA-CUT2",
    0,
    "rotrot_t(phi S) = phi rotrot_t S + 2 sym((spn grad phi) Rot S)"
    " + psi(Hess phi, S)",
    ("scalar", "symmetric"),
)
def _cut2(ins, t):
    phi, S = ins
    affine = Poly3(
        {
            (0, 0, 0): Q(1, 2),
            (1, 0, 0): Q(2),
            (0, 1, 0): Q(-1),
            (0, 0, 1): Q(1, 3),
        }
    )
    S2 = pc.sym(
        PolyMatField(
            tuple(Poly3.monomial(1, 1, 0, Q(i - 4, 2)) for i in range(9))
        )
    )
    return [
        # (a) affine cut-off: the remainder vanishes
        ("affine-remainder", derive_psi(affine, S, t), PolyMatField.zero()),
        # (b) adding an affine function to phi does not change the remainder
        ("hessian-only", derive_psi(phi + affine, S, t), derive_psi(phi, S, t)),
        # (c) linearity in the tensor slot
        (
            "tensor-linearity",
            derive_psi(phi, S.scale(Q(2)) + S2, t),
            derive_psi(phi, S, t).scale(Q(2)) + derive_psi(phi, S2, t),
        ),
    ]


@_case(
    "ELA-SCHWARZ",
    0,
    "rotrot_t and Div commute with mixed partials d^alpha",
    ("symmetric2", "matrix2", "alpha"),
)
def _schwarz(ins, t):
    S, T, alpha = ins
    l1, r1 = schwarz_check(alpha, S)
    l2, r2 = schwarz_check_div(alpha, T)
    return [("rotrot", l1.scale(t), r1), ("div", l2, r2)]


ALL_IDENTITY_IDS = tuple(
    ["ELA-A%02d" % k for k in range(1, 26)]
    + ["ELA-CUT1", "ELA-CUT2", "ELA-SCHWARZ"]
)

_ALPHAS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, 0, 0),
    (0, 2, 0),
    (0, 0, 2),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
)


def _sample(kind, rng, degree):
    if kind == "scalar":
        return pc.random_poly(rng, degree)
    if kind == "vector":
        return pc.random_vec_field(rng, degree)
    if kind == "matrix":
        return pc.random_mat_field(rng, degree)
    if kind == "symmetric":
        return pc.sym(pc.random_mat_field(rng, degree))
    if kind == "skew":
        return pc.skw(pc.random_mat_field(rng, degree))
    if kind == "tracefree":
        return pc.dev(pc.random_mat_field(rng, degree))
    if kind == "symmetric2":  # extra degree so second partials stay generic
        return pc.sym(pc.random_mat_field(rng, degree + 2))
    if kind == "matrix2":
        return pc.random_mat_field(rng, degree + 2)
    if kind == "alpha":
        return rng.choice(_ALPHAS)
    raise ValueError("unknown input kind %r" % kind)


def _describe(kind, value):
    if kind == "alpha":
        return "alpha=%r" % (value,)
    return value.canonical_text()


def get_case(identity_id):
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentity(identity_id) from None


def run_identity(identity_id, trials=20, degree=3, seed=0, mutated=False):
    """Run one identity over seeded random inputs.

    Exact comparison, zero tolerance.  With mutated=True the case's
    designated coefficient is multiplied by MUTATION_FACTOR and the report
    is expected to come back failed.
    """
    case = get_case(identity_id)
    t = MUTATION_FACTOR if mutated else Q(1)
    rng = random.Random("%s:%s" % (seed, identity_id))
    report = VerificationReport(
        identity_id=identity_id,
        passed=True,
        trials=trials,
        degree=degree,
        seed=seed,
        mutated=mutated,
    )
    for trial in range(trials):
        inputs = tuple(_sample(k, rng, degree) for k in case.inputs)
        # (clause, text before the inputs, text after them) per failure
        try:
            clauses = case.build(inputs, t)
        except Exception as exc:  # a mutated pipeline may break type rules
            failed = [("exception", "%s: %s; " % (type(exc).__name__, exc), "")]
        else:
            failed = [
                (label, "", " | residual: " + (lhs - rhs).canonical_text())
                for label, lhs, rhs in clauses
                if lhs != rhs
            ]
        if not failed:
            continue
        report.passed = False
        described = "; ".join(_describe(k, x) for k, x in zip(case.inputs, inputs))
        for label, head, tail in failed:
            report.failures.append(
                {
                    "trial": trial,
                    "clause": label,
                    "counterexample": head + "inputs: " + described + tail,
                }
            )
    return report


def run_all(trials=20, degree=3, seed=0, mutated=False, only=None):
    ids = ALL_IDENTITY_IDS if only is None else tuple(only)
    return [
        run_identity(i, trials=trials, degree=degree, seed=seed, mutated=mutated)
        for i in ids
    ]


def registry_metadata():
    """The registry as plain data (mirrors identities.json)."""
    return [
        {
            "id": cid,
            "item": _REGISTRY[cid].item,
            "statement": _REGISTRY[cid].statement,
            "inputs": list(_REGISTRY[cid].inputs),
        }
        for cid in ALL_IDENTITY_IDS
    ]


def load_registry_file():
    """identities.json shipped with the package."""
    with resources.files(__package__).joinpath("identities.json").open() as f:
        return json.load(f)
