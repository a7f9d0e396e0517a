import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elacomplex import exactlin as xl
from elacomplex.rational import Q


def brute_select(rows):
    """Oracle: greedy independent-subset selection over exact Fractions."""
    kept = []
    basis = []  # echelon rows as lists of Fraction

    def reduce(v):
        v = list(v)
        for piv, b in basis:
            if v[piv]:
                c = v[piv]
                v = [a - c * bb for a, bb in zip(v, b)]
        return v

    def to_frac(x):
        return x if isinstance(x, Fraction) else Fraction(int(x))

    for i, row in enumerate(rows):
        v = reduce([to_frac(x) for x in row])
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            inv = 1 / v[piv]
            basis.append((piv, [x * inv for x in v]))
            kept.append(i)
    return kept


def test_primes_are_prime_and_in_range():
    def is_prime(n):
        if n % 2 == 0:
            return False
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True

    for p in xl.PRIMES:
        assert p < 2**26
        assert is_prime(p)
    assert len(set(xl.PRIMES)) == len(xl.PRIMES)


def test_crt_and_rational_reconstruction_roundtrip():
    rng = random.Random(1)
    primes = xl.PRIMES[:3]
    m = primes[0] * primes[1] * primes[2]
    for _ in range(200):
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 10**6)
        from math import gcd

        g = gcd(abs(num), den)
        if g:
            num, den = num // g, den // g
        if den == 0:
            continue
        residues = [(num * pow(den, -1, p)) % p for p in primes]
        a, mod = xl.crt_int(residues, primes)
        assert mod == m
        q = xl.rat_reconstruct(a % mod, mod)
        assert q == Q(num, den)


def test_select_rows_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n, m = 24, 15
        base = rng.integers(-5, 6, size=(10, m))
        mix = rng.integers(-3, 4, size=(n, 10))
        nums = (mix @ base).astype(np.int64)  # rank <= 10 with dependencies
        kept = xl.select_rows(nums)[0]
        assert kept == brute_select(nums)


def test_select_rows_expansions_exact():
    rng = np.random.default_rng(11)
    n, m = 18, 12
    base = rng.integers(-4, 5, size=(6, m))
    mix = rng.integers(-6, 7, size=(n, 6))
    nums = (mix @ base).astype(np.int64)
    dens = rng.integers(1, 4, size=n).astype(np.int64)
    flags = np.ones(n, dtype=bool)
    kept, exps, used = xl.select_rows(nums, dens, flags, primes=xl.PRIMES[:3])
    # the pool grows one prime at a time: one prime does not lift, two do
    assert used == 2
    frac_rows = [
        [Fraction(int(x), int(d)) for x in row] for row, d in zip(nums, dens)
    ]
    assert kept == brute_select(frac_rows)
    for idx, coeffs in exps.items():
        target = [Q(int(x), int(dens[idx])) for x in nums[idx]]
        acc = [Q(0)] * m
        for krow, c in coeffs.items():
            dk = int(dens[krow])
            for j in range(m):
                acc[j] += c * Q(int(nums[krow][j]), dk)
        assert acc == target


def test_ranks_certified():
    rng = np.random.default_rng(3)
    base = rng.integers(-5, 6, size=(4, 9))
    mix = rng.integers(-3, 4, size=(12, 4))
    nums = (mix @ base).astype(np.int64)
    r = len(xl.select_rows(nums)[0])
    # oracle via exact Fraction elimination
    assert r == len(brute_select(nums))
    assert r <= 4


def test_rank_of_identity_and_zero():
    eye = np.eye(5, dtype=np.int64)
    assert len(xl.select_rows(eye)[0]) == 5
    assert len(xl.select_rows(np.zeros((4, 6), dtype=np.int64))[0]) == 0


def test_reconstruction_failure_raises_with_too_few_primes():
    # a fraction too tall to reconstruct from a single 26-bit prime
    primes = xl.PRIMES[:1]
    big_num, big_den = 10**9 + 7, 10**9 + 9
    residue = (big_num * pow(big_den, -1, primes[0])) % primes[0]
    a, mod = xl.crt_int([residue], primes)
    q = xl.rat_reconstruct(a % mod, mod)
    assert q is None or q != Q(big_num, big_den)


def _frac_rows(nums, dens):
    return [[Fraction(int(x), int(d)) for x in row] for row, d in zip(nums, dens)]


def _low_rank(seed, n, m, rank):
    rng = np.random.default_rng(seed)
    base = rng.integers(-5, 6, size=(rank, m))
    mix = rng.integers(-3, 4, size=(n, rank))
    dens = rng.integers(1, 5, size=n)
    return mix @ base, dens


def _zero_and_duplicate_rows():
    nums, dens = _low_rank(5, 6, 9, 4)
    zero = np.zeros(9, dtype=np.int64)
    rows = [zero, nums[0], nums[0], zero, nums[1], 3 * nums[0], nums[2]]
    rows += [zero, nums[1], nums[3], nums[4], zero, nums[5], nums[2]]
    return np.array(rows), np.arange(1, len(rows) + 1)


def _pivot_below_current_row():
    # the first rows open with zeros, so their leading entry lies below the
    # next pivot position of the transposed matrix and forces a row swap
    nums = np.array(
        [
            [0, 0, 2, 1, 0],
            [0, 3, 0, 0, 1],
            [0, 0, 4, 2, 0],
            [5, 0, 0, 0, 0],
            [0, 0, 0, 0, 7],
            [5, 3, 2, 1, 1],
            [0, 6, 2, 1, 2],
        ]
    )
    return nums, np.array([1, 2, 3, 1, 2, 3, 1])


_ORACLE_CASES = {
    "tall": lambda: _low_rank(21, 30, 6, 6),
    "wide": lambda: _low_rank(22, 8, 30, 5),
    "zero_and_duplicate_rows": _zero_and_duplicate_rows,
    "pivot_below_current_row": _pivot_below_current_row,
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_select_rows_oracle_cases(case):
    nums, dens = _ORACLE_CASES[case]()
    n, m = nums.shape
    kept, exps, _ = xl.select_rows(nums, dens, np.ones(n, dtype=bool))
    rows = _frac_rows(nums, dens)
    assert kept == brute_select(rows)
    assert sorted(exps) == sorted(set(range(n)) - set(kept))
    for idx, coeffs in exps.items():
        assert all(k in kept and k < idx and c != 0 for k, c in coeffs.items())
        for j in range(m):
            total = sum(
                Fraction(c.numerator, c.denominator) * rows[k][j]
                for k, c in coeffs.items()
            )
            assert total == rows[idx][j]


@st.composite
def _rational_rows(draw):
    """Low-rank rational rows nums[i] / dens[i] with zero and repeated rows,
    and a random mask of rows to expand."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(n, m)))
    small = st.integers(-4, 4)
    base = [draw(st.lists(small, min_size=m, max_size=m)) for _ in range(rank)]
    nums = []
    for _ in range(n):
        mix = draw(st.lists(small, min_size=rank, max_size=rank))
        nums.append([sum(c * b[k] for c, b in zip(mix, base)) for k in range(m)])
    dens = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(nums, dtype=np.int64).reshape(n, m), dens, flags


@settings(max_examples=150, deadline=None)
@given(_rational_rows())
def test_select_rows_sparse_expansions_match_fraction_oracle(case):
    nums, dens, flags = case
    kept, exps, _ = xl.select_rows(nums, dens, flags)
    rows = _frac_rows(nums, dens)
    assert kept == brute_select(rows)
    assert set(exps) == {j for j in range(len(rows)) if flags[j] and j not in kept}
    for j, coeffs in exps.items():
        assert all(i in kept and i < j and q != 0 for i, q in coeffs.items())
        total = [Fraction(0)] * nums.shape[1]
        for i, q in coeffs.items():
            total = [t + q * x for t, x in zip(total, rows[i])]
        assert total == rows[j]


def test_select_mod_p_returns_expansions_as_copies():
    # the expansions must not keep the prime's whole RREF matrix alive
    nums, dens = _low_rank(7, 40, 30, 12)
    p = xl.PRIMES[0]
    residues = xl.mod_rows(nums, dens, p)
    kept, deps = xl._select_mod_p(residues, p)
    assert len(kept) == 12 and deps.shape == (12, 28)
    assert deps.base is None or deps.base.shape != residues.T.shape


def _rref_mod_p(rows, p):
    """Oracle: the greedy kept rows and the dependent columns of the reduced
    row echelon form of rows.T mod p, in Python integers."""
    n = len(rows)
    M = [list(col) for col in zip(*rows)]
    kept = []
    for j in range(n):
        r = len(kept)
        lead = next((i for i in range(r, len(M)) if M[i][j] % p), None)
        if lead is None:
            continue
        M[r], M[lead] = M[lead], M[r]
        inv = pow(M[r][j], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][j]:
                f = M[i][j]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        kept.append(j)
    dependent = [j for j in range(n) if j not in kept]
    return kept, [[M[i][j] for j in dependent] for i in range(len(kept))]


@st.composite
def _residue_rows(draw):
    """A sparse, rank-deficient residue matrix (rows of width m) mod p, with
    zero rows and zero columns; the zero columns of the rows are zero rows
    of the transposed matrix, so the elimination must swap rows past them."""
    p = draw(st.sampled_from(xl.PRIMES))
    n, m = draw(st.integers(1, 14)), draw(st.integers(1, 10))
    rank = draw(st.integers(0, min(n, m)))
    entry = st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
    base = [draw(st.lists(entry, min_size=m, max_size=m)) for _ in range(rank)]
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=m // 2))
    rows = []
    for _ in range(n):
        mix = draw(st.lists(entry, min_size=rank, max_size=rank))
        row = [sum(c * b[k] for c, b in zip(mix, base)) % p for k in range(m)]
        rows.append([0 if k in zero_cols else x for k, x in enumerate(row)])
    return rows, p


@settings(max_examples=200, deadline=None)
@given(_residue_rows())
def test_select_mod_p_matches_python_int_rref(case):
    rows, p = case
    kept, deps = xl._select_mod_p(np.array(rows, dtype=np.float64), p)
    want_kept, want_deps = _rref_mod_p(rows, p)
    assert kept == want_kept
    shape = (len(kept), len(rows) - len(kept))
    assert np.array_equal(deps, np.array(want_deps, dtype=np.float64).reshape(shape))


def test_select_rows_multiblock_stress_vs_oracle():
    rng = random.Random(99)
    rank, m, extra = 25, 40, 35
    base = [
        [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        for _ in range(rank)
    ]
    rows, flags = [], []
    for i in range(rank + extra):
        if i < rank and rng.random() < 0.7:
            rows.append(base[i])
            flags.append(False)
        else:
            combo = [Q(0)] * m
            for _ in range(rng.randint(1, 4)):
                c = Q(rng.randint(-3, 3), rng.randint(1, 3))
                src = base[rng.randrange(rank)]
                combo = [a + c * b for a, b in zip(combo, src)]
            rows.append(combo)
            flags.append(True)
    nums = np.empty((len(rows), m), dtype=np.int64)
    dens = []
    for i, row in enumerate(rows):
        den = 1
        for q in row:
            den = den * q.denominator // np.gcd(den, q.denominator)
        dens.append(den)
        for j, q in enumerate(row):
            nums[i, j] = int(q * den)
    kept, expans, _ = xl.select_rows(nums, dens=dens, expand_flags=flags)
    frac_rows = [[Fraction(q.numerator, q.denominator) for q in r] for r in rows]
    assert kept == brute_select(frac_rows)
    for idx, coeffs in expans.items():
        for j in range(m):
            total = sum(
                Fraction(c.numerator, c.denominator) * frac_rows[k][j]
                for k, c in coeffs.items()
            )
            assert total == frac_rows[idx][j]


# --- the growing prime pool and the exact check -------------------------------

# rows 1 and 2 depend on row 0: row 1 = 2 * row 0, row 2 = -1/3 * row 0
_DEPENDENT_NUMS = np.array([[3, 6, 0], [6, 12, 0], [-3, -6, 0], [0, 1, 1]])
_DEPENDENT_DENS = [1, 1, 3, 1]
_DEPENDENT_FLAGS = [True, True, True, False]


def _select_dependent(**kwargs):
    return xl.select_rows(
        _DEPENDENT_NUMS,
        dens=_DEPENDENT_DENS,
        expand_flags=_DEPENDENT_FLAGS,
        **kwargs,
    )


def _patch_reconstruction(monkeypatch, wrong_attempts, lift):
    """Replace rat_reconstruct by `lift` during the first `wrong_attempts`
    selection attempts; count the attempts that reach reconstruction."""
    real = xl.rat_reconstruct
    seen = []

    def patched(a, m):
        if m not in seen:
            seen.append(m)
        if len(seen) <= wrong_attempts:
            return lift(real(a, m))
        return real(a, m)

    monkeypatch.setattr(xl, "rat_reconstruct", patched)
    return seen


def _spy_passes(monkeypatch):
    """Record the prime of every modular RREF pass."""
    real = xl._select_mod_p
    primes = []

    def spy(rows, p):
        primes.append(p)
        return real(rows, p)

    monkeypatch.setattr(xl, "_select_mod_p", spy)
    return primes


def test_select_rows_first_rung_and_expansions():
    kept, exps, used = _select_dependent()
    assert kept == [0, 3]
    assert exps == {1: {0: Q(2)}, 2: {0: Q(-1, 3)}}
    assert used == 1
    assert xl.select_rows(_DEPENDENT_NUMS)[1:] == ({}, 1)  # nothing flagged


def test_select_rows_ladder_exhausted_raises(monkeypatch):
    seen = _patch_reconstruction(monkeypatch, 99, lambda q: None)
    primes = _spy_passes(monkeypatch)
    with pytest.raises(xl.ReconstructionFailure):
        _select_dependent()
    assert len(seen) == len(xl.PRIMES)  # one lift per added prime
    assert primes == list(xl.PRIMES)  # one pass per prime, reused by later lifts


def test_select_rows_explicit_primes_grow_one_pass_per_prime(monkeypatch):
    primes = _spy_passes(monkeypatch)
    # the first lift fails, the second verifies: the rest of the pool is unused
    seen = _patch_reconstruction(monkeypatch, 1, lambda q: None)
    assert _select_dependent(primes=xl.PRIMES[3:8])[2] == 2
    assert primes == list(xl.PRIMES[3:5]) and len(seen) == 2
    primes.clear()
    seen = _patch_reconstruction(monkeypatch, 99, lambda q: None)
    with pytest.raises(xl.ReconstructionFailure):
        _select_dependent(primes=xl.PRIMES[:5])
    assert primes == list(xl.PRIMES[:5]) and len(seen) == 5


def test_select_rows_ladder_recovers_from_a_failed_rung(monkeypatch):
    expected = _select_dependent()[:2]
    seen = _patch_reconstruction(monkeypatch, 1, lambda q: None)
    kept, exps, used = _select_dependent()
    assert (kept, exps) == expected
    assert used == 2 and len(seen) == 2


def test_select_rows_exact_check_rejects_a_wrong_lift(monkeypatch):
    expected = _select_dependent()[:2]
    _patch_reconstruction(monkeypatch, 1, lambda q: q + 1)
    kept, exps, used = _select_dependent()
    assert (kept, exps) == expected
    assert used == 2
    _patch_reconstruction(monkeypatch, 99, lambda q: q + 1)
    with pytest.raises(xl.ReconstructionFailure):
        _select_dependent(primes=xl.PRIMES[:3])


def test_select_rows_zero_width():
    nums = np.zeros((3, 0), dtype=np.int64)
    kept, exps, _ = xl.select_rows(nums, expand_flags=[True] * 3)
    assert kept == [] and exps == {0: {}, 1: {}, 2: {}}


@pytest.mark.parametrize("den", [xl.PRIMES[0], 3 * xl.PRIMES[2]], ids=["p0", "3p2"])
def test_select_rows_denominator_divisible_by_a_ladder_prime(den):
    # row 1 = [2, 4] is 2 * den times row 0 = [1, 2] / den
    nums = np.array([[1, 2], [2, 4]], dtype=np.int64)
    kept, exps, used = xl.select_rows(nums, dens=[den, 1], expand_flags=[True, True])
    assert kept == [0]
    assert exps == {1: {0: Q(2 * den)}}
    assert used == 3  # three primes of the pool, which skips the dividing prime


def test_select_rows_ladder_skips_only_the_dividing_primes(monkeypatch):
    # the first two lifts fail, so a third prime is added
    seen = _patch_reconstruction(monkeypatch, 2, lambda q: None)
    tried = _spy_passes(monkeypatch)
    nums = np.array([[1, 2], [2, 4]], dtype=np.int64)
    xl.select_rows(nums, dens=[3 * xl.PRIMES[2], 1], expand_flags=[True, True])
    assert tried == [xl.PRIMES[0], xl.PRIMES[1], xl.PRIMES[3]]
    seen.clear()
    tried.clear()
    xl.select_rows(nums, dens=[3, 1], expand_flags=[True, True])
    assert tried == list(xl.PRIMES[:3])


def test_select_rows_explicit_prime_dividing_a_denominator_raises():
    nums = np.array([[1, 2], [2, 4]], dtype=np.int64)
    with pytest.raises(xl.ReconstructionFailure):
        xl.select_rows(
            nums,
            dens=[xl.PRIMES[1], 1],
            expand_flags=[True, True],
            primes=xl.PRIMES[:3],
        )


@pytest.mark.parametrize("flagged", [False, True])
def test_select_rows_rank_drop_mod_the_first_prime(flagged):
    # the rows agree mod PRIMES[0] only: that pass has rank 1, and the next
    # pass, of rank 2, replaces it
    nums = np.array([[1, 1], [1, 1 + xl.PRIMES[0]]], dtype=np.int64)
    kept, exps, used = xl.select_rows(nums, expand_flags=[flagged] * 2)
    assert kept == [0, 1] and exps == {} and used == 2


def test_select_rows_rejects_a_faked_unflagged_dependency(monkeypatch):
    # the first pass claims that the last row, an independent unflagged
    # generator, is zero; only the exact check of that row can refuse it.
    # Every column is nonzero on two rows or more, so no row is a
    # structural pivot and all of them reach the modular passes
    nums = np.array([[1, 0, 1], [0, 1, 0], [2, 3, 2], [0, 0, 1]], dtype=np.int64)
    flags = [True, True, True, False]
    real = xl._select_mod_p
    calls = []

    def faked(rows, p):
        kept, deps = real(rows, p)
        calls.append(p)
        if len(calls) == 1:
            assert kept[-1] == 3
            return kept[:-1], np.hstack([deps[:-1], np.zeros((len(kept) - 1, 1))])
        return kept, deps

    monkeypatch.setattr(xl, "_select_mod_p", faked)
    kept, exps, used = xl.select_rows(nums, expand_flags=flags)
    assert kept == [0, 1, 3] == brute_select(nums)
    assert exps == {2: {0: Q(2), 1: Q(3)}}
    assert used == 2 and len(calls) == 2


def _spy_exact_hold(monkeypatch):
    real = xl._exact_hold
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(xl, "_exact_hold", spy)
    return calls


@pytest.mark.parametrize("block", [1 << 13, 3, 2, 1])
def test_expansions_hold_modular_branch(monkeypatch, block):
    # small entries: the bound lies below the product of the check primes;
    # blocks of 1 to 3 kept rows exercise the blocked product, whose sparse
    # weight slices then cross block edges
    monkeypatch.setattr(xl, "_CHECK_BLOCK", block)
    exact = _spy_exact_hold(monkeypatch)
    nums, dens = _low_rank(31, 20, 12, 6)
    kept, values, index = xl._lift(
        [xl._select_mod_p(xl.mod_rows(nums, dens, p), p) for p in xl.PRIMES[:2]],
        xl.PRIMES[:2],
    )
    assert kept == brute_select(_frac_rows(nums, dens))
    assert xl._expansions_hold(nums, dens, kept, values, index)
    u = index.max()
    wrong = values[:u] + [values[u] + Q(1, 7)] + values[u + 1 :]
    assert not xl._expansions_hold(nums, dens, kept, wrong, index)
    assert exact == []


def test_expansions_hold_exact_branch_above_the_bound(monkeypatch):
    # coprime 61-bit denominators and 62-bit numerators push the bound
    # above the product of all check primes, so the rows are compared in
    # Python integers
    exact = _spy_exact_hold(monkeypatch)
    d0, d1, a = 2**61 - 1, 2**60 + 1, 2**62 - 1
    nums = np.array([[a, 0], [a, 0], [0, 1]], dtype=np.int64)
    kept, exps, used = xl.select_rows(nums, [d0, d1, 1], [True, True, True])
    assert kept == [0, 2]
    assert exps == {1: {0: Q(d0, d1)}}
    # passes 1 to 3 lift wrong fractions and are refused, pass 4 lifts
    # none; the bounds of passes 3 and 5 lie above the product of the check
    # primes
    assert used == 5
    assert len(exact) == 2
    values = [Q(0), Q(d0, d1) + Q(1, 2**62)]
    assert not xl._expansions_hold(
        nums, np.array([d0, d1, 1]), kept, values, np.array([[1, 0]])
    )
    assert len(exact) == 3


# --- structural pivots ------------------------------------------------------


@st.composite
def _staircase_rows(draw):
    """Sparse rows with a planted staircase, which the structural pivots
    peel one round per step, among random base rows and rows that combine
    them (or, at times, the staircase rows too); shuffled, with random
    denominators and flags."""
    steps = draw(st.integers(0, 6))
    nbase = draw(st.integers(0, 5))
    m = steps + draw(st.integers(0, 6))
    small = st.integers(-3, 3)

    def sparse_row(lo):
        row = [0] * m
        for j in range(lo, m):
            if draw(st.booleans()) and draw(st.booleans()):
                row[j] = draw(small)
        return row

    # staircase row t is nonzero on column t and on column t + 1, which is
    # private to it once rows 0..t-1 are gone; its other entries lie right
    # of those columns
    stairs = []
    for t in range(steps):
        row = sparse_row(t + 2)
        row[t] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        if t + 1 < m:
            row[t + 1] = draw(st.sampled_from([-1, 1, 2]))
        stairs.append(row)
    base = [sparse_row(steps) for _ in range(nbase)]
    sources = base + stairs if draw(st.booleans()) else base
    mixed = []
    for _ in range(draw(st.integers(0, 5))):
        total = [0] * m
        for src in sources:
            c = draw(small)
            total = [a + c * b for a, b in zip(total, src)]
        mixed.append(total)
    rows = draw(st.permutations(stairs + base + mixed))
    n = len(rows)
    dens = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64).reshape(n, m), dens, flags


@settings(max_examples=200, deadline=None)
@given(_staircase_rows())
def test_structural_pivots_change_no_selection(case):
    nums, dens, flags = case
    kept, exps, used = xl.select_rows(nums, dens, flags)
    assert kept == brute_select(_frac_rows(nums, dens))
    pivots = xl._structural_pivots(nums)
    assert set(np.flatnonzero(pivots).tolist()) <= set(kept)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xl, "_structural_pivots", lambda a: np.zeros(len(a), dtype=bool))
        assert xl.select_rows(nums, dens, flags)[:2] == (kept, exps)
    assert (used == 0) == bool(pivots.all())


def test_select_rows_of_structural_pivots_only_runs_no_prime(monkeypatch):
    def refuse(rows, p):
        raise AssertionError("a modular pass ran")

    monkeypatch.setattr(xl, "_select_mod_p", refuse)
    # a triangular pattern, rows shuffled: four rounds peel it
    nums = np.array([[0, 0, 5, 4], [1, 2, 0, 3], [0, 0, 0, -1], [0, 7, 1, 0]])
    kept, exps, used = xl.select_rows(nums, dens=[3, 1, 2, 5], expand_flags=[True] * 4)
    assert (kept, exps, used) == ([0, 1, 2, 3], {}, 0)
    assert xl.select_rows(np.eye(3, dtype=np.int64)) == ([0, 1, 2], {}, 0)


def test_structural_pivots_peel_round_by_round(monkeypatch):
    # column 0 is private to row 5 at once; columns 1 and 2 become private to
    # rows 3 and 1 in the next two rounds; rows 0, 2 and 4 share columns
    # 3 to 5 and stay, with row 4 twice row 0 and row 2 zero
    nums = np.array(
        [
            [0, 0, 0, 1, 1, 1],
            [0, 0, 3, 1, 1, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 2, 1, 0, 0, 0],
            [0, 0, 0, 2, 2, 2],
            [1, 1, 0, 0, 0, 0],
        ]
    )
    assert xl._structural_pivots(nums).tolist() == [False, True, False, True, False, True]
    shapes = []
    real = xl._select_mod_p

    def spy(rows, p):
        shapes.append(rows.shape)
        return real(rows, p)

    monkeypatch.setattr(xl, "_select_mod_p", spy)
    kept, exps, used = xl.select_rows(nums, expand_flags=[True] * 6)
    # only the core runs: rows 0, 2 and 4 on columns 3 to 5
    assert shapes == [(3, 3)] and used == 1
    assert kept == [0, 1, 3, 5] == brute_select(nums)
    assert exps == {2: {}, 4: {0: Q(2)}}


# --- residue reduction without fmod --------------------------------------------


@pytest.mark.parametrize("p", xl.PRIMES)
def test_reduce_matches_python_mod(p):
    # the RREF reduces products r * inv in [0, (p-1)^2] and updates
    # a - c * b in [-(p-1)^2, p-1]
    bound = (p - 1) ** 2
    values = [0, 1, -1, p, -p, bound, -bound, p - 1, -(p - 1)]
    for k in (1, 2, p // 2, p - 2, -1, -2, -(p // 2), -(p - 2)):
        values += [k * p - 1, k * p, k * p + 1]
    rng = random.Random(p)
    values += [rng.randint(-bound, bound) for _ in range(20000)]
    x = np.array(values, dtype=np.float64)
    out = xl._reduce(x, p)
    assert out.tolist() == [float(v % p) for v in values]
    assert out.min() >= 0 and out.max() < p


def test_reduce_fixups_near_2_53():
    # near 2^53 the quotient floor(x * (1/p)) can be off by one either way;
    # 1/67108529 rounds up in float64 while 1/PRIMES[0] rounds down, and
    # these values need the +p and the -p fix-up
    cases = [
        (xl.PRIMES[0], -9007198583652353),
        (67108529, 7881304968041277),
        (67108529, -7881304968041278),
    ]
    raw = [x - math.floor(x * (1.0 / p)) * p for p, x in cases]
    assert min(raw) < 0 and max(raw) >= 67108529
    for p, x in cases:
        assert abs(x) < 2**53
        assert xl._reduce(np.array([float(x)]), p).tolist() == [float(x % p)]


@pytest.mark.parametrize("p", xl.PRIMES)
def test_rref_reduction_needs_no_fixups(p):
    # `_reduce_rref` drops the fix-ups of `_reduce`; it is called only on
    # |x| <= (p - 1)^2, where the floor quotient floor(x * fl(1/p)) is exact
    inv = 1.0 / p
    # fl(1/p) rounds down: the computed quotient of x = q p is q (1 - delta),
    # never above q
    delta = 1 - p * Fraction(inv)
    assert delta >= 0
    # ... and it rounds back to q: q delta is largest against the spacing
    # of the floats below q at the ends of each binade of |q| <= p - 1
    for e in range(p.bit_length()):
        for q in (2**e, min(2 ** (e + 1) - 1, p - 1)):
            for x in (q * p, -q * p):
                assert x * inv == x // p
    # next to each binade top of the quotient, and at the bound, the values
    # x = k p + d, d in {-1, 0, 1}, reduce into [0, p) without a fix-up
    bound = (p - 1) ** 2
    values = []
    for k in [2**e + t for e in range(1, p.bit_length()) for t in (-1, 0)] + [p - 1]:
        for sign in (1, -1):
            values += [sign * k * p + d for d in (-1, 0, 1)]
    values = [x for x in values if abs(x) <= bound] + [bound, -bound]
    for x in values:
        raw = x - math.floor(x * inv) * p
        assert 0 <= raw < p and raw == x % p
    x = np.array(values, dtype=np.float64)
    assert xl._reduce_rref(x, p).tolist() == [float(v % p) for v in values]
