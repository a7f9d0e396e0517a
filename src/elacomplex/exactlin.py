"""Exact linear algebra over the rationals via multi-modular arithmetic.

The assembly stage and the de Rham oracle need one primitive on rational
row matrices: `select_rows`, which selects a maximal linearly independent
subset of rows in a fixed order (earlier rows win ties) and returns, for
designated dependent rows, the exact rational expansion over the kept rows
that precede them, as {kept row: nonzero coefficient}.  The number of kept
rows is the certified rank.

The zero pattern settles most rows first (structured Gaussian elimination):
a row that is nonzero in a column where no other row is cannot lie in the
span of the others, nor take part in their expansions, and peeling such
rows round by round (`_structural_pivots`) leaves a core.  Only the
core, on its nonzero columns, goes through the modular elimination below.

Each prime runs one reduced row echelon form of the transposed residue
matrix in float64 (residues below 2^26 keep every product below 2^53,
hence exact): its pivot columns are the kept rows and its dependent
columns the expansions of the dependent rows.  The elimination keeps its
pivots unnormalised and scales only the dependent block, once, at the
end.  Residues are reduced without libm `fmod`, which dominated the row
updates: an integer x maps to x - floor(x * (1/p)) * p.  Every value the
elimination forms has |x| <= (p - 1)^2, where that quotient is exact for
the primes of PRIMES (`_reduce_rref`); the exact check forms values up to
2^53, where it can be off by one multiple of p and one fix-up in each
direction brings it into [0, p) (`_reduce`).

The certificate is complete, in two parts.  The structural pivots are
independent by the exact zero pattern of their integer numerators over
nonzero denominators.  Independence mod any prime certifies the core's
kept rows independent over the rationals.  The expansion of every
dependent row, flagged or not, is lifted to rationals by CRT plus Wang's
rational reconstruction and checked exactly (modulo word-size check primes
whose product exceeds a bound on both sides of the identity, one sparse
product of the expansion weights per check prime), which proves the row
dependent; so the kept set is the greedy selection over Q.  One prime is
the normal case: the prime set grows one prime at a time, one pass per
prime, reusing the passes already run, only while a lift fails or does not
verify, so a wrong lift can only fail loudly (`ReconstructionFailure`),
never pass.  No prime runs when every row is a structural pivot.  Neither
the elimination nor the check calls BLAS.
"""

from math import gcd, isqrt, lcm, log2

import numpy as np
from scipy import sparse

from .rational import Q

# primes just below 2^26: small enough that p^2 < 2^53, so float64 residue
# arithmetic is exact; large enough that a random dependency collision is
# ~2^-26 per prime
PRIMES = (
    67108859,
    67108837,
    67108819,
    67108777,
    67108763,
    67108757,
    67108753,
    67108747,
    67108739,
    67108729,
    67108721,
    67108709,
)


# primes just below 2^20 for the exact check: a sum of 2^13 products of two
# residues stays below 2^53
CHECK_PRIMES = (
    1048573,
    1048571,
    1048559,
    1048549,
    1048517,
    1048507,
    1048447,
    1048433,
)
_CHECK_BLOCK = 1 << 13

class ReconstructionFailure(RuntimeError):
    """Rational lift could not be certified with the available primes."""


def _reduce(x, p):
    """x mod p in [0, p), in place, for a float64 array of integers below
    2^53 in magnitude (`mod_rows` and the exact check of `_expansions_hold`).

    The quotient floor(x * (1/p)) is off by at most one, and every
    intermediate is an integer below 2^53, so the result is exact after one
    fix-up in each direction.
    """
    x -= np.floor(x * (1.0 / p)) * p
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _reduce_rref(x, p):
    """x mod p in [0, p), in place, for a float64 array of integers with
    |x| <= (p - 1)^2, the range of every value the RREF forms.

    For each prime of PRIMES, fl(1/p) rounds down and the floor quotient
    floor(x * fl(1/p)) is exact on that range, so no fix-up is needed
    (pinned in tests/test_exactlin.py).
    """
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def mod_rows(nums, dens, p):
    """Reduce rational rows nums[i] / dens[i] (int64 numerators) mod p."""
    red = np.remainder(nums, p).astype(np.float64)
    scaled = np.flatnonzero(dens != 1)
    if scaled.size:
        inv = np.array([pow(int(d), -1, p) for d in dens[scaled]], dtype=np.float64)
        red[scaled] = _reduce(red[scaled] * inv[:, None], p)
    return red


def _select_mod_p(rows, p):
    """One prime: kept rows and the expansions of every dependent row.

    Reduces M = rows.T (float64 residues in [0, p)) to echelon form column
    by column, eliminating with unnormalised pivots: a pivot d clears the
    other nonzero rows of its column with the factors col * d^-1, and pivot
    rows are never scaled.  The pivot columns are the greedy earliest
    independent rows.  Row operations preserve column relations, so the
    first len(kept) rows of M end as diag(d) times the reduced row echelon
    form, and scaling the dependent block once by the inverse pivots gives
    the RREF there: dependent column j holds its row's expansion over the
    kept rows (zero on those after j).  The RREF mod p is unique, so the
    result is the same as with normalised pivots.  Returns (kept, deps):
    column i of deps is the expansion of the i-th row not in kept, in a new
    array, so that M is freed when the pass ends.

    Every value formed is a product of two residues or a residue minus such
    a product, so |x| <= (p - 1)^2 < 2^53: the float64 arithmetic is exact
    and `_reduce_rref` reduces it without fix-ups.
    """
    M = np.ascontiguousarray(rows.T)
    kept, inverses = [], []
    for j in range(M.shape[1]):
        r = len(kept)
        col = M[:, j]
        nz = np.flatnonzero(col)
        lead = nz.searchsorted(r)
        if lead == nz.size:
            continue
        lead = nz[lead]
        # M[r, j] is zero unless lead == r, so after the swap the other
        # nonzero rows of column j are nz without lead, with their values
        hit = nz[nz != lead]
        inv = pow(int(col[lead]), -1, p)
        if lead != r:
            M[[r, lead], j:] = M[[lead, r], j:]
        if hit.size:
            factors = _reduce_rref(col[hit] * inv, p)
            M[hit, j:] = _reduce_rref(M[hit, j:] - factors[:, None] * M[r, j:], p)
        kept.append(j)
        inverses.append(inv)
    dependent = np.setdiff1d(np.arange(M.shape[1]), kept)
    deps = M[: len(kept)][:, dependent] * np.array(inverses, dtype=np.float64)[:, None]
    return kept, _reduce_rref(deps, p)


def crt_int(residues, primes):
    """Symmetric-range integer from residues mod pairwise-coprime primes."""
    x, m = 0, 1
    for r, p in zip(residues, primes):
        h = ((int(r) - x) * pow(m % p, -1, p)) % p
        x += m * h
        m *= p
    if 2 * x > m:
        x -= m
    return x, m


def rat_reconstruct(a, m):
    """Wang's rational reconstruction of a mod m; None if no small fraction."""
    a %= m
    if a == 0:
        return Q(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(r1, abs(s1)) != 1 or gcd(abs(s1), m) != 1:
        return None
    return Q(r1, s1)


def _lift(passes, primes):
    """Kept set and dependency coefficients lifted from modular passes.

    Rank mod p never exceeds the rank over Q, and the greedy kept set over
    Q is elementwise no later than that of any pass, so only the passes with
    the largest rank and, among those, the earliest kept set can hold it;
    the others are dropped.  The expansions of the remaining passes are
    lifted by CRT and Wang's reconstruction, each distinct nonzero residue
    tuple once.  Returns (kept, values, index): values[0] is 0 and the
    coefficient of kept row kept[k] in the expansion of the i-th dependent
    row is values[index[i, k]].
    """
    kept = min((k for k, _ in passes), key=lambda k: (-len(k), k))
    agree = [i for i, (k, _) in enumerate(passes) if k == kept]
    moduli = [primes[i] for i in agree]
    residues = np.stack([passes[i][1] for i in agree], axis=-1)
    nonzero = residues.any(axis=-1)
    tuples, inverse = np.unique(residues[nonzero], axis=0, return_inverse=True)
    values = [Q(0)]
    for t in tuples.tolist():
        a, m = crt_int(t, moduli)
        q = rat_reconstruct(a, m)
        if q is None:
            raise ReconstructionFailure("rational reconstruction failed")
        values.append(q)
    index = np.zeros(nonzero.shape, dtype=np.intp)
    index[nonzero] = inverse.ravel() + 1
    return kept, values, index.T


def _exact_hold(nums, dens, kept, dependent, coeffs):
    """Python-integer check that each dependent row equals its expansion."""
    for idx, row in zip(dependent, coeffs):
        weights = [(k, c / int(dens[k])) for c, k in zip(row, kept) if c != 0]
        den = int(dens[idx])
        scale = lcm(den, *(int(w.denominator) for _, w in weights))
        acc = nums[idx].astype(object) * (scale // den)
        for k, w in weights:
            nz = np.flatnonzero(nums[k])
            acc[nz] -= nums[k, nz].astype(object) * int(w * scale)
        if np.any(acc != 0):
            return False
    return True


def _expansions_hold(nums, dens, kept, values, index):
    """Exact check that every dependent row equals its lifted expansion.

    With L the lcm of the row denominators times the lcm of the coefficient
    denominators, each dependent row i gives an integer identity
    L nums[i] / dens[i] = sum_k (L c_ik / dens[k]) nums[kept[k]] whose two
    sides are bounded by H.  When the check primes that do not divide L
    have a product above 2H, the identity is compared modulo each of them;
    equality modulo a product above 2H is exact equality.  Otherwise the
    rows are compared in Python integers.

    The expansions are sparse, so the weights are a CSR matrix on the
    nonzeros of `index`, whose structure is found once; for each prime its
    data are the residues of the lifted values, and the right side is one
    sparse product per block of _CHECK_BLOCK kept rows, in scipy's C loops
    rather than a BLAS call.  It is exact in float64 for every order of
    summation: residues stay below 2^20, so each of the at most 2^13 terms
    of a sum is below 2^40.  The magnitude bound H sums over the same
    nonzeros.
    """
    dependent = np.setdiff1d(np.arange(len(nums)), kept)
    scale = lcm(*np.unique(dens).tolist()) * lcm(*(v.denominator for v in values))
    magnitude = np.abs(nums).max(axis=1, initial=0) / dens
    # the nonzero coefficients, row-major, which is the CSR order
    r, k = np.nonzero(index)
    slot = index[r, k]
    indptr = np.searchsorted(r, np.arange(len(index) + 1))
    terms = np.array([abs(float(v)) for v in values])[slot] * magnitude[kept][k]
    size = np.bincount(r, terms, minlength=len(index))
    top = max(size.max(initial=0), magnitude[dependent].max(initial=0))
    # log2(2H), plus one bit for the rounding of the float bound
    bits = log2(scale) + log2(top) + 2 if top > 0 else 0
    moduli, cover = [], 0.0
    for q in CHECK_PRIMES:
        if cover >= bits:
            break
        if scale % q:
            moduli.append(q)
            cover += log2(q)
    if cover < bits:
        coeffs = [[values[u] for u in row] for row in index.tolist()]
        return _exact_hold(nums, dens, kept, dependent, coeffs)
    for q in moduli:
        table = [v.numerator * pow(v.denominator, -1, q) % q for v in values]
        W = sparse.csr_matrix(
            (np.array(table, dtype=np.float64)[slot], k, indptr), index.shape
        )
        rows = mod_rows(nums, dens, q)
        basis = rows[kept]
        acc = np.zeros((len(dependent), nums.shape[1]))
        for s in range(0, len(kept), _CHECK_BLOCK):
            part = W[:, s : s + _CHECK_BLOCK] @ basis[s : s + _CHECK_BLOCK]
            acc = _reduce(acc + _reduce(part, q), q)
        if not np.array_equal(acc, rows[dependent]):
            return False
    return True


def _structural_pivots(nums):
    """Mask of the rows whose zero pattern alone proves them independent.

    A round removes every remaining row that is nonzero in a column where
    no other remaining row is; rounds repeat until none is removed.  Each
    removed row is nonzero on a column that is zero on every row left after
    the rounds before its own, so in any vanishing combination of all rows
    its coefficient is zero, round by round: the removed rows are
    independent of all other rows, kept by the greedy selection in any
    order, and absent from every other row's expansion (structured Gaussian
    elimination: LaMacchia and Odlyzko, CRYPTO 1990).
    """
    r, c = np.nonzero(nums)
    removed = np.zeros(len(nums), dtype=bool)
    while r.size:
        hit = r[np.bincount(c, minlength=nums.shape[1])[c] == 1]
        if not hit.size:
            break
        removed[hit] = True
        live = ~removed[r]
        r, c = r[live], c[live]
    return removed


def select_rows(nums, dens=None, expand_flags=None, primes=None):
    """Select a maximal independent row subset, in order, with exact lifts.

    nums: (n, m) int64 numerators; dens: (n,) nonzero integer denominators.
    expand_flags: boolean mask of rows whose dependency (if any) must be
    returned as an exact rational expansion over earlier kept rows.

    Returns (kept_indices, expansions, primes_used): expansions maps each
    dependent flagged row j to its expansion {i: q}, where every key i is a
    kept row before j and every q a nonzero rational, so that
    nums[j] / dens[j] == sum(q * nums[i] / dens[i]); primes_used is the
    number of modular passes run, 0 when every row is a structural pivot.

    The result is certified, in two parts.  The structural pivots
    (`_structural_pivots`) are independent of all other rows by the zero
    pattern of their numerators, which is that of the rational rows, so
    they are kept and no modular arithmetic touches them.  The remaining
    core rows, restricted to the columns where one of them is nonzero, run
    through the modular selection.  Its kept rows are independent over Q,
    because independence mod one prime implies it.  Every dependent row,
    flagged or not, gets a lifted expansion over the core rows kept before
    it, checked exactly against nums[i] / dens[i] (`_expansions_hold`),
    which proves the row dependent over Q; so the kept set is exactly the
    greedy selection over Q and its size the rank.

    The pool is `primes` when given (a pool prime that divides a
    denominator raises ReconstructionFailure), else the primes of PRIMES
    that divide no denominator; both are decided on all rows.  Each turn
    adds one RREF pass of the core, with the next prime of the pool, and
    lifts from all passes so far, dropping those whose kept set cannot be
    the one over Q (see `_lift`); the first lift that verifies is returned.
    One prime is the normal case.  ReconstructionFailure is raised when the
    pool runs out first.
    """
    nums = np.ascontiguousarray(nums, dtype=np.int64)
    n = len(nums)
    dens = np.ones(n, dtype=np.int64) if dens is None else np.asarray(dens)
    flags = np.zeros(n, dtype=bool) if expand_flags is None else expand_flags
    if primes is None:
        pool = [p for p in PRIMES if np.all(dens % p)]
    elif any(np.any(dens % p == 0) for p in primes):
        raise ReconstructionFailure("a prime divides a row denominator")
    else:
        pool = list(primes)
    pivots = _structural_pivots(nums)
    core = np.flatnonzero(~pivots)
    if not core.size:
        return list(range(n)), {}, 0
    sub = nums[core]
    sub, sub_dens = sub[:, sub.any(axis=0)], dens[core]
    passes = []
    for p in pool:
        passes.append(_select_mod_p(mod_rows(sub, sub_dens, p), p))
        try:
            kept, values, index = _lift(passes, pool)
        except ReconstructionFailure:
            continue
        if _expansions_hold(sub, sub_dens, kept, values, index):
            kept, dependent = core[kept], np.delete(core, kept)
            expansions = {}
            for j, row in zip(dependent.tolist(), index):
                if flags[j]:
                    (nz,) = np.nonzero(row)
                    pairs = zip(kept[nz].tolist(), row[nz].tolist())
                    expansions[j] = {i: values[u] for i, u in pairs}
            pivots[kept] = True
            return np.flatnonzero(pivots).tolist(), expansions, len(passes)
    raise ReconstructionFailure(
        "no verified selection with up to %d primes" % len(passes)
    )
