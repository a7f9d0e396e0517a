"""Exact linear algebra over the rationals via multi-modular arithmetic.

The assembly stage and the de Rham oracle need one primitive on rational
row matrices: `select_rows`, which selects a maximal linearly independent
subset of rows in a fixed order (earlier rows win ties) and returns, for
designated dependent rows, the exact rational expansion over the kept rows
that precede them.  The number of kept rows is the certified rank.

Each prime runs one reduced row echelon form of the transposed residue
matrix in float64 (residues below 2^26 keep every product below 2^53,
hence exact): its pivot columns are the kept rows and its dependent
columns the expansions, which are lifted to exact rationals by CRT plus
rational reconstruction.  Residues are reduced without libm `fmod`, which
dominated the row updates: an integer x with |x| < 2^53 maps to
x - floor(x * (1/p)) * p, which is exact and off by at most one multiple
of p, and one fix-up brings it into [0, p).  Independence mod any prime
already certifies independence over the rationals; every lifted expansion
is then checked exactly against its rational row before it is returned,
and the prime set grows until the check passes, so a wrong lift can only
fail loudly (`ReconstructionFailure`), never pass.
"""

from math import gcd, isqrt, lcm

import numpy as np

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


class ReconstructionFailure(RuntimeError):
    """Rational lift could not be certified with the available primes."""


def _reduce(x, p):
    """x mod p in [0, p), in place, for a float64 array of integers below
    2^53 in magnitude.

    The quotient floor(x * (1/p)) is off by at most one, and every
    intermediate is an integer below 2^53, so the result is exact.
    """
    x -= np.floor(x * (1.0 / p)) * p
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def mod_rows(nums, dens, p):
    """Reduce rational rows nums[i] / dens[i] (int64 numerators) mod p."""
    red = np.remainder(nums, p).astype(np.float64)
    inv = np.array([pow(int(d), -1, p) for d in dens], dtype=np.float64)
    return _reduce(red * inv[:, None], p)


def _select_mod_p(rows, expand_flags, p):
    """One prime: kept rows and expansions of flagged dependent rows.

    Reduces M = rows.T (float64 residues in [0, p)) to reduced row echelon
    form column by column.  The pivot columns are the greedy earliest
    independent rows.  Row operations preserve column relations, so a
    dependent column j of the RREF holds its row's expansion over the kept
    rows (zero on those after j); it is returned as a copy, so M is freed
    when the pass ends.  Every product of two residues is below p^2 < 2^53,
    so the float64 arithmetic is exact.
    """
    M = np.ascontiguousarray(rows.T)
    kept = []
    for j in range(M.shape[1]):
        r = len(kept)
        below = np.flatnonzero(M[r:, j])
        if below.size == 0:
            continue
        lead = r + below[0]
        if lead != r:
            M[[r, lead], j:] = M[[lead, r], j:]
        inv = float(pow(int(M[r, j]), -1, p))
        M[r, j:] = _reduce(M[r, j:] * inv, p)
        hit = np.flatnonzero(M[:, j])
        hit = hit[hit != r]
        if hit.size:
            col = M[hit, j]
            M[hit, j:] = _reduce(M[hit, j:] - col[:, None] * M[r, j:], p)
        kept.append(j)
    r = len(kept)
    dependent = np.flatnonzero(expand_flags)
    dependent = dependent[~np.isin(dependent, kept)]
    return kept, {int(j): M[:r, j].copy() for j in dependent}


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


def _select_mod(nums, dens, expand_flags, primes):
    """One attempt: an RREF per prime, agreeing kept sets, lifted expansions."""
    passes = [
        _select_mod_p(mod_rows(nums, dens, p), expand_flags, p) for p in primes
    ]
    kept, first = passes[0]
    if any(other != kept for other, _ in passes[1:]):
        raise ReconstructionFailure("prime passes disagree on the kept set")
    expansions = {}
    for idx in first:
        lifted = []
        for residues in zip(*(exps[idx] for _, exps in passes)):
            a, mod = crt_int(residues, primes)
            q = rat_reconstruct(a % mod, mod)
            if q is None:
                raise ReconstructionFailure(
                    "rational reconstruction failed at row %d" % idx
                )
            lifted.append(q)
        expansions[idx] = lifted
    return kept, expansions


def _expansions_hold(nums, dens, kept, expansions):
    """Exact check that each row nums[i]/dens[i] equals its expansion."""
    for idx, coeffs in expansions.items():
        weights = [(k, c / int(dens[k])) for c, k in zip(coeffs, kept) if c != 0]
        den = int(dens[idx])
        scale = lcm(den, *(int(w.denominator) for _, w in weights))
        acc = nums[idx].astype(object) * (scale // den)
        for k, w in weights:
            nz = np.flatnonzero(nums[k])
            acc[nz] -= nums[k, nz].astype(object) * int(w * scale)
        if np.any(acc != 0):
            return False
    return True


def select_rows(nums, dens=None, expand_flags=None, primes=None):
    """Select a maximal independent row subset, in order, with exact lifts.

    nums: (n, m) int64 numerators; dens: (n,) integer denominators.
    expand_flags: boolean mask of rows whose dependency (if any) must be
    returned as an exact rational expansion over earlier kept rows.

    Returns (kept_indices, expansions, primes_used): expansions maps a
    dependent flagged row index to a list of Q aligned with kept_indices
    (zeros for kept rows that come after it), and primes_used is the number
    of primes of the attempt that succeeded.  Kept rows are certifiably
    independent over Q (independence mod one prime suffices); the kept set
    is cross-checked over every prime of an attempt, and every expansion is
    verified exactly against nums[i] / dens[i].

    With `primes` given, exactly one attempt runs with exactly those primes;
    a prime that divides a denominator raises ReconstructionFailure.
    Otherwise the attempts climb a ladder over the primes of PRIMES that
    divide no denominator: the first 3 when any row is flagged (2 when none
    is), then 5, 8 and 12.  ReconstructionFailure is raised when no attempt
    yields a verified selection.
    """
    n, m = nums.shape
    nums = np.ascontiguousarray(nums, dtype=np.int64)
    dens = np.ones(n, dtype=np.int64) if dens is None else np.asarray(dens)
    if expand_flags is None:
        expand_flags = np.zeros(n, dtype=bool)
    if primes is not None:
        if any(np.any(dens % p == 0) for p in primes):
            raise ReconstructionFailure("a prime divides a row denominator")
        ladder = (tuple(primes),)
    else:
        usable = [p for p in PRIMES if np.all(dens % p)]
        first = 3 if np.any(expand_flags) else 2
        ladder = tuple(tuple(usable[:k]) for k in (first, 5, 8, 12))
    for attempt in ladder:
        try:
            kept, expansions = _select_mod(nums, dens, expand_flags, attempt)
        except ReconstructionFailure:
            continue
        if _expansions_hold(nums, dens, kept, expansions):
            return kept, expansions, len(attempt)
    raise ReconstructionFailure(
        "no verified selection with up to %d primes" % len(ladder[-1])
    )
