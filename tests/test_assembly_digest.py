"""Gate on the exact assembly: a sha256 of a canonical dump of each complex.

The dump covers every level's kind, nvar, provenance and exact coordinates,
every operator's shape and exact columns, and the assembly stats and meta,
so any change to a kept set, an expansion, a normalisation scale or an
ExactOperator entry changes the digest.  A refactor of the exact stage must
leave them unchanged; only a change meant to alter the assembled complexes
may regenerate them.
"""

import hashlib
import json

import pytest

from elacomplex.rational import qstr

DIGESTS = {
    (4, "none"): "c0641c918bfb94e522295906f23148cb53ae7e5d89e6b359874591e65d9b14b6",
    (4, "X0"): "3c8ba2001db8b61fb88d13e078f072a1f66e64cb1c4c8374aeb31ad6dcd2b980",
    (4, "X0,X1"): "43e93e12e0961abc8c69e95407c0f75f6b002b7fb809ab043c86b74a9292a36a",
    (4, "all"): "74ace714d2e2c143ebf74cf72f8baddf499f9801998920f3f179286fad694fab",
    (5, "none"): "fbe232b9265a95310e17cb3c740cc6a5ede0d7faefbf534ab0fa38d0e703d779",
    (5, "X0"): "442157247e7c6cd90832c7bf50e33524ba08c66ec9158d9a110bb7cec018af80",
    (5, "X0,X1"): "41dc2d4f864b8a96ddef473ef981e3af2eddab6fdacfdffca87b95b0efa29c71",
    (5, "all"): "7abfe15df97e020f9b26dde7fcba2ad96ca260fc5d1445cc3686e83742826a82",
}


def _exact_pairs(mapping):
    return sorted((int(k), qstr(v)) for k, v in mapping.items())


def canonical_dump(ec):
    levels = [
        {
            "kind": level.kind,
            "nvar": level.nvar,
            "provenance": [list(prov) for prov in level.provenance],
            "coords": [_exact_pairs(c) for c in level.coords],
        }
        for level in ec.levels
    ]
    ops = [
        {
            "shape": [op.nrows, op.ncols],
            "columns": [_exact_pairs(op.column(j)) for j in range(op.ncols)],
        }
        for op in ec.ops
    ]
    doc = {"levels": levels, "ops": ops, "stats": list(ec.stats), "meta": ec.meta}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def complex_digest(ec):
    return hashlib.sha256(canonical_dump(ec).encode()).hexdigest()


@pytest.mark.parametrize("p,gt", list(DIGESTS))
def test_assembly_digest(request, p, gt):
    ec = request.getfixturevalue("complexes_p%d" % p)[gt]
    assert complex_digest(ec) == DIGESTS[(p, gt)]


# at most one prime per level selection; none where every candidate row is
# a structural pivot
PRIMES_USED_P4 = {
    "none": [1, 1, 1],
    "X0": [1, 1, 1],
    "X0,X1": [0, 1, 1],
    "all": [0, 0, 0],
}


@pytest.mark.parametrize("gt", ["none", "X0", "X0,X1", "all"])
def test_one_prime_per_selection_at_p4(complexes_p4, gt):
    assert [s["primes_used"] for s in complexes_p4[gt].stats] == PRIMES_USED_P4[gt]
