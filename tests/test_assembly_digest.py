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
    (4, "none"): "8b1449f58eba6f80a3c0b31f9ef78a2ec1e57de5d75db42b2c0e08bf9dae6d09",
    (4, "X0"): "6029f6a14eb94d123e197709f660db35d7c91845c6333aa22a60529d96b1e72a",
    (4, "X0,X1"): "1ffe26e6ae149884e9fec0aa95d8d1a3878e286c38dbcb6488b697b370357663",
    (4, "all"): "34505d07665ec69b330f4abe60d61119e1dfc953745a224d4389326b87d52c76",
    (5, "none"): "5928ec52c3d622a5296a79469e0a11365e04e77e20c0bf5432c0919c8fd3c184",
    (5, "X0"): "3d69c37b8d91298507ceafbc4ec0d2dfe16443b388f0e53626ad8ad3d42b7c84",
    (5, "X0,X1"): "66097f1e1bb85cefa95edfc5d34f8d235e96ee615323778b0090072653249b5c",
    (5, "all"): "0eb2e98de43ad9a3b4207e6d5cbbc6b53db9e24a124a3ab705814186ac7f3daf",
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
