"""Gate on the identity suite's output: a sha256 of its reports.

The dump is `to_dict()` of every report of `run_all(trials=5, degree=3,
seed=11, mutated=...)`, without timings.  With `mutated=True` every case
fails and records counterexamples, whose text holds the canonical form of
the inputs and the residual polynomials, so any change to the sampling, to
the exact arithmetic or to `canonical_text` changes a digest.  A change of
`poly_calculus` internals must leave them unchanged.
"""

import hashlib
import json

import pytest

from elacomplex import identity_suite as ids

DIGESTS = {
    False: "d9db85c48206fa654b8103ba20a0f281b3249cc2514d28998047b3e22e0d5186",
    True: "f8cd3c684f65c22745d1861eb7bff930774a11f924582c0356d281673575e9eb",
}


def suite_digest(mutated):
    reports = ids.run_all(trials=5, degree=3, seed=11, mutated=mutated)
    doc = [rep.to_dict() for rep in reports]
    for case in doc:
        case.pop("elapsed", None)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mutated", [False, True])
def test_identity_suite_digest(mutated):
    assert suite_digest(mutated) == DIGESTS[mutated]
