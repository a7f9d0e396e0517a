"""The benchmark workloads: inputs made from the seed, the timed call, and
the checks of every output.

Each workload hands the runner a list of items per pass.  The runner times
`run(item)` alone; `summarize` and `check` run outside the timed region.
Inputs come only from the workload seed.  Where outputs are compared with
committed references (`refs/*.json`), the seed picks one of `VARIANTS`
input variants, so that every input a seed can produce has a reference.

Caches.  `build_complex` keeps a process-wide cache of assembled complexes
and each `ElasticityComplex` keeps its float Grams, float operators and the
`FiniteComplex` (with its SVD-based caches) after the first
`finite_complex()` call.  `assemble` passes `use_cache=False`, and
`toolbox` drops the float caches before every CLI call, so each call pays
the float conversion as a fresh CLI process would.  The complexes the CLI
verbs use stay in the process cache: they are assembled in set-up, which
is what `toolbox` excludes on purpose.  The univariate-factor and Legendre
caches of `elasticity_assembly` stay warm: a user fills them once per
process, they hold only small exact tables, and a cold versus warm p=4
assembly differs by less than the run-to-run noise.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
from dataclasses import dataclass

from elacomplex import cli, derham
from elacomplex import elasticity_assembly as ea

from machine import OUT_DIR, REFS_DIR, ROOT

DEGREE = 4
VARIANTS = 8
# helmholtz and sharpness residuals in the toolbox reports must stay below
RESIDUAL_BOUND = 1e-8


@dataclass(frozen=True)
class Item:
    """One timed call: one operation, and one item for items_per_s."""

    id: str
    args: tuple


def _differences(result, ref):
    keys = sorted(set(result) | set(ref))
    return [
        "%s: got %r, reference %r" % (k, result.get(k), ref.get(k))
        for k in keys
        if result.get(k) != ref.get(k)
    ]


class Workload:
    """Subclasses give `items(pass_index)`, the timed `run(item)`, and
    `summarize`, `reference`, `check` and `corrupt` (a copy of a reference
    with one entry changed) for the checks."""

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.refs = None

    def load_refs(self):
        with open(REFS_DIR / ("%s.json" % self.name)) as f:
            self.refs = json.load(f)

    def setup(self, last):
        """Untimed preparation; repeated, `last` marks the final repetition."""

    def before(self, item):
        """Untimed per-item preparation."""

    def _shuffled(self, seq, pass_index):
        seq = list(seq)
        random.Random("%s:%d:%d" % (self.name, self.seed, pass_index)).shuffle(seq)
        return seq


class Assemble(Workload):
    """Cold exact assembly of the p=4 complex for three face selections.

    X0 takes the second chain pass, X0,X1 rejects its potentials and all has
    no kernel overflow, so the three cover every overflow path.
    """

    name = "assemble"
    SELECTIONS = ("X0", "X0,X1", "all")

    def items(self, pass_index):
        return [
            Item("assemble:%s" % gt, (DEGREE, gt))
            for gt in self._shuffled(self.SELECTIONS, pass_index)
        ]

    def run(self, item):
        p, gt = item.args
        return ea.build_complex(p, gt, use_cache=False)

    def summarize(self, item, ec):
        return {
            "dims": list(ec.dims),
            "ranks": list(ec.ranks),
            "kernel_dims": list(ec.kernel_dims),
            "harmonic_dims": list(ec.harmonic_dims),
            "meta": dict(ec.meta),
            "complex_property": ec.verify_complex_property(),
        }

    def reference(self, item):
        return self.refs["items"].get(item.args[1])

    def check(self, item, result, ref):
        if ref is None:
            return ["no reference for %s" % item.id]
        return _differences(result, ref)

    def corrupt(self, ref):
        bad = copy.deepcopy(ref)
        bad["ranks"][0] += 1
        return bad


def voxel_box_cells(variant):
    """Solid box fixture for `toolbox`; the seed variant orders its sides."""
    sides = [4, 5, 6]
    random.Random("voxbox:%d" % variant).shuffle(sides)
    return derham.solid_box_cells(*sides)


class Toolbox(Workload):
    """In-process CLI verbs on complexes assembled in set-up.

    No exact selection runs in the timed pass: the float toolbox, the CLI,
    the Korn quotient's exact space and the identity suite's small
    polynomials do the work.
    """

    name = "toolbox"
    GT = "all"

    def __init__(self, seed):
        super().__init__(seed)
        self.cli_seed = 1000 + self.variant
        # relative to the checkout root (the working directory): the report
        # echoes the path, and its digest must not depend on the checkout
        self.fixture_path = (OUT_DIR / ("voxbox_v%d.json" % self.variant)).relative_to(ROOT)
        self.complex = None

    def setup(self, last):
        # only the last repetition fills the process cache the verbs read
        self.complex = ea.build_complex(DEGREE, self.GT, use_cache=last)
        cx = derham.cubical_complex(voxel_box_cells(self.variant))
        OUT_DIR.mkdir(exist_ok=True)
        with open(self.fixture_path, "w") as f:
            json.dump(cx.to_json_dict(), f, sort_keys=True)
        if last and cli.build_complex(DEGREE, self.GT) is not self.complex:
            raise RuntimeError("set-up complex is not the one the CLI reads")

    def calls(self):
        common = ["--p", str(DEGREE), "--gt", self.GT, "--seed", str(self.cli_seed)]
        seed = ["--seed", str(self.cli_seed)]
        return {
            "complex": ["complex", *common, "--weights", "random", "--trials", "10"],
            "helmholtz": ["helmholtz", *common, "--weights", "random", "--trials", "20"],
            "poincare": ["poincare", *common],
            "korn": ["korn", "--p", str(DEGREE), "--gt", "none", *seed],
            "fixture_torus": ["fixture", "--fixture", "torus", *seed],
            "fixture_voxbox": ["fixture", "--fixture", str(self.fixture_path), *seed],
            "identities": ["verify-identities", "--trials", "3", *seed],
        }

    def items(self, pass_index):
        calls = self.calls()
        return [
            Item("toolbox:%s" % name, (name, tuple(calls[name])))
            for name in self._shuffled(sorted(calls), pass_index)
        ]

    def before(self, item):
        # a fresh CLI process converts the exact complex to floats again
        self.complex._float.clear()

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item.args[1]))
        return code, out.getvalue(), err.getvalue()

    def summarize(self, item, raw):
        code, text, err = raw
        data = text.encode()
        return {
            "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "residuals": _report_residuals(text)
            if code == 0 and item.args[0] != "identities"  # JSON lines
            else [],
            "stderr": err,
            # a report that names the checkout differs between checkouts
            "names_checkout": str(ROOT) in text,
        }

    def reference(self, item):
        return self.refs["variants"][str(self.variant)].get(item.args[0])

    def check(self, item, result, ref):
        if ref is None:
            return ["no reference for %s" % item.id]
        problems = _differences(
            {"exit": result["exit"], "sha256": result["sha256"]}, ref
        )
        if result["names_checkout"]:
            problems.append("report names the checkout path %s" % ROOT)
        over = [r for r in result["residuals"] if not r <= RESIDUAL_BOUND]
        if over:
            problems.append("residuals over %g: %r" % (RESIDUAL_BOUND, over))
        return problems

    def corrupt(self, ref):
        bad = dict(ref)
        bad["sha256"] = ("0" if ref["sha256"][0] != "0" else "1") + ref["sha256"][1:]
        return bad


def _report_residuals(text):
    """Every residual a toolbox report states, as floats."""
    results = json.loads(text)["results"]
    out = [results[k] for k in ("helmholtz_max_residual", "max_residual") if k in results]
    if isinstance(results.get("constants"), list):  # poincare rows
        out += [
            row["sharpness_residual"]
            for row in results["constants"]
            if row["sharpness_residual"] is not None
        ]
    return out


WORKLOADS = {w.name: w for w in (Assemble, Toolbox)}
