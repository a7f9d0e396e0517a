"""Cold runs, one fresh process each, for one or more source trees.

    python3 benchmarks/bench.py --tree change=src --out BENCH_7.json
    python3 benchmarks/bench.py --tree parent=../old/src --tree change=src \
        --repeat 3 --out BENCH_7.json
    python3 benchmarks/bench.py --verbs --tree parent=../old/src \
        --tree change=src --repeat 3 --out BENCH_8.json

By default each run is `build_complex(p, gt, use_cache=False)` in a new
interpreter, for p in --degrees and the four boundary selections.  A run
records the wall time and the process CPU time of the call (all threads,
so BLAS threads that spin show there), the time spent in
`exactlin.select_rows` (calls, and per call the primes used and the
rows its structural pivots took out of the modular elimination; empty
for a tree whose `exactlin` has no `_structural_pivots`), in
`_normalized_level` (the norm exponents and scaling of each level's rows)
and in `_images` (the operator images, including the derivation of each
grid operator on first use), the number of rows whose norm exponent fell
back to the extended-precision `_l2_norms`, the number of
`_assemble_level` calls, the stored entries of each level's rows
(`level_nnz`; the nonzeros, for a tree whose levels hold dense rows), and
the dims, ranks, kernel dims, harmonic dims and `meta` of the complex.
After the build the child times `ec.float_grams()`, the L2 Grams of the
four levels (`float_grams_s`, the float stage's conversion of exact
rows), then on `ec.finite_complex()` the float cohomology at all four
levels (`cohomology_s`, dimensions only) and `complex_constants`
(`constants_s`), then `korn_constant(p, gt)` (`korn_s`). It records its
peak resident set size over all of these (`peak_rss_mb`, from
`ru_maxrss`).

With --verbs each run is one CLI call in a new interpreter instead, with
the argument lists of the `toolbox` workload of perfbench (seed
TOOLBOX_SEED; the voxel-box fixture is written where that workload puts
it).  A verb run records the wall time of the whole process, including
start-up, imports and, for the p=4 verbs, the exact assembly, with its exit
code and the sha256 of its report.

With several trees, the trees of one repeat run in alternating order.  The
output holds every run, a per-tree `summary` of each timing as [min,
median, max] over the repeats (the spread shows how far a median can be
trusted on a shared box), whether all runs of each case agree (on the
integers, `level_nnz` and `meta`, or on exit code and report digest), and
the facts of the machine: nproc, Python, numpy, BLAS and its thread pin,
and the rational backend of each tree.  OpenBLAS is pinned to at most two
threads, as in perfbench.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SELECTIONS = ("none", "X0", "X0,X1", "all")
RESULT_KEYS = ("dims", "ranks", "kernel_dims", "harmonic_dims", "meta", "level_nnz")
MEASURES = (
    "wall_s",
    "cpu_s",
    "select_rows_s",
    "normalize_s",
    "images_s",
    "float_grams_s",
    "cohomology_s",
    "constants_s",
    "korn_s",
    "peak_rss_mb",
)
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
ROOT = Path(__file__).resolve().parent.parent
TOOLBOX_SEED = 1

# the facts of a tree, as `facts`; the start of every child but a verb call
FACTS = r"""
import json, platform
import numpy
from elacomplex import rational
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
facts = {
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    "rational_backend": "%s.%s" % (rational.Q.__module__, rational.Q.__qualname__),
}
"""

# run in the child: time one cold assembly, the selections inside it and
# the float stage after it
CHILD = FACTS + r"""
import resource, sys, time
from elacomplex import elasticity_assembly as ea, exactlin, fa_toolbox as fa

p, gt = int(sys.argv[1]), sys.argv[2]

# replace owner.name by a wrapper that calls record(seconds, args, result)
def wrap(owner, name, record):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        record(time.perf_counter() - start, args, result)
        return result

    setattr(owner, name, wrapper)

spans, structural, levels, normalize, images, fallback = [], [], [], [], [], []
wrap(exactlin, "select_rows", lambda t, args, result: spans.append((t, result[2])))
if hasattr(exactlin, "_structural_pivots"):
    wrap(exactlin, "_structural_pivots", lambda t, args, result: structural.append(int(result.sum())))
wrap(ea, "_assemble_level", lambda t, args, result: levels.append(args[1]))
wrap(ea, "_normalized_level", lambda t, args, result: normalize.append(t))
wrap(ea, "_images", lambda t, args, result: images.append(t))
wrap(ea, "_l2_norms", lambda t, args, result: fallback.append(args[1].shape[0]))
start, cpu = time.perf_counter(), time.process_time()
ec = ea.build_complex(p, gt, use_cache=False)
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
start = time.perf_counter()
ec.float_grams()
float_grams = time.perf_counter() - start
cx = ec.finite_complex()
start = time.perf_counter()
for n in range(4):
    fa.cohomology(cx, n)
cohomology = time.perf_counter() - start
start = time.perf_counter()
fa.complex_constants(cx)
constants = time.perf_counter() - start
start = time.perf_counter()
ea.korn_constant(p, gt)
korn = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "cpu_s": cpu,
    "select_rows_s": sum(t for t, _ in spans),
    "select_rows_calls": len(spans),
    "primes_used": [n for _, n in spans],
    "structural_rows": structural,
    "level_nnz": [
        int(level.nums.nnz)
        if hasattr(level.nums, "nnz")
        else int(numpy.count_nonzero(level.nums))
        for level in ec.levels
    ],
    "normalize_s": sum(normalize),
    "images_s": sum(images),
    "norm_fallback_rows": sum(fallback),
    "float_grams_s": float_grams,
    "cohomology_s": cohomology,
    "constants_s": constants,
    "korn_s": korn,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "dims": list(ec.dims),
    "ranks": list(ec.ranks),
    "kernel_dims": list(ec.kernel_dims),
    "harmonic_dims": list(ec.harmonic_dims),
    "meta": ec.meta,
    "levels_assembled": len(levels),
    "facts": facts,
}))
"""


# run in a child: write the toolbox workload's voxel-box fixture, print the
# argument lists of its CLI calls
TOOLBOX_CALLS = r"""
import json, sys
from workloads import Toolbox

toolbox = Toolbox(int(sys.argv[1]))
toolbox.setup(last=False)
print(json.dumps(toolbox.calls()))
"""

# run in a child: one CLI call
VERB = r"""
import sys
from elacomplex import cli
sys.exit(cli.main(sys.argv[1:]))
"""

def spread(values):
    """[min, median, max] of a tree's runs of one case, rounded to 1 ms."""
    values = list(values)
    return [round(v, 3) for v in (min(values), statistics.median(values), max(values))]


def _child_env(*paths):
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(map(str, paths)),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
    )


def toolbox_calls(src):
    """{name: argv} of the toolbox workload, after writing its fixture."""
    out = subprocess.run(
        [sys.executable, "-c", TOOLBOX_CALLS, str(TOOLBOX_SEED)],
        env=_child_env(ROOT / "perfbench", src),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def run_verb(src, argv):
    """Wall time, exit code and report digest of one CLI call, cold."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", VERB, *argv],
        env=_child_env(src),
        cwd=ROOT,  # the fixture report echoes its root-relative path
        capture_output=True,
    )
    return {
        "wall_s": time.perf_counter() - start,
        "exit": out.returncode,
        "sha256": hashlib.sha256(out.stdout).hexdigest(),
    }


def verb_doc(trees, repeat):
    calls = toolbox_calls(Path(trees[0][1]).resolve())
    runs = []
    for name in sorted(calls):
        for rep in range(repeat):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, src in order:
                rec = run_verb(Path(src).resolve(), calls[name])
                rec.update(tree=label, verb=name, repeat=rep)
                runs.append(rec)
                print(
                    "%-8s %-15s wall %6.2f s  exit %d  %s"
                    % (label, name, rec["wall_s"], rec["exit"], rec["sha256"][:12]),
                    flush=True,
                )
    summary = {}
    for label, _ in trees:
        mine = [r for r in runs if r["tree"] == label]
        per_verb = summary[label] = {
            name: spread(r["wall_s"] for r in mine if r["verb"] == name)
            for name in sorted(calls)
        }
        per_verb["total"] = spread(
            sum(r["wall_s"] for r in mine if r["repeat"] == rep) for rep in range(repeat)
        )
    agree = {
        name: len({(r["exit"], r["sha256"]) for r in runs if r["verb"] == name}) == 1
        for name in sorted(calls)
    }
    facts = {}
    for label, src in trees:
        out = subprocess.run(
            [sys.executable, "-c", FACTS + "print(json.dumps(facts))"],
            env=_child_env(Path(src).resolve()),
            capture_output=True,
            text=True,
            check=True,
        )
        facts[label] = json.loads(out.stdout)
    return {
        "trees": [label for label, _ in trees],
        "toolbox_seed": TOOLBOX_SEED,
        "calls": calls,
        "repeat": repeat,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS)},
        "facts": facts,
        "summary": summary,
        "digests_agree": agree,
        "runs": runs,
    }


def run_one(src, p, gt):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(p), gt],
        env=_child_env(src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree",
        action="append",
        required=True,
        metavar="LABEL=SRC",
        help="a label and the src/ directory of a checkout; repeatable",
    )
    parser.add_argument(
        "--verbs",
        action="store_true",
        help="time the CLI calls of the toolbox workload instead of assembly",
    )
    parser.add_argument("--degrees", type=int, nargs="+", default=[4, 5, 6])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = [tuple(t.split("=", 1)) for t in args.tree]
    if args.verbs:
        args.out.write_text(dump(verb_doc(trees, args.repeat)))
        return
    runs = []
    for p in args.degrees:
        for gt in SELECTIONS:
            for rep in range(args.repeat):
                order = trees if rep % 2 == 0 else trees[::-1]
                for label, src in order:
                    rec = run_one(Path(src).resolve(), p, gt)
                    rec.update(tree=label, p=p, gt=gt, repeat=rep)
                    runs.append(rec)
                    print(
                        "%-8s p=%d %-6s wall %6.2f s  cpu %6.2f s  select_rows %6.2f s"
                        "  normalize %5.2f s  images %5.2f s  grams %5.2f s"
                        "  cohomology %5.2f s  constants %5.2f s  korn %5.2f s"
                        "  rss %4.0f MiB  levels %d  primes %s  structural %s"
                        % (
                            label,
                            p,
                            gt,
                            rec["wall_s"],
                            rec["cpu_s"],
                            rec["select_rows_s"],
                            rec["normalize_s"],
                            rec["images_s"],
                            rec["float_grams_s"],
                            rec["cohomology_s"],
                            rec["constants_s"],
                            rec["korn_s"],
                            rec["peak_rss_mb"],
                            rec["levels_assembled"],
                            rec["primes_used"],
                            rec["structural_rows"],
                        ),
                        flush=True,
                    )
    summary = {}
    for label, _ in trees:
        for p in args.degrees:
            for gt in SELECTIONS:
                mine = [r for r in runs if (r["tree"], r["p"], r["gt"]) == (label, p, gt)]
                summary.setdefault(label, {})["%d %s" % (p, gt)] = {
                    key: spread(r[key] for r in mine)
                    for key in MEASURES
                }
    agree = {
        "%d %s" % (p, gt): len(
            {
                json.dumps([r[k] for k in RESULT_KEYS], sort_keys=True)
                for r in runs
                if (r["p"], r["gt"]) == (p, gt)
            }
        )
        == 1
        for p in args.degrees
        for gt in SELECTIONS
    }
    facts = {label: next(r["facts"] for r in runs if r["tree"] == label) for label, _ in trees}
    doc = {
        "trees": [label for label, _ in trees],
        "degrees": args.degrees,
        "repeat": args.repeat,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS)},
        "facts": facts,
        "summary": summary,
        "results_agree": agree,
        "runs": [{k: v for k, v in r.items() if k != "facts"} for r in runs],
    }
    args.out.write_text(dump(doc))


def dump(doc):
    """JSON text with one line per run."""
    head = json.dumps({k: v for k, v in doc.items() if k != "runs"}, indent=1)
    runs = ",\n".join("  " + json.dumps(r) for r in doc["runs"])
    return head[:-2] + ',\n "runs": [\n' + runs + "\n ]\n}\n"


if __name__ == "__main__":
    main()
