"""Cold exact assembly, one fresh process per run, for one or more source trees.

    python3 benchmarks/bench.py --tree change=src --out BENCH_7.json
    python3 benchmarks/bench.py --tree parent=../old/src --tree change=src \
        --repeat 3 --out BENCH_7.json

Each run is `build_complex(p, gt, use_cache=False)` in a new interpreter,
for p in --degrees and the four boundary selections.  A run records the wall
time of the call, the time spent in `exactlin.select_rows` (calls and
primes used per call), the number of `_assemble_level` calls, and the dims,
ranks, kernel dims, harmonic dims and `meta` of the complex.  With several
trees, the trees of one repeat run in alternating order.  The output holds
every run, the per-tree medians, whether all runs of each (p, selection)
agree on those integers and `meta`, and the facts of the machine: nproc,
Python, numpy, BLAS and its thread pin, and the rational backend of each
tree.  OpenBLAS is pinned to at most two threads, as in perfbench.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SELECTIONS = ("none", "X0", "X0,X1", "all")
RESULT_KEYS = ("dims", "ranks", "kernel_dims", "harmonic_dims", "meta")
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))

# run in the child: time one cold assembly and the selections inside it
CHILD = r"""
import json, platform, sys, time
import numpy
from elacomplex import elasticity_assembly as ea, exactlin, rational

p, gt = int(sys.argv[1]), sys.argv[2]
spans = []
select_rows = exactlin.select_rows

def timed(*args, **kwargs):
    start = time.perf_counter()
    result = select_rows(*args, **kwargs)
    spans.append((time.perf_counter() - start, result[2]))
    return result

exactlin.select_rows = timed
levels = []
assemble_level = ea._assemble_level

def counted(*args, **kwargs):
    levels.append(args[1])
    return assemble_level(*args, **kwargs)

ea._assemble_level = counted
start = time.perf_counter()
ec = ea.build_complex(p, gt, use_cache=False)
wall = time.perf_counter() - start
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "wall_s": wall,
    "select_rows_s": sum(t for t, _ in spans),
    "select_rows_calls": len(spans),
    "primes_used": [n for _, n in spans],
    "dims": list(ec.dims),
    "ranks": list(ec.ranks),
    "kernel_dims": list(ec.kernel_dims),
    "harmonic_dims": list(ec.harmonic_dims),
    "meta": ec.meta,
    "levels_assembled": len(levels),
    "facts": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "rational_backend": "%s.%s" % (rational.Q.__module__, rational.Q.__qualname__),
    },
}))
"""


def run_one(src, p, gt):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(p), gt],
        env=env,
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
    parser.add_argument("--degrees", type=int, nargs="+", default=[4, 5, 6])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = [tuple(t.split("=", 1)) for t in args.tree]
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
                        "%-8s p=%d %-6s wall %6.2f s  select_rows %6.2f s  levels %d  primes %s"
                        % (
                            label,
                            p,
                            gt,
                            rec["wall_s"],
                            rec["select_rows_s"],
                            rec["levels_assembled"],
                            rec["primes_used"],
                        ),
                        flush=True,
                    )
    medians = {}
    for label, _ in trees:
        for p in args.degrees:
            for gt in SELECTIONS:
                mine = [r for r in runs if (r["tree"], r["p"], r["gt"]) == (label, p, gt)]
                medians.setdefault(label, {})["%d %s" % (p, gt)] = {
                    key: round(statistics.median(r[key] for r in mine), 3)
                    for key in ("wall_s", "select_rows_s")
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
        "medians": medians,
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
