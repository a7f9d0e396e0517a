"""Compare two sets of untraced benchmark records.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of records written by run.py (perfbench/out/
of two checkouts, or copies of it).  For every workload and end-to-end
metric it prints each side's median and quartile spread, the change of the
median as a share of the base median, and a verdict against the bound in
BENCHMARK.json:

    worse       the new median is worse than the base by more than the bound
    unresolved  either side's quartile spread is wider than the bound
    ok          otherwise

It refuses (exit 2) to compare records whose rational backend, BLAS thread
count or core count differ, since those move every number.  Exit 1 if any
metric is worse, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

from machine import COMPARABLE_FACTS, ROOT


def load(directory):
    """{workload: [record, ...]} of the untraced records in `directory`."""
    out = {}
    for path in sorted(Path(directory).glob("*.record.json")):
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            out.setdefault(record["workload"], []).append(record)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in COMPARABLE_FACTS:
        seen = {
            json.dumps(r["facts"].get(key))
            for side in (base, new)
            for records in side.values()
            for r in records
        }
        if len(seen) > 1:
            print(
                "refusing to compare: records differ in %s (%s)"
                % (key, ", ".join(sorted(seen))),
                file=sys.stderr,
            )
            return 2
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    worse = False
    print("%-11s %-13s %12s %7s %12s %7s %8s %6s  %s" % (
        "workload", "metric", "base", "spread", "new", "spread", "change", "bound", "verdict"))
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            a = [r["result"]["metrics"][m["name"]]["value"] for r in base[workload]]
            b = [r["result"]["metrics"][m["name"]]["value"] for r in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worsening = change if m["better"] == "lower" else -change
            if worsening > m["bound"]:
                verdict, worse = "worse", True
            elif max(spread(a), spread(b)) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-11s %-13s %12.5g %7.3f %12.5g %7.3f %+8.3f %6.2f  %s" % (
                workload, m["name"], ma, spread(a), mb, spread(b), change, m["bound"], verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
