"""elacomplex benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload assemble --seed 1 --seconds 20 --trace 0

Workloads: assemble, toolbox, identities, oracle (see workloads.py and
BENCHMARK.json).  Items run back to back in one process (closed loop);
whole passes over the workload's items repeat while the next one is
expected to end within --seconds, and at least one pass runs.

--trace 0 prints the end-to-end metrics.  --trace 1 is the separate traced
run: every item runs once plain and once with spans around the calls into
each module (tracing.py), and the per-layer metrics and the tracing overhead
are printed.  Every output is checked; the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  The full record (machine
facts, per-pass times, failures, and in trace mode the spans) goes to
perfbench/out/.  compare.py compares two sets of records.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import machine

SETUP_REPS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Tally:
    """Operations attempted and failed, and the checker's own self-checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.selfcheck = []

    def timed(self, wl, item, tracer=None):
        """Run one item (traced when `tracer` is given) and check its output.

        Returns (wall seconds, cpu seconds, summarized result or None).
        """
        wl.before(item)
        if tracer is not None:
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = wl.run(item)
            error = None
        except Exception:
            raw, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append({"item": item.id, "problems": [error]})
            return wall, cpu, None
        result = wl.summarize(item, raw)
        ref = wl.reference(item)
        problems = wl.check(item, result, ref)
        if problems:
            self.failed += 1
            self.problems.append({"item": item.id, "problems": problems})
        if ref is not None and not wl.check(item, result, wl.corrupt(ref)):
            self.selfcheck.append("%s: corrupted reference not detected" % item.id)
        return wall, cpu, result


def _run_passes(wl, seconds, step):
    """Call step(pass_index) for whole passes within `seconds`, at least one."""
    t0 = time.perf_counter()
    n = 0
    while True:
        step(n)
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / n > seconds:
            return n


def _timed_run(wl, seconds, tally):
    walls, cpus, units = [], [], []

    def step(index):
        wall = cpu = 0.0
        items = wl.items(index)
        for item in items:
            w, c, _ = tally.timed(wl, item)
            wall, cpu = wall + w, cpu + c
        walls.append(wall)
        cpus.append(cpu)
        units.append(len(items))

    _run_passes(wl, seconds, step)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(n / w for n, w in zip(units, walls)), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
    }
    return metrics, {"pass_wall_s": walls, "pass_cpu_s": cpus, "pass_units": units}


def _traced_run(wl, seconds, tally):
    import tracing

    tracer = tracing.Tracer()
    plain, traced, item_walls, report_bytes = [], [], {}, 0

    def step(index):
        nonlocal report_bytes
        plain_wall = traced_wall = 0.0
        for item in wl.items(index):
            w, _, _ = tally.timed(wl, item)
            plain_wall += w
            tracer.item = "%d:%s" % (index, item.id)
            w, _, result = tally.timed(wl, item, tracer)
            traced_wall += w
            item_walls[tracer.item] = w
            if isinstance(result, dict):
                report_bytes += result.get("bytes", 0)
        plain.append(plain_wall)
        traced.append(traced_wall)

    passes = _run_passes(wl, seconds, step)
    for item, layers in tracing.layer_self_by_item(tracer.spans).items():
        if sum(layers.values()) > item_walls[item] + 1e-9:
            tally.selfcheck.append(
                "%s: per-layer self time %.6f s exceeds traced wall %.6f s"
                % (item, sum(layers.values()), item_walls[item])
            )
    metrics = tracing.per_layer_metrics(tracer.spans, passes, report_bytes)
    metrics["trace.wall_s"] = (sum(traced) / passes, "s")
    metrics["trace.untraced_wall_s"] = (sum(plain) / passes, "s")
    metrics["trace.overhead_s"] = ((sum(traced) - sum(plain)) / passes, "s")
    detail = {
        "pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "missing_functions": tracer.missing,
        "spans": len(tracer.spans),
    }
    return metrics, detail, tracer.spans


def main(argv=None):
    args = _parse(argv)
    t0 = time.perf_counter()
    try:
        machine.prepare()
        import tracing
        import workloads
    except (ImportError, FileNotFoundError) as exc:
        print("perfbench: cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    try:
        with open(machine.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    facts = machine.facts()
    print(json.dumps({"facts": facts}, sort_keys=True), flush=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.load_refs()
    setup_times = []
    for rep in range(SETUP_REPS):
        s0 = time.perf_counter()
        wl.setup(last=rep == SETUP_REPS - 1)
        setup_times.append(time.perf_counter() - s0)

    tally = Tally()
    spans = None
    if args.trace:
        metrics, detail, spans = _traced_run(wl, args.seconds, tally)
        expected = bench["per_layer"]
    else:
        metrics, detail = _timed_run(wl, args.seconds, tally)
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        )
        metrics["passed_ratio"] = (
            (tally.attempted - tally.failed) / tally.attempted,
            "1",
        )
        expected = bench["end_to_end"]
    stray = tracing.installed_wrappers()
    if stray:
        tally.selfcheck.append("span wrappers left installed: %s" % stray)
    declared = {m["name"]: m["unit"] for m in expected}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        tally.selfcheck.append(
            "metrics differ from BENCHMARK.json: %r"
            % sorted(set(emitted.items()) ^ set(declared.items()))
        )

    result = {
        "correct": tally.failed == 0 and not tally.selfcheck,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "setup": {"import_s": import_s, "prepare_s": setup_times},
        "detail": detail,
        "failures": tally.problems,
        "selfcheck": tally.selfcheck,
        "result": result,
    }
    machine.OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, time.time_ns())
    with open(machine.OUT_DIR / (stem + ".record.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if spans is not None:
        with open(machine.OUT_DIR / (stem + ".spans.jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    for line in tally.problems[:20] + tally.selfcheck:
        print("perfbench: %s" % (line,), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
