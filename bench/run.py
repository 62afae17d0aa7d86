"""eqpieri benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rule_expand --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs each op twice, untraced and with spans around
every module's public functions, in alternating order, and reports the
per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the run.  Exit
status is 0 after a run (failed ops are counted, not fatal) and 2 when the
benchmark cannot run here, for example without the program's source.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing


def run_traced(workload: harness.Workload, setup: harness.Setup, seconds: float):
    """Each op untraced and traced, in alternating order, for ``seconds``.

    Returns (untraced results, traced results, tracer); the two lists hold
    the same ops, so their op times give the tracing overhead.
    """
    tracer = tracing.Tracer()
    main = tracer.span("cli.main", setup.main)
    untraced, traced = [], []

    def traced_op(op):
        tracer.op = len(traced)
        tracer.install(setup.modules)
        try:
            return harness.run_op(workload, setup, main, op)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while True:
        for op in setup.schedule.next_pass():
            if len(traced) % 2 == 0:
                untraced.append(harness.run_op(workload, setup, setup.main, op))
                traced.append(traced_op(op))
            else:
                traced.append(traced_op(op))
                untraced.append(harness.run_op(workload, setup, setup.main, op))
        if time.perf_counter() - start >= seconds:
            return untraced, traced, tracer


def run(workload: harness.Workload, seed: int, seconds: float, trace: bool) -> dict:
    durations = []
    while (len(durations) < harness.SETUP_SAMPLES
           or sum(durations) < harness.SETUP_SECONDS):
        setup = None        # the previous copy goes before the next one is timed
        gc.collect()
        start = time.perf_counter()
        setup = harness.set_up(workload, seed)
        durations.append(time.perf_counter() - start)

    extra = {}
    if not trace:
        results = harness.run_passes(workload, setup, seconds)
        checked = results
        metrics = harness.end_to_end_metrics(results, statistics.median(durations))
        units = dict(harness.END_TO_END)
    else:
        results, traced, tracer = run_traced(workload, setup, seconds)
        checked = results + traced
        totals = tracer.span_totals()
        metrics = tracing.per_layer_metrics(
            tracer, totals,
            untraced_s=sum(r.seconds for r in results),
            traced_s=sum(r.seconds for r in traced),
            ops=len(traced),
        )
        units = dict(tracing.PER_LAYER)
        per_op = [{"argv": harness.op_argv(workload, r.op), "ms": r.seconds * 1e3,
                   "self_ms": {}} for r in traced]
        for (op, layer), spent in totals[0].items():
            per_op[op]["self_ms"][layer] = spent * 1e3
        extra = {"spans": len(tracer.span_name), "traced_ops": per_op}

    described = harness.descriptor(workload, setup, results)
    described["restriction_coefficient_repeat_share"] = (
        metrics["restrict_a.restriction_coefficient.repeat_frac"] if trace
        else "measured in the traced run")
    failed = sum(not r.ok for r in checked)
    return {
        "descriptor": described,
        "failed_frac": failed / len(checked),
        "setup_runs_s": durations,
        **extra,
        "result": {
            "correct": failed == 0,
            "attempted": len(checked),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the whole record, e.g. BENCH_<label>.json")
    args = parser.parse_args(argv)
    try:
        threads = harness.threads_setting()
        record = run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record = {"stamp": harness.stamp(args.seed, threads), **record}
    result = record["result"]

    print(f"eqpieri benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp: " + json.dumps(record["stamp"]))
    print("descriptor: " + json.dumps(record["descriptor"]))
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {record['failed_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} ops)")
    if args.trace:
        print(f"tracing overhead against the untraced run of the same ops: "
              f"{result['metrics']['trace.overhead_frac']['value']:+.1%}")
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
