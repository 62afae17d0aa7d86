"""Tests of the benchmark itself: smoke runs, the output check, the result line."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, threads=None, catalogue=None):
    """bench/run.py with ``args``; with ``catalogue``, on that file's ops."""
    env = {k: v for k, v in os.environ.items() if k != "EQPIERI_THREADS"}
    if threads is not None:
        env["EQPIERI_THREADS"] = threads
    command = [sys.executable, "bench/run.py", *args]
    if catalogue is not None:
        command = [sys.executable, "-c",
                   "import pathlib, sys; sys.path.insert(0, 'bench'); import harness, run; "
                   f"harness.CATALOGUE = pathlib.Path({str(catalogue)!r}); "
                   "sys.exit(run.main(sys.argv[1:]))", *args]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


def small_catalogue(path: Path, corrupt: str = "") -> Path:
    """The recorded catalogue cut to one op per space, so that a pass takes seconds.

    With ``corrupt``, the first op of that workload expects a wrong digest.
    """
    catalogue = json.loads((BENCH / "catalogue.json").read_text())
    for entry in catalogue.values():
        first = {}
        for row in entry["ops"]:
            first.setdefault(row[0], row)
        entry["ops"] = list(first.values())
    if corrupt:
        catalogue[corrupt]["ops"][0][5] = "0" * 16
    path.write_text(json.dumps(catalogue))
    return path


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_every_op_and_prints_the_end_to_end_metrics(workload, tmp_path):
    start = time.perf_counter()
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0",
                     catalogue=small_catalogue(tmp_path / "catalogue.json"))
    result = result_line(proc)
    assert time.perf_counter() - start < 60
    assert f"failed_frac = 0 frac (0 of {result['attempted']} ops)" in proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric_and_its_overhead(tmp_path):
    proc = run_bench("--workload", "rule_expand", "--seed", "7", "--seconds", "0",
                     "--trace", "1", catalogue=small_catalogue(tmp_path / "catalogue.json"))
    result = result_line(proc)
    assert result["correct"] is True
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert "tracing overhead against the untraced run" in proc.stdout
    # expand ops are long enough that parsing and rendering are a small share
    assert result["metrics"]["trace.spanned_frac"]["value"] > 0.8


def test_time_left_in_cli_main_lowers_the_spanned_share():
    sys.path.insert(0, str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    work = tracer.span("gkm.work", lambda: time.sleep(0.01))

    def main():
        time.sleep(0.03)   # as if a module's function were reached unwrapped
        work()

    start = time.perf_counter()
    tracer.span("cli.main", main)()
    traced_s = time.perf_counter() - start
    metrics = tracing.per_layer_metrics(tracer, tracer.span_totals(),
                                        untraced_s=traced_s, traced_s=traced_s, ops=1)
    assert 0.15 < metrics["trace.spanned_frac"] < 0.35


def test_a_corrupted_expected_digest_counts_as_one_failed_op(tmp_path):
    catalogue = small_catalogue(tmp_path / "catalogue.json", corrupt="rule_certify")
    proc = run_bench("--workload", "rule_certify", "--seed", "7", "--seconds", "0",
                     "--trace", "0", catalogue=catalogue)
    result = result_line(proc)
    pool = len(json.loads(catalogue.read_text())["rule_certify"]["ops"])
    assert result["attempted"] == pool     # one pass
    assert result["failed"] == 1
    assert result["correct"] is False
    assert f"failed_frac = {1 / pool:.6g} frac" in proc.stdout


def test_refuses_more_than_one_program_thread():
    proc = run_bench("--workload", "rule_certify", "--seed", "1", "--seconds", "0",
                     threads="2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "EQPIERI_THREADS" in proc.stderr


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "rule_expand", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
