"""Workloads, the closed-loop runner, output checks and metrics.

Every op is one CLI invocation run the way a user runs it, but in this
process: ``eqpieri.cli.main(argv)`` with stdout captured.  The load is one
process and one thread in a closed loop: the next op starts when the
previous one returns.

Inputs come from ``catalogue.json``, which lists each workload's pool of
ops, spread evenly over its spaces and each space's degrees p, with the
digest of each op's stdout (written by ``record.py``).  A run is made of
passes: each pass runs every op of the pool once, in an order drawn from
the run's seed.  The first pass is always finished; later passes stop when
the run has measured for ``--seconds``.  So every run measures every op of
the pool, whatever its seed and however many passes fit: a few ops of the
pool take a second and most take milliseconds, and a run that drew a seeded
sample of the ops would measure a different share of the slow ones every
time.  An op is correct when it exits 0 and its stdout has the
recorded digest; an ``oracle`` op must also print exactly what ``pieri``
printed for the same coefficient during set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CATALOGUE = BENCH_DIR / "catalogue.json"
SETUP_SAMPLES = 5       # set-ups timed back to back before the loop, at least,
SETUP_SECONDS = 1.0     # and until this much time has gone into them; the last one is used


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # eqpieri subcommand each op runs
    certify: bool         # pass --certify
    with_mu: bool         # ops name one coefficient (lambda, mu) or a whole product
    spaces: Tuple[Tuple[str, int, int], ...]   # (lie type, m, n) as the CLI takes them
    per_space: int        # ops in the pool per space, spread evenly over its degrees p
    why: str
    note: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "rule_expand", "expand", False, False,
            (("A", 3, 10), ("A", 4, 12), ("C", 3, 5), ("C", 3, 6), ("C", 4, 7),
             ("B", 3, 5), ("B", 3, 6)),
            8,
            "the rule's main path: each op tries every mu, so arrow/build/"
            "compute_pieri waste shows, and gkm and the certificate are never called",
        ),
        Workload(
            "rule_certify", "pieri", True, True,
            (("A", 3, 10), ("C", 3, 5), ("C", 3, 6), ("B", 3, 5), ("D", 1, 6),
             ("D", 2, 5), ("D", 2, 6), ("D", 3, 6)),
            16,
            "the only workload that runs the positivity certificate and the rule's "
            "type-D orthogonal_restriction branch; small ops, so fixed per-call "
            "costs show at p50",
        ),
        Workload(
            "oracle_audit", "oracle", False, True,
            (("A", 2, 6), ("A", 3, 6), ("C", 2, 4), ("C", 3, 4), ("C", 1, 5),
             ("D", 2, 4), ("D", 3, 4), ("B", 2, 4), ("B", 3, 4), ("D", 1, 5)),
            4,
            "the audit path with a cold cache (a fresh GkmEngine per op, as the "
            "CLI runs it); restrict_a, diagram and the certificate are never called",
            note="OG(n,2n) is left out because GkmEngine rejects the maximal space",
        ),
    )
}


@dataclass(frozen=True)
class Op:
    space: Tuple[str, int, int]
    p: int
    lam: str
    mu: str        # "" for expand ops
    tilde: bool
    digest: str    # recorded digest of stdout
    branch: str    # reduction branch of a single coefficient, "" for expand ops

    @property
    def key(self) -> tuple:
        return (self.space, self.p, self.lam, self.mu, self.tilde)


def op_argv(workload: Workload, op: Op, command: Optional[str] = None) -> List[str]:
    lie, m, n = op.space
    argv = [command or workload.command, "--type", lie, "--n", str(n), "--m", str(m),
            "--lambda", op.lam]
    if op.mu:
        argv += ["--mu", op.mu]
    argv += ["--p", str(op.p)]
    if op.tilde:
        argv.append("--tilde")
    if workload.certify and command is None:
        argv.append("--certify")
    return argv


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def coefficients_printed(workload: Workload, stdout: str) -> int:
    if workload.command == "expand":
        return stdout.count("\n")
    return 1 if stdout else 0


# -- the program ---------------------------------------------------------------


def _program_modules() -> Dict[str, object]:
    return {name: module for name, module in sys.modules.items()
            if name == "eqpieri" or name.startswith("eqpieri.")}


def import_program() -> Dict[str, object]:
    """Import ``eqpieri.cli`` afresh from this checkout's ``src``.

    Returns every ``eqpieri`` module by name; earlier imports stay usable
    by whoever holds them.
    """
    if not (SRC / "eqpieri" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'eqpieri'}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in _program_modules():
        del sys.modules[name]
    cli = importlib.import_module("eqpieri.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "eqpieri").resolve():
        raise BenchError(f"eqpieri was imported from {cli.__file__}, not {SRC}")
    return _program_modules()


def call_cli(main, argv: List[str]) -> Tuple[int, str, float]:
    """Run one op; returns (exit code, stdout, seconds spent in main)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, never a dead run
            code = -1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


# -- inputs --------------------------------------------------------------------


def load_catalogue(workload: Workload) -> List[Op]:
    path = CATALOGUE
    try:
        data = json.loads(path.read_text())
        spaces = [tuple(s) for s in data[workload.name]["spaces"]]
        rows = data[workload.name]["ops"]
        ops = [Op(spaces[s], p, lam, mu, bool(tilde), dig, branch)
               for s, p, lam, mu, tilde, dig, branch in rows]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise BenchError(f"cannot read the {workload.name} catalogue in {path}: {exc}")
    if sorted(set(spaces)) != sorted(workload.spaces) or not ops:
        raise BenchError(f"the {workload.name} catalogue in {path} does not match "
                         "the workload's spaces; run record.py")
    return ops


class Schedule:
    """Seeded passes over the pool: each pass runs every op once, in a new order."""

    def __init__(self, ops: Sequence[Op], seed: int):
        self._rng = random.Random(seed)
        self._ops = list(ops)

    def next_pass(self) -> List[Op]:
        self._rng.shuffle(self._ops)
        return list(self._ops)


@dataclass
class Setup:
    modules: Dict[str, object]     # the program's modules by name
    ops: List[Op]
    schedule: Schedule
    references: Dict[tuple, Optional[str]]   # oracle ops: what pieri printed

    @property
    def main(self):
        return self.modules["eqpieri.cli"].main


def set_up(workload: Workload, seed: int) -> Setup:
    """Import, op generation and reference values: everything before the loop."""
    modules = import_program()
    main = modules["eqpieri.cli"].main
    ops = load_catalogue(workload)
    references: Dict[tuple, Optional[str]] = {}
    if workload.command == "oracle":
        for op in ops:
            code, out, _ = call_cli(main, op_argv(workload, op, "pieri"))
            references[op.key] = out if code == 0 else None
    return Setup(modules, ops, Schedule(ops, seed), references)


# -- the loop ------------------------------------------------------------------


@dataclass
class OpResult:
    op: Op
    seconds: float
    ok: bool
    coefficients: int


def run_op(workload: Workload, setup: Setup, main, op: Op) -> OpResult:
    code, out, elapsed = call_cli(main, op_argv(workload, op))
    ok = code == 0 and digest(out) == op.digest
    if workload.command == "oracle":
        ok = ok and out == setup.references.get(op.key)
    return OpResult(op, elapsed, ok, coefficients_printed(workload, out) if ok else 0)


def run_passes(workload: Workload, setup: Setup, seconds: float) -> List[OpResult]:
    """Passes, closed loop, until ``seconds`` of wall time have passed.

    The first pass is finished whatever its length, so every op is measured.
    """
    results: List[OpResult] = []
    start = time.perf_counter()
    while True:
        for op in setup.schedule.next_pass():
            results.append(run_op(workload, setup, setup.main, op))
            if len(results) >= len(setup.ops) and time.perf_counter() - start >= seconds:
                return results


# -- metrics and report ----------------------------------------------------------

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("coeffs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values: Sequence[float], q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile of ``values``.

    A mean of all order statistics with beta weights centred on rank q/100,
    rather than the one or two values at that rank: where few ops lie near
    the percentile, as at p90 of ``rule_certify``, two ops trading places
    then no longer move it by the whole gap between them.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200 * n            # midpoint rule over [0, 1] for the beta weights
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end_metrics(results: List[OpResult], setup_s: float) -> Dict[str, float]:
    """The END_TO_END metrics of one run.

    Each op of the pool counts once, timed by its median over the run's
    passes, so that a pause that hits one run of an op (a garbage
    collection, a slow moment of the host) does not move its rank.  The
    percentiles are over the pool's ops, and ``coeffs_per_s`` is the
    coefficients the pool's ops print over the sum of their times, so a
    partly run last pass does not change the mix of ops.
    """
    runs: Dict[tuple, List[OpResult]] = {}
    for r in results:
        runs.setdefault(r.op.key, []).append(r)
    seconds = [statistics.median(r.seconds for r in rs) for rs in runs.values()]
    ms = [s * 1e3 for s in seconds]
    return {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": percentile(ms, 90),
        "coeffs_per_s": sum(rs[0].coefficients for rs in runs.values()) / sum(seconds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def descriptor(workload: Workload, setup: Setup, results: List[OpResult]) -> dict:
    ops = [r.op for r in results]
    Space = setup.modules["eqpieri.schubert"].Space
    branches: Dict[str, int] = {}
    for op in ops:
        if op.branch:
            branches[op.branch] = branches.get(op.branch, 0) + 1
    out = {
        "workload": workload.name,
        "why": workload.why,
        "op": "eqpieri " + workload.command + (" --certify" if workload.certify else ""),
        "load": "closed loop, 1 process, 1 thread",
        "space_pool": [Space(lie, m, n).name() for lie, m, n in workload.spaces],
        "pool_ops": len(setup.ops),
        "passes": len(ops) / len(setup.ops),
        "ops": len(ops),
        "coefficients_printed": sum(r.coefficients for r in results),
        "branch_mix": branches or "per coefficient inside each expand; see pieri.branch.* "
                                  "in the traced run",
        "tilde_share": sum(op.tilde for op in ops) / len(ops),
        "op_repeat_share": 1 - len({op.key for op in ops}) / len(ops),
    }
    if workload.note:
        out["note"] = workload.note
    return out


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def threads_setting() -> str:
    """EQPIERI_THREADS as the run sees it; refuses a multi-threaded setting."""
    value = os.environ.get("EQPIERI_THREADS")
    if value is None:
        return "unset"
    try:
        threads = int(value)
    except ValueError:
        raise BenchError(f"EQPIERI_THREADS={value!r} is not a thread count")
    if threads > 1:
        raise BenchError(f"EQPIERI_THREADS={threads}: the benchmark measures one thread; "
                         "unset it or set it to 1")
    return value


def source_digest() -> str:
    """Digest of the program's source files, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "eqpieri").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed: int, threads: str) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "EQPIERI_THREADS": threads,
    }
