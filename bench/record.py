"""Write catalogue.json: the pool of ops each workload runs, with output digests.

    python3 bench/record.py [--workload NAME ...]

Ops are generated from a fixed seed, per cell of one space and one degree p
of the workload: ``expand`` ops take a uniform symbol lambda; single
coefficients take a uniform lambda and then a uniform mu with lambda -> mu
and codim mu <= codim lambda + p, and half of the type-D ops at p = n - m use
the second special class (``--tilde``).  Each op is run once through
``eqpieri.cli.main`` and the digest of its stdout is stored; this is the
output every later run must reproduce byte for byte.  An op that does not
exit 0, or an oracle op whose output differs from ``pieri``'s, is reported
and left out.  Re-record only when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import harness

GENERATOR_SEED = 2014
MAX_DRAWS = 2000          # attempts per cell before taking what was found


def text(symbol) -> str:
    return ",".join(map(str, symbol))


def parse(symbol: str) -> tuple:
    return tuple(int(c) for c in symbol.split(","))


def generate(workload: harness.Workload, eq) -> list:
    """Candidate ops (space index, p, lambda, mu, tilde) for one workload."""
    rng = random.Random(f"{GENERATOR_SEED}:{workload.name}")
    ops = []
    for index, (lie, m, n) in enumerate(workload.spaces):
        space = eq.Space(lie, m, n)
        symbols = eq.enumerate_symbols(space)
        codim = {s: eq.codim(space, s) for s in symbols}
        below = {lam: [mu for mu in symbols if eq.arrow(space, lam, mu)] for lam in symbols}
        degrees = eq.pieri_bound(space)
        per_cell = -(-workload.per_space // degrees)
        for p in range(1, degrees + 1):
            chosen = []
            for _ in range(MAX_DRAWS):
                if len(chosen) == per_cell:
                    break
                lam = rng.choice(symbols)
                mu = ""
                if workload.with_mu:
                    mus = [mu for mu in below[lam] if codim[mu] <= codim[lam] + p]
                    mu = text(rng.choice(mus))
                if (text(lam), mu) not in chosen:
                    chosen.append((text(lam), mu))
            critical = lie == "D" and p == n - m and workload.with_mu
            for k, (lam, mu) in enumerate(chosen):
                ops.append((index, p, lam, mu, critical and k % 2 == 1))
    return ops


def record(workload: harness.Workload) -> dict:
    modules = harness.import_program()
    eq, main = modules["eqpieri"], modules["eqpieri.cli"].main
    rows, left_out = [], []
    for index, p, lam, mu, tilde in generate(workload, eq):
        op = harness.Op(workload.spaces[index], p, lam, mu, tilde, "", "")
        code, out, _ = harness.call_cli(main, harness.op_argv(workload, op))
        if code != 0:
            left_out.append((op, f"exit {code}"))
            continue
        if workload.command == "oracle":
            ref_code, ref, _ = harness.call_cli(main, harness.op_argv(workload, op, "pieri"))
            if ref_code != 0 or ref != out:
                left_out.append((op, "oracle differs from pieri"))
                continue
        branch = ""
        if workload.with_mu:
            result = eq.compute_pieri(eq.Space(*op.space), parse(lam), parse(mu), p, tilde=tilde)
            branch = result.diagram.branch if result.diagram is not None else "zero"
        rows.append([index, p, lam, mu, int(tilde), harness.digest(out), branch])
    for op, reason in left_out:
        print(f"  left out {harness.op_argv(workload, op)}: {reason}", file=sys.stderr)
    return {"spaces": [list(s) for s in workload.spaces], "ops": rows}


def dump(catalogue: dict) -> str:
    """JSON with one op per line, so a re-record diffs op by op."""
    parts = []
    for name, entry in catalogue.items():
        ops = ",\n      ".join(json.dumps(row) for row in entry["ops"])
        parts.append(f'  "{name}": {{\n    "spaces": {json.dumps(entry["spaces"])},\n'
                     f'    "ops": [\n      {ops}\n    ]\n  }}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS),
                        help="re-record only these workloads (default: all)")
    args = parser.parse_args(argv)
    catalogue = {}
    if harness.CATALOGUE.exists():
        catalogue = json.loads(harness.CATALOGUE.read_text())
    for name in args.workload or list(harness.WORKLOADS):
        start = time.perf_counter()
        catalogue[name] = record(harness.WORKLOADS[name])
        print(f"{name}: {len(catalogue[name]['ops'])} ops recorded in "
              f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
    harness.CATALOGUE.write_text(dump({k: catalogue[k] for k in harness.WORKLOADS
                                       if k in catalogue}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
