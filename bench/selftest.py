"""Self-test of the benchmark on tiny inputs (about half a minute).

    python3 bench/selftest.py

Runs `sweep --max-a 5`, three `verify` families and `mu --distances 1,5,6`
through the same machinery as run.py, traced and untraced, and checks that:

  * every metric named in BENCHMARK.json is emitted, with its unit;
  * the traced self times add up to the traced wall time;
  * the speed probe scales each stretch of CPU time by the median loop time
    of the samples around it;
  * the gate passes correct output and flags deliberately wrong expectations;
  * an exit-3 ResourceLimit invocation (`mu --distances 1,23` without
    --max-window) counts toward error_rate;
  * in a directory holding only BENCHMARK.json and bench/, run.py exits
    non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction

import run
from speed import REF_LOOP_S, SpeedProbe
from workloads import (
    cantor_gordon,
    check_mu,
    check_sweep,
    closed_form,
    mu_workload,
    sweep_workload,
    verify_workload,
)

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'PASS' if cond else 'FAIL'}  {what}")
    if not cond:
        FAILURES.append(what)


def main() -> int:
    declared = run.declared_units()

    tiny = [
        sweep_workload("tiny-sweep", max_a=5),
        verify_workload("tiny-verify", [(2, 1, 1, 1), (3, 1, 1, 2), (5, 2, 2, 1)]),
        mu_workload("tiny-mu", [1, 5, 6], closed_form(5, 1, 1, 1)[3]),
    ]
    for w in tiny:
        for trace in (False, True):
            result, record = run.run(w, seed=3, seconds=0.1, trace=trace)
            metrics = result["metrics"]
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{w.name} trace={int(trace)}: all outputs pass the gate",
            )
            expect(
                {k: v["unit"] for k, v in metrics.items()} == declared[trace]
                and all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                f"{w.name} trace={int(trace)}: every declared metric emitted with its unit",
            )
            if trace:
                m = record["metrics"]
                parts = sum(v for k, v in m.items() if k.endswith(".self_s"))
                expect(
                    abs(parts - m["trace.wall_s"]) <= 0.02 * m["trace.wall_s"] + 0.005,
                    f"{w.name}: self times {parts:.4f} s add up to traced wall "
                    f"{m['trace.wall_s']:.4f} s",
                )
    orders = []
    for seed in (3, 4):
        instances = run.run(tiny[1], seed=seed, seconds=0.1, trace=True)[1]["instances"]
        orders.append([tuple(i["argv"]) for i in instances])
        expect(
            all(i["enumerate_passes"] > 0 and i["windows"] > 0 for i in instances),
            f"seed {seed}: each verify instance is recorded with its passes and windows",
        )
    expect(
        sorted(orders[0]) == sorted(orders[1]),
        "the seed changes only the order of the verify inputs",
    )

    # Loops of 1 ms at CPU s 0, 1 and 2, then of 2 ms at 3 to 6: three stretches
    # of 0.999 CPU s at 1 ms per loop and three of 0.998 CPU s at 2 ms.
    probe = SpeedProbe()
    probe.samples = [(0.0, 0.001), (1.0, 0.001), (2.0, 0.001), (3.0, 0.002), (4.0, 0.002),
                     (5.0, 0.002), (6.0, 0.002)]
    expected = (3 * 0.999 + 3 * 0.998 / 2) * REF_LOOP_S / 0.001
    expect(
        abs(probe.ref_seconds() - expected) < 1e-9,
        f"the probe scales each stretch by the loop time around it: "
        f"{probe.ref_seconds():.6f} reference s, expected {expected:.6f}",
    )

    env = run.child_env()
    sweep = run.run_pass(tiny[0].invocations(0), False, env)["records"]
    expect(check_sweep(sweep, 5, 2, 2, 14)[1] == 0, "gate passes the right sweep box")
    expect(check_sweep(sweep, 6, 2, 2, 14)[1] > 0, "gate flags a sweep box it did not get")
    mu = run.run_pass(tiny[2].invocations(0), False, env)["records"]
    expect(check_mu(mu, [1, 5, 6], Fraction(2, 7))[1] == 0, "gate passes mu({1,5,6}) = 2/7")
    expect(check_mu(mu, [1, 5, 6], Fraction(1, 3))[1] == 1, "gate flags a wrong expected mu")

    capped = mu_workload("capped", [1, 23], cantor_gordon(1, 23))
    result, record = run.run(capped, seed=0, seconds=0.1, trace=False)
    expect(
        record["exits"] == [[3]] and result["failed"] == 1 and record["error_rate"] == 1.0
        and not result["correct"],
        "exit-3 ResourceLimit invocation counts toward error_rate",
    )

    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources run.py exits non-zero and prints no result")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
