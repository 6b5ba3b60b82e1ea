"""densitypack benchmark: fixed CLI workloads in a closed loop with one client.

    python3 bench/run.py --workload {sweep,mu-large,verify-lattice} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  One client runs the workload's invocations
one at a time, each after the previous returned, in a fresh worker process
per pass (worker.py).  Passes repeat until the next one would end after
--seconds; at least one always runs.  The seed fixes the order of the
invocations in verify-lattice; the input sets themselves are fixed.

--trace 0 reports the end-to-end metrics: pass_s (median pass time),
setup_s (median of several fresh-interpreter imports of densitypack.cli)
and peak_rss_mb (median of the passes' peak RSS).  pass_s (CPU time) and
setup_s (wall time) are in reference seconds (speed.py), which take out the
changes of speed of a shared host; the raw times are printed and recorded
too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py, the raw wall and CPU time of the untraced passes and
the tracing overhead.

Every output is checked against expectations from workloads.py; a failed
check, a non-zero exit or a skipped row counts as failed, and the run goes
on.  Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record of
the run (metadata, raw samples, per-instance records and spans) is written
to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_LOOP_S, loop_seconds
from tracer import layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_SAMPLES = 11
SETUP_LOOPS = 3  # reference loops timed before and after each set-up sample
SETUP_CODE = "import densitypack.cli as cli; cli.build_parser()"
WORKER_TIMEOUT_S = 170


def declared_units() -> dict[bool, dict[str, str]]:
    """Metric names and units from BENCHMARK.json: end to end for trace off,
    per layer for trace on."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer"))
    }


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def metadata(seed: int) -> dict:
    meta = {
        "seed": seed,
        "git_sha": None,
        "git_dirty": None,
        "nproc": os.cpu_count(),
        "cpu_model": None,
        "python": platform.python_version(),
    }
    if (ROOT / ".git").exists():
        try:
            meta["git_sha"] = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
            meta["git_dirty"] = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    meta["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return meta


def time_setup(env: dict) -> tuple[float, float]:
    """One fresh interpreter that imports densitypack.cli, builds its parser
    and exits: (wall seconds, the same in reference seconds, scaled by the
    reference loops timed here just before and after)."""
    loops = [loop_seconds() for _ in range(SETUP_LOOPS)]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, timeout=60
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing densitypack.cli failed:\n{proc.stderr.decode()}")
    loops += [loop_seconds() for _ in range(SETUP_LOOPS)]
    return wall, wall * REF_LOOP_S / statistics.median(loops)


def run_pass(invocations: list[list[str]], trace: bool, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps({"invocations": invocations, "trace": trace}),
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_passes(
    invocations, seconds: float, env: dict, kinds: tuple[bool, ...], setup: list | None = None
) -> list[dict]:
    """Run rounds of passes (one per entry of `kinds`: traced or not) until
    the next round would end after `seconds`; at least one round.  With a
    `setup` list, one set-up time is taken after each round until it holds
    SETUP_SAMPLES, so the samples spread over the run like the passes do."""
    passes: list[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for trace in kinds:
            passes.append(run_pass(invocations, trace, env))
        if setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(time_setup(env))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return passes


def gate(workload: Workload, passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        a, f, probs = workload.check(p["records"])
        attempted += a
        failed += f
        problems += probs
    return attempted, failed, problems


def instance_records(p: dict) -> list[dict]:
    """Per-invocation records of one traced pass: the arguments, seconds,
    exit code, enumeration passes and windows, and each oracle call with its
    difference set, states explored, method and seconds."""
    tr = p["trace"]
    out = []
    for i, rec in enumerate(p["records"]):
        passes = [q for q in tr["passes"] if q["invocation"] == i]
        out.append({
            "argv": rec["argv"],
            "exit": rec["exit"],
            "seconds": rec["seconds"],
            "enumerate_passes": len(passes),
            "windows": sum(q["windows"] for q in passes),
            "oracle": [
                {k: c[k] for k in ("M", "states_explored", "method", "seconds")}
                for c in tr["oracle_calls"] if c["invocation"] == i
            ],
        })
    return out


def median_of(dicts: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    out = {}
    for k in dicts[0]:
        values = [d[k] for d in dicts]
        ints = all(isinstance(v, int) for v in values)
        out[k] = (statistics.median_low if ints else statistics.median)(values)
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload.  Returns (result line, full record)."""
    if not (SRC / "densitypack" / "cli.py").is_file():
        raise BenchError(f"no densitypack sources under {SRC}")
    env = child_env()
    meta = metadata(seed)
    invocations = workload.invocations(seed)
    record: dict = {"workload": workload.name, "trace": trace, "meta": meta}

    if not trace:
        setup: list[tuple[float, float]] = []
        passes = run_passes(invocations, seconds, env, (False,), setup)
        setup += [time_setup(env) for _ in range(SETUP_SAMPLES - len(setup))]
        metrics = {
            "pass_s": statistics.median(p["ref_s"] for p in passes),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) * 1024 / 1e6,
        }
        record["samples"] = {
            "pass_s": [p["ref_s"] for p in passes],
            "setup_s": [ref for _, ref in setup],
            "peak_rss_mb": [p["peak_rss_kb"] * 1024 / 1e6 for p in passes],
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "loop_ms": [p["loop_ms"] for p in passes],
            "setup_wall_s": [wall for wall, _ in setup],
        }
    else:
        passes = run_passes(invocations, seconds, env, (False, True))
        plain = [p for p in passes if p["trace"] is None]
        traced = [p for p in passes if p["trace"] is not None]
        per_pass = [layer_metrics(p["trace"]) for p in traced]
        metrics = median_of(per_pass)
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in plain)
        metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
        record["samples"] = {
            "wall_s": [p["wall_s"] for p in plain],
            "cpu_s": [p["cpu_s"] for p in plain],
            "trace.wall_s": [p["wall_s"] for p in traced],
            "per_layer": per_pass,
        }
        record["instances"] = instance_records(traced[0])
        record["passes"] = traced[0]["trace"]["passes"]
        record["spans"] = traced[0]["trace"]["spans"]

    attempted, failed, problems = gate(workload, passes)
    if trace:
        metrics["error_rate"] = failed / attempted
    meta["numpy"] = passes[0]["numpy"]
    record.update(
        passes_run=len(passes), attempted=attempted, failed=failed,
        error_rate=failed / attempted, problems=problems, metrics=metrics,
        exits=[[r["exit"] for r in p["records"]] for p in passes],
    )
    units = declared_units()[trace]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def print_report(name: str, record: dict, path: Path) -> None:
    meta = record["meta"]
    print(f"workload {name}  seed {meta['seed']}  trace {int(record['trace'])}  "
          f"passes {record['passes_run']}  (closed loop, 1 client)")
    for key, unit in declared_units()[record["trace"]].items():
        if key == "error_rate":
            continue
        n = len(record["samples"].get(key, ()))
        note = f"  (median of {n})" if n else ""
        print(f"  {key:<32} {record['metrics'][key]:.6g} {unit}{note}")
    if not record["trace"]:
        samples = record["samples"]
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("setup_wall_s", "s"), ("loop_ms", "ms")):
            print(f"  {key + ' (raw)':<32} {statistics.median(samples[key]):.6g} {unit}"
                  f"  (median of {len(samples[key])})")
    print(f"  {'error_rate':<32} {record['error_rate']:.6g} ratio"
          f"  ({record['failed']} failed of {record['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print("meta " + json.dumps(meta))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print_report(args.workload, record, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
