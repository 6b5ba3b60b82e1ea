"""Run one pass of a workload in this process and report it as JSON.

Reads {"invocations": [[argv...], ...], "trace": bool} from stdin, imports
`densitypack.cli` (from PYTHONPATH), then calls `main(argv)` for each
invocation in turn: one thread, one invocation at a time, the next only
after the previous returns.  Each invocation's stdout and stderr are
captured in memory.  The pass's wall time starts after the import, so it
excludes interpreter start-up, which `run.py` measures as setup_s.

Writes one JSON object to stdout: wall and CPU time of the pass, the
process's peak RSS, versions, and one record per invocation.  With
"trace": true the tracer is installed first and its report is included;
with "trace": false the pass runs under a `speed.SpeedProbe` and its time in
reference seconds (ref_s) and median reference-loop time are included.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback

from speed import SpeedProbe


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(invocations: list[list[str]], trace: bool) -> dict:
    import densitypack.cli as cli
    import numpy

    tracer = probe = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe().__enter__()

    records = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for i, argv in enumerate(invocations):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.invocation = i
                    code = tracer.call("cli", cli.main, (argv,))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error fails this invocation, not the pass
            code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        records.append(
            {
                "argv": argv,
                "exit": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "error": error,
                "seconds": seconds,
            }
        )
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    if probe is not None:
        probe.__exit__(None, None, None)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": probe.ref_seconds() if probe else None,
        "loop_ms": probe.loop_ms() if probe else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "records": records,
        "trace": tracer.report() if tracer else None,
    }


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    json.dump(run_pass(spec["invocations"], spec["trace"]), sys.stdout)
