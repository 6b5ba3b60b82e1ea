"""Span tracer that attributes a workload's time to densitypack's modules.

It works from outside the package: `install` replaces the public functions
under the names the CLI and the check modules imported them by, so no
source file changes.  Layers and the functions that open their spans:

  cli       the root span around each `densitypack.cli.main(argv)` call
  family    canonicalize, conjectured_density, forbidden_differences and
            as_difference_set as `densitypack.cli` calls them
  oracle    mu_exact ("oracle.mu_exact") and every pass of
            enumerate_avoiding_windows ("oracle.enumerate"), whether the CLI,
            `densitypack.profile` or `densitypack.mappings` runs it
  profile   check_counting_identities, check_main_inequality,
            check_dichotomy and delta_certificate; `profile()` calls are
            counted, not timed, so their time stays in the caller's span
  mappings  check_m1_machinery and check_k1_machinery

A span's self time is its duration minus the time of its child spans, so
the self times of all layers add up to the time spent inside the root spans.
An enumeration pass is charged only for the time spent inside the generator
(each resumption is a child of the span that asked for the next window);
the consumer's work between resumptions stays with the consumer.

Spans are kept in memory as (id, name, start, end, parent) and returned by
`report`.  The per-window spans (identities, enumeration resumptions) are
aggregated into counts and self time instead of being stored one by one.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

FAMILY_HELPERS = (
    "canonicalize",
    "conjectured_density",
    "forbidden_differences",
    "as_difference_set",
)
CLI_SPANS = {
    "mu_exact": "oracle.mu_exact",
    "check_counting_identities": "profile.identities",
    "check_main_inequality": "profile.main_inequality",
    "check_dichotomy": "profile.dichotomy",
    "delta_certificate": "profile.certificate",
    "check_m1_machinery": "mappings.m1",
    "check_k1_machinery": "mappings.k1",
}
# Called once per window: aggregated, not stored as spans.
FINE_SPANS = {"profile.identities"}


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack: list[_Frame] = []
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.oracle_calls: list[dict] = []
        self.passes: list[dict] = []
        self.invocation = -1
        self._next_id = 0

    # ── spans ────────────────────────────────────────────────────────────

    def call(self, name: str, fn, args=(), kwargs=None, on_result=None):
        """Run fn(*args, **kwargs) inside a span called `name`.  on_result,
        if given, receives (result, args, seconds) after the span closes."""
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(self._next_id)
        self._next_id += 1
        self.stack.append(frame)
        t0 = self.clock()
        try:
            res = fn(*args, **(kwargs or {}))
        finally:
            t1 = self.clock()
            self.stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame.child_s
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent.child_s += dur
            if name not in FINE_SPANS:
                self.spans.append(
                    (frame.span_id, name, t0, t1, parent.span_id if parent else None)
                )
        if on_result is not None:
            on_result(res, args, dur)
        return res

    def _wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result)

        return wrapper

    def _wrap_enumerator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            record = {
                "invocation": self.invocation,
                "parent": parent.span_id if parent else None,
                "windows": 0,
                "busy_s": 0.0,
                "start": None,
                "end": None,
            }
            self.counts["oracle.enumerate.passes"] += 1
            clock = self.clock
            try:
                while True:
                    t0 = clock()
                    if record["start"] is None:
                        record["start"] = t0
                    try:
                        window = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        record["end"] = t1
                        record["busy_s"] += t1 - t0
                        if self.stack:
                            self.stack[-1].child_s += t1 - t0
                    record["windows"] += 1
                    yield window
            finally:
                gen.close()
                self.counts["oracle.enumerate.windows"] += record["windows"]
                self.self_s["oracle.enumerate"] += record["busy_s"]
                self.passes.append(record)

        return wrapper

    # ── result hooks ─────────────────────────────────────────────────────

    def _on_mu(self, res, args, seconds: float) -> None:
        self.oracle_calls.append(
            {
                "invocation": self.invocation,
                "M": list(args[0]) if args else None,
                "states_explored": res.states_explored,
                "method": res.method,
                "seconds": seconds,
            }
        )

    def _windows_into(self, key: str):
        def hook(res, args, seconds):
            self.counts[key] += getattr(res, "windows_checked", 0)

        return hook

    # ── installation ─────────────────────────────────────────────────────

    def install(self) -> None:
        """Wrap the functions under the names the CLI and the check modules
        imported them by.  `densitypack.profile` as an attribute of the
        package is the re-exported function, so the modules come from
        sys.modules."""
        cli = sys.modules["densitypack.cli"]
        hooks = {
            "mu_exact": self._on_mu,
            "check_main_inequality": self._windows_into("profile.windows_checked"),
            "check_dichotomy": self._windows_into("profile.windows_checked"),
            "delta_certificate": self._windows_into("profile.windows_checked"),
            "check_m1_machinery": self._windows_into("mappings.windows_checked"),
            "check_k1_machinery": self._windows_into("mappings.windows_checked"),
        }
        for attr, name in CLI_SPANS.items():
            setattr(cli, attr, self._wrap(getattr(cli, attr), name, hooks.get(attr)))
        for attr in FAMILY_HELPERS:
            setattr(cli, attr, self._wrap(getattr(cli, attr), "family"))
        for modname in ("densitypack.cli", "densitypack.profile", "densitypack.mappings"):
            mod = sys.modules[modname]
            mod.enumerate_avoiding_windows = self._wrap_enumerator(mod.enumerate_avoiding_windows)
        for modname in ("densitypack.profile", "densitypack.mappings"):
            mod = sys.modules[modname]
            mod.profile = self._counted(mod.profile, "profile.profile.calls")

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ── output ───────────────────────────────────────────────────────────

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "oracle_calls": self.oracle_calls,
            "passes": self.passes,
            "spans": self.spans,
        }


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from `Tracer.report()`."""
    self_s, counts = report["self_s"], report["counts"]
    calls = report["oracle_calls"]
    durations = [c["seconds"] for c in calls]
    states = sum(c["states_explored"] for c in calls)
    methods = [c["method"].lower() for c in calls]
    return {
        "oracle.mu_exact.calls": len(calls),
        "oracle.mu_exact.self_s": self_s.get("oracle.mu_exact", 0.0),
        "oracle.mu_exact.p50_s": statistics.median(durations) if durations else 0.0,
        "oracle.mu_exact.max_s": max(durations, default=0.0),
        "oracle.states": states,
        "oracle.states_per_s": states / sum(durations) if durations else 0.0,
        "oracle.karp_calls": sum("karp" in m for m in methods),
        "oracle.policy_calls": sum("karp" not in m for m in methods),
        "oracle.enumerate.passes": counts.get("oracle.enumerate.passes", 0),
        "oracle.enumerate.windows": counts.get("oracle.enumerate.windows", 0),
        "oracle.enumerate.self_s": self_s.get("oracle.enumerate", 0.0),
        "profile.identities.calls": counts.get("profile.identities.calls", 0),
        "profile.identities.self_s": self_s.get("profile.identities", 0.0),
        "profile.main_inequality.self_s": self_s.get("profile.main_inequality", 0.0),
        "profile.dichotomy.self_s": self_s.get("profile.dichotomy", 0.0),
        "profile.certificate.self_s": self_s.get("profile.certificate", 0.0),
        "profile.profile.calls": counts.get("profile.profile.calls", 0),
        "profile.windows_checked": counts.get("profile.windows_checked", 0),
        "mappings.m1.self_s": self_s.get("mappings.m1", 0.0),
        "mappings.k1.self_s": self_s.get("mappings.k1", 0.0),
        "mappings.windows_checked": counts.get("mappings.windows_checked", 0),
        "family.calls": counts.get("family.calls", 0),
        "family.self_s": self_s.get("family", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
    }
