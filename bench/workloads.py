"""The benchmark's workloads and the correctness gate for each.

A workload is a list of CLI invocations (argv lists for `densitypack.cli.main`)
plus a check that judges the captured outputs against expectations computed
here, independently of the package: the closed form, the canonicalization,
the Cantor-Gordon value and the avoidance test are re-derived in a few lines
each rather than imported, so a wrong answer from the program cannot also
be the expectation it is checked against.

Each check returns (attempted, failed, problems).  `attempted` counts rows
for `sweep` and invocations otherwise; `problems` holds the first few
failure messages.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

MAX_PROBLEMS = 10


# ── independent expectations ────────────────────────────────────────────────


def canonical(a: int, b: int, k: int, m: int) -> tuple[int, int, int, int, int]:
    """(a, b, k, m, g) with the gcd divided out and a >= b."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a < b:
        a, b, k, m = b, a, m, k
    return a, b, k, m, g


def closed_form(a: int, b: int, k: int, m: int) -> tuple[int, int, str, Fraction, str]:
    """(d, r, case, delta, status) of a canonical family, from the defect
    division a - b = d*(k+m+1) + r."""
    d, r = divmod(a - b, k + m + 1)
    if r <= m:
        delta = Fraction(b + k * d, k * a + (m + 1) * b)
        case = "ZeroDefect" if r == 0 else "LowRemainder"
    else:
        delta = Fraction(a - m * (d + 1), (k + 1) * a + m * b)
        case = "HighRemainder"
    if r == 0:
        status = "ProvedTrivial"
    elif k == 1 or m == 1:
        status = "ProvedTheorem"
    else:
        status = "Conjectured"
    return d, r, case, delta, status


def cantor_gordon(x: int, y: int) -> Fraction:
    """mu({x, y}) = floor((x+y)/2) / (x+y) for coprime x, y."""
    return Fraction((x + y) // 2, x + y)


def periodic_avoids(period: int, residues: list[int], distances: list[int]) -> bool:
    """No two residues differ by any distance modulo the period."""
    members = set(residues)
    return all((x + d) % period not in members for d in distances for x in members)


def lattice_families(max_n2: int = 26, max_km: int = 3) -> list[tuple[int, int, int, int]]:
    """Canonical proved-regime families: gcd(a, b) = 1, a > b, k = 1 or m = 1,
    k, m <= max_km and n2 = (k+1)*a + m*b <= max_n2."""
    out = []
    for a in range(2, max_n2 + 1):
        for b in range(1, a):
            if math.gcd(a, b) != 1:
                continue
            for k in range(1, max_km + 1):
                for m in range(1, max_km + 1):
                    if (k == 1 or m == 1) and (k + 1) * a + m * b <= max_n2:
                        out.append((a, b, k, m))
    return out


# ── gates ───────────────────────────────────────────────────────────────────


def _parse_json(rec: dict):
    try:
        return json.loads(rec["stdout"])
    except ValueError:
        return None


def _failed_invocation(rec: dict) -> str | None:
    if rec["exit"] != 0:
        tail = (rec.get("error") or rec["stderr"]).strip().splitlines()[-1:]
        return f"{' '.join(rec['argv'])}: exit {rec['exit']} {tail}"
    return None


def check_sweep(records: list[dict], max_a: int, max_k: int, max_m: int, weight_cap: int):
    """Rows of one sweep must match the parameter box and the closed form:
    mu == delta where the status is proved, mu >= delta elsewhere, nothing
    skipped."""
    expected = [
        (a, b, k, m)
        for a in range(2, max_a + 1)
        for b in range(1, a)
        for k in range(1, max_k + 1)
        for m in range(1, max_m + 1)
        if (k * a + m * b) // math.gcd(a, b) <= weight_cap
    ]
    problems: list[str] = []
    failed = 0
    for rec in records:
        bad = _failed_invocation(rec)
        rows = list(csv.reader(io.StringIO(rec["stdout"])))[1:]
        if bad:
            problems.append(bad)
            failed += len(expected)
            continue
        for i, key in enumerate(expected):
            problem = _check_sweep_row(key, rows[i] if i < len(rows) else None)
            if problem:
                failed += 1
                problems.append(f"sweep row {key}: {problem}")
        if len(rows) > len(expected):
            failed += len(rows) - len(expected)
            problems.append(f"sweep: {len(rows) - len(expected)} unexpected extra rows")
    return len(expected) * len(records), failed, problems[:MAX_PROBLEMS]


def _check_sweep_row(key: tuple[int, int, int, int], row: list[str] | None) -> str | None:
    if row is None:
        return "missing"
    if len(row) != 14:
        return f"malformed {row}"
    if tuple(int(x) for x in row[:4]) != key:
        return f"out of order, got {row[:4]}"
    if row[12] == "skipped":
        return "skipped"
    ca, cb, ck, cm, g = canonical(*key)
    d, r, case, delta, status = closed_form(ca, cb, ck, cm)
    got_delta = Fraction(int(row[8]), int(row[9]))
    mu = Fraction(int(row[10]), int(row[11]))
    if (int(row[4]), int(row[5]), int(row[6]), row[7], row[13]) != (g, d, r, case, status):
        return f"family fields {row[4:8] + row[13:]} != {[g, d, r, case, status]}"
    if got_delta != delta:
        return f"delta {got_delta} != closed form {delta}"
    if status != "Conjectured" and mu != delta:
        return f"mu {mu} != delta {delta} in the proved regime"
    if mu < delta:
        return f"mu {mu} < delta {delta}"
    if row[12] != ("true" if mu == delta else "false"):
        return f"equal column {row[12]!r} disagrees with mu {mu}, delta {delta}"
    return None


def check_mu(records: list[dict], distances: list[int], expected: Fraction):
    """mu must equal `expected`, with a witness that avoids M and whose
    density is the value."""
    problems: list[str] = []
    for rec in records:
        problem = _failed_invocation(rec) or _check_mu_report(
            _parse_json(rec), distances, expected
        )
        if problem:
            problems.append(f"mu {distances}: {problem}")
    return len(records), len(problems), problems[:MAX_PROBLEMS]


def _check_mu_report(rep, distances: list[int], expected: Fraction) -> str | None:
    if not isinstance(rep, dict):
        return "output is not a JSON object"
    try:
        value = Fraction(rep["mu"]["num"], rep["mu"]["den"])
        period = rep["witness"]["period"]
        residues = rep["witness"]["residues"]
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc}"
    if rep.get("distances") != distances:
        return f"distances {rep.get('distances')} != {distances}"
    if value != expected:
        return f"mu {value} != expected {expected}"
    if sorted(set(residues)) != residues or not all(0 <= x < period for x in residues):
        return f"witness residues {residues} are not a residue set mod {period}"
    if not periodic_avoids(period, residues, distances):
        return f"witness (period {period}, {residues}) does not avoid M"
    if Fraction(len(residues), period) != value:
        return f"witness density {len(residues)}/{period} != mu {value}"
    return None


def expected_verify_checks(a: int, b: int, k: int, m: int) -> list[str]:
    """Check names `verify --level machinery` must report for a canonical
    proved-regime family."""
    _, r, _, _, _ = closed_form(a, b, k, m)
    names = ["identities", "main_inequality"]
    if r >= 1:
        names.append("dichotomy")
    names.append("haralambis")
    if m == 1:
        names.append("m1_chains")
    if k == 1:
        names.append("k1_mapping")
    return names


def check_verify(records: list[dict]):
    """Each verify exits 0, reports the family's delta, and has every
    expected check present and true."""
    problems: list[str] = []
    for rec in records:
        problem = _failed_invocation(rec) or _check_verify_report(rec)
        if problem:
            problems.append(f"verify {' '.join(rec['argv'][1:9])}: {problem}")
    return len(records), len(problems), problems[:MAX_PROBLEMS]


def _check_verify_report(rec: dict) -> str | None:
    rep = _parse_json(rec)
    argv = rec["argv"]
    a, b, k, m = (int(argv[argv.index(f"--{p}") + 1]) for p in "abkm")
    if not isinstance(rep, dict) or not isinstance(rep.get("checks"), dict):
        return "no checks in output"
    checks = rep["checks"]
    want = expected_verify_checks(a, b, k, m)
    if sorted(checks) != sorted(want):
        return f"checks {sorted(checks)} != expected {sorted(want)}"
    if not all(v is True for v in checks.values()):
        return f"failed checks {[n for n, v in checks.items() if v is not True]}"
    delta = closed_form(a, b, k, m)[3]
    try:
        got = Fraction(rep["delta"]["num"], rep["delta"]["den"])
    except (KeyError, TypeError):
        return "no delta in output"
    if got != delta:
        return f"delta {got} != closed form {delta}"
    return None


# ── workloads ───────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], list[list[str]]]
    check: Callable[[list[dict]], tuple[int, int, list[str]]]


def sweep_workload(name: str, max_a: int, weight_cap: int | None = None):
    """`sweep --max-a A [--weight-cap W]`; the gate assumes the CLI's defaults
    --max-k 2, --max-m 2 and --weight-cap 14."""
    argv = ["sweep", "--max-a", str(max_a)]
    if weight_cap is not None:
        argv += ["--weight-cap", str(weight_cap)]
    cap = 14 if weight_cap is None else weight_cap
    return Workload(
        name,
        lambda seed: [list(argv)],
        lambda recs: check_sweep(recs, max_a, 2, 2, cap),
    )


def mu_workload(
    name: str, distances: list[int], expected: Fraction, extra: tuple[str, ...] = ()
):
    argv = ["mu", "--distances", ",".join(map(str, distances)), *extra, "--json"]
    return Workload(
        name,
        lambda seed: [list(argv)],
        lambda recs: check_mu(recs, distances, expected),
    )


def verify_workload(name: str, families: list[tuple[int, int, int, int]]):
    """One `verify --level machinery --json` per family, in an order fixed by
    the seed."""

    def invocations(seed: int) -> list[list[str]]:
        order = list(families)
        random.Random(seed).shuffle(order)
        return [
            ["verify", "--a", str(a), "--b", str(b), "--k", str(k), "--m", str(m),
             "--level", "machinery", "--json"]
            for a, b, k, m in order
        ]

    return Workload(name, invocations, check_verify)


WORKLOADS = {
    w.name: w
    for w in (
        sweep_workload("sweep", max_a=12, weight_cap=18),
        mu_workload("mu-large", [1, 23], cantor_gordon(1, 23), ("--max-window", "23")),
        verify_workload("verify-lattice", lattice_families()),
    )
}
