"""Command-line interface.

Subcommands:

  density   closed-form candidate density of a family (a, b, k, m)
  mu        exact optimal density of an explicit difference set
  witness   optimal periodic set for a family or a difference set
  verify    run the verification pipeline on one family at a chosen level
  sweep     formula-versus-oracle CSV table over a parameter box

Levels of `verify` are cumulative: `identities` checks the closed-form
arithmetic only; `inequality` adds the exhaustive window checks (counting
identities, band-count inequality, the two-bound dichotomy when r >= 1,
and the short-prefix certificate); `machinery` adds the m = 1 / k = 1
injective-map harnesses with their translate witnesses; `full` adds the
mean-cycle oracle and requires oracle >= delta, with equality whenever the
closed form is proved.  Levels beyond `identities` refuse families with
k, m >= 2 unless --conjecture opts into probing the conjectured regime,
and the machinery harnesses only exist for k = 1 or m = 1.

Exit codes: 0 all requested checks pass; 1 a verification failure or a
lower-bound violation; 2 invalid input (including regime refusals); 3 a
resource cap was hit; 4 a computed result failed its own check (a bug).
Reports go to stdout, diagnostics to stderr.  JSON output (--json) uses
exact {"num": ..., "den": ...} fractions, a fixed key order, and no floats,
so parsing and re-serializing with indent=2 is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .errors import (
    InternalError,
    InvalidInput,
    LemmaViolation,
    ResourceLimit,
    UnsupportedRegime,
)
from .family import (
    CanonicalParams,
    DensityBreakdown,
    RawParams,
    as_difference_set,
    canonicalize,
    conjectured_density,
    forbidden_differences,
)
from .mappings import check_k1_machinery, check_m1_machinery
from .oracle import (
    DEFAULT_ENUM_CAP,
    DEFAULT_WINDOW_CAP,
    ExactDensity,
    Window,
    enumerate_avoiding_windows,
    mu_exact,
)
from .profile import (
    check_counting_identities,
    check_dichotomy,
    check_main_inequality,
    delta_certificate,
)

__all__ = ["main", "build_parser", "report_to_json"]

LEVELS = ("identities", "inequality", "machinery", "full")


def _frac(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def _window_dump(w: Window) -> dict:
    return {"length": w.length, "members": list(w.members())}


def report_to_json(report: dict) -> str:
    """The one serialization everybody uses; key order is insertion order."""
    return json.dumps(report, indent=2)


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(report_to_json(report))
    else:
        for line in lines:
            print(line)


def _instance_report(
    raw: RawParams,
    canon: CanonicalParams,
    br: DensityBreakdown,
    oracle: ExactDensity | None = None,
    checks: dict | None = None,
    counterexamples: list | None = None,
) -> dict:
    rep = {
        "raw": {"a": raw.a, "b": raw.b, "k": raw.k, "m": raw.m},
        "canonical": {"a": canon.a, "b": canon.b, "k": canon.k, "m": canon.m},
        "g": canon.g,
        "swapped": canon.swapped,
        "d": br.d,
        "r": br.r,
        "n1": br.n1,
        "n2": br.n2,
        "case": br.case_tag,
        "delta": _frac(br.delta),
        "status": br.theorem_status,
    }
    if oracle is not None:
        rep["oracle"] = {
            "value": _frac(oracle.value),
            "period": oracle.witness.period,
            "residues": list(oracle.witness.residues),
            "states_explored": oracle.states_explored,
            "method": oracle.method,
        }
    if checks is not None:
        rep["checks"] = checks
    if counterexamples:
        rep["counterexamples"] = counterexamples
    return rep


def _family_lines(raw: RawParams, canon: CanonicalParams, br: DensityBreakdown) -> list[str]:
    canon_note = f"  (g={canon.g}{', swapped' if canon.swapped else ''})"
    return [
        f"raw         a={raw.a} b={raw.b} k={raw.k} m={raw.m}",
        f"canonical   a={canon.a} b={canon.b} k={canon.k} m={canon.m}{canon_note}",
        f"defect      d={br.d} r={br.r}",
        f"windows     n1={br.n1} n2={br.n2}",
        f"case        {br.case_tag}",
        f"delta       {br.delta}",
        f"status      {br.theorem_status}",
    ]


def _parse_distances(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse distances from {text!r}") from exc
    if not values:
        raise InvalidInput("no distances given")
    return as_difference_set(values)


def _raw_family(args) -> tuple[RawParams, CanonicalParams, DensityBreakdown]:
    raw = RawParams(a=args.a, b=args.b, k=args.k, m=args.m)
    canon = canonicalize(raw)
    return raw, canon, conjectured_density(canon)


def _raw_differences(raw: RawParams):
    out = {
        i * raw.a + j * raw.b
        for i in range(raw.k + 1)
        for j in range(raw.m + 1)
        if i + j > 0
    }
    return as_difference_set(sorted(out))


def _oracle_report(distances, res: ExactDensity) -> dict:
    return {
        "distances": list(distances),
        "mu": _frac(res.value),
        "witness": {"period": res.witness.period, "residues": list(res.witness.residues)},
        "states_explored": res.states_explored,
        "method": res.method,
    }


def _oracle_lines(distances, res: ExactDensity) -> list[str]:
    members = ", ".join(str(d) for d in distances)
    residues = ", ".join(str(x) for x in res.witness.residues)
    return [
        f"mu({{{members}}}) = {res.value}",
        f"witness     period {res.witness.period}, residues {{{residues}}}",
        f"method      {res.method}, {res.states_explored} states",
    ]


def cmd_density(args) -> int:
    raw, canon, br = _raw_family(args)
    _emit(_instance_report(raw, canon, br), args.json, _family_lines(raw, canon, br))
    return 0


def cmd_mu(args) -> int:
    M = _parse_distances(args.distances)
    res = mu_exact(M, max_window=args.max_window, method=args.method)
    _emit(_oracle_report(M, res), args.json, _oracle_lines(M, res))
    return 0


def cmd_witness(args) -> int:
    params_given = [v is not None for v in (args.a, args.b, args.k, args.m)]
    if args.distances is not None:
        if any(params_given):
            raise InvalidInput("give either --distances or a/b/k/m, not both")
        M = _parse_distances(args.distances)
    elif all(params_given):
        M = _raw_differences(RawParams(a=args.a, b=args.b, k=args.k, m=args.m))
    else:
        raise InvalidInput("witness needs --distances or all four of --a --b --k --m")
    res = mu_exact(M, max_window=args.max_window, method=args.method)
    _emit(_oracle_report(M, res), args.json, _oracle_lines(M, res))
    return 0


def _run_verify(args, raw, canon, br):
    """All checks for cmd_verify.  Returns (checks, counterexamples, oracle)."""
    level = LEVELS.index(args.level)
    checks: dict[str, bool] = {}
    counterexamples: list[dict] = []

    def record(name: str, window: Window | None, detail: str | None) -> None:
        entry: dict = {"check": name}
        if window is not None:
            entry["window"] = _window_dump(window)
        if detail:
            entry["detail"] = detail
        counterexamples.append(entry)

    # The breakdown's construction already asserts the branch-glue identities
    # and the r = 0 collapse; reaching this point certifies them.
    checks["identities"] = True

    oracle = None
    if level >= 1:
        if canon.k >= 2 and canon.m >= 2 and not args.conjecture:
            raise UnsupportedRegime(
                f"k = {canon.k}, m = {canon.m}: levels beyond 'identities' check a "
                "conjectured regime here; pass --conjecture to probe it anyway"
            )
        M = forbidden_differences(canon)
        for w in enumerate_avoiding_windows(M, canon.n2, require_zero=True, cap=args.enum_cap):
            if not check_counting_identities(w, canon):
                checks["identities"] = False
                record("identities", w, "a counting identity failed")
                break

        rep = check_main_inequality(canon, allow_conjecture=True, enum_cap=args.enum_cap)
        checks["main_inequality"] = rep.passed
        if not rep.passed:
            record("main_inequality", rep.counterexample, rep.detail)

        if br.r >= 1:
            rep = check_dichotomy(canon, allow_conjecture=True, enum_cap=args.enum_cap)
            checks["dichotomy"] = rep.passed
            if not rep.passed:
                record("dichotomy", rep.counterexample, rep.detail)

        cert = delta_certificate(canon, enum_cap=args.enum_cap)
        checks["haralambis"] = cert.certified
        if not cert.certified:
            record(
                "haralambis",
                cert.counterexample,
                f"window defeats both candidates n1={canon.n1}, n2={canon.n2}",
            )

    if level >= 2:
        if canon.m == 1:
            rep = check_m1_machinery(canon, enum_cap=args.enum_cap)
            checks["m1_chains"] = rep.passed
            if not rep.passed:
                record("m1_chains", rep.counterexample, rep.detail)
        if canon.k == 1:
            rep = check_k1_machinery(canon, enum_cap=args.enum_cap)
            checks["k1_mapping"] = rep.passed
            if not rep.passed:
                record("k1_mapping", rep.counterexample, rep.detail)

    if level >= 3:
        oracle = mu_exact(forbidden_differences(canon), max_window=args.max_window)
        if oracle.value < br.delta:
            checks["oracle"] = False
            record(
                "oracle",
                None,
                f"mu = {oracle.value} < delta = {br.delta}: lower-bound violation",
            )
        elif br.theorem_status != "Conjectured" and oracle.value != br.delta:
            checks["oracle"] = False
            record(
                "oracle",
                None,
                f"mu = {oracle.value} != delta = {br.delta} despite status "
                f"{br.theorem_status}",
            )
        else:
            checks["oracle"] = True

    return checks, counterexamples, oracle


def cmd_verify(args) -> int:
    raw, canon, br = _raw_family(args)
    checks, counterexamples, oracle = _run_verify(args, raw, canon, br)
    passed = all(checks.values())

    lines = _family_lines(raw, canon, br)
    for name, ok in checks.items():
        lines.append(f"{name:<16}{'pass' if ok else 'FAIL'}")
    if oracle is not None:
        residues = ", ".join(str(x) for x in oracle.witness.residues)
        rel = "=" if oracle.value == br.delta else ">"
        lines.append(
            f"oracle mu   {oracle.value} {rel} delta"
            f"  (witness period {oracle.witness.period}, residues {{{residues}}})"
        )
    for entry in counterexamples:
        lines.append(f"counterexample [{entry['check']}] {entry.get('detail', '')}")
        if "window" in entry:
            lines.append(f"  window members: {entry['window']['members']}")
    lines.append(f"result      {'PASS' if passed else 'FAIL'}")

    _emit(
        _instance_report(raw, canon, br, oracle, checks, counterexamples),
        args.json,
        lines,
    )
    return 0 if passed else 1


SWEEP_COLUMNS = [
    "a", "b", "k", "m", "g", "d", "r", "case",
    "delta_num", "delta_den", "mu_num", "mu_den", "equal", "status",
]


def cmd_sweep(args) -> int:
    for name in ("max_a", "max_k", "max_m", "weight_cap"):
        if getattr(args, name) < 1:
            raise InvalidInput(f"--{name.replace('_', '-')} must be >= 1")

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    violation = None
    try:
        writer = csv.writer(out)
        writer.writerow(SWEEP_COLUMNS)
        for a in range(2, args.max_a + 1):
            for b in range(1, a):
                for k in range(1, args.max_k + 1):
                    for m in range(1, args.max_m + 1):
                        raw = RawParams(a=a, b=b, k=k, m=m)
                        canon = canonicalize(raw)
                        if canon.weight > args.weight_cap:
                            continue
                        br = conjectured_density(canon)
                        row = [
                            a, b, k, m, canon.g, br.d, br.r, br.case_tag,
                            br.delta.numerator, br.delta.denominator,
                        ]
                        try:
                            res = mu_exact(forbidden_differences(canon))
                        except ResourceLimit as exc:
                            print(f"skipping ({a},{b},{k},{m}): {exc}", file=sys.stderr)
                            writer.writerow(row + ["", "", "skipped", br.theorem_status])
                            continue
                        equal = "true" if res.value == br.delta else "false"
                        writer.writerow(
                            row
                            + [
                                res.value.numerator,
                                res.value.denominator,
                                equal,
                                br.theorem_status,
                            ]
                        )
                        if res.value < br.delta:
                            violation = (raw, res.value, br.delta)
                            break
                    if violation:
                        break
                if violation:
                    break
            if violation:
                break
    finally:
        if args.out:
            out.close()

    if violation:
        raw, value, delta = violation
        print(
            f"lower-bound violation at ({raw.a},{raw.b},{raw.k},{raw.m}): "
            f"mu = {value} < delta = {delta}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densitypack",
        description="Exact packing densities of two-gap difference families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p, required=True):
        p.add_argument("--a", type=int, required=required, help="long gap length")
        p.add_argument("--b", type=int, required=required, help="short gap length")
        p.add_argument("--k", type=int, required=required, help="number of long gaps")
        p.add_argument("--m", type=int, required=required, help="number of short gaps")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_oracle_args(p):
        p.add_argument(
            "--method",
            choices=("auto", "karp", "policy"),
            default="auto",
            help="mean-cycle solver (default: auto)",
        )
        p.add_argument(
            "--max-window",
            type=int,
            default=DEFAULT_WINDOW_CAP,
            help=f"cap on max(M) (default {DEFAULT_WINDOW_CAP})",
        )

    p = sub.add_parser("density", help="closed-form candidate density of a family")
    add_family_args(p)
    add_json(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("mu", help="exact optimal density of a difference set")
    p.add_argument("--distances", required=True, help="comma-separated, e.g. 1,5,6")
    add_oracle_args(p)
    add_json(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("witness", help="optimal periodic set for a family or distances")
    p.add_argument("--distances", help="comma-separated difference set")
    add_family_args(p, required=False)
    add_oracle_args(p)
    add_json(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run the verification pipeline on one family")
    add_family_args(p)
    p.add_argument("--level", choices=LEVELS, default="full")
    p.add_argument(
        "--conjecture",
        action="store_true",
        help="probe window checks even where they are only conjectured (k, m >= 2)",
    )
    p.add_argument(
        "--enum-cap",
        type=int,
        default=DEFAULT_ENUM_CAP,
        help=f"cap on enumeration window length n2 (default {DEFAULT_ENUM_CAP})",
    )
    p.add_argument(
        "--max-window",
        type=int,
        default=DEFAULT_WINDOW_CAP,
        help=f"cap on max(M) for the oracle stage (default {DEFAULT_WINDOW_CAP})",
    )
    add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="formula-versus-oracle CSV over a parameter box")
    p.add_argument("--max-a", type=int, required=True, help="largest a (b runs below a)")
    p.add_argument("--max-k", type=int, default=2)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument(
        "--weight-cap",
        type=int,
        default=14,
        help="skip instances whose canonical k*a + m*b exceeds this (default 14)",
    )
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LemmaViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
