"""Command-line interface.

Subcommands:

  density   closed-form candidate density of a family (a, b, k, m)
  mu        exact optimal density of a difference set (`witness`'s handler)
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
resource cap was hit; 4 a computed result failed its own check (a bug);
141 (128 + SIGPIPE) stdout was closed before the report was written.
An error exits with its class's `exit_code` (errors.py).
Reports go to stdout, diagnostics to stderr.  JSON output (--json) uses
exact {"num": ..., "den": ...} fractions, a fixed key order, and no floats,
so parsing and re-serializing with indent=2 is byte-identical.

`main(argv)` may be called repeatedly in one process.  It builds its
parser on the first call and reuses it; the parser holds only constants
and the `cmd_*` functions, so reuse changes no output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import DensityPackError, InvalidInput, ResourceLimit, UnsupportedRegime
from .family import (
    CanonicalParams,
    DensityBreakdown,
    DifferenceSet,
    RawParams,
    as_difference_set,
    canonicalize,
    conjectured_density,
    forbidden_differences,
)
from .mappings import k1_check, m1_check
from .oracle import (
    DEFAULT_ENUM_CAP,
    DEFAULT_WINDOW_CAP,
    ExactDensity,
    Window,
    check_enum_length,
    mu_exact,
    mu_exact_many,
)
from .profile import (
    certificate_check,
    dichotomy_check,
    identities_check,
    main_inequality_check,
    scan_windows,
)

# Not called here, but bench/tracer.py wraps these names in this module.
from .mappings import check_k1_machinery, check_m1_machinery  # noqa: F401
from .oracle import enumerate_avoiding_windows  # noqa: F401
from .profile import (  # noqa: F401
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


def cmd_witness(args) -> int:
    params_given = [v is not None for v in (args.a, args.b, args.k, args.m)]
    if args.distances is not None:
        if any(params_given):
            raise InvalidInput("give either --distances or a/b/k/m, not both")
        M = _parse_distances(args.distances)
        candidate = None
    elif all(params_given):
        raw = RawParams(a=args.a, b=args.b, k=args.k, m=args.m)
        M = forbidden_differences(raw)
        # mu is invariant under scaling and the swap, so the canonical
        # family's delta is a candidate for the raw M too.
        candidate = conjectured_density(canonicalize(raw)).delta
    else:
        raise InvalidInput("witness needs --distances or all four of --a --b --k --m")
    res = mu_exact(M, max_window=args.max_window, candidate=candidate)
    _emit(_oracle_report(M, res), args.json, _oracle_lines(M, res))
    return 0


def cmd_verify(args) -> int:
    raw, canon, br = _raw_family(args)
    level = LEVELS.index(args.level)
    checks: dict[str, bool] = {}
    counterexamples: list[dict] = []

    def record(name: str, passed: bool, detail: str | None = None, window: Window | None = None):
        checks[name] = passed
        if not passed:
            entry: dict = {"check": name}
            if window is not None:
                entry["window"] = _window_dump(window)
            if detail:
                entry["detail"] = detail
            counterexamples.append(entry)

    # The breakdown's construction already checks the branch-glue identities
    # and the r = 0 collapse; reaching this point certifies them.
    record("identities", True)

    oracle = None
    if level >= 1:
        if canon.k >= 2 and canon.m >= 2 and not args.conjecture:
            raise UnsupportedRegime(
                f"k = {canon.k}, m = {canon.m}: levels beyond 'identities' check a "
                "conjectured regime here; pass --conjecture to probe it anyway"
            )
        check_enum_length(br.n2, args.enum_cap)
        # The oracle's own caps are checked before the scan, so a refused
        # oracle does not wait for every window first.
        if level >= 3:
            oracle = mu_exact(
                forbidden_differences(canon), max_window=args.max_window, candidate=br.delta
            )
        # One scan of the windows of [0, n2) runs every window check.
        window_checks = {
            "identities": identities_check(canon),
            "main_inequality": main_inequality_check(canon),
        }
        if br.r >= 1:
            window_checks["dichotomy"] = dichotomy_check(canon)
        window_checks["haralambis"] = certificate_check(canon, br.delta)
        if level >= 2 and canon.m == 1:
            window_checks["m1_chains"] = m1_check(canon)
        if level >= 2 and canon.k == 1:
            window_checks["k1_mapping"] = k1_check(canon)
        for name, rep in scan_windows(canon, window_checks, enum_cap=args.enum_cap).items():
            record(name, rep.passed, rep.detail, rep.counterexample)

    if oracle is not None:
        failure = None
        if oracle.value < br.delta:
            failure = f"mu = {oracle.value} < delta = {br.delta}: lower-bound violation"
        elif br.theorem_status != "Conjectured" and oracle.value != br.delta:
            failure = (
                f"mu = {oracle.value} != delta = {br.delta} despite status {br.theorem_status}"
            )
        record("oracle", failure is None, failure)
    passed = all(checks.values())

    lines = _family_lines(raw, canon, br)
    for name, ok in checks.items():
        lines.append(f"{name:<16}{'pass' if ok else 'FAIL'}")
    if oracle is not None:
        residues = ", ".join(str(x) for x in oracle.witness.residues)
        rel = "<" if oracle.value < br.delta else "=" if oracle.value == br.delta else ">"
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


@contextlib.contextmanager
def _csv_rows(path: str | None):
    """A CSV row writer on the file `path`, or on stdout when there is none.

    Failing to open, write or close the file is invalid input (exit 2), not
    a traceback with exit 1, the code of a lower-bound violation.
    """
    if not path:
        yield csv.writer(sys.stdout).writerow
        return

    def guarded(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except OSError as exc:
            raise InvalidInput(f"cannot write --out {path}: {exc.strerror}") from exc

    out = guarded(open, path, "w", newline="")
    writer = csv.writer(out)
    try:
        yield lambda row: guarded(writer.writerow, row)
    except BaseException:
        with contextlib.suppress(OSError):
            out.close()
        raise
    guarded(out.close)


def cmd_sweep(args) -> int:
    for name in ("max_a", "max_k", "max_m", "weight_cap"):
        if getattr(args, name) < 1:
            raise InvalidInput(f"--{name.replace('_', '-')} must be >= 1")

    box = (
        RawParams(a=a, b=b, k=k, m=m)
        for a in range(2, args.max_a + 1)
        for b in range(1, a)
        for k in range(1, args.max_k + 1)
        for m in range(1, args.max_m + 1)
    )
    violation = None
    with _csv_rows(args.out) as write:
        write(SWEEP_COLUMNS)
        rows = []
        for raw in box:
            canon = canonicalize(raw)
            if canon.weight <= args.weight_cap:
                br = conjectured_density(canon)
                rows.append((raw, canon, br, forbidden_differences(canon)))
        # Raw families that share a canonical form share M: each M is solved
        # once, with its first row's delta as the candidate, and a refused M
        # is refused again without a new attempt.  The M are solved in
        # batches (`mu_exact_many`), and each row is written once its M is.
        candidates: dict[DifferenceSet, Fraction] = {}
        for _, _, br, M in rows:
            candidates.setdefault(M, br.delta)
        results = zip(candidates, mu_exact_many(candidates.items()))
        solved: dict[DifferenceSet, ExactDensity | ResourceLimit] = {}
        for raw, canon, br, M in rows:
            key = f"({raw.a},{raw.b},{raw.k},{raw.m})"
            row = [
                raw.a, raw.b, raw.k, raw.m, canon.g, br.d, br.r, br.case_tag,
                br.delta.numerator, br.delta.denominator,
            ]
            while M not in solved:
                solved.update([next(results)])
            res = solved[M]
            if isinstance(res, ResourceLimit):
                print(f"skipping {key}: {res}", file=sys.stderr)
                write(row + ["", "", "skipped", br.theorem_status])
                continue
            equal = "true" if res.value == br.delta else "false"
            write(row + [res.value.numerator, res.value.denominator, equal, br.theorem_status])
            if res.value < br.delta:
                violation = (
                    f"lower-bound violation at {key}: mu = {res.value} < delta = {br.delta}"
                )
                break

    if violation:
        print(violation, file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole CLI on every call; `main` reuses one."""
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

    def add_oracle_args(p, stage=""):
        p.add_argument(
            "--max-window",
            type=int,
            default=DEFAULT_WINDOW_CAP,
            help=f"cap on max(M){stage} (default {DEFAULT_WINDOW_CAP})",
        )

    p = sub.add_parser("density", help="closed-form candidate density of a family")
    add_family_args(p)
    add_json(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("mu", help="exact optimal density of a difference set")
    p.add_argument("--distances", required=True, help="comma-separated, e.g. 1,5,6")
    add_oracle_args(p)
    add_json(p)
    p.set_defaults(func=cmd_witness, a=None, b=None, k=None, m=None)

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
    add_oracle_args(p, " for the oracle stage")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on its first call, not at import, so
    start-up does not pay for it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`densitypack sweep ... | head -1`).
        # Point stdout at devnull so the interpreter's final flush of what is
        # still buffered does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except DensityPackError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
