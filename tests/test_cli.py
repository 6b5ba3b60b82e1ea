"""End-to-end command-line behaviour: output shapes, exit codes, sweep CSV."""

import contextlib
import csv
import dataclasses
import errno
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import densitypack
from densitypack import (
    ExactDensity,
    InternalError,
    InvalidInput,
    LemmaViolation,
    NotInBand,
    PeriodicSet,
    RawParams,
    ResourceLimit,
    UnsupportedRegime,
    WindowTooShort,
    canonicalize,
    conjectured_density,
    forbidden_differences,
    mu_exact,
)
from densitypack import cli, oracle
from densitypack.cli import SWEEP_COLUMNS, main, report_to_json
from densitypack.oracle import mu_exact_many
from helpers import canonical_instances, record_potentials


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDensity:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "density", "--a", "5", "--b", "1", "--k", "1", "--m", "1")
        assert code == 0
        assert "delta       2/7" in out
        assert "status      ProvedTheorem" in out

    def test_canonicalization_surfaced(self, capsys):
        code, out, _ = run(capsys, "density", "--a", "6", "--b", "10", "--k", "2", "--m", "1")
        assert code == 0
        assert "canonical   a=5 b=3 k=1 m=2  (g=2, swapped)" in out
        assert "delta       3/14" in out

    def test_json_shape_and_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "density", "--a", "6", "--b", "10", "--k", "2", "--m", "1", "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert list(rep) == [
            "raw", "canonical", "g", "swapped", "d", "r", "n1", "n2",
            "case", "delta", "status",
        ]
        assert rep["raw"] == {"a": 6, "b": 10, "k": 2, "m": 1}
        assert rep["canonical"] == {"a": 5, "b": 3, "k": 1, "m": 2}
        assert rep["g"] == 2 and rep["swapped"] is True
        assert rep["delta"] == {"num": 3, "den": 14}
        # byte-identical round trip: no floats anywhere
        assert json.dumps(rep, indent=2) == out.strip()

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "density", "--a", "0", "--b", "1", "--k", "1", "--m", "1")
        assert code == 2
        assert "error:" in err


class TestMu:
    def test_golden_values(self, capsys):
        for distances, num, den in [
            ("1,5,6", 2, 7), ("1,4,5", 1, 3), ("1,3,4", 2, 7), ("2,3,5,6,8", 1, 5),
        ]:
            code, out, _ = run(capsys, "mu", "--distances", distances, "--json")
            assert code == 0
            rep = json.loads(out)
            assert rep["mu"] == {"num": num, "den": den}
            assert json.dumps(rep, indent=2) == out.strip()

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "mu", "--distances", "1,5,6")
        assert code == 0
        assert "mu({1, 5, 6}) = 2/7" in out
        assert "method      PolicyIteration" in out

    def test_junk_distances_exit_2(self, capsys):
        code, _, err = run(capsys, "mu", "--distances", "one,two")
        assert code == 2 and "error:" in err
        code, out, err = run(capsys, "mu", "--distances", ",")
        assert (code, out, err) == (2, "", "error: no distances given\n")

    def test_window_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "mu", "--distances", "1,23")
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize("command", ["mu", "witness"])
    def test_nonpositive_window_cap_exit_2(self, capsys, command):
        # A cap below 1 is bad input, not a limit that was hit (exit 3).
        code, out, err = run(capsys, command, "--distances", "1,5,6", "--max-window", "-3")
        assert (code, out, err) == (2, "", "error: window cap must be >= 1, got -3\n")

    def test_raised_window_cap(self, capsys):
        code, out, _ = run(
            capsys, "mu", "--distances", "1,23", "--max-window", "23", "--json"
        )
        assert code == 0
        assert json.loads(out)["mu"]["den"] > 0

    def test_workload_graph_never_runs_policy_iteration(self, capsys, monkeypatch):
        # The greedy policy's best cycle is mu on {1, 23}, so one potential
        # run certifies it.
        runs = record_potentials(monkeypatch)
        code, out, err = run(
            capsys, "mu", "--distances", "1,23", "--max-window", "23", "--json"
        )
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "distances": [\n    1,\n    23\n  ],\n'
            '  "mu": {\n    "num": 1,\n    "den": 2\n  },\n'
            '  "witness": {\n    "period": 2,\n    "residues": [\n      0\n    ]\n  },\n'
            '  "states_explored": 75025,\n  "method": "PolicyIteration"\n}\n'
        )
        assert runs == [(Fraction(1, 2), "pi")]

    def test_method_flag_is_gone(self, capsys):
        # One solver path: there is no proposer to choose.
        for command in ("mu", "witness"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--distances", "1,5,6", "--method", "karp"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --method karp" in capsys.readouterr().err


class TestWitness:
    def test_from_distances(self, capsys):
        code, out, _ = run(capsys, "witness", "--distances", "1,5,6", "--json")
        assert code == 0
        rep = json.loads(out)
        assert Fraction(rep["mu"]["num"], rep["mu"]["den"]) == Fraction(
            len(rep["witness"]["residues"]), rep["witness"]["period"]
        )

    def test_from_raw_params_uses_raw_differences(self, capsys):
        # Raw (6,10,2,1) has M = {6,10,12,16,22}: the doubled canonical set.
        code, out, _ = run(
            capsys, "witness", "--a", "6", "--b", "10", "--k", "2", "--m", "1", "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["distances"] == [6, 10, 12, 16, 22]
        assert rep["mu"] == {"num": 3, "den": 14}

    @pytest.mark.parametrize(
        "family, distances",
        [
            ((5, 1, 1, 1), "1,5,6"),
            ((1, 5, 1, 1), "1,5,6"),
            ((10, 2, 1, 1), "2,10,12"),
            ((6, 10, 2, 1), "6,10,12,16,22"),
            ((10, 6, 1, 2), "6,10,12,16,22"),
            ((6, 2, 2, 2), "2,4,6,8,10,12,14,16"),
        ],
    )
    def test_family_output_equals_distances_output(self, capsys, family, distances):
        # The family route certifies delta of the canonical family for the
        # raw, scaled or swapped M; the distances route, which `mu` shares,
        # certifies the greedy cycle mean.  Both prove the same value on the
        # same graph.
        a, b, k, m = map(str, family)
        code, out, _ = run(
            capsys, "witness", "--a", a, "--b", b, "--k", k, "--m", m, "--json"
        )
        assert code == 0
        assert (0, out, "") == run(capsys, "witness", "--distances", distances, "--json")
        assert (0, out, "") == run(capsys, "mu", "--distances", distances, "--json")

    def test_both_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "witness", "--distances", "1,5,6",
            "--a", "5", "--b", "1", "--k", "1", "--m", "1",
        )
        assert code == 2 and "error:" in err

    def test_neither_source_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--a", "5", "--b", "1")
        assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "error, expected",
    [
        (LemmaViolation("check", "detail"), (1, "error: check: detail\n")),
        (InvalidInput("bad"), (2, "error: bad\n")),
        (WindowTooShort("bad"), (2, "error: bad\n")),
        (NotInBand("bad"), (2, "error: bad\n")),
        (UnsupportedRegime("bad"), (2, "error: bad\n")),
        (ResourceLimit("cap"), (3, "error: cap\n")),
        (InternalError("bug"), (4, "internal error: bug\n")),
    ],
)
def test_error_class_sets_exit_code_and_label(capsys, monkeypatch, error, expected):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "mu_exact", fail)
    code, out, err = run(capsys, "mu", "--distances", "1,5,6")
    assert (code, err) == expected and out == ""


class TestVerify:
    def test_full_pass_k1_m1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1", "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert list(rep["checks"]) == [
            "identities", "main_inequality", "dichotomy", "haralambis",
            "m1_chains", "k1_mapping", "oracle",
        ]
        assert all(rep["checks"].values())
        assert "counterexamples" not in rep
        assert rep["oracle"]["value"] == {"num": 2, "den": 7}
        assert json.dumps(rep, indent=2) == out.strip()

    def test_human_output_says_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1")
        assert code == 0
        assert "result      PASS" in out
        assert "oracle mu   2/7 = delta" in out

    def test_machinery_keys_track_regime(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--a", "3", "--b", "2", "--k", "2", "--m", "1", "--json"
        )
        assert code == 0
        rep = json.loads(out)
        assert "m1_chains" in rep["checks"]
        assert "k1_mapping" not in rep["checks"]

    def test_conjectured_regime_gate(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--a", "7", "--b", "2", "--k", "2", "--m", "2",
            "--level", "identities",
        )
        assert code == 0
        code, _, err = run(
            capsys, "verify", "--a", "7", "--b", "2", "--k", "2", "--m", "2",
            "--level", "inequality",
        )
        assert code == 2 and "error:" in err

    def test_conjecture_flag_unlocks_full(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--a", "7", "--b", "2", "--k", "2", "--m", "2",
            "--conjecture", "--json",
        )
        assert code == 0
        rep = json.loads(out)
        # r = 0 here, so no dichotomy key; no machinery key either (k, m >= 2)
        assert list(rep["checks"]) == [
            "identities", "main_inequality", "haralambis", "oracle",
        ]
        assert all(rep["checks"].values())

    def test_identities_level_is_algebraic_only(self, capsys):
        # n2 = 59 would blow the enumeration cap, but identities never
        # enumerate windows.
        code, _, _ = run(
            capsys, "verify", "--a", "29", "--b", "1", "--k", "1", "--m", "1",
            "--level", "identities",
        )
        assert code == 0

    def test_enum_cap_exit_3(self, capsys):
        code, _, err = run(
            capsys, "verify", "--a", "29", "--b", "1", "--k", "1", "--m", "1",
            "--level", "inequality",
        )
        assert code == 3 and "error:" in err

    def test_nonpositive_caps_exit_2(self, capsys):
        family = ["verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1"]
        code, out, err = run(capsys, *family, "--enum-cap", "0")
        assert (code, out, err) == (2, "", "error: enumeration cap must be >= 1, got 0\n")
        code, out, err = run(capsys, *family, "--max-window", "0")
        assert (code, out, err) == (2, "", "error: window cap must be >= 1, got 0\n")

    def test_refused_oracle_stops_before_the_scan(self, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the windows were scanned")

        monkeypatch.setattr(cli, "scan_windows", no_scan)
        # (5,1,1,1) has max(M) = 6
        code, out, err = run(
            capsys, "verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1",
            "--max-window", "5",
        )
        assert (code, out, err) == (3, "", "error: max(M) = 6 exceeds window cap 5\n")
        # (29,1,1,1) has n2 = 59 and max(M) = 30: the enumeration cap's
        # message wins over the window cap's, and the int64 bound's over
        # the oracle's at (32,1,1,1), n2 = 65
        code, out, err = run(
            capsys, "verify", "--a", "29", "--b", "1", "--k", "1", "--m", "1",
        )
        assert (code, out, err) == (
            3, "", f"error: window length 59 exceeds enumeration cap {cli.DEFAULT_ENUM_CAP}\n"
        )
        code, out, err = run(
            capsys, "verify", "--a", "32", "--b", "1", "--k", "1", "--m", "1",
            "--enum-cap", "70", "--max-window", "40",
        )
        assert (code, out) == (3, "") and "int64 mask" in err

    def test_proved_families_certify_delta(self, monkeypatch):
        # Where delta is mu, the oracle stage proves it in one potential run.
        runs = record_potentials(monkeypatch)
        for p in canonical_instances(max_n2=26, proved_only=True):
            if p.weight > cli.DEFAULT_WINDOW_CAP:
                continue
            argv = ["verify", "--a", str(p.a), "--b", str(p.b), "--k", str(p.k), "--m", str(p.m)]
            runs.clear()
            assert json_round_trip(*argv)["checks"]["oracle"] is True
            assert runs == [(conjectured_density(p).delta, "pi")]

    def test_closed_form_is_computed_once(self, capsys, monkeypatch):
        # The window checks take the delta the command already holds.
        def refuse(p):
            raise AssertionError("profile computed the closed form again")

        # The package root's `profile` is the function; this is the module.
        profile = importlib.import_module("densitypack.profile")
        monkeypatch.setattr(profile, "conjectured_density", refuse)
        code, out, err = run(
            capsys, "verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1",
            "--level", "inequality",
        )
        assert (code, err) == (0, "")
        assert "result      PASS" in out

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        # A window check that fails on the first window, {0}.
        def failing_check(p):
            return lambda batch: (0, "synthetic failure for the exit-code path")

        monkeypatch.setattr(cli, "main_inequality_check", failing_check)
        code, out, _ = run(
            capsys, "verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1",
            "--level", "inequality", "--json",
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["checks"]["main_inequality"] is False
        entry = next(e for e in rep["counterexamples"] if e["check"] == "main_inequality")
        assert entry["window"]["members"] == [0]
        assert "synthetic" in entry["detail"]

    P511 = ["--a", "5", "--b", "1", "--k", "1", "--m", "1"]
    P3122 = ["--a", "3", "--b", "1", "--k", "2", "--m", "2", "--conjecture"]

    @pytest.mark.parametrize("family, shift, mu_line, detail", [
        # Below delta is a lower-bound violation, in either regime.
        (P511, Fraction(-1, 100), "193/700 < delta  (witness period 7, residues {0, 4})",
         "mu = 193/700 < delta = 2/7: lower-bound violation"),
        (P3122, Fraction(-1, 100), "91/900 < delta  (witness period 9, residues {0})",
         "mu = 91/900 < delta = 1/9: lower-bound violation"),
        # Above delta contradicts a proved status, and not a conjectured one.
        (P511, Fraction(1, 100), "207/700 > delta  (witness period 7, residues {0, 4})",
         "mu = 207/700 != delta = 2/7 despite status ProvedTheorem"),
        (P3122, Fraction(1, 100), "109/900 > delta  (witness period 9, residues {0})", None),
    ], ids=["proved-below", "conjectured-below", "proved-above", "conjectured-above"])
    def test_oracle_verdict(self, capsys, monkeypatch, family, shift, mu_line, detail):
        def shifted(*args, **kwargs):
            res = mu_exact(*args, **kwargs)
            return dataclasses.replace(res, value=res.value + shift)

        monkeypatch.setattr(cli, "mu_exact", shifted)
        passed = detail is None
        code, out, _ = run(capsys, "verify", *family)
        tail = [f"oracle          {'pass' if passed else 'FAIL'}", f"oracle mu   {mu_line}"]
        tail += [] if passed else [f"counterexample [oracle] {detail}"]
        tail += [f"result      {'PASS' if passed else 'FAIL'}"]
        assert (code, out.splitlines()[-len(tail):]) == (0 if passed else 1, tail)
        code, out, _ = run(capsys, "verify", *family, "--json")
        rep = json.loads(out)
        assert (code, rep["checks"]["oracle"]) == (0 if passed else 1, passed)
        entries = None if passed else [{"check": "oracle", "detail": detail}]
        assert rep.get("counterexamples") == entries


class TestSweep:
    def test_csv_shape_and_proved_equalities(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--max-a", "5", "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.open()))
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) > 1
        for row in rows[1:]:
            rec = dict(zip(SWEEP_COLUMNS, row))
            assert rec["equal"] == "true"  # whole box is small, all proved or checked
            if rec["status"] != "Conjectured":
                assert (rec["mu_num"], rec["mu_den"]) == (
                    rec["delta_num"], rec["delta_den"],
                )

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run(capsys, "sweep", "--max-a", "4", "--out", str(p1))
        run(capsys, "sweep", "--max-a", "4", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "sweep", "--max-a", "3", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err

    def test_full_device_out_exits_2(self, capsys):
        # /dev/full opens but refuses every write: the buffered rows fail on close.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        code, out, err = run(capsys, "sweep", "--max-a", "3", "--out", "/dev/full")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out /dev/full: ")
        assert "Traceback" not in err

    def test_failed_row_write_exits_2(self, capsys, monkeypatch, tmp_path):
        # A write that fails mid-sweep stops the sweep with exit 2.
        class FullFile(io.StringIO):
            def write(self, text):
                if self.tell() > 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

        monkeypatch.setattr(cli, "open", lambda *a, **kw: FullFile(), raising=False)
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "sweep", "--max-a", "5", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write --out {out_path}: {os.strerror(errno.ENOSPC)}\n"

    def test_raw_lattice_order(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-a", "4", "--max-k", "1", "--max-m", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        raw = [(int(r[0]), int(r[1]), int(r[2]), int(r[3])) for r in rows[1:]]
        assert raw == sorted(raw)
        assert raw[0] == (2, 1, 1, 1)

    def test_resource_limited_rows_are_skipped(self, capsys, monkeypatch):
        # With an 8-state budget (2,1,1,1) and (3,1,1,1) still solve
        # exactly, while (3,2,1,1) needs 11 states and must be skipped.
        monkeypatch.setenv("DENSITYPACK_MAX_STATES", "8")
        code, out, err = run(capsys, "sweep", "--max-a", "3", "--max-k", "1", "--max-m", "1")
        assert code == 0
        rows = {tuple(r[:4]): dict(zip(SWEEP_COLUMNS, r)) for r in list(csv.reader(io.StringIO(out)))[1:]}
        assert rows[("2", "1", "1", "1")]["equal"] == "true"
        assert rows[("3", "1", "1", "1")]["equal"] == "true"
        skipped = rows[("3", "2", "1", "1")]
        assert skipped["equal"] == "skipped"
        assert skipped["mu_num"] == "" and skipped["mu_den"] == ""
        assert skipped["delta_num"] != ""
        assert "skipping (3,2,1,1)" in err

    def test_each_difference_set_is_solved_once(self, capsys, monkeypatch):
        # Scaled raw families repeat a canonical M, and a 30-state budget
        # skips 13 rows over 11 distinct M: the CSV and stderr are what a
        # fresh solve per row gives.
        monkeypatch.setenv("DENSITYPACK_MAX_STATES", "30")
        expected, notes, solved, skipped = [SWEEP_COLUMNS], [], [], []
        for a in range(2, 9):
            for b, k, m in itertools.product(range(1, a), (1, 2), (1, 2)):
                canon = canonicalize(RawParams(a=a, b=b, k=k, m=m))
                if canon.weight > 10:
                    continue
                br = conjectured_density(canon)
                M = forbidden_differences(canon)
                row = [a, b, k, m, canon.g, br.d, br.r, br.case_tag]
                row += [br.delta.numerator, br.delta.denominator]
                try:
                    mu = mu_exact(M).value
                except ResourceLimit as exc:
                    notes.append(f"skipping ({a},{b},{k},{m}): {exc}\n")
                    row += ["", "", "skipped"]
                    skipped.append(M)
                else:
                    row += [mu.numerator, mu.denominator, str(mu == br.delta).lower()]
                    solved.append(M)
                expected.append([str(x) for x in row + [br.theorem_status]])
        assert len(set(solved)) < len(solved) and len(set(skipped)) < len(skipped)

        calls = []

        def counted(pairs):
            for M, candidate in pairs:
                calls.append(M)
                yield M, candidate

        monkeypatch.setattr(
            cli, "mu_exact_many", lambda pairs, **kw: mu_exact_many(counted(pairs), **kw)
        )
        code, out, err = run(capsys, "sweep", "--max-a", "8", "--weight-cap", "10")
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == expected
        assert err == "".join(notes)
        assert sorted(calls, key=tuple) == sorted(set(solved + skipped), key=tuple)

    def test_workload_box_never_runs_policy_iteration(self, capsys, monkeypatch):
        # Every M of this box has mu = delta, so one union potential per
        # batch certifies the delta of each of its M: every graph's states
        # are relaxed in exactly one potential run, and a union holds more
        # than _BATCH_STATES states only when it is one graph.
        candidates, unions = [], []

        def counted(pairs):
            for M, candidate in pairs:
                candidates.append(candidate)
                yield M, candidate

        monkeypatch.setattr(
            cli, "mu_exact_many", lambda pairs, **kw: mu_exact_many(counted(pairs), **kw)
        )
        runs = record_potentials(monkeypatch)
        potential = oracle._potential

        def union(keys, first, last, values, offsets):
            unions.append((len(keys), len(values)))
            return potential(keys, first, last, values, offsets)

        monkeypatch.setattr(oracle, "_potential", union)
        code, out, _ = run(capsys, "sweep", "--max-a", "12", "--weight-cap", "18")
        assert code == 0
        assert len(out.splitlines()) == 180
        assert len(candidates) == 95 and runs == [(delta, "pi") for delta in candidates]
        assert sum(n for n, _ in unions) == 46_191 and sum(k for _, k in unions) == 95
        assert all(n <= oracle._BATCH_STATES or k == 1 for n, k in unions)
        assert len(unions) == 14  # the 5,778-state graph is one of them, alone

    def test_workload_box_output_is_pinned(self, capsys):
        # The benchmark's box, byte for byte.
        code, out, err = run(capsys, "sweep", "--max-a", "12", "--weight-cap", "18")
        assert (code, err, len(out.splitlines())) == (0, "", 180)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c4f88b0786abbbf01e00a4b276d1c208379ab52a229b42206e4125300fc144fd"
        )

    def test_lower_bound_violation_exits_1(self, capsys, monkeypatch):
        fake = ExactDensity(
            value=Fraction(1, 100),
            witness=PeriodicSet(period=100, residues=(0,)),
            states_explored=1,
            method="PolicyIteration",
        )
        monkeypatch.setattr(cli, "mu_exact_many", lambda pairs, **kw: (fake for _ in pairs))
        code, out, err = run(capsys, "sweep", "--max-a", "3")
        assert code == 1
        assert "lower-bound violation at (2,1,1,1)" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2  # header plus the single offending row

    def test_weight_cap_filters(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-a", "8", "--max-k", "1", "--max-m", "1",
            "--weight-cap", "6",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1
        for row in rows[1:]:
            a, b, g = int(row[0]), int(row[1]), int(row[4])
            assert (a + b) // g <= 6  # the cap applies to canonical weight
        # raw (7,6,1,1) is already canonical with weight 13: filtered out
        assert not any(row[0] == "7" and row[1] == "6" for row in rows[1:])

    def test_empty_box_gives_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-a", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [SWEEP_COLUMNS]

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-a", "3", "--max-k", "0")
        assert code == 2 and "error:" in err


class TestArgparse:
    def test_missing_required_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--a", "5"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["prove"])
        assert exc.value.code == 2


class TestParserReuse:
    VERIFY = ["verify", "--a", "5", "--b", "1", "--k", "1", "--m", "1"]
    CALLS = [VERIFY, ["mu", "--distances", "1,5,6", "--json"], ["verify", "--a", "x"], ["--help"], VERIFY]

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_reused_parser_matches_fresh_parsers(self, monkeypatch):
        reused = [self.outcome(argv) for argv in self.CALLS]
        assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
        assert reused[4] == reused[0]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert [self.outcome(argv) for argv in self.CALLS] == reused

    def test_main_builds_one_parser(self, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["density", "--a", "5", "--b", "1", "--k", "1", "--m", "1"]) == 0
            assert main(["mu", "--distances", "1,5,6"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        # Building it at import would move its cost into every start-up.
        env = {**os.environ, "PYTHONPATH": str(Path(densitypack.__file__).parents[1])}
        script = "import densitypack.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.stdout == "0\n", proc.stderr


class TestClosedStdout:
    def test_closed_pipe_exits_141_without_traceback(self):
        # The reader is gone before the first row: every write to stdout
        # fails with EPIPE, as in `densitypack sweep --max-a 8 | head -1`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(densitypack.__file__).parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "densitypack", "sweep", "--max-a", "8"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


def json_round_trip(*argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--json"])
    out = buf.getvalue()
    assert code == 0
    rep = json.loads(out)
    assert report_to_json(rep) + "\n" == out
    return rep


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.sets(st.integers(1, 12), min_size=1, max_size=4))
def test_mu_json_round_trip(distances):
    rep = json_round_trip("mu", "--distances", ",".join(map(str, sorted(distances))))
    assert rep["distances"] == sorted(distances)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    st.sampled_from(list(canonical_instances(max_n2=20, proved_only=True))),
    st.integers(1, 3),
    st.booleans(),
)
def test_verify_json_round_trip(p, g, reflect):
    a, b, k, m = g * p.a, g * p.b, p.k, p.m
    if reflect:
        a, b, k, m = b, a, m, k
    argv = ["verify", "--a", str(a), "--b", str(b), "--k", str(k), "--m", str(m)]
    rep = json_round_trip(*argv)
    assert rep["canonical"] == {"a": p.a, "b": p.b, "k": p.k, "m": p.m}
    assert all(rep["checks"].values())
