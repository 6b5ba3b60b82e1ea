"""End-to-end command-line behaviour: output shapes, exit codes, sweep CSV."""

import csv
import io
import json
from fractions import Fraction

import pytest

from densitypack import (
    CanonicalParams,
    ExactDensity,
    PeriodicSet,
    VerificationReport,
    Window,
)
from densitypack import cli
from densitypack.cli import SWEEP_COLUMNS, main


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

    def test_window_cap_exit_3(self, capsys):
        code, _, err = run(capsys, "mu", "--distances", "1,23")
        assert code == 3 and "error:" in err

    def test_raised_window_cap(self, capsys):
        code, out, _ = run(
            capsys, "mu", "--distances", "1,23", "--max-window", "23", "--json"
        )
        assert code == 0
        assert json.loads(out)["mu"]["den"] > 0

    def test_method_selection(self, capsys):
        code, out, _ = run(capsys, "mu", "--distances", "1,5,6", "--method", "policy", "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["method"] == "PolicyIteration"
        assert rep["mu"] == {"num": 2, "den": 7}


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

    def test_both_sources_rejected(self, capsys):
        code, _, err = run(
            capsys, "witness", "--distances", "1,5,6",
            "--a", "5", "--b", "1", "--k", "1", "--m", "1",
        )
        assert code == 2 and "error:" in err

    def test_neither_source_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--a", "5", "--b", "1")
        assert code == 2 and "error:" in err


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

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        p = CanonicalParams(a=5, b=1, k=1, m=1)
        fake = VerificationReport(
            params=p,
            windows_checked=3,
            passed=False,
            counterexample=Window.from_members(p.n2, [0]),
            detail="synthetic failure for the exit-code path",
            elapsed=0.0,
        )
        monkeypatch.setattr(cli, "check_main_inequality", lambda *a, **kw: fake)
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

    def test_lower_bound_violation_exits_1(self, capsys, monkeypatch):
        fake = ExactDensity(
            value=Fraction(1, 100),
            witness=PeriodicSet(period=100, residues=(0,)),
            states_explored=1,
            method="Karp",
        )
        monkeypatch.setattr(cli, "mu_exact", lambda *a, **kw: fake)
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
