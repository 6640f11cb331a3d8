import csv
import io
import json

import pytest

from halphen.cli import (RunConfig, VerificationLedger, default_specializations,
                         emit_report, main, run)


def test_default_specializations():
    specs = default_specializations()
    assert len(specs) == 3
    assert [p for p, _ in specs] == [13, 19, 31]
    from halphen.chilean import check_good_parameter
    for p, a in specs:
        check_good_parameter(a.field, a)


def test_verify_lattice_suite_passes_and_reports():
    config = RunConfig(suites=("lattice",))
    ledger = run(config)
    assert ledger.passed()
    assert len(ledger.entries) >= 5
    text = emit_report(ledger, "json")
    doc = json.loads(text)
    assert all(set(e) == {"claim", "anchor", "verdict", "witness", "ms"}
               for e in doc)
    csv_text = emit_report(ledger, "csv")
    rows = list(csv.reader(io.StringIO(csv_text)))
    assert len(rows) == len(ledger.entries) + 1


def test_failures_are_fail_soft(monkeypatch):
    import halphen.cli as cli

    def broken(config, ctx):
        return [("always fails", "nothing", lambda: 1 / 0),
                ("still runs", "after a failure", lambda: "ok")]

    monkeypatch.setitem(cli.SUITES, "lattice", broken)
    ledger = run(RunConfig(suites=("lattice",)))
    assert [e.verdict for e in ledger.entries] == ["fail", "pass"]
    assert not ledger.passed()
    fast = run(RunConfig(suites=("lattice",), fail_fast=True))
    assert [e.verdict for e in fast.entries] == ["fail"]


def test_exit_codes(capsys, monkeypatch):
    assert main(["verify", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["verify", "--a", "bogus"]) == 2
    capsys.readouterr()
    import halphen.cli as cli
    monkeypatch.setitem(cli.SUITES, "incidence",
                        lambda config, ctx: [("boom", "x", lambda: 1 / 0)])
    assert main(["verify", "incidence"]) == 1
    capsys.readouterr()


def test_byte_identical_output_with_no_timing(capsys):
    args = ["verify", "lattice", "--format", "json", "--no-timing", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_enumerate_minus1_csv(capsys):
    assert main(["enumerate", "minus1", "--format", "csv", "--d-max", "4"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["deg", "n", "v_C", "split", "class"]
    assert len(rows) == 145
    degrees = sorted({r[0] for r in rows[1:]})
    assert degrees == ["0", "1", "2", "3", "4"]


def test_enumerate_minus1_json(capsys):
    assert main(["enumerate", "minus1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 144
    assert all(len(d["class"]) == 10 for d in doc["classes"])
    assert len(doc["orbits"]) == 16
    assert all(len(o) == 9 for o in doc["orbits"])


def test_invariants_subcommand(capsys):
    assert main(["invariants"]) == 0
    out = capsys.readouterr().out
    assert "13/6" in out and "30/13" in out
    assert main(["invariants", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["arrangement"] for d in doc] == ["chilean", "A0", "A1", "A2", "A3"]


def test_code_subcommand(capsys):
    assert main(["code"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("W(t) = 1 + 9*t^5 + 102*t^8")


def test_config_subcommand(capsys):
    assert main(["config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["points"]) == 9
    assert len(doc["conics"]) == 12
    assert len(doc["nodes"]) == 12


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "code", "--format", "json",
                 "--output", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc[0]["verdict"] == "pass"


def test_specialized_mode(capsys):
    rc = main(["verify", "pencil", "--mode", "specialized", "--a", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1/50" in out  # the second pencil parameter at a = 3


def test_specialized_mode_rejects_boundary_parameters(capsys):
    assert main(["verify", "incidence", "--mode", "specialized", "--a", "1"]) == 2
    capsys.readouterr()
    assert main(["verify", "incidence", "--mode", "specialized", "--a", "-2"]) == 2
    capsys.readouterr()


def test_torsion_m_restriction_and_quadratic_flag(capsys):
    rc = main(["verify", "torsion", "--m", "5", "--with-quadratic-extension",
               "--p-max", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "m = 5 over the quadratic extension" in out
    assert "m = 4" not in out


def test_torsion_index_without_stored_locus_is_a_configuration_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "torsion", "--m", "7"])
    assert exc.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_empty_ledger_does_not_pass(capsys, monkeypatch):
    assert not VerificationLedger().passed()
    import halphen.cli as cli
    monkeypatch.setitem(cli.SUITES, "code", lambda config, ctx: [])
    assert main(["verify", "code"]) == 1
    assert "0/0 claims pass" in capsys.readouterr().out
