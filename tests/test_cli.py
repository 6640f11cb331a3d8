import csv
import io
import json
from itertools import islice

import pytest

from halphen.chilean import VerificationError
from halphen.cli import (RunConfig, VerificationLedger, emit_report,
                         good_specializations, main, run)


def test_default_specializations():
    specs = list(islice(good_specializations(200), 3))
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


def _refuted():
    raise VerificationError("claim refuted")


def test_failures_are_fail_soft(monkeypatch):
    import halphen.cli as cli

    def broken(config, ctx):
        return [("always fails", "nothing", _refuted),
                ("still runs", "after a failure", lambda: "ok")]

    monkeypatch.setitem(cli.SUITES, "lattice", broken)
    ledger = run(RunConfig(suites=("lattice",)))
    assert [e.verdict for e in ledger.entries] == ["fail", "pass"]
    assert not ledger.passed()
    fast = run(RunConfig(suites=("lattice",), fail_fast=True))
    assert [e.verdict for e in fast.entries] == ["fail"]


def test_crash_is_an_error_not_a_failure(capsys, monkeypatch):
    import halphen.cli as cli

    def crashing():
        raise TypeError("unsupported operand")

    def suite(config, ctx):
        return [("crashes", "a bug in the code", crashing),
                ("refuted", "a claim that does not hold", _refuted),
                ("still runs", "after a crash", lambda: "ok")]

    monkeypatch.setitem(cli.SUITES, "lattice", suite)
    ledger = run(RunConfig(suites=("lattice",)))
    assert [e.verdict for e in ledger.entries] == ["error", "fail", "pass"]
    assert ledger.entries[0].witness == "TypeError: unsupported operand"
    assert not ledger.passed()
    assert "Traceback" in capsys.readouterr().err  # a crash shows where it happened
    fast = run(RunConfig(suites=("lattice",), fail_fast=True))
    assert [e.verdict for e in fast.entries] == ["error"]


@pytest.mark.parametrize("args, message", [
    (["--prime", "4"], "not prime"),
    (["--prime", "3"], "characteristic 3"),
    (["--prime", "11"], "no primitive cube root of unity"),
    (["--prime", "7"], "no good parameter over GF(7)"),
    (["--d-max", "2"], "--d-max >= 4"),
    (["--d-max", "3"], "--d-max >= 4"),
    (["torsion", "--m", "4", "--p-max", "5"], "too small for order 4"),
    (["pencil", "--p-max", "5"], "too small for the cusp census"),
    (["lattice", "--m", "4"], "--m applies to the torsion suite"),
    (["incidence", "code", "--with-quadratic-extension"],
     "--with-quadratic-extension applies to the torsion suite"),
    (["torsion", "--m", "9", "--with-quadratic-extension"],
     "--m 9 leaves neither"),
    (["--prime", "2"], "no primitive cube root of unity"),
])
def test_bad_options_are_configuration_errors(capsys, monkeypatch, args, message):
    import halphen.cli as cli

    def no_run(config):
        raise AssertionError("a configuration error must stop before run()")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_p_max_bound_is_the_first_usable_prime(capsys, monkeypatch):
    import halphen.cli as cli
    monkeypatch.setattr(cli, "run", lambda config: VerificationLedger())
    for m, p in ((4, 31), (5, 37), (9, 19)):
        assert main(["verify", "torsion", "--m", str(m), "--p-max", str(p - 1)]) == 2
        assert main(["verify", "torsion", "--m", str(m), "--p-max", str(p)]) == 1
    assert main(["verify", "lattice", "--p-max", "5"]) == 1  # torsion not run
    capsys.readouterr()


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


def _verdict(thunk):
    """A claim's verdict as `run` gives it; a crash propagates."""
    import halphen.cli as cli
    try:
        thunk()
    except cli.DOMAIN_ERRORS:
        return "fail"
    return "pass"


# the quotients with the invariant factors 1 kept (the mutant f == 1 of
# `kperp_quotients`), with the two swapped, and with too small an order
@pytest.mark.parametrize("quotients", [([1] * 7, [1] * 7), ([3, 3], [3, 6]),
                                       ([3, 3], [3, 3])])
def test_translation_orbits_claim_refutes_wrong_quotients(monkeypatch, quotients):
    import halphen.cli as cli
    import halphen.piclattice as piclattice
    thunk = {claim: thunk for claim, _, thunk
             in cli.SUITES["lattice"](RunConfig(), None)}["translation orbits and cosets"]
    assert _verdict(thunk) == "pass"
    monkeypatch.setattr(piclattice, "kperp_quotients", lambda lattice: quotients)
    assert _verdict(thunk) == "fail"


def test_verify_invariants_takes_each_census_once(capsys, monkeypatch):
    import halphen.invariants as invariants

    calls = []
    original = invariants.extract_combinatorics

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariants, "extract_combinatorics", counted)
    assert main(["verify", "invariants", "--no-timing"]) == 0
    # two claims read the report, but the five censuses are taken once,
    # from one pass per candidate set: chilean reads A1's, A0 reads A2's
    assert len(calls) == 3


def test_enumerate_minus1_csv(capsys):
    assert main(["enumerate", "minus1", "--format", "csv", "--d-max", "4"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["deg", "n", "v_C", "split", "class"]
    assert len(rows) == 145
    degrees = sorted({r[0] for r in rows[1:]})
    assert degrees == ["0", "1", "2", "3", "4"]


def test_enumerate_rejects_a_d_max_below_the_degree_4_classes(capsys):
    assert main(["enumerate", "minus1", "--d-max", "2"]) == 2
    captured = capsys.readouterr()
    assert "--d-max >= 4" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("args, claim, key, inner, wrong", [
    (["code"], "binary incidence code", "enumerator", 5, 8),  # 8 words of weight 5
    (["invariants"], "log Chern numbers", "values", "chilean", (118, 54))])
def test_subcommand_refutation_exits_1_without_a_traceback(capsys, monkeypatch, args,
                                                          claim, key, inner, wrong):
    # a value that differs from the paper's table is a refutation: one line
    # on stderr, exit 1, no output
    from halphen import published
    entry = dict(published.PAPER[claim][key])
    entry[inner] = wrong
    monkeypatch.setitem(published.PAPER[claim], key, entry)
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refuted: ArrangementError: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_subcommand_crash_still_raises(monkeypatch):
    # anything but a refutation is a crash, with its traceback
    import halphen.invariants as invariants

    def crashing():
        raise TypeError("unsupported operand")

    monkeypatch.setattr(invariants, "char2_code", crashing)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(["code"])


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


@pytest.mark.parametrize("args", [["verify", "code"], ["config"]])
@pytest.mark.parametrize("where, message", [
    ("missing/report", "no directory"),
    (".", "is a directory"),
])
def test_bad_output_path_is_a_configuration_error(capsys, monkeypatch, tmp_path,
                                                  args, where, message):
    import halphen.cli as cli

    def no_work(*_):
        raise AssertionError("a bad --output must stop before any work")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli.chilean, "Configuration", no_work)
    path = tmp_path / where
    assert main([*args, "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and str(path) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("args", [
    ["enumerate", "minus1", "--d-max", "4"],
    ["config"],
])
def test_output_file_holds_what_stdout_would(capsys, tmp_path, args):
    assert main(args) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out"
    assert main([*args, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


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
    # symbolic mode reads --a in its Q(e) spot check, and rejects the same
    # values before any claim runs
    for argv in (["incidence", "--a", "1"], ["incidence", "--a", "-2"],
                 ["all", "--a", "0"], ["all", "--a", "1"], ["all", "--a", "-2"]):
        assert main(["verify", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "bad family parameter" in err


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
