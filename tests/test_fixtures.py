"""Golden tests: canonical text of key polynomials and the claim ledger are
frozen on disk."""

from pathlib import Path

from halphen.cli import main
from halphen.field import parse_expression
from halphen.plane import Poly3, gens

FIXTURES = Path(__file__).parent / "fixtures"


def _env(field):
    X, Y, Z = gens(field)
    env = {"e": field.eps(), "a": field.gen(), "x": X, "y": Y, "z": Z}
    one = Poly3(field, 0, {(0, 0, 0): field.one()})
    return env, one


def _check(name, poly):
    text = (FIXTURES / name).read_text().strip()
    assert poly.to_text() == text
    env, one = _env(poly.field)
    assert parse_expression(text, env, one) == poly


def test_sextic_generator(pencil):
    _check("sextic_generator.txt", pencil.F6)


def test_double_member_cubic(pencil):
    _check("double_member_cubic.txt", pencil.G3)


def test_conic_04(symbolic_data):
    _check("conic_04.txt", symbolic_data.conics[3])


def test_cuspidal_sextic(symbolic_data, pencil):
    from halphen.chilean import special_members
    sp = special_members(symbolic_data, pencil)
    _check("cuspidal_sextic.txt", sp["cuspidal_sextic"])


def test_verify_all_ledger_is_byte_identical(capsys):
    assert main(["verify", "all", "--no-timing", "--format", "json"]) == 0
    golden = (FIXTURES / "verify_all_no_timing.json").read_text()
    assert capsys.readouterr().out == golden
