"""Golden tests: canonical text of key polynomials, the claim ledgers and
every other product output are frozen on disk."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_a_large_p_max_scans_only_the_primes_read(capsys):
    # every scan stops at a small prime, so --p-max 10^9 gives the default
    # ledger in about the default time; listing the primes first took hours
    start = time.perf_counter()
    assert main(["verify", "all", "--no-timing", "--format", "json"]) == 0
    default = time.perf_counter() - start
    capsys.readouterr()
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "halphen", "verify", "all", "--p-max",
                           "1000000000", "--no-timing", "--format", "json"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=60)
    assert time.perf_counter() - start < 4 * default + 2  # a child imports anew
    assert done.stdout == (FIXTURES / "verify_all_no_timing.json").read_text()


# every product output besides `verify all`, with the fixture it must equal
OUTPUTS = [
    (["verify", "incidence", "pencil", "lattice", "invariants", "--mode",
      "specialized", "--a", "2", "--no-timing", "--format", "json"],
     "verify_specialized_a2_no_timing.json"),
    (["verify", "pencil", "--mode", "specialized", "--a", "3", "--no-timing",
      "--format", "json"], "verify_pencil_a3_no_timing.json"),
    (["verify", "torsion", "--m", "9", "--no-timing", "--format", "json"],
     "verify_torsion_m9_no_timing.json"),
    (["verify", "torsion", "--with-quadratic-extension", "--no-timing",
      "--format", "json"], "verify_torsion_quadratic_no_timing.json"),
    (["config"], "config.json"),
    (["code"], "code.txt"),
    (["invariants"], "invariants.txt"),
    (["enumerate", "minus1", "--format", "csv"], "enumerate_minus1.csv"),
]


@pytest.mark.parametrize("argv, name", OUTPUTS, ids=[name for _, name in OUTPUTS])
def test_product_output_is_byte_identical(capsys, argv, name):
    assert main(argv) == 0
    # read_bytes: the csv rows end in \r\n, which read_text would translate
    assert capsys.readouterr().out == (FIXTURES / name).read_bytes().decode()


def test_config_output_is_byte_identical_under_another_hash_seed():
    # a fresh interpreter whose set and dict orders of strings differ
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="1")
    done = subprocess.run([sys.executable, "-m", "halphen", "config"], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == (FIXTURES / "config.json").read_text()
