"""Each claim below fails when the one datum it is checked against is wrong.

A case changes that datum (by monkeypatching, or by setting it on the
configuration), runs the claim's thunk from `cli.SUITES` on a fresh
`chilean.Configuration`, and requires the verdict "fail": a domain error,
not a crash and not a pass.  The same thunk passes on the shared
`configuration` fixture.

The cases of `CASES` change the computed data, and so show that the
computation feeds the comparison; the matrix at the end changes each
published value of `published.PAPER` in turn, and so shows that the
comparison is made.
"""

import json
import re
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from halphen import chilean, cli, cubic, invariants, piclattice, published, torsion
from halphen.field import QQ_EPS_A, to_text
from halphen.plane import ProjPoint, gens


def claim_thunk(suite, claim, ctx):
    thunks = {name: thunk for name, _, thunk in cli.SUITES[suite](cli.RunConfig(), ctx)}
    return thunks[claim]


def verdict(thunk):
    try:
        thunk()
    except cli.DOMAIN_ERRORS:
        return "fail"
    except Exception:  # noqa: BLE001 - a crash is the verdict "error"
        return "error"
    return "pass"


def one_conic(monkeypatch, ctx):
    """Conic 1, xy - a z^2, becomes xy + a z^2."""
    original = chilean.conic_equations

    def conics(field, a):
        out = original(field, a)
        out[0] = out[0] + 2 * field.coerce(a) * gens(field)[2] ** 2
        return out
    monkeypatch.setattr(chilean, "conic_equations", conics)


def limit_conic(monkeypatch, ctx):
    """Conic 3, yz - a x^2, gains (a + 2) xy: the a = -2 degeneration
    keeps its conics, but at a = 1 the first three no longer multiply to
    the triple-point pencil's sextic."""
    original = chilean.conic_equations

    def conics(field, a):
        out = original(field, a)
        X, Y, _ = gens(field)
        out[2] = out[2] + (field.coerce(a) + 2) * X * Y
        return out
    monkeypatch.setattr(chilean, "conic_equations", conics)


def scale_of_d(monkeypatch, ctx):
    """d = diag(1, e, e) in place of diag(1, e, e^2)."""
    monkeypatch.setattr(chilean, "D_POWERS", (0, 1, 1))


def one_node(monkeypatch, ctx):
    """The node of conics 1 and 2 moves to (1 : 2 : 3)."""
    nodes = list(ctx.nodes)
    nodes[0] = (nodes[0][0], ProjPoint(ctx.data.field, (1, 2, 3)))
    ctx.nodes = nodes


def one_degenerate_line(monkeypatch, ctx):
    """The triangle line x + y + z becomes x + y + 2z."""
    original = chilean.hesse_singular_fibers

    def fibers(field):
        out = original(field)
        out[1][0] = out[1][0] + gens(field)[2]
        return out
    monkeypatch.setattr(chilean, "hesse_singular_fibers", fibers)


def one_lambda(monkeypatch, ctx):
    """The fourth conic-triple parameter moves by one."""
    lams = list(ctx.lambdas)
    lams[3] = lams[3] + 1
    ctx.lambdas = lams


def quintic_coefficient(monkeypatch, ctx):
    """The x^2 z^3 coefficient with 16 + a^3 for 16 a^3, which agrees with
    the true one mod 13 at a = 2."""
    original = chilean.branch_quintic

    def quintic(field, a):
        X, _, Z = gens(field)
        a = field.coerce(a)
        return original(field, a) + field.eps() * (15 * a**3 - 16) * X**2 * Z**3
    monkeypatch.setattr(chilean, "branch_quintic", quintic)


def flex_order(monkeypatch, ctx):
    """The flexes x_2 and x_3 trade places, so that p_i = x_i + tau fails
    at i = 2 while tau = p_1 - x_1 stays the 2-torsion point."""
    original = torsion.hesse_flexes

    def flexes(field):
        out = original(field)
        out[1], out[2] = out[2], out[1]
        return out
    monkeypatch.setattr(torsion, "hesse_flexes", flexes)


def deck_permutation(monkeypatch, ctx):
    """The deck involution pairs e_2..e_9 as (2 3)(4 5)(6 7)(8 9)."""
    monkeypatch.setattr(piclattice, "galois_permutation",
                        lambda lattice: (0, 1, 3, 2, 5, 4, 7, 6, 9, 8))


def degree_histogram(monkeypatch, ctx):
    """One class of degree 2 is counted at degree 3."""
    monkeypatch.setattr(piclattice, "degree_histogram",
                        lambda classes: {0: 9, 1: 36, 2: 53, 3: 37, 4: 9})


def one_clique_fewer(monkeypatch, ctx):
    """The last orthogonal nine-set, a rejected one, goes missing: 543
    cliques, and the exceptional set still the one that qualifies."""
    original = piclattice.all_nine_cliques
    monkeypatch.setattr(piclattice, "all_nine_cliques",
                        lambda classes: original(classes)[:-1])


def one_a1_count(monkeypatch, ctx):
    """A1's geometric census counts one double point more, 73 of them: it
    still mismatches the published table, as A2's does."""
    original = invariants._censuses_from_geometry

    def censuses(config):
        out = original(config)
        a1 = out["A1"]
        out["A1"] = invariants.ArrangementCombinatorics(a1.curves,
                                                        {**a1.t_counts, 2: 73})
        return out
    monkeypatch.setattr(invariants, "_censuses_from_geometry", censuses)


def one_node_fewer(monkeypatch, ctx):
    """The configuration loses its last fiber node: 11 of 12."""
    ctx.nodes = list(ctx.nodes)[:-1]


def chord_law(monkeypatch, ctx):
    """The group's add is the chord map P, Q -> third point of PQ, which is
    commutative but not associative."""
    monkeypatch.setattr(cubic.CubicGroup, "add", cubic.CubicGroup.third_intersection)


def _add_to_nine_torsion_cubic(monkeypatch, index, change):
    """Cubic `index` of the eight gains change(e, t, X, Y, Z)."""
    original = torsion.nine_torsion_cubics

    def cubics(field, t):
        out = original(field, t)
        out[index] = out[index] + change(field.eps(), field.coerce(t), *gens(field))
        return out
    monkeypatch.setattr(torsion, "nine_torsion_cubics", cubics)


def fourth_cubic_sign(monkeypatch, ctx):
    """+ e X Z^2 becomes - e X Z^2 in the fourth nine-torsion cubic."""
    _add_to_nine_torsion_cubic(monkeypatch, 3, lambda e, t, X, Y, Z: -2 * e * X * Z**2)


def seventh_cubic_t_term(monkeypatch, ctx):
    """(e + 2) t becomes (e - 2) t in the seventh cubic: invisible at t = 0."""
    _add_to_nine_torsion_cubic(monkeypatch, 6, lambda e, t, X, Y, Z: -4 * t * X * Y * Z)


def one_kernel(monkeypatch, ctx):
    """Every Q(e)(a) kernel vector, the lattice geometry's lines through
    two base points among them, gains 1 in its first entry."""
    from halphen import linalg
    original = linalg.kernel_basis

    def kernels(rows, field):
        out = original(rows, field)
        if field is QQ_EPS_A:
            out[0][0] = out[0][0] + 1
        return out
    monkeypatch.setattr(linalg, "kernel_basis", kernels)


CASES = [
    ("incidence", "conic-point incidence (12_6, 9_8)", one_conic),
    ("incidence", "symmetry group of order 6", scale_of_d),
    ("incidence", "dual configuration (9_4, 12_3)", one_node),
    ("incidence", "incidence at specializations", flex_order),
    ("incidence", "chord-tangent group law sanity", chord_law),
    ("pencil", "degenerate pencils", one_degenerate_line),
    ("pencil", "degenerate pencils", limit_conic),
    ("pencil", "cross-ratio probe", one_lambda),
    ("pencil", "branch quintic census", quintic_coefficient),
    ("lattice", "144 minus-one classes", deck_permutation),
    ("lattice", "144 minus-one classes", degree_histogram),
    ("lattice", "unique orthogonal nine-set", one_clique_fewer),
    ("lattice", "low-degree class geometry", one_kernel),
    ("torsion", "nine-torsion cubics", fourth_cubic_sign),
    ("torsion", "nine-torsion cubics", seventh_cubic_t_term),
    ("invariants", "census cross-check", one_a1_count),
    ("invariants", "Harbourne constants", one_node_fewer),
]


@pytest.mark.parametrize("suite, claim, mutate", CASES,
                         ids=[mutate.__name__ for _, _, mutate in CASES])
def test_a_wrong_datum_fails_its_claim(configuration, monkeypatch, suite,
                                       claim, mutate):
    assert verdict(claim_thunk(suite, claim, configuration)) == "pass"
    ctx = chilean.Configuration()
    mutate(monkeypatch, ctx)
    assert verdict(claim_thunk(suite, claim, ctx)) == "fail"


# ---------------------------------------------------------------------------
# the matrix: every key of every entry of the published table


SUITE_OF = {claim: suite for suite, build in cli.SUITES.items()
            for claim, _, _ in build(cli.RunConfig(), None)}
MATRIX = [(claim, key) for claim, entry in published.PAPER.items() for key in entry]


def perturbed(value):
    """A copy of `value` with its last leaf moved: a number by one, a
    string by one character."""
    if isinstance(value, dict):
        last = list(value)[-1]
        return {**value, last: perturbed(value[last])}
    if isinstance(value, (tuple, list)):
        return type(value)([*value[:-1], perturbed(value[-1])])
    if isinstance(value, str):
        return value + "'"
    return value + 1


def test_every_published_entry_is_a_ledger_claim():
    assert set(published.PAPER) <= set(SUITE_OF)


@pytest.mark.parametrize("claim, key", MATRIX, ids=[f"{c}: {k}" for c, k in MATRIX])
def test_a_wrong_published_value_fails_its_claim(monkeypatch, claim, key):
    value = published.PAPER[claim][key]
    assert perturbed(value) != value
    monkeypatch.setitem(published.PAPER[claim], key, perturbed(value))
    thunk = claim_thunk(SUITE_OF[claim], claim, chilean.Configuration())
    assert verdict(thunk) == "fail"


# ---------------------------------------------------------------------------
# the witness audit: a witness prints no number of its own


_INT = re.compile(r"(?<![\w.])-?\d+")  # not inside names such as A1, lambda0, e_9


def _ints(value):
    """The absolute values of every int in a value: ints, the two parts of
    a Fraction, the ints written in a string, and the keys, items and
    lengths of containers."""
    if isinstance(value, int):
        return {abs(value)}
    if isinstance(value, Fraction):
        return {abs(value.numerator), value.denominator}
    if isinstance(value, str):
        return {abs(int(m)) for m in _INT.findall(value)}
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        return {len(value)}.union(*map(_ints, value))
    return set()


def _declared(configuration):
    """Per claim, what its witness may print besides its entry: the run
    parameters of a default `verify all` (the configuration's, the
    specializations it picks, the fixed samples of `cli`), and the values
    a claim finds and prints without the paper to compare them with."""
    config = cli.RunConfig()
    specs = list(islice(cli.good_specializations(config.p_max), 3))
    spec = {m: torsion.find_specialization(m, p_max=config.p_max) for m in (4, 5, 9)}
    lattice3 = piclattice.index3_lattice()
    probe = chilean.cross_ratio_probe(configuration.lambdas, configuration.data.field)
    out = {
        "incidence at specializations": [config.a_value] + [(p, a.v) for p, a in specs],
        "chord-tangent group law sanity": cli.GROUP_LAW_SAMPLE,
        # found: the four parameters, as elements of Q(e)(a)
        "sextic pencil members": [to_text(x) for x in configuration.lambdas],
        "cusp census": [(p, a.v) for p, a in specs[:1]],
        "branch quintic census": cli.QUINTIC_SPECIALIZATIONS,
        # chilean.degenerate_pencil: the triple-point pencil at a = 1
        "degenerate pencils": [1],
        # found: the subsets probed and the ratio of each hit
        "cross-ratio probe": [len(probe["subsets"])]
                             + [r["ratio"] for r in probe["subsets"] if r["equianharmonic"]],
        "144 minus-one classes": [config.d_max],
        # the nine-sets are those meeting each conic (degree 2) as a conic does
        "unique orthogonal nine-set": [configuration.data.conics[0].degree],
        # found: the lattice the section matrix and vectors index
        "index-3 class data": [len(lattice3.minus2), len(lattice3.fibers), lattice3.index],
    }
    for m in (4, 5):  # found: the rational census at (p, t)
        report = torsion.verify_torsion_locus(m, spec[m]["p"], spec[m]["t"])
        out[f"torsion locus m = {m}"] = [spec[m]["p"], spec[m]["t"], report["order_census"]]
        systems = torsion.hesse_collinear_curves(m, spec[m]["p"], spec[m]["t"])["systems"]
        out[f"degree-{m} curves at translated points"] = [
            spec[m]["p"], [s["kernel_dim"] for s in systems]]
    report = torsion.verify_nine_torsion_cubics(spec[9]["p"], spec[9]["t"])
    out["nine-torsion cubics"] = [spec[9]["p"], spec[9]["t"], report["rational_order9"]]
    return out


def test_every_witness_number_is_published_or_a_run_parameter(configuration):
    """Each int a `verify all` witness prints is in the claim's entry of
    `published.PAPER`, in its name, or declared above: a number printed
    from a literal, unchecked, fails here.  The ledger is the pinned
    fixture, which `test_fixtures` compares with the program's output."""
    ledger = json.loads((Path(__file__).parent / "fixtures" / "verify_all_no_timing.json")
                        .read_text())
    declared = _declared(configuration)
    assert set(declared) <= set(SUITE_OF)
    for entry in ledger:
        claim = entry["claim"].split(": ", 1)[1]
        allowed = (_ints(published.PAPER.get(claim, {})) | _ints(claim)
                   | _ints(declared.get(claim, [])))
        stray = _ints(entry["witness"]) - allowed
        assert not stray, (claim, sorted(stray))
