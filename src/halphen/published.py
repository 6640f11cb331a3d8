"""The paper's numbers, one entry per ledger claim, and the one comparison.

`PAPER` is keyed by claim name, as the ledger prints it after the suite.
Each entry maps a key to what the claim must reproduce; `check` compares
what a claim found with it, key by key, and raises the suite's domain
error on the first difference.  A few keys hold published data that a
claim reads rather than finds: the index-3 section matrix and torsion
vectors, the published curves and censuses of the five arrangements, and
the degenerate Harbourne pair, which the lattice here cannot derive.
Either way a wrong value here fails its claim.
"""

from fractions import Fraction

_LINE, _CONIC = (1, 0, 1), (2, 0, 4)  # (degree, genus, self-intersection)

PAPER = {
    # incidence
    "conic-point incidence (12_6, 9_8)": {"row sums": [8], "column sums": [6]},
    "symmetry group of order 6": {"order": 6},
    "dual configuration (9_4, 12_3)": {"nodes": 12, "lines": 9,
                                       "line degree": 4, "node degree": 3},
    # pencil
    "sextic pencil members": {"distinct parameters": 4},
    "distinguished members": {"lambda (a^3 - 1)": Fraction(1, 4)},
    "cusp census": {"singular points": {"cusp": 9}},
    "branch quintic census": {"singular points": {"cusp": 1, "node": 4}},
    "degenerate pencils": {"conics": 9, "lines": 3},
    "cross-ratio probe": {"equianharmonic": [["lambda0", "lambda1", "lambda2",
                                              "lambda3"]]},
    # lattice
    "144 minus-one classes": {"classes": 144,
                              "degree histogram": {0: 9, 1: 36, 2: 54, 3: 36, 4: 9}},
    "tropical space at e_9": {
        "representatives": 16,
        # split by the point they cut on the half-fiber: translate point
        # (|I| even) and inflection point (|I| odd)
        "even rows": ((0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
                      (2, -1, -1, 0, -1, -1, 0, 0, 0, -1),
                      (2, -1, 0, -1, 0, -1, -1, 0, 0, -1),
                      (2, -1, 0, 0, 0, -1, 0, -1, -1, -1),
                      (2, 0, -1, -1, -1, 0, -1, 0, 0, -1),
                      (2, 0, -1, 0, -1, 0, 0, -1, -1, -1),
                      (2, 0, 0, -1, 0, 0, -1, -1, -1, -1),
                      (4, -1, -1, -1, -1, -1, -1, -1, -1, -3)),
        "odd rows": ((1, -1, 0, 0, 0, -1, 0, 0, 0, 0),
                     (1, 0, -1, 0, -1, 0, 0, 0, 0, 0),
                     (1, 0, 0, -1, 0, 0, -1, 0, 0, 0),
                     (1, 0, 0, 0, 0, 0, 0, -1, -1, 0),
                     (3, -1, -1, -1, -1, -1, -1, 0, 0, -2),
                     (3, -1, -1, 0, -1, -1, 0, -1, -1, -2),
                     (3, -1, 0, -1, 0, -1, -1, -1, -1, -2),
                     (3, 0, -1, -1, -1, 0, -1, -1, -1, -2))},
    "translation orbits and cosets": {"orbit sizes": [9] * 16,
                                      "coset sizes": [8] * 18,
                                      "quotients": ([3, 6], [3, 3])},
    "ramification pairing": {"degree pairs": [(0, 4), (1, 3), (2, 2)],
                             "products": [3]},
    "nine-class arithmetic": {"D0111.D1012": -1, "D0111^2": -2, "D1012^2": -2,
                              "H": (1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "H^2": 1,
                              "H.R": [2]},
    "unique orthogonal nine-set": {"total_cliques": 544, "qualifying": 1},
    "index-3 class data": {  # read, not found
        "section matrix": ((0, 0, 0, 1, 4, 1, 5, 5, 5), (0, 1, 2, 0, 1, 2, 0, 1, 2)),
        "torsion vectors": ((0, 0, 0, 0), (0, 1, 2, 1), (0, 2, 1, 2),
                            (1, 1, 0, 2), (1, 2, 2, 0), (1, 0, 1, 1),
                            (2, 2, 0, 1), (2, 1, 1, 0), (2, 0, 2, 2))},
    "low-degree class geometry": {"classes": 90},
    # torsion: the points of exact order m over the algebraic closure
    "torsion locus m = 4": {"points of exact order": 12},
    "torsion locus m = 5": {"points of exact order": 24},
    "nine-torsion cubics": {"points per cubic": [9] * 8},
    "degree-4 curves at translated points": {"multiplicities": (2, 1), "systems": 12},
    "degree-5 curves at translated points": {"multiplicities": (1, 2), "systems": 12},
    # invariants
    "log Chern numbers": {
        "curves": {"chilean": [_CONIC] * 12,  # read, not found
                   "A0": [_CONIC] * 9 + [_LINE] * 3,
                   "A1": [_CONIC] * 12 + [_LINE] * 9,
                   "A2": [_CONIC] * 9 + [_LINE] * 12,
                   "A3": [_LINE] * 21},
        "censuses": {"chilean": {2: 12, 8: 9},  # read, not found
                     "A0": {2: 12, 7: 9},
                     "A1": {2: 72, 5: 12, 8: 9},
                     "A2": {2: 54, 5: 12, 7: 9},
                     "A3": {2: 36, 4: 9, 5: 12}},
        "values": {"chilean": (117, 54), "A0": (99, 45), "A1": (324, 144),
                   "A2": (270, 117), "A3": (180, 72)},
        "slopes": {"chilean": Fraction(13, 6), "A0": Fraction(11, 5),
                   "A1": Fraction(9, 4), "A2": Fraction(30, 13),
                   "A3": Fraction(5, 2)}},
    # the base points lie on their lines: one incidence more than published
    "census cross-check": {"geometric mismatches": {
        "A1": ({2: 72, 5: 12, 9: 9}, (351, 153)),
        "A2": ({2: 54, 5: 12, 8: 9}, (297, 126))}},
    # (chilean, degenerate); the degenerate 117 and 75 are read, not found
    "Harbourne constants": {"c_squared": (135, 117), "double_points": (84, 75),
                            "chilean": Fraction(-67, 28),
                            "degenerate": Fraction(-61, 25)},
    "binary incidence code": {"dimension": 9,
                              "enumerator": {0: 1, 5: 9, 8: 102, 9: 144, 12: 144,
                                             13: 102, 16: 9, 21: 1}},
}


def check(claim, error, found):
    """Compare each value of `found` with the paper's under the same key of
    `claim`'s entry; raise `error` at the first that differs."""
    for key, value in found.items():
        published = PAPER[claim][key]
        if value != published:
            raise error(f"{key}: found {value}, published {published}")
