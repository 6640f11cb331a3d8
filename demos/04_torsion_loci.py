"""Torsion loci on Hesse cubics, checked against the group law.

The displayed curves of degree 4 and 8 cut exactly the points of order 4
and 5 (with respect to the zero x_7), and eight cubics cut the points of
order nine.  Everything is verified over the smallest finite fields that
carry rational points of the right order, found by a deterministic scan.
"""

from halphen.chilean import build_chilean
from halphen.field import GF
from halphen.torsion import (find_specialization, hesse_collinear_curves,
                             two_torsion_conics, verify_nine_torsion_cubics,
                             verify_torsion_locus)

for m in (4, 5):
    spec = find_specialization(m, p_max=200)
    print(f"order {m}: first hit at p = {spec['p']}, t = {spec['t']},"
          f" witness {spec['witness']}")
    rep = verify_torsion_locus(m, spec["p"], spec["t"])
    print(f"  locus cuts {rep['points_on_locus']} rational points,"
          f" all of exact order {m}; census {rep['order_census']}")

spec9 = find_specialization(9, p_max=200)
rep9 = verify_nine_torsion_cubics(spec9["p"], spec9["t"])
print(f"order 9: p = {rep9['p']}, t = {rep9['t']};"
      f" {rep9['rational_order9']} rational points of order nine,"
      f" per-cubic counts {rep9['per_cubic_counts']}")

print("\nplane curves of degree m with the index multiplicities:")
for m in (4, 5):
    spec = find_specialization(m, p_max=200)
    rep = hesse_collinear_curves(m, spec["p"], spec["t"])
    dims = sorted({s["kernel_dim"] for s in rep["systems"]})
    print(f"  m = {m}: multiplicities {rep['multiplicities']},"
          f" twelve systems, kernel dimensions {dims}")

print("\nthe m = 2 case recovers the twelve conics themselves:")
F = GF(13)
tau = two_torsion_conics(build_chilean(F, F.from_int(12)))
print("  at a = 12 (t = 1) over GF(13): p_i = x_i + tau with tau =", tau,
      "(x_7 as zero),")
print("  and each of the 12 conics is the only conic through its six points")
