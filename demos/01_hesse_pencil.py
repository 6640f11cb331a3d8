"""The Hesse pencil: nine base points, four triangles, and the group law.

The pencil x^3 + y^3 + z^3 + t*xyz has nine base points (the common
flexes of its members) and four reducible members, each a triangle of
lines.  Together they realize the classical (9_4, 12_3) incidence.  On a
smooth member, choosing a flex as zero makes three points collinear
exactly when they sum to zero.
"""

import random

from halphen.field import GF, QQ_EPS
from halphen.cubic import (CubicGroup, HesseCubic, flex_line_incidence,
                           hesse_flexes, hesse_singular_fibers, rational_points)

flexes = hesse_flexes(QQ_EPS)
print("the nine base points:")
for i, P in enumerate(flexes, start=1):
    print(f"  x_{i} = {P}")

fibers = hesse_singular_fibers(QQ_EPS)
print("\nthe four triangle members:")
for triple in fibers:
    print("  " + "  *  ".join(str(L) for L in triple))

incidence = flex_line_incidence(QQ_EPS)
print("\neach line holds 3 base points, each base point sits on 4 lines:",
      sorted({sum(r) for r in incidence}),
      sorted({sum(incidence[i][j] for i in range(12)) for j in range(9)}))

# the group law over a small finite field
F = GF(13)
curve = HesseCubic(F, 2)
points = rational_points(curve)
group = CubicGroup(curve, hesse_flexes(F)[6])  # zero at x_7 = (1 : -1 : 0)
print(f"\nover GF(13) with t = 2 the curve has {len(points)} rational points")

rng = random.Random(0)
P, Q = rng.choice(points), rng.choice(points)
print(f"P = {P}, Q = {Q}, P + Q = {group.add(P, Q)}")
orders = CubicGroup(curve, hesse_flexes(F)[0]).orders(points)
print("orders of the nine flexes (zero at x_1):",
      [orders[x] for x in hesse_flexes(F)])
