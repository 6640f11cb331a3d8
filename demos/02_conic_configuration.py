"""The one-parameter family of 12 conics and 9 points.

Translating the nine Hesse base points by a 2-torsion point produces nine
points p_i lying on eight conics each, with every conic through six of
them: an abstract (12_6, 9_8) configuration.  The twelve conics split
into four triples whose products are members of a pencil of sextics
F6 + lambda * G3^2.  The twelve extra pairwise intersection points of
fiber conics and nine lines through them form the dual (9_4, 12_3).
"""

from halphen.chilean import (PencilPair, build_chilean, cross_ratio_probe,
                             dual_hesse_lines, fiber_nodes,
                             fiber_product_lambdas, special_members)
from halphen.field import to_text

data = build_chilean()  # symbolic: the whole family at once
print("base points over Q(e)(a):")
for i, P in enumerate(data.points, start=1):
    print(f"  p_{i} = {P}")

print("\nthe first three conics (one reducible fiber):")
for C in data.conics[:3]:
    print("  " + C.to_text())

rows = [sum(r) for r in data.incidence]
cols = [sum(data.incidence[i][j] for i in range(9)) for j in range(12)]
print("\nincidence: row sums", sorted(set(rows)), "column sums", sorted(set(cols)))

pair = PencilPair(data)
lams = fiber_product_lambdas(data, pair)
print("\npencil parameters of the four conic-triple members:")
for i, lam in enumerate(lams):
    print(f"  fiber {i + 1}: lambda = {to_text(lam)}")

sp = special_members(data, pair)
print("\nthe unique nine-cusped member sits at lambda =", to_text(sp["lambda"]))

nodes = fiber_nodes(data)
print("\nthe twelve fiber nodes (note: they do not move with a):")
for (i, j), P in nodes:
    print(f"  conics {i + 1} and {j + 1} meet again at {P}")

lines, incidence = dual_hesse_lines(data, nodes)
print("\nnine lines, each through one base point and four nodes:")
for i, L in enumerate(lines, start=1):
    print(f"  l_{i} = {L}")

probe = cross_ratio_probe(lams, data.field)
hits = [r for r in probe["subsets"] if r["equianharmonic"]]
print("\ncross-ratio probe: the equianharmonic four-subsets are")
for r in hits:
    print("  {" + ", ".join(r["subset"]) + "} with R =", r["ratio"])
