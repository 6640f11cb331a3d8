"""The rank-10 class lattice and its 144 exceptional classes.

Blowing up the nine base points gives a lattice with basis e_0, ..., e_9
and signature (1, 9).  The twelve conics give (-2)-classes; the classes
D with D^2 = D.K = -1 meeting all of them non-negatively number exactly
144.  Two independent enumerations, the translation action, the coset
structure, the ramification pairing and the uniqueness of the orthogonal
nine-set are all checked here.
"""

from halphen.piclattice import (all_nine_cliques, basis_e, bertini_involution,
                                chilean_lattice, chilean_set_uniqueness,
                                degree_histogram,
                                enumerate_minus1_bruteforce,
                                enumerate_minus1_generative, inner,
                                kperp_quotients,
                                res_partition, verify_mw_action,
                                verify_nine_class_theorem)

L = chilean_lattice()
classes = enumerate_minus1_generative(L)
double_check = enumerate_minus1_bruteforce(L, d_max=12)
print("generative enumeration:", len(classes), "classes")
print("lattice-point search up to degree 12 finds the same set:",
      classes == double_check)
print("degree histogram:", degree_histogram(classes))

orbits = verify_mw_action(classes)
print("\ntranslation action: ", len(orbits), "orbits of size",
      sorted({len(o) for o in orbits}))

cosets, pairing = res_partition(classes, L)
print("cosets modulo the (-2)-lattice:", len(cosets), "of size",
      sorted({len(v) for v in cosets.values()}))
print("quotient structures (K-perp):", kperp_quotients(L))

involution = bertini_involution(classes, L)
e1 = basis_e(1)
i, partner = involution[e1]
print("\nthe partner of e_1 under the ramification pairing:", partner)

report = verify_nine_class_theorem(L)
print("third-integer divisor arithmetic: D.D' =", report["D0111.D1012"],
      " H =", report["H"], " H^2 =", report["H^2"])

uniq = chilean_set_uniqueness(classes, L)
print(f"\n{uniq['total_cliques']} orthogonal nine-sets in total;"
      f" {len(uniq['qualifying'])} maps every (-2)-class to a conic")
patterns = {}
for clique in all_nine_cliques(classes):
    if clique in uniq["qualifying"]:
        continue
    total = tuple(map(sum, zip(*clique)))  # D.R_j of the nine, summed
    key = tuple(sorted(tuple(sorted(inner(total, L.minus2[j]) for j in f))
                       for f in L.fibers))
    patterns[key] = patterns.get(key, 0) + 1
print("rejected fiber-degree patterns (3 * image degree):")
for key, count in sorted(patterns.items()):
    print("  ", key, "x", count)
