"""The degree bound and the double-cover parity fix.

A pair of same-degree signatures with fixed-point counts differing in
all three coordinates must satisfy congruences mod 4, 3 and 7; the
smallest degree admitting such a pair is 168.  Lifting a certified pair
to the double cover additionally needs each involution's transposition
count divisible by 4, which a small adjunction or an internal join
arranges -- the two members always start with opposite parities.
"""

from beauville.certify import certify_cover, min_degree_search
from beauville.construct import minimal_plan, x_map

res = min_degree_search()
print("smallest degree admitting a valid signature pair:", res.n)
print("witness signature pairs (genus; fixed points of x, y, z):")
for s1, s2 in res.witnesses[:4]:
    print("  ", s1, "vs", s2)

print()
print("transposition counts tau/2 of the two degree-210 markers:",
      x_map(1).tau() // 2, "and", x_map(2).tau() // 2)
print()
print(" r  branch          degree  tau(x1) tau(x2)  v-difference")
for r in range(14):
    cov = certify_cover(minimal_plan(r))
    print(
        f"{r:2d}  {cov.branch:15s} {cov.n:6d} {cov.tau1:7d} {cov.tau2:7d}  "
        f"{cov.v_difference}"
    )
