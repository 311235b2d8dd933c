"""Lifting a certified pair into the special linear group.

The permutations act as matrices on F_p^n; replacing the involution by a
rank-2 modification anchored at two free stock handles keeps all the
(2,3,7) relations and pushes the group into SL_n(p).  The Beauville
comparison survives as a fixed-subspace dimension count: each dimension
is computed from its own matrix, it comes out as a cycle count of the map,
and the pair was built so that those differ position-wise.
"""

from beauville.construct import build_pair, minimal_plan
from beauville.linlift import fixed_space_dim, lift_pair

for p, t1 in ((2, 1), (3, 2), (5, 2)):
    rep = lift_pair(minimal_plan(0), p, t1)
    print(f"residue class 0 over F_{p}: degree {rep.n} "
          f"(stock enlarged by {rep.extra_g_copies} copies)")
    print(f"  relations x^2 = y^3 = (xy)^7 = 1 and det = 1: verified")
    print(f"  fixed-subspace dimensions (x, y, z): {rep.dims.dims1} vs {rep.dims.dims2}")
    print(f"  position-wise distinct: {rep.dims.passed}")
    print()

rep = lift_pair(minimal_plan(0), 5, 2)
tri = rep.triple1
w1 = build_pair(rep.plan).w1
print("structured arithmetic check for one member over F_5:")
print("  dim fix(y) =", fixed_space_dim(tri.y),
      "= cycle count of y =", len(w1.y.cycles(include_fixed=True)))
print("  dim fix(x) =", fixed_space_dim(tri.x),
      "= cycle count of the involution minus 2 =",
      len(w1.x.cycles(include_fixed=True)) - 2)
print("  dim fix(z) =", fixed_space_dim(tri.z),
      "= cycle count of the permutation x y =",
      len((w1.x * w1.y).cycles(include_fixed=True)))
