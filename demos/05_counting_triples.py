"""Counting generating triples with character tables.

The number of solutions of xyz = 1 with each factor in a prescribed
conjugacy class is a structure constant of the class algebra, computable
from the character table alone.  The bundled tables cover four small
groups plus the order-1092 monodromy group of the degree-14 basic map;
an element-enumeration oracle cross-checks every count.
"""

from beauville.atlas import basic_map
from beauville.frobenius import (
    BUNDLED_TABLES,
    brute_count,
    bundled_table,
    class_sum_coefficient,
    frobenius_count,
)
from beauville.perm import parse_cycles

t = bundled_table("s3")
print("S3: ordered pairs of transpositions multiplying to a 3-cycle:")
print("  from the table:", frobenius_count(t, "2A", "2A", "3A"))
print("  by enumeration:", brute_count(
    [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)],
    parse_cycles("(0 1)", 3), parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3),
))

print()
t13 = bundled_table("l2_13")
a = basic_map("A")
reps = t13.representatives(degree=14)
print("order-1092 group: (2,3,7) structure constants per 7-class:")
for z in ("7A", "7B", "7C"):
    table_count = frobenius_count(t13, "2A", "3A", z)
    brute = brute_count([a.x, a.y], reps["2A"], reps["3A"], reps[z], cap=2000)
    print(f"  n(2A, 3A, {z}) = {table_count}   enumeration agrees: {table_count == brute}")

print()
print("class-sum coefficient example, coefficient of 3A in 2A*2A for S3:")
print("  ", class_sum_coefficient(t, "2A", "2A", "3A"))

print()
print("bundled tables:", ", ".join(BUNDLED_TABLES))
