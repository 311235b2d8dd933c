"""Reference count for the Frobenius formula: every sum reduced modulo
Phi_m for m the table's whole conductor, as `frobenius_count` did before
it reduced each triple in its own columns' field.  The tests compare the
package's counts and refusals with this one."""

from fractions import Fraction

from beauville.frobenius import TableError, _format, _reduce


def full_conductor_count(table, x_name, y_name, z_name):
    """n(X, Y, Z) with the character sum reduced at the table's conductor."""
    cx, cy, cz = (table.class_named(nm) for nm in (x_name, y_name, z_name))
    ix, iy, iz = (table.index[c.name] for c in (cx, cy, cz))
    m = table.conductor
    terms = (
        (ex + ey + ez, w * ax * ay * az)
        for row, w in zip(table.characters, table.weights)
        for ex, ax in row[ix] for ey, ay in row[iy] for ez, az in row[iz]
    )
    rem = _reduce(terms, m)
    triple = f"({x_name}, {y_name}, {z_name})"
    if any(rem[1:]):
        raise TableError(f"the character sum for {triple} is {_format(rem, m)}, not rational")
    count = Fraction(cx.size * cy.size * cz.size * rem[0], table.order * table.degree_lcm)
    if count.denominator != 1:
        raise TableError(f"non-integral count {count} for {triple}")
    return int(count)
