"""Matrices with entries in a quotient ring (lists of rows of normal forms;
only products and scaling by ring elements reduce, see `rings`)."""

from __future__ import annotations

from itertools import combinations

from .poly import Polynomial
from .rings import RingError


def zero_matrix(ring, nrows, ncols):
    z = ring.zero()
    return [[z for _ in range(ncols)] for _ in range(nrows)]


def identity_matrix(ring, n):
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


def mat_shape(a):
    return (len(a), len(a[0]) if a else 0)


def mat_add(ring, a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(ring, a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(ring, c, a):
    """c * a for a ring element c (reduced) or a rational c (not reduced)."""
    if isinstance(c, Polynomial):
        return [[ring.nf(c * x) for x in row] for row in a]
    return [[x * c for x in row] for row in a]


def mat_mul(ring, a, b):
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise RingError(f"matrix shapes {n}x{k} and {k2}x{m} do not compose")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ring.zero()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(ring.nf(acc))
        out.append(row)
    return out


def mat_vec(ring, a, v):
    return tuple(ring.nf(sum((row[j] * v[j] for j in range(len(v))), ring.zero()))
                 for row in a)


def mat_derive(ring, h_values, a):
    """The derivation with h(x_i) = h_values[i] applied to every entry of a."""
    return [[ring.apply_derivation(h_values, x) for x in row] for row in a]


def mat_col(a, j):
    return tuple(row[j] for row in a)


def mat_from_columns(ring, columns, nrows=None):
    if not columns:
        return [[] for _ in range(nrows or 0)]
    nrows = len(columns[0])
    return [[columns[j][i] for j in range(len(columns))] for i in range(nrows)]


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_trace(ring, a):
    n, m = mat_shape(a)
    if n != m:
        raise RingError("trace of a non-square matrix")
    acc = ring.zero()
    for i in range(n):
        acc = acc + a[i][i]
    return acc


def det(ring, a):
    """Determinant by cofactor expansion, reduced in the ring."""
    n, m = mat_shape(a)
    if n != m:
        raise RingError("determinant of a non-square matrix")
    if n == 0:
        return ring.one()

    def rec(rows, cols):
        if len(rows) == 1:
            return a[rows[0]][cols[0]]
        acc = ring.zero()
        r0 = rows[0]
        for t, c in enumerate(cols):
            entry = a[r0][c]
            if entry.is_zero():
                continue
            sub = rec(rows[1:], cols[:t] + cols[t + 1:])
            term = entry * sub
            acc = acc + (term if t % 2 == 0 else -term)
        return ring.nf(acc)

    return rec(tuple(range(n)), tuple(range(n)))


def exterior_matrix(ring, a, size):
    """Matrix of the induced map on exterior powers.

    Bases of both sides are the lexicographically ordered size-subsets of the
    standard bases; the entry at (I, J) is the I x J minor.  size exceeding
    either dimension yields an empty (0 x 0 or degenerate) matrix.
    """
    n, m = mat_shape(a)
    row_sets = list(combinations(range(n), size))
    col_sets = list(combinations(range(m), size))
    out = []
    for rows in row_sets:
        row = []
        for cols in col_sets:
            sub = [[a[i][j] for j in cols] for i in rows]
            row.append(det(ring, sub))
        out.append(row)
    return out


def mat_inverse(ring, a):
    """Inverse of a square matrix over the ring, or None.

    The columns of the inverse solve a*x = e_i for every unit vector e_i at
    once, through the exact linear solver; works precisely when det is a unit.
    """
    from .groebner import solve_many
    n, m = mat_shape(a)
    if n != m:
        raise RingError("inverse of a non-square matrix")
    if n == 0:
        return []
    cols = [mat_col(a, j) for j in range(n)]
    units = [tuple(row) for row in identity_matrix(ring, n)]
    sols = solve_many(ring.ambient, cols, units, ideal_gens=ring.gb, caps=ring.caps)
    if None in sols:
        return None
    return mat_from_columns(ring, [tuple(ring.nf(p) for p in sol) for sol in sols], n)
