"""Exact linear algebra over the rationals: rref, rank, kernels, solving.

Matrices are lists of rows of Fractions.  Used by the finite-dimensional
cohomology computations and by the Artin-algebra bookkeeping.  A system
with several right-hand sides is row reduced once (`solve_many`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


def _clone(rows):
    return [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = _clone(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows):
    """Basis of {x : rows * x = 0} (x indexed by columns)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_many(rows, rhss) -> list:
    """One solution of rows * x = b, or None if inconsistent, per b in rhss.

    One rref of rows augmented by every right-hand side.  The pivots of rows
    come first; the reduced rows after them vanish on rows, so b is
    consistent exactly when its column vanishes on them too, and then its
    column on the pivot rows is a solution.
    """
    if not rows or not rhss:
        return [None if any(b != 0 for b in rhs) else [] for rhs in rhss]
    ncols = len(rows[0])
    aug = [list(r) + [rhs[i] for rhs in rhss] for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    r = sum(pc < ncols for pc in pivots)
    out = []
    for c in range(ncols, ncols + len(rhss)):
        if any(row[c] != 0 for row in red[r:]):
            out.append(None)
            continue
        x = [Fraction(0)] * ncols
        for row, pc in zip(red, pivots[:r]):
            x[pc] = row[c]
        out.append(x)
    return out


def solve(rows, rhs) -> Optional[list]:
    """One solution of rows * x = rhs, or None if inconsistent."""
    return solve_many(rows, [rhs])[0]


def mat_mul(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
