"""Dense reference versions of rockland.liealg's exact computations.

The Jacobi check and the nilpotency step bracket dense Fraction unit vectors
through StructureConstants.bracket, touching every entry of the table;
rockland.liealg computes the same things from the sparse entry map.
`_solve_in_basis` and `_invert_rational_matrix` are dense Gauss-Jordan
eliminations; rockland.liealg._RationalSpan answers the same coordinates and
inverses from one incremental span.  The tests compare the two.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from rockland.liealg import StructureConstants, _RationalSpan

Key = Tuple[int, Tuple[int, ...]]  # (coordinate index, monomial)


def _units(N):
    return [[Fraction(int(i == k)) for i in range(N)] for k in range(N)]


def check_jacobi_dense(sc: StructureConstants) -> None:
    """Raise ValueError("Jacobi identity fails; ...") like _check_jacobi."""
    N = sc.N
    e = _units(N)
    for a in range(N):
        for b in range(a + 1, N):
            for c in range(b + 1, N):
                total = [
                    x + y + z for x, y, z in zip(
                        sc.bracket(e[a], sc.bracket(e[b], e[c])),
                        sc.bracket(e[b], sc.bracket(e[c], e[a])),
                        sc.bracket(e[c], sc.bracket(e[a], e[b])))
                ]
                if any(v != 0 for v in total):
                    raise ValueError("Jacobi identity fails; structure "
                                     "constants corrupt")


def nilpotency_step_dense(sc: StructureConstants, degrees) -> int:
    """Length of the lower central series, by dense brackets."""
    unit = _units(sc.N)
    current = list(unit)
    step = 1
    while True:
        span = _RationalSpan()
        nxt = []
        for e in unit:
            for v in current:
                w = sc.bracket(e, v)
                vec = {(i, ()): c for i, c in enumerate(w) if c != 0}
                if vec and span.insert(vec):
                    nxt.append(w)
        if not nxt:
            break
        current = nxt
        step += 1
    if degrees and step > max(degrees):
        raise AssertionError("nilpotency step exceeds the top homogeneity "
                             "degree")
    return step


def _solve_in_basis(basis_vecs: List[Dict[Key, Fraction]],
                    target: Dict[Key, Fraction]) -> Optional[List[Fraction]]:
    """Exact coordinates of target in the span of basis_vecs, or None."""
    n = len(basis_vecs)
    keys = sorted(set().union(*basis_vecs, target) if basis_vecs or target else set())
    # rows: coefficients of the unknowns plus the right-hand side
    rows = [[vec.get(k, Fraction(0)) for vec in basis_vecs] + [target.get(k, Fraction(0))]
            for k in keys]
    pivot_col_of_row: List[int] = []
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_col_of_row.append(col)
        r += 1
    # consistency: no nonzero right-hand side below the pivot rows
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivot_col_of_row):
        sol[col] = rows[i][n]
    return sol


def _invert_rational_matrix(A: List[List[Fraction]]) -> Optional[List[List[Fraction]]]:
    N = len(A)
    work = [list(row) + [Fraction(int(i == j)) for j in range(N)] for i, row in enumerate(A)]
    for col in range(N):
        sel = next((r for r in range(col, N) if work[r][col] != 0), None)
        if sel is None:
            return None
        work[col], work[sel] = work[sel], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(N):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[N:] for row in work]
