"""Dense reference versions of the Jacobi check and the nilpotency step.

Both bracket dense Fraction unit vectors through StructureConstants.bracket,
touching every entry of the table; rockland.liealg computes the same things
from the sparse entry map.  The tests compare the two.
"""

from fractions import Fraction

from rockland.liealg import StructureConstants, _RationalSpan


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
