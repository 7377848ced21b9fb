"""The segment-by-segment flow of a piecewise-constant control path.

This is how rockland computed the flow before `MetricSpace._flow_batch` went
over weight levels, kept as an independent reference for the tests.  The
time-1 flow of Sum_j a_j X_j and its exact Jacobians in (x, a) are compiled
into one evaluator; a path is flowed one segment at a time, and the control
Jacobian chains the segments' Jacobians backwards.
"""

from typing import List, Sequence, Tuple

import numpy as np

from rockland.fields import PolyVectorField
from rockland.lifting import FLOW_ITERATION_CAP, flow_map
from rockland.poly import CompiledPolys, Poly, embed, poly_diff


def flow_maps(fields: Sequence[PolyVectorField]) -> List[Poly]:
    """The time-1 flow of Sum_j a_j X_j, exactly, one polynomial per
    coordinate in the n + m variables (x, a)."""
    n, m = fields[0].nvars, len(fields)
    nv = n + m
    V = PolyVectorField.zero(nv)
    for j, X in enumerate(fields):
        coeffs = tuple(embed(c, nv) * Poly.var(nv, n + j) for c in X.coeffs)
        V = V.add(PolyVectorField(nv, coeffs + (Poly.zero(nv),) * m))
    return flow_map(V, range(n), FLOW_ITERATION_CAP)


class SegmentChainFlow:
    """Endpoints and control Jacobians of paths, segment by segment."""

    def __init__(self, fields: Sequence[PolyVectorField]) -> None:
        self.n, self.m = fields[0].nvars, len(fields)
        n, m = self.n, self.m
        maps = flow_maps(fields)
        self._flow = CompiledPolys(
            maps + [poly_diff(p, k) for p in maps for k in range(n)]
            + [poly_diff(p, n + j) for p in maps for j in range(m)])

    def __call__(self, x: np.ndarray, controls: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoints (B, n) and d(endpoint)/d(controls) (B, n, S*m) for the
        time-1 controls (B, S, m) of each segment, from x."""
        n, m = self.n, self.m
        B, S = controls.shape[:2]
        pts = np.empty((n + m, B))
        pts[:n] = np.asarray(x)[:, None]
        jx, ja = [], []
        for s in range(S):
            pts[n:] = controls[:, s].T
            out = self._flow(pts)
            pts[:n] = out[:n]
            jx.append(out[n:n + n * n].T.reshape(B, n, n))
            ja.append(out[n + n * n:].T.reshape(B, n, m))
        J = np.empty((B, n, S, m))
        J[:, :, -1] = ja[-1]
        chain = jx[-1]
        for s in reversed(range(S - 1)):
            J[:, :, s] = chain @ ja[s]
            chain = chain @ jx[s]
        return pts[:n].T, J.reshape(B, n, S * m)
