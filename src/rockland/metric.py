"""Weighted control distance, metric ball volumes and estimate harnesses.

Paths are piecewise-constant controls.  Over one segment, coordinate i moves
by an increment that is a polynomial in the controls and in the coordinates
of strictly lower weight: the coefficient c_ij of X_j has weight
sigma_i - nu_j < sigma_i, and the Lie series terminates.  So the flow along a
path is computed one weight level at a time over all segments, and the inner
feasibility minimization has exact gradients.  All randomness is seeded and
the seed travels with every result record.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .fields import DilationFamily, PolyVectorField, certify_homogeneity
from .lifting import FLOW_ITERATION_CAP, exp_flow, flow_map
from .poly import CompiledPolys, Poly, embed, poly_diff


def __getattr__(name: str):
    """``optimize``: scipy.optimize, imported on first access.  Nothing here
    uses it; perfbench/layers.py's tracer reads it.  ROADMAP item 1 moves the
    tracer onto the program's own spans and deletes this."""
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _checked_tol(tol: float, name: str = "tol") -> float:
    """tol itself; a bisection to a tolerance that is not positive and finite
    either never ends or never starts."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")
    return tol


def _checked_point(name: str, p: Sequence[float], n: int) -> None:
    """A point must have n finite coordinates; the feasibility search and
    the excursion box neither reject nor survive anything else."""
    if len(p) != n or not all(math.isfinite(float(v)) for v in p):
        raise ValueError(f"{name} must be {n} finite coordinates, "
                         f"got {list(p)}")


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant controls: (duration, controls) per segment."""

    segments: Tuple[Tuple[float, Tuple[float, ...]], ...]
    delta: float

    def __post_init__(self) -> None:
        total = sum(d for d, _ in self.segments)
        if self.segments and abs(total - 1.0) > 1e-9:
            raise ValueError("segment durations must sum to 1")

    def check_bounds(self, degrees: Sequence[int], slack: float = 1e-9) -> bool:
        return all(abs(a) <= self.delta ** nu + slack
                   for _, ctr in self.segments
                   for a, nu in zip(ctr, degrees))


@dataclass(frozen=True)
class DistanceResult:
    upper: float
    lower: float   # largest scale whose certified excursion box excludes y
    path: Optional[ControlPath]
    seed: int

    @property
    def value(self) -> float:
        return self.upper


@dataclass(frozen=True)
class VolumeResult:
    estimate: float
    confidence_interval: Tuple[float, float]
    samples: int
    seed: int
    box_volume: float
    hits: int


@dataclass(frozen=True)
class DistanceConfig:
    segment_schedule: Tuple[int, ...] = (4, 8, 16)
    starts: int = 16
    tol: float = 1e-3
    reach_tol: float = 1e-9
    max_doublings: int = 60
    maxiter: int = 200

    def __post_init__(self) -> None:
        schedule = self.segment_schedule
        if not (isinstance(schedule, tuple) and schedule
                and all(isinstance(s, int) and s >= 1 for s in schedule)):
            raise ValueError("segment_schedule must be a non-empty tuple of "
                             f"positive ints, got {schedule!r}")
        for name, least in (("starts", 1), ("max_doublings", 1),
                            ("maxiter", 0)):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= least):
                raise ValueError(f"{name} must be an int >= {least}, "
                                 f"got {value!r}")
        for name in ("tol", "reach_tol"):
            _checked_tol(getattr(self, name), name)


class FeasibleBatch(NamedTuple):
    """Per-target outcome of one batched feasibility solve.

    ``hits`` comes first: perfbench/layers.py counts bool(result[0]) as a
    successful solve.  ``controls`` holds a path of ``segments`` segments in
    its first segments * m entries, padded with zeros to the longest count.
    """

    hits: int                 # targets reached
    ok: np.ndarray            # (T,) target reached within reach
    controls: np.ndarray      # (T, S*m) the member that reached, else the best
    segments: np.ndarray      # (T,) that member's segment count


# projected Levenberg-Marquardt in `feasible`: damping relative to the mean
# diagonal of J J^T, divided after an accepted step and multiplied after a
# rejected one; a member gives up once the damping passes the cap or its
# squared residual has not fallen below _STALL_FACTOR times its value
# _STALL_WINDOW iterations earlier
_DAMPING_START = 1e-3
_DAMPING_DOWN = 3.0
_DAMPING_UP = 4.0
_DAMPING_CAP = 1e10
_STALL_WINDOW = 5
_STALL_FACTOR = 0.9
_ACTIVE_SET_PASSES = 8

# `_flow_batch` takes the members in blocks whose largest array holds at
# most this many floats (512 KiB).  Larger blocks fall out of cache: on a
# 2-core Xeon with 2 MiB of L2 per core, 3,200 members at 4 segments took up
# to 1.8x as long in blocks of 2^17 floats or in one block
_FLOW_BLOCK_FLOATS = 1 << 16


@functools.lru_cache(maxsize=32)
def _segment_sums(S: int) -> Tuple[np.ndarray, np.ndarray]:
    """The prefix-sum matrix over S segments, [s, u] = 1 for u < s, and its
    transpose, [s, u] = 1 for u > s; shared, so read-only."""
    sums = np.tri(S, S, -1)
    sums.flags.writeable = False
    return sums, sums.T


def endpoint(x: Sequence, path: ControlPath,
             fields: Sequence[PolyVectorField]) -> list:
    """Exact endpoint: per segment, flow of sum_i a_i X_i for the duration.

    Every float is a dyadic rational, so the flow itself is exact; the result
    comes back as floats unless all inputs were exact rationals or integers.
    """
    exact = all(not isinstance(v, float) for v in x) and \
        all(not isinstance(v, float)
            for d, ctr in path.segments for v in (d, *ctr))
    cur = list(x)
    for duration, controls in path.segments:
        V = PolyVectorField.zero(fields[0].nvars)
        for a, X in zip(controls, fields):
            V = V.add(X.scale(Fraction(a)))
        cur = exp_flow(V, cur, Fraction(duration))
    return cur if exact else [float(v) for v in cur]


def _restrict(p: Poly, keep: Sequence[int], what: str) -> Poly:
    """p as a polynomial in the variables ``keep``, in that order; a term in
    any other variable is an error, described by ``what``."""
    terms = {}
    for mono, c in p.terms.items():
        if sum(mono[k] for k in keep) != sum(mono):
            raise ValueError(what)
        terms[tuple(mono[k] for k in keep)] = c
    return Poly._of(len(keep), terms)


def _series_mul(a: List[float], b: List[float]) -> List[float]:
    """Product of two polynomials in t given by coefficient lists."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


class MetricSpace:
    """Control metric of a certified homogeneous system."""

    def __init__(self, fields: Sequence[PolyVectorField],
                 delta: DilationFamily,
                 config: Optional[DistanceConfig] = None) -> None:
        self.fields = tuple(fields)
        self.delta = delta
        self.config = config or DistanceConfig()
        self.n = fields[0].nvars
        self.m = len(fields)
        self.degrees = tuple(
            certify_homogeneity(X, delta, triangular=False)
            or X.declared_degree for X in fields)
        if any(d is None for d in self.degrees):
            raise ValueError("every field must certify a homogeneity degree")
        # box_bounds' terms: per coordinate in increasing weight order, per
        # field, the coefficient's monomials as (|c|, coordinates repeated
        # by their exponents)
        self._box_terms = [
            (i, [(j, [(abs(float(c)), [k for k, e in enumerate(mono)
                                       for _ in range(e)])
                      for mono, c in X.coeffs[i].terms.items()])
                 for j, X in enumerate(self.fields)
                 if not X.coeffs[i].is_zero()])
            for i in sorted(range(self.n), key=lambda k: delta.sigma[k])]
        self._compile_flow()

    # -- compiled time-1 flow, one weight level at a time --------------------

    def _compile_flow(self) -> None:
        """Per weight level, one evaluator for the time-1 flow's increments.

        The time-1 flow of Sum_j a_j X_j moves coordinate i by an increment
        g_i(a, x) = flow_i(a, x) - x_i.  The coefficient c_ij of X_j has
        weight sigma_i - nu_j < sigma_i (every nu_j >= 1), so g_i reads only
        the controls and the coordinates of strictly lower weight.  The
        permutation ``_perm`` groups the coordinates by weight.  A level is
        (lo, hi, polys): its coordinates are _perm[lo:hi], and at points
        (a, x[_perm[:lo]]) given as the columns of an array (m + lo, M),
        polys returns (k + k * (m + lo), M) for its k = hi - lo coordinates:
        the increments, then each increment's derivatives with respect to
        those m + lo variables, row by row.
        """
        n, m = self.n, self.m
        nv = n + m
        V = PolyVectorField.zero(nv)
        for j, X in enumerate(self.fields):
            a_j = Poly.var(nv, n + j)
            coeffs = tuple(embed(c, nv) * a_j for c in X.coeffs) \
                + (Poly.zero(nv),) * m
            V = V.add(PolyVectorField(nv, coeffs))
        maps = flow_map(V, range(n), FLOW_ITERATION_CAP)
        sigma = self.delta.sigma
        perm = sorted(range(n), key=lambda i: sigma[i])
        # a slice where the coordinates are in weight order already, which
        # spares _flow_batch two gathers
        self._perm = slice(None) if perm == list(range(n)) else np.array(perm)
        self._levels = []
        # floats per (member, segment) in the largest array of the sweep:
        # the accumulated products (n, m + n), or a level's tables of
        # powers, monomials and outputs
        self._column_floats = n * nv
        lo = 0
        for w in sorted(set(sigma)):
            hi = lo + sigma.count(w)
            inputs = list(range(n, nv)) + perm[:lo]
            incs = [_restrict(maps[i] - Poly.var(nv, i), inputs,
                              f"the flow's increment of x{i + 1} reads a "
                              f"coordinate of weight {w} or more")
                    for i in perm[lo:hi]]
            polys = CompiledPolys(incs + [poly_diff(g, k) for g in incs
                                          for k in range(len(inputs))])
            self._levels.append((lo, hi, polys))
            degree = max([0] + [max(mono) for g in incs for mono in g.terms])
            self._column_floats = max(self._column_floats,
                                      (degree + 1) * len(inputs),
                                      *polys.coeffs.shape)
            lo = hi

    def _flow_batch(self, x: np.ndarray, controls: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoints (B, n) and d(endpoint)/d(controls) (B, n, S*m).

        ``controls`` is (B, S, m), the time-1 controls of each segment.  In
        increasing weight, each level's increments are evaluated once at
        all (member, segment) points, when the lower levels' coordinates
        along the path are known, and prefix sums over the segments give
        the level's own.  The control Jacobian is one adjoint sweep from
        the top level down.  Members go in blocks that keep every array of
        the sweep under _FLOW_BLOCK_FLOATS floats.
        """
        B, S = controls.shape[:2]
        xp = x[self._perm]
        sums, later = _segment_sums(S)
        step = max(1, _FLOW_BLOCK_FLOATS // (self._column_floats * S))
        end = np.empty((B, self.n))
        J = np.empty((B, self.n, S * self.m))
        for lo in range(0, B, step):
            self._flow_block(xp, controls[lo:lo + step], sums, later,
                             end[lo:lo + step], J[lo:lo + step])
        return end, J

    def _flow_block(self, xp: np.ndarray, controls: np.ndarray,
                    sums: np.ndarray, later: np.ndarray, end: np.ndarray,
                    J: np.ndarray) -> None:
        """_flow_batch for one block of members, written to end and J."""
        n, m = self.n, self.m
        B, S = controls.shape[:2]
        # the controls, then the permuted coordinates at each segment's start
        pts = np.empty((m + n, S, B))
        pts[:m] = controls.transpose(2, 1, 0)
        last, grads = [], []   # per level: the last segment's increments
        for lo, hi, polys in self._levels:
            k = hi - lo
            out = polys(pts[:m + lo].reshape(m + lo, S * B)).reshape(-1, S, B)
            np.matmul(sums, out[:k], out=pts[m + lo:m + hi])
            pts[m + lo:m + hi] += xp[lo:hi, None, None]
            last.append(out[:k, -1])
            grads.append(out[k:].reshape(k, m + lo, S, B))
        end[:, self._perm] = (pts[m:, -1] + np.concatenate(last)).T
        # The adjoint d(endpoint_i)/d(coordinate c after segment s), both
        # permuted, is the identity plus the sum over later segments u of
        # acc[i, m + c, u] = Sum_p adj[i, p, u] dg_p/dx_c(u), over the
        # coordinates p of higher levels: the identity itself on the top
        # level.  acc[i, j, s] = Sum_p adj[i, p, s] dg_p/da_j(s), over all
        # p, is d(endpoint_i)/d(a_j at segment s).  Rows i below the level
        # of c vanish.
        acc = np.zeros((n, m + n, S, B))
        lo = self._levels[-1][0]
        acc[lo:, :m + lo] = grads[-1]
        for (lo, hi, _), grad in zip(reversed(self._levels[:-1]),
                                     reversed(grads[:-1])):
            adj = later @ acc[lo:, m + lo:m + hi]
            for r in range(hi - lo):
                adj[r, r] += 1.0
                acc[lo:, :m + lo] += adj[:, r, None] * grad[r]
        J.reshape(B, n, S, m)[:, self._perm] = \
            acc[:, :m].transpose(3, 0, 2, 1)

    # -- feasibility and distance ----------------------------------------------

    def feasible(self, x: Sequence[float], ys, scale: float,
                 segments: Union[int, Sequence[int]], rng: random.Random,
                 reach: float, starts: Optional[int] = None) -> FeasibleBatch:
        """Search for paths of the given scale from x to each target.

        ``ys`` is one target (n,) or T targets (T, n), and ``segments`` one
        segment count or several.  Every target gets the same members: per
        segment count, ``starts`` starts, start 0 all zeros and the others
        drawn from ``rng``.  A path of fewer segments than the longest is
        padded with segments whose control bound is 0, so its padded
        controls and their Jacobian columns are exactly zero.  All members
        run one projected Levenberg-Marquardt loop in the unit box
        u = controls / bound: the minimum-norm step
        -J^T (J J^T + lambda I)^{-1} r, with controls that sit at their
        bound and would step outwards frozen, then clipped to the box.  A
        target is won, and all its members stop, as soon as one of them
        reaches it.
        """
        cfg = self.config
        n, m = self.n, self.m
        counts = (segments,) if isinstance(segments, int) else tuple(segments)
        S, C, K = max(counts), len(counts), starts or cfg.starts
        G = C * K   # members per target: start k of count c is c * K + k
        xv = np.asarray(x, float)
        ys = np.asarray(ys, float).reshape(-1, n)
        T = len(ys)
        bounds = np.zeros((C, S, m))
        for c, s in enumerate(counts):
            bounds[c, :s] = [scale ** nu / s for nu in self.degrees]
        bounds = bounds.reshape(C, S * m)
        u = np.zeros((T, C, K, S * m))
        if K > 1:
            gen = np.random.default_rng(rng.getrandbits(64))
            for c, s in enumerate(counts):
                u[:, c, 1:, :s * m] = gen.uniform(-1.0, 1.0, (T, K - 1, s * m))
        u = u.reshape(T * G, S * m)
        hi = np.tile(np.repeat(bounds, K, axis=0), (T, 1))
        target = np.repeat(ys, G, axis=0)

        def residual(u, hi, target):
            p, J = self._flow_batch(xv, (u * hi).reshape(-1, S, m))
            r = p - target
            return r, np.einsum("bi,bi->b", r, r), J * hi[:, None, :]

        # member state, of the running members only; `live` holds their
        # global indices, t * G + c * K + k
        live = np.arange(T * G)
        r, f, J = residual(u, hi, target)
        lam = np.full(len(live), _DAMPING_START)
        # f of the last _STALL_WINDOW + 1 iterations, iteration i in row
        # i % rows
        rows = _STALL_WINDOW + 1
        history = np.empty((rows, len(live)))
        eye = np.eye(n)
        final_u = np.empty_like(u)
        final_f = np.empty(T * G)
        won = np.full(T, G)   # per target, the member that reached it
        for it in range(cfg.maxiter + 1):
            history[it % rows] = f
            done = f <= reach * reach
            if done.any():
                # the lowest-numbered member to reach a target wins it, and
                # all its members stop
                owner, member = np.divmod(live, G)
                np.minimum.at(won, owner[done], member[done])
                done |= won[owner] < G
            done |= lam > _DAMPING_CAP
            if it >= _STALL_WINDOW:
                done |= f > _STALL_FACTOR * history[(it + 1) % rows]
            if it == cfg.maxiter:
                done[:] = True
            if done.any():
                final_u[live[done]] = u[done]
                final_f[live[done]] = f[done]
                keep = ~done
                if not keep.any():
                    break
                live, u, hi, r, f, J, lam, target = (
                    a[keep] for a in (live, u, hi, r, f, J, lam, target))
                history = history[:, keep]
            # the floor keeps the n x n solve regular where J vanishes
            damping = lam * np.maximum(np.einsum("bij,bij->b", J, J) / n,
                                       1e-200)
            ridge = damping[:, None, None] * eye
            rhs = -r[..., None]
            # the controls at their bound, zero elsewhere: a control steps
            # outwards where its step has the same sign.  A frozen control's
            # column of Jf is zero, so its step is zero from then on.
            bound = u * (np.abs(u) >= 1.0)
            Jf = J
            for _ in range(_ACTIVE_SET_PASSES):
                A = Jf @ Jf.transpose(0, 2, 1) + ridge
                w = np.linalg.solve(A, rhs)
                step = (Jf.transpose(0, 2, 1) @ w)[..., 0]
                outward = bound * step > 0
                if not outward.any():
                    break
                Jf = Jf * ~outward[:, None, :]
            trial = np.clip(u + step, -1.0, 1.0)
            r_t, f_t, J_t = residual(trial, hi, target)
            better = f_t < f
            u = np.where(better[:, None], trial, u)
            r = np.where(better[:, None], r_t, r)
            J = np.where(better[:, None, None], J_t, J)
            f = np.where(better, f_t, f)
            lam = np.where(better, lam / _DAMPING_DOWN, lam * _DAMPING_UP)
        ok = won < G
        pick = np.where(ok, won, np.argmin(final_f.reshape(T, G), axis=1))
        count = pick // K
        return FeasibleBatch(int(ok.sum()), ok,
                             final_u[np.arange(T) * G + pick] * bounds[count],
                             np.array(counts)[count])

    def _reach_tol(self, x: Sequence[float], y: Sequence[float]) -> float:
        span = max(abs(float(a) - float(b)) for a, b in zip(x, y))
        return self.config.reach_tol * (1.0 + span)

    def distance(self, x: Sequence[float], y: Sequence[float],
                 tol: Optional[float] = None, seed: int = 2024
                 ) -> DistanceResult:
        """Bisection on the scale; feasibility by the batched multi-start solve.

        Each probed scale is one call of ``feasible`` in which every segment
        count of the schedule runs at once, ``starts`` starts each, and the
        scale counts as feasible as soon as any of them reaches y.
        ``lower`` is the ball-box certificate of ``box_lower``; the search
        doubles from a first guess until a scale is feasible, then bisects
        between it and the larger of ``lower`` and the last failed scale.

        ``tol`` bounds the bisection's width: it stops once
        hi - lo <= tol * hi.  It does not bound the error in d: a miss is
        not a proof that no path exists, so ``upper`` can sit above d by
        more than tol * d (on Grushin pairs in [-1, 1]^2 at tol 1e-3, by up
        to 1.9e-2 against the closed form).
        """
        cfg = self.config
        tol = _checked_tol(tol if tol is not None else cfg.tol)
        _checked_point("x", x, self.n)
        _checked_point("y", y, self.n)
        if all(float(a) == float(b) for a, b in zip(x, y)):
            return DistanceResult(0.0, 0.0, ControlPath((), 0.0), seed)
        rng = random.Random(seed)
        reach = self._reach_tol(x, y)
        sigma = self.delta.sigma
        guess = sum(abs(float(a) - float(b)) ** (1.0 / s)
                    for a, b, s in zip(x, y, sigma)) or 1e-6

        def feas(scale: float) -> FeasibleBatch:
            return self.feasible(x, y, scale, cfg.segment_schedule, rng, reach)

        lo, hi, path = 0.0, None, None
        scale = guess
        for _ in range(cfg.max_doublings):
            res = feas(scale)
            if res.hits:
                hi, path = scale, res
                break
            lo, scale = scale, 2.0 * scale
        if hi is None:
            raise RuntimeError("feasibility search stagnated; no path found "
                               f"up to scale {scale / 2.0}")
        lower = self.box_lower(x, y, hi, tol)
        lo = max(lo, lower)
        while hi - lo > tol * hi:
            mid = 0.5 * (hi + lo)
            res = feas(mid)
            if res.hits:
                hi, path = mid, res
            else:
                lo = mid
        S, ctr, m = int(path.segments[0]), path.controls[0], self.m
        segs = tuple((1.0 / S, tuple(float(v) * S for v in ctr[s * m:(s + 1) * m]))
                     for s in range(S))
        return DistanceResult(hi, lower, ControlPath(segs, hi), seed)

    # -- certified anisotropic bounding box -------------------------------------

    def box_bounds(self, x: Sequence[float], r: float) -> List[float]:
        """Coordinate excursion bounds for any path of scale <= r from x.

        Along such a path, |x_i(t) - x_i| <= B_i(t) with
        B_i(t) = int_0^t Sum_j r^nu_j |c_ij|(|x| + B(s)) ds, where c_ij is
        the coefficient of X_j in coordinate i and |c|(v) bounds |c| on the
        box |x_k| <= v_k by the triangle inequality.  c_ij has weight
        sigma_i - nu_j < sigma_i, so it involves only lower-weight
        coordinates: in increasing weight order each B_i is a polynomial in
        t with nonnegative coefficients, and the bound is B_i(1).
        """
        env: List[List[float]] = [[]] * self.n   # |x_k| + B_k(t) in powers of t
        B = [0.0] * self.n
        for i, fields in self._box_terms:
            acc = [0.0]
            for j, terms in fields:
                weight = r ** self.degrees[j]
                for coeff, factors in terms:
                    term = [weight * coeff]
                    for k in factors:
                        term = _series_mul(term, env[k])
                    if len(term) > len(acc):
                        acc, term = term, acc
                    for d, v in enumerate(term):
                        acc[d] += v
            # integrated from 0 to t, with float-rounding headroom
            bound = [0.0] + [1.000001 * a / (d + 1) for d, a in enumerate(acc)]
            B[i] = sum(bound)
            bound[0] = abs(float(x[i]))
            env[i] = bound
        return B

    def box_lower(self, x: Sequence[float], y: Sequence[float], r_max: float,
                  tol: float) -> float:
        """Largest r in (0, r_max], to tol * r_max, with y outside the box.

        Every path of scale <= r stays in box_bounds(x, r), so y outside it
        means d(x, y) > r: the ball-box principle (Nagel-Stein-Wainger, Acta
        Math. 155, 1985).  The box grows with r, so bisection applies.
        """
        _checked_tol(tol)

        def excluded(r: float) -> bool:
            return any(abs(float(a) - float(b)) > bound
                       for a, b, bound in zip(x, y, self.box_bounds(x, r)))

        if excluded(r_max):
            return r_max
        lo, hi = 0.0, r_max
        while hi - lo > tol * r_max:
            mid = 0.5 * (lo + hi)
            if excluded(mid):
                lo = mid
            else:
                hi = mid
        return lo

    # -- Monte Carlo ball volume -------------------------------------------------

    def ball_volume(self, x: Sequence[float], r: float,
                    n_samples: int = 400, seed: int = 7071,
                    membership_relax: float = 3.0) -> VolumeResult:
        """MC volume of the ball of radius r; membership biased to over-count.

        All samples are drawn first; their membership comes from one batched
        feasibility solve at scale r, with reach membership_relax * tol * r.
        That reach is the same in every coordinate, while the dilations
        stretch coordinate i by r**sigma_i, so the hit rate is not
        dilation-invariant when some sigma_i != 1: from the origin the
        estimate of |B(x, r)| / r**q drifts with r (three_var_step5, 400
        samples, seed 11: 0.163 at r = 1/8, 0.010 at r = 4).
        """
        _checked_point("x", x, self.n)
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"r must be positive and finite, got {r}")
        if n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {n_samples}")
        cfg = self.config
        rng = random.Random(seed)
        B = self.box_bounds(x, r)
        box_volume = math.prod(2.0 * b for b in B)
        reach = membership_relax * cfg.tol * r
        samples = [[float(xi) + rng.uniform(-b, b) for xi, b in zip(x, B)]
                   for _ in range(n_samples)]
        hits = self.feasible(x, samples, r, cfg.segment_schedule[0], rng,
                             reach).hits
        p = hits / n_samples
        est = box_volume * p
        half = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
        ci = (box_volume * max(p - half, 0.0), box_volume * (p + half))
        return VolumeResult(est, ci, n_samples, seed, box_volume, hits)

    def doubling_check(self, x: Sequence[float], radii: Sequence[float],
                       n_samples: int = 400, seed: int = 7071) -> List[dict]:
        """|B(x, 2r)| / |B(x, r)| with interval propagation, per radius."""
        out = []
        for k, r in enumerate(radii):
            v1 = self.ball_volume(x, r, n_samples, seed + 2 * k)
            v2 = self.ball_volume(x, 2.0 * r, n_samples, seed + 2 * k + 1)
            ratio = v2.estimate / v1.estimate
            lo = v2.confidence_interval[0] / max(v1.confidence_interval[1], 1e-300)
            hi = v2.confidence_interval[1] / max(v1.confidence_interval[0], 1e-300)
            out.append({"radius": r, "ratio": ratio, "ratio_lo": lo,
                        "ratio_hi": hi, "seed": seed})
        return out

    def fractional_integral_check(self, x: Sequence[float], r: float,
                                  alpha: float, n_samples: int = 150,
                                  seed: int = 31415,
                                  vol_fn: Optional[Callable] = None,
                                  tol: float = 3e-3) -> float:
        """MC estimate of the alpha-fractional integral over the r-ball, / r^alpha.

        integral over {d(x,y) < r} of d(x,y)^alpha / |B(x, d(x,y))| dy,
        reported as a multiple of r^alpha.
        """
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if vol_fn is None:
            radii = [r * 2.0 ** k for k in range(-6, 1)]
            curve = [self.ball_volume(x, s, 200, seed + 13 + i)
                     for i, s in enumerate(radii)]
            vol_fn = volume_interpolator(radii, [v.estimate for v in curve])
        rng = random.Random(seed)
        B = self.box_bounds(x, r)
        box_volume = math.prod(2.0 * b for b in B)
        total = 0.0
        for _ in range(n_samples):
            u = [float(xi) + rng.uniform(-b, b) for xi, b in zip(x, B)]
            try:
                d = self.distance(x, u, tol=tol, seed=seed).upper
            except RuntimeError:
                continue
            if 0.0 < d < r:
                total += d ** alpha / vol_fn(d)
        return (box_volume * total / n_samples) / r ** alpha


def volume_interpolator(radii: Sequence[float],
                        volumes: Sequence[float]) -> Callable[[float], float]:
    """Log-log piecewise-linear |B(r)|, extrapolated with the edge slopes."""
    lr = np.log(np.asarray(radii, float))
    lv = np.log(np.asarray(volumes, float))

    def fn(r: float) -> float:
        t = math.log(r)
        if t <= lr[0]:
            slope = (lv[1] - lv[0]) / (lr[1] - lr[0])
            return math.exp(lv[0] + slope * (t - lr[0]))
        if t >= lr[-1]:
            slope = (lv[-1] - lv[-2]) / (lr[-1] - lr[-2])
            return math.exp(lv[-1] + slope * (t - lr[-1]))
        return math.exp(float(np.interp(t, lr, lv)))

    return fn


def volume_slope(radii: Sequence[float], volumes: Sequence[float]) -> float:
    """Least-squares slope of log |B| against log r."""
    lr = np.log(np.asarray(radii, float))
    lv = np.log(np.asarray(volumes, float))
    A = np.stack([lr, np.ones_like(lr)], axis=1)
    sol, *_ = np.linalg.lstsq(A, lv, rcond=None)
    return float(sol[0])


# -- pointwise estimate harness ----------------------------------------------------

@dataclass(frozen=True)
class EstimateRow:
    x: Tuple[float, ...]
    y: Tuple[float, ...]
    word: Tuple[int, ...]
    dist: float
    volume: float
    derivative: float
    ratio: float


@dataclass(frozen=True)
class EstimateScanReport:
    order: int
    critical: bool
    rows: Tuple[EstimateRow, ...]
    sup_ratio: float
    r0: Optional[float]   # fitted log-correction scale in the critical case


def derivative_words(degrees: Sequence[int], weight: int) -> List[Tuple[int, ...]]:
    """All words over the fields with the given total homogeneity weight."""
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], rem: int) -> None:
        if rem == 0:
            out.append(prefix)
            return
        for i, d in enumerate(degrees):
            if d <= rem:
                rec(prefix + (i,), rem - d)

    rec((), weight)
    return out


def estimate_scan(ev, space: MetricSpace, order: int,
                  pairs: Sequence[Tuple[Sequence[float], Sequence[float]]],
                  n_samples: int = 300, seed: int = 2718,
                  vol_fn: Optional[Callable] = None,
                  dist_tol: float = 1e-3) -> EstimateScanReport:
    """Ratios of |derivative of Gamma| against the metric bound, per pair.

    Non-critical (order > nu - n): ratio = |Z Gamma| * |B(x, d)| / d^{nu - order}.
    Critical (order == nu - n): the bound carries a log(R0 / d) correction with
    R0 fitted as twice the largest sampled distance.
    """
    nu, n = ev.operator.nu, space.n
    if order < nu - n:
        raise ValueError(
            f"derivative order {order} is below nu - n = {nu - n}; outside "
            "the range of the pointwise upper estimates")
    critical = order == nu - n
    words = derivative_words(space.degrees, order) if order > 0 else [()]
    dists = []
    for x, y in pairs:
        dists.append(space.distance(x, y, tol=dist_tol, seed=seed).upper)
    r0 = 2.0 * max(dists) if critical else None
    rows = []
    for (x, y), d in zip(pairs, dists):
        if vol_fn is not None:
            vol = vol_fn(x, d)
        else:
            vol = space.ball_volume(x, d, n_samples, seed).estimate
        for word in words:
            z = ev.gamma_x_derivative(word, x, y)
            denom = d ** (nu - order)
            if critical:
                denom *= math.log(r0 / d)
            ratio = abs(z) * vol / denom
            rows.append(EstimateRow(tuple(map(float, x)), tuple(map(float, y)),
                                    word, d, vol, z, ratio))
    sup_ratio = max(row.ratio for row in rows)
    return EstimateScanReport(order, critical, tuple(rows), sup_ratio, r0)
