"""Closed forms of the Grushin control metric from the origin.

The system is X1 = d1, X2 = x1*d2 with degrees (1, 1): a path of scale r
has controls |a_1|, |a_2| <= r on [0, 1].  From the origin, x1 runs from 0
to p with |x1'| <= r, and x2 = int x1 a_2 reaches at most r * int |x1|.
x1 keeps its sign on the best path, which climbs at full speed and comes
back down to p as late as it can (a tent): so y = (p, q) lies in the
closed ball of radius r exactly when |p| <= r and |q| <= (r^2 + 2 r |p| -
p^2) / 4, and the least such r is the distance.  The ball has area
5 r^3 / 3, and its excursion box (|x1| <= r, |x2| <= r^2 / 2) has 2 r^3.
"""

import math


def grushin_distance_from_origin(p: float, q: float) -> float:
    """d((0, 0), (p, q)): |p| when |q| <= p^2 / 2, where the constant
    controls (|p|, +-|p|) reach at the edge of the tent family, else the
    root r of r^2 + 2 r |p| - p^2 = 4 |q|."""
    p, q = abs(p), abs(q)
    if q <= p * p / 2:
        return p
    return math.sqrt(4 * q + 2 * p * p) - p


def grushin_ball_volume(r: float) -> float:
    """|B((0, 0), r)| = 5 r^3 / 3."""
    return 5.0 * r ** 3 / 3.0
