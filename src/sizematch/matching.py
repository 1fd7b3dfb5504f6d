"""Bottleneck matching distance between cornerpoint diagrams.

The ground distance d between extended points is

    d(p, q)     = min{ max(|px-qx|, |py-qy|),  max(pers(p), pers(q)) / 2 }
    d(p, diag)  = pers(p) / 2

with the conventions inf - inf = 0 and min{inf, c} = c: two cornerpoints
at infinity are compared by their abscissas, a point at infinity is at
infinite distance from everything else.  The matching distance is the
bottleneck cost over multi-bijections that send each proper point either
to a proper point of the other diagram or to the diagonal, plus the
mandatory pairing of the two cornerpoints at infinity.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from ._rational import as_fraction, number_from_json, number_to_json, quoted
from .core import SizePair
from .diagram import Diagram, ExtendedPoint, _on_one_unit, extract_diagram

__all__ = [
    "DIAGONAL",
    "MatchTarget",
    "Matching",
    "pseudo_distance_d",
    "matching_distance",
    "brute_force_matching_distance",
    "stability_probe",
]


class _Diagonal:
    """Sentinel for the diagonal  {x == y}  as a matching target."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIAGONAL"


DIAGONAL = _Diagonal()

# One side of a matching pair: a cornerpoint (proper or at infinity) or the
# diagonal sentinel.  Points at infinity only ever pair with each other.
MatchTarget = Union[ExtendedPoint, _Diagonal]


def pseudo_distance_d(p, q):
    """Ground distance between extended points and/or the diagonal."""
    if p is DIAGONAL and q is DIAGONAL:
        return Fraction(0)
    if p is DIAGONAL:
        return q.persistence / 2
    if q is DIAGONAL:
        return p.persistence / 2
    if p.is_at_infinity and q.is_at_infinity:
        return abs(p.x - q.x)
    if p.is_at_infinity or q.is_at_infinity:
        return math.inf
    direct = max(abs(p.x - q.x), abs(p.y - q.y))
    through_diagonal = max(p.persistence, q.persistence) / 2
    return min(direct, through_diagonal)


@dataclass(frozen=True)
class Matching:
    """A multi-bijection witness: pairs of (left, right) targets and its cost.

    Each side of a pair is an :class:`ExtendedPoint` or ``DIAGONAL``; the
    pair of cornerpoints at infinity is always present.  ``cost`` is the
    bottleneck value: the max of the ground distances of the pairs.
    """

    pairs: Tuple[Tuple[object, object], ...]
    cost: Fraction

    def to_json_dict(self) -> dict:
        def encode(side):
            if side is DIAGONAL:
                return "diag"
            if side.is_at_infinity:
                return "inf"
            return [number_to_json(side.x), number_to_json(side.y)]

        return {
            "cost": number_to_json(self.cost),
            "pairs": [{"left": encode(l), "right": encode(r)} for l, r in self.pairs],
        }

    @classmethod
    def from_json_dict(cls, data: dict, infinity_left=None, infinity_right=None) -> "Matching":
        """Rebuild a matching; 'inf' entries need the diagrams' abscissas.

        Every malformed input raises ValueError("matching JSON: ...").
        """
        rows = data.get("pairs") if isinstance(data, dict) else None
        if not isinstance(rows, list) or "cost" not in data:
            raise ValueError("matching JSON: expected an object with 'cost' and a list 'pairs'")

        def decode(side, abscissa, label):
            if side == "diag":
                return DIAGONAL
            if side == "inf":
                if abscissa is None:
                    raise ValueError(f"no abscissa for the {label} point at infinity")
                return ExtendedPoint.at_infinity(abscissa)
            if isinstance(side, (list, tuple)) and len(side) == 2:
                return ExtendedPoint(number_from_json(side[0]), number_from_json(side[1]))
            raise ValueError(f"bad pair side {quoted(side)}")

        try:
            pairs = []
            for row in rows:
                if not isinstance(row, dict) or "left" not in row or "right" not in row:
                    raise ValueError(f"bad pair row {quoted(row)}")
                pairs.append((decode(row["left"], infinity_left, "left"),
                              decode(row["right"], infinity_right, "right")))
            return cls(pairs=tuple(pairs), cost=number_from_json(data["cost"]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matching JSON: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    def verify(self, d1: Diagram, d2: Diagram) -> None:
        """Raise ValueError unless this is a valid optimal-form witness for (d1, d2).

        Checks: the infinity pair is present exactly once and correct, the
        proper points of each diagram are covered exactly according to
        multiplicity, no diagonal-diagonal pairs, every pair's ground
        distance is finite and <= cost, and the max equals cost.
        """
        infinity_pairs = [
            (l, r)
            for l, r in self.pairs
            if not (l is DIAGONAL) and not (r is DIAGONAL) and l.is_at_infinity
        ]
        if len(infinity_pairs) != 1:
            raise ValueError("matching must contain exactly one pair of points at infinity")
        l_inf, r_inf = infinity_pairs[0]
        if not r_inf.is_at_infinity:
            raise ValueError("the point at infinity must be matched to the other one")
        if l_inf.x != d1.infinity_x or r_inf.x != d2.infinity_x:
            raise ValueError("infinity pair abscissas do not match the diagrams")
        left_cover: List[ExtendedPoint] = []
        right_cover: List[ExtendedPoint] = []
        worst = Fraction(0)
        for l, r in self.pairs:
            if l is DIAGONAL and r is DIAGONAL:
                raise ValueError("diagonal-diagonal pairs are not allowed in a witness")
            if (l, r) == (l_inf, r_inf):
                worst = max(worst, abs(l.x - r.x))
                continue
            if l is not DIAGONAL:
                if l.is_at_infinity:
                    raise ValueError("unexpected extra point at infinity on the left")
                left_cover.append(l)
            if r is not DIAGONAL:
                if r.is_at_infinity:
                    raise ValueError("unexpected extra point at infinity on the right")
                right_cover.append(r)
            ground = pseudo_distance_d(l, r)
            if ground == math.inf:
                raise ValueError(f"pair ({l!r}, {r!r}) has infinite ground distance")
            worst = max(worst, ground)
        key = lambda p: (p.x, p.y)
        if sorted(left_cover, key=key) != sorted(d1.expanded(), key=key):
            raise ValueError("left sides do not cover the first diagram's points exactly")
        if sorted(right_cover, key=key) != sorted(d2.expanded(), key=key):
            raise ValueError("right sides do not cover the second diagram's points exactly")
        if worst != self.cost:
            raise ValueError(f"stored cost {self.cost} differs from the max pair distance {worst}")


def _max_norm(p: ExtendedPoint, q: ExtendedPoint) -> Fraction:
    return max(abs(p.x - q.x), abs(p.y - q.y))


# The solver expands each diagram to one node per copy of a point, visits
# pairs of nodes, and the witness lists one pair per copy.
_MAX_MATCHED_POINTS = 10**6


def _check_matching_size(d1: Diagram, d2: Diagram) -> None:
    """Raise ValueError, before anything is expanded, if a diagram has too many copies."""
    for name, diagram in (("first", d1), ("second", d2)):
        total = diagram.total_multiplicity
        if total > _MAX_MATCHED_POINTS:
            raise ValueError(
                f"the {name} diagram has {total} points counted with multiplicity; "
                f"matching takes at most {_MAX_MATCHED_POINTS}"
            )


def matching_distance(d1: Diagram, d2: Diagram) -> Tuple[Fraction, Matching]:
    """Bottleneck matching distance and an optimal witness.

    The optimal value is located by a binary search over the finite
    candidate set {0} | {half persistences} | {usable pairwise max-norms},
    then combined with the mandatory |infinity_x1 - infinity_x2| term.
    Each feasibility test starts from the matching left by the last
    infeasible one, which stays valid at every larger threshold.

    Every cost is an int on the unit of ``_on_one_unit`` (twice the lcm of
    the two diagrams' integer scales): a half persistence is (Y - X) // 2
    and a max-norm max(|dX|, |dY|), both exact, so no Fraction is formed
    per pair.  Multiplying by the positive unit keeps the order of the
    thresholds and never merges two of them.  Direct edges strictly beaten
    by the route through the diagonal are dropped: a matching that used one
    can be rewired through two diagonal slots at no extra bottleneck cost,
    so the thresholds are unchanged while witnesses keep only pairs whose
    ground distance is their max-norm.  realize() relies on that shape.
    The second diagram's rows are sorted by X, so each point of the first
    one tests only the window |dX| <= max(h, G) found by bisection (h its
    half persistence, G the largest on the other side): a kept edge has
    |dX| <= norm <= max(h, g).  The edges kept are those of all pairs.

    The witness is read off the final matching, extended by augmenting
    paths to the maximum number of direct pairs at the optimal threshold;
    every other point goes to the diagonal.  It is deterministic, lists the
    first diagram's points in (x, y) order and then the second diagram's
    diagonal pairs, and for identical diagrams it is the identity; it is
    not in general the lexicographically smallest optimal pairing.

    A diagram of more than ``_MAX_MATCHED_POINTS`` points counted with
    multiplicity is refused with ValueError before anything is expanded.
    """
    _check_matching_size(d1, d2)
    unit, rows1, rows2 = _on_one_unit(d1, d2)
    # one (X, Y) per copy of a point; side 0 is the first diagram
    left, right = ([(x, y) for x, y, m in rows for _ in range(m)] for rows in (rows1, rows2))
    # half[s]: half persistences of side s; adj[s]: each point's kept edges
    # as (norm, partner) rows sorted by norm
    half = tuple([(y - x) // 2 for x, y in side] for side in (left, right))
    adj = tuple([[] for _ in side] for side in (left, right))
    partners = [(j, u, v, g) for j, ((u, v), g) in enumerate(zip(right, half[1]))]
    right_xs = [u for u, _ in right]  # sorted, as the rows are
    widest = max(half[1], default=0)
    norms = set()
    for i, ((x, y), h) in enumerate(zip(left, half[0])):
        row = adj[0][i]
        reach = h if h > widest else widest  # a kept edge has |dX| <= norm <= max(h, g)
        lo, hi = bisect_left(right_xs, x - reach), bisect_right(right_xs, x + reach)
        for j, u, v, g in partners[lo:hi]:
            dx = x - u if x > u else u - x  # abs() and max() calls cost twice as much here
            dy = y - v if y > v else v - y
            norm = dx if dx > dy else dy
            if norm <= h or norm <= g:
                row.append((norm, j))
                adj[1][j].append((norm, i))
                norms.add(norm)
    thresholds = sorted({0, *half[0], *half[1], *norms})
    for side in adj:
        for row in side:
            row.sort()

    # a matching is a pair of partner lists mate[s] (-1: free)
    def rematch(mate, s: int, root: int, t: int, drop: int) -> bool:
        """Match ``root`` of side s along an alternating path of edges of cost <= t.

        The path ends at a free point of the other side (augmentation) or at
        a matched point of side s whose half persistence is <= ``drop``;
        that point loses its partner (swap).  Every other matched point stays
        matched.  Explicit-stack depth-first search; False if no path exists.
        """
        edges, mine, theirs, halves = adj[s], mate[s], mate[1 - s], half[s]
        seen = set()
        path, picks, pos = [root], [], [0]
        while path:
            row, k = edges[path[-1]], pos[-1]
            if k == len(row) or row[k][0] > t:
                path.pop()
                pos.pop()
                if picks:
                    picks.pop()
                continue
            pos[-1] = k + 1
            y = row[k][1]
            if y in seen:
                continue
            seen.add(y)
            picks.append(y)
            w = theirs[y]
            if w != -1 and halves[w] > drop:
                path.append(w)
                pos.append(0)
                continue
            if w != -1:
                mine[w] = -1
            for x, y in zip(path, picks):
                mine[x], theirs[y] = y, x
            return True
        return False

    def cover(mate, t: int) -> bool:
        """Feasibility of the threshold t, extending ``mate`` in place.

        A point whose half persistence exceeds the threshold cannot go to
        the diagonal; call it a must point.  The threshold is feasible iff
        some matching of edges of cost <= t covers every must point on both
        sides (the remaining points go to the diagonal, Mendelsohn-Dulmage).
        Uncovered must points are covered one at a time; covered ones never
        lose their partner, so the first search that fails proves the
        threshold infeasible.
        """
        for s in (0, 1):
            for x, h in enumerate(half[s]):
                if h > t and mate[s][x] == -1 and not rematch(mate, s, x, t, t):
                    return False
        return True

    start, found = [[-1] * len(side) for side in half], None
    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        mate = [list(side) for side in start]
        if cover(mate, thresholds[mid]):
            hi, found = mid, mate
        else:
            lo, start = mid + 1, mate
    if found is None:  # lo is the largest threshold: no point is a must point
        found = start
    for i, j in enumerate(found[0]):
        if j == -1:
            rematch(found, 0, i, thresholds[lo], -1)
    value = max(Fraction(thresholds[lo], unit), abs(d1.infinity_x - d2.infinity_x))

    points2 = d2.expanded()
    pairs: List[Tuple[object, object]] = [
        (ExtendedPoint.at_infinity(d1.infinity_x), ExtendedPoint.at_infinity(d2.infinity_x))
    ]
    pairs.extend((p, DIAGONAL if j == -1 else points2[j]) for p, j in zip(d1.expanded(), found[0]))
    pairs.extend((DIAGONAL, q) for q, i in zip(points2, found[1]) if i == -1)
    return value, Matching(pairs=tuple(pairs), cost=value)


def brute_force_matching_distance(d1: Diagram, d2: Diagram, cap: int = 8) -> Fraction:
    """Independent exhaustive oracle for the matching distance.

    Enumerates every assignment of the first diagram's points to points of
    the second one or the diagonal (leftovers go to the diagonal), with
    branch-and-bound pruning on the running bottleneck.  Refuses inputs
    with more than ``cap`` points (counting multiplicity) on either side.
    """
    sizes = (d1.total_multiplicity, d2.total_multiplicity)
    if max(sizes) > cap:
        raise ValueError(
            f"brute force is capped at {cap} points per side, got {sizes[0]} and {sizes[1]}"
        )
    left = d1.expanded()
    right = d2.expanded()
    infinity_gap = abs(d1.infinity_x - d2.infinity_x)
    half_left = [p.persistence / 2 for p in left]
    half_right = [q.persistence / 2 for q in right]
    best = [math.inf]

    def descend(i: int, used: int, running):
        if best[0] <= running:
            return
        if i == len(left):
            total = running
            for j, half in enumerate(half_right):
                if not used & (1 << j):
                    total = max(total, half)
                    if best[0] <= total:
                        return
            if total < best[0]:
                best[0] = total
            return
        p = left[i]
        for j, q in enumerate(right):
            if used & (1 << j):
                continue
            cost = max(running, min(_max_norm(p, q), max(half_left[i], half_right[j])))
            descend(i + 1, used | (1 << j), cost)
        descend(i + 1, used, max(running, half_left[i]))

    descend(0, 0, infinity_gap)
    return best[0]


def stability_probe(sp: SizePair, perturbed_values, epsilon) -> Tuple[Fraction, bool]:
    """Perturb the vertex values and compare diagrams.

    ``perturbed_values`` maps every vertex id to a new value with
    ``max |old - new| <= epsilon`` (violations are rejected).  Returns
    ``(d_match, holds)`` where ``holds`` is ``d_match <= epsilon``.
    """
    epsilon = as_fraction(epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    ids = set(sp.vertex_ids)
    if set(perturbed_values.keys()) != ids:
        raise ValueError("perturbed values must cover exactly the vertex set")
    worst = max(
        abs(as_fraction(sp.value(v)) - as_fraction(perturbed_values[v])) for v in ids
    )
    if worst > epsilon:
        raise ValueError(f"perturbation sup-norm {worst} exceeds epsilon {epsilon}")
    perturbed = SizePair(
        [(v, perturbed_values[v]) for v in sp.vertex_ids], sp.edges
    )
    original_diagram = extract_diagram(sp)
    perturbed_diagram = extract_diagram(perturbed)
    value, _ = matching_distance(original_diagram, perturbed_diagram)
    minima_gap = abs(original_diagram.infinity_x - perturbed_diagram.infinity_x)
    if minima_gap > epsilon:
        raise RuntimeError(
            "internal error: the minima moved farther than the perturbation allows"
        )
    return value, value <= epsilon
