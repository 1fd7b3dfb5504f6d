"""Lower and upper companions of the matching distance.

``earlier_bound`` computes

    s = sup { min(xi - x, y - eta)  :  x <= xi < eta <= y,
                                       l1(x, y) > l2(xi, eta) }

exactly (0 on an empty set) by the anti-diagonal reduction.  l2 is
non-decreasing in xi and non-increasing in eta, so for fixed (x, y) the
best (xi, eta) is (x + g, y - g), and l2(x + g, y - g) counts the units of
d2 whose threshold max(qx - x, y - qy, 0) has been passed.  l1 is constant
on half-open cells, so x sits at a d1 x-break and y tends to the top of
its d1 y-cell; one sweep over these pairs gives s, and a closed-form
4-tuple, checked by direct evaluation, witnesses it.

``exact_graph_pseudo_distance`` minimizes the sup-norm value difference
over all graph isomorphisms (small graphs only) — an upper companion:
earlier_bound <= matching_distance <= exact_graph_pseudo_distance.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import List, Optional, Tuple

from ._rational import as_fraction, number_to_json
from .core import SizePair
from .diagram import Diagram, _on_one_unit, evaluate_diagram, extract_diagram
from .matching import Matching, matching_distance

__all__ = [
    "EarlierWitness",
    "BoundReport",
    "NotIsomorphicError",
    "earlier_bound",
    "earlier_bound_grid_oracle",
    "exact_graph_pseudo_distance",
    "bound_report",
]


@dataclass(frozen=True)
class EarlierWitness:
    """A strictly admissible 4-tuple near the optimum of the sup."""

    x: Fraction
    y: Fraction
    xi: Fraction
    eta: Fraction
    value_left: int
    value_right: int
    achieved: Fraction

    def to_json_dict(self) -> dict:
        return {
            "x": number_to_json(self.x),
            "y": number_to_json(self.y),
            "xi": number_to_json(self.xi),
            "eta": number_to_json(self.eta),
            "value_left": self.value_left,
            "value_right": self.value_right,
            "achieved": number_to_json(self.achieved),
        }


def _diagram_breaks(diagram: Diagram) -> Tuple[List[Fraction], List[Fraction]]:
    xs = sorted({diagram.infinity_x} | {p.x for p, _ in diagram.points})
    ys = sorted({p.y for p, _ in diagram.points})
    return xs, ys


def earlier_bound(d1: Diagram, d2: Diagram) -> Tuple[Fraction, Optional[EarlierWitness]]:
    """Exact sup of min(xi - x, y - eta) over the admissible set, with a witness.

    For a d1 x-break ``ax`` and the top ``by`` of a d1 y-cell, let
    c = l1(ax, by-) and give every unit of d2 the threshold
    max(qx - ax, by - qy, 0) (max(infinity_x - ax, 0) for the point at
    infinity).  The pair is worth min((by - ax)/2, g*), g* being the c-th
    smallest threshold (infinite if d2 has fewer than c units), and s is the
    largest worth.  The unbounded top y-cell is cut at
    2 * last - first + 1 over all breaks, above which no worth changes, and
    each point at infinity becomes the unit (infinity_x, cut).  A pair is
    skipped when it cannot beat the best so far: its width is at most twice
    the best, or c units of d2 already dominate (ax + best, by - best).  A
    pair that is not skipped finds g* by sorting only the thresholds above
    the best and below its half width.

    The pairs are visited with ``ax`` ascending and ``by`` descending, over
    two rows of counts.  ``counts1[b]`` holds the multiplicity of the d1
    units passed so far with y = tops[b], so c is a running sum down the
    tops.  ``row2[j]`` = l2(ax + best, ys2[j]-) gains a unit's multiplicity
    on its first entries once ``ax + best``, which never decreases, passes
    the unit.  All of it runs on the ints of ``_on_one_unit``: ``unit`` is
    twice the lcm of the two diagrams' integer scales, so widths halve
    exactly, and their rows and abscissas at infinity are multiplied up to it.

    Every positive threshold and width is at least the minimal gap ``gap``
    between breaks of both diagrams, so s >= gap/2, and the witness
    x = ax, y = by - gap/8, xi = x + g, eta = y - g with g = s - gap/4 is
    strictly admissible and separating; it is re-checked by direct
    evaluation.  On an empty admissible set the result is (0, None).
    """
    unit, units1, units2, infinity1, infinity2 = _on_one_unit(d1, d2)
    breaks = sorted({infinity1, infinity2, *(c for u in units1 + units2 for c in u[:2])})
    cut = 2 * breaks[-1] - breaks[0] + unit
    units1 = sorted(units1 + [(infinity1, cut, 1)])
    units2 = sorted(units2 + [(infinity2, cut, 1)])
    tops = sorted({y for _, y, _ in units1})
    ys2 = sorted({y for _, y, _ in units2})
    counts1 = [0] * len(tops)  # counts1[b]: multiplicity of the passed d1 units with y = tops[b]
    row2 = [0] * len(ys2)  # row2[j] = l2(ax + best, ys2[j]-)
    pending2 = units2[::-1]  # the d2 units not yet in row2, x descending

    def count2(limit):
        while pending2 and pending2[-1][0] <= limit:
            _, y, m = pending2.pop()
            j = bisect_right(ys2, y)
            row2[:j] = [v + m for v in row2[:j]]

    best, best_pair = 0, None
    for ax, group in groupby(units1, key=itemgetter(0)):
        for _, y, m in group:
            counts1[bisect_left(tops, y)] += m
        count2(ax + best)
        c = 0  # l1(ax, by-), summed down the tops
        for b in range(len(tops) - 1, -1, -1):
            by = tops[b]
            if by - ax <= 2 * best:
                break
            c += counts1[b]
            # row2 holds the units with thresholds <= best: g* is the rank-th of the rest
            rank = c - row2[bisect_left(ys2, by - best)]
            if rank <= 0:
                continue  # g* <= best; this also skips c == 0
            # g* > best, so the worth beats best: min(half, g*), g* selected
            # from the thresholds in (best, half)
            half = (by - ax) // 2
            x_limit, y_limit = ax + half, by - half
            x_best, y_best = ax + best, by - best
            for t, m in sorted((max(qx - ax, by - qy), m) for qx, qy, m in units2
                               if qx < x_limit and qy > y_limit and (qx > x_best or qy < y_best)):
                rank -= m
                if rank <= 0:
                    half = t
                    break
            best, best_pair = half, (ax, by)
            count2(ax + best)

    if best_pair is None:
        return Fraction(0), None
    gap = Fraction(min(b - a for a, b in zip(breaks, breaks[1:])), unit)
    ax, by = (Fraction(v, unit) for v in best_pair)
    s = Fraction(best, unit)
    x, y, g = ax, by - gap / 8, s - gap / 4
    witness = EarlierWitness(
        x=x,
        y=y,
        xi=x + g,
        eta=y - g,
        value_left=evaluate_diagram(d1, x, y),
        value_right=evaluate_diagram(d2, x + g, y - g),
        achieved=g,
    )
    if witness.value_left <= witness.value_right:
        raise RuntimeError(f"internal error: earlier_bound witness {witness} does not separate")
    return s, witness


def earlier_bound_grid_oracle(d1: Diagram, d2: Diagram, level: int = 0) -> Fraction:
    """Grid-search approximation of :func:`earlier_bound` from below.

    One shared 1-D grid holds every break of both diagrams plus a margin
    point beyond each end, with each gap subdivided into 2**(level + 2)
    parts; the value is the max of min(xi - x, y - eta) over admissible
    grid 4-tuples.  The grids are nested, so the value is non-decreasing
    in ``level`` and never exceeds the exact bound.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    factor = 2 ** (level + 2)
    xs1, ys1 = _diagram_breaks(d1)
    xs2, ys2 = _diagram_breaks(d2)
    base = sorted(set(xs1 + ys1 + xs2 + ys2))  # never empty: it holds d1.infinity_x
    points = [base[0] - 1] + base + [base[-1] + 1]
    grid: List[Fraction] = []
    for a, b in zip(points, points[1:]):
        step = (b - a) / factor
        grid.extend(a + step * k for k in range(factor))
    grid.append(points[-1])

    n = len(grid)
    # values[i][j] is evaluated for i < j only; the entries j <= i are never read
    values1, values2 = (
        [[evaluate_diagram(d, grid[i], grid[j]) if i < j else 0 for j in range(n)]
         for i in range(n)]
        for d in (d1, d2)
    )
    max_left = max(max(row) for row in values1)
    # first_below[i][c]: least j > i with values2[i][j] < c (rows are non-increasing in j,
    # so the pointer only moves forward as c decreases)
    first_below = []
    for i in range(n):
        row = values2[i]
        firsts = [n] * (max_left + 1)
        j = i + 1
        for c in range(max_left, 0, -1):
            while j < n and row[j] >= c:
                j += 1
            firsts[c] = j
        first_below.append(firsts)

    best = Fraction(0)
    for ix in range(n):
        for iy in range(ix + 1, n):
            c = values1[ix][iy]
            if c == 0:
                continue
            x, y = grid[ix], grid[iy]
            if y - x <= 2 * best:
                continue  # min(xi - x, y - eta) <= (y - x)/2 for nested tuples
            for ixi in range(ix, iy):
                jeta = first_below[ixi][c]
                if jeta > iy:
                    continue
                gain = min(grid[ixi] - x, y - grid[jeta])
                if gain > best:
                    best = gain
    return best


class NotIsomorphicError(ValueError):
    """The two graphs admit no isomorphism."""


def exact_graph_pseudo_distance(sp1: SizePair, sp2: SizePair, cap: int = 9) -> Fraction:
    """Min over all graph isomorphisms of the sup-norm value difference.

    Branch-and-bound in BFS order with degree pruning, drawing each
    vertex's images from the neighbours of a mapped neighbour's image;
    refuses graphs larger than ``cap`` vertices and raises
    :class:`NotIsomorphicError` when no isomorphism exists.
    """
    n = sp1.n_vertices
    if n > cap or sp2.n_vertices > cap:
        raise ValueError(
            f"exact search is capped at {cap} vertices, "
            f"got {sp1.n_vertices} and {sp2.n_vertices}"
        )
    if sp2.n_vertices != n or sp2.n_edges != sp1.n_edges:
        raise NotIsomorphicError("graphs differ in vertex or edge count")
    adj1, adj2 = sp1._adj, sp2._adj
    degree = list(map(len, adj1))
    if sorted(degree) != sorted(map(len, adj2)):
        raise NotIsomorphicError("graphs have different degree sequences")

    # BFS order: after the root every vertex has a previously mapped neighbor,
    # whose image's neighbours are the only possible images.  Equal degrees
    # are taken in position order.
    start = degree.index(max(degree))
    order = [start]
    seen = {start}
    for v in order:  # the list is the BFS queue: it grows while it is read
        for u in sorted(adj1[v], key=lambda w: (-degree[w], w)):
            if u not in seen:
                seen.add(u)
                order.append(u)
    values1, values2 = ([as_fraction(x) for x in sp._values] for sp in (sp1, sp2))

    best: Optional[Fraction] = None
    image: List[Optional[int]] = [None] * n  # image[v]: the position v is mapped to
    used = [False] * n  # used[w]: w is the image of a mapped vertex

    def candidates(v, running: Fraction):
        """Images w of v that keep the mapping consistent and the running
        maximum below the best found so far (read at each step).
        Consistent: w's used neighbours are exactly the images of v's mapped
        neighbours, which stay mapped while the generator lives."""
        images = [image[u] for u in adj1[v] if image[u] is not None]
        expected = set(images)
        for w in adj2[images[0]] if images else range(n):
            if used[w] or len(adj2[w]) != degree[v]:
                continue
            if {x for x in adj2[w] if used[x]} != expected:
                continue
            gap = abs(values1[v] - values2[w])
            next_running = running if running >= gap else gap
            if best is not None and next_running >= best:
                continue
            yield w, next_running

    # depth-first search on an explicit stack: frames[i] walks the images of
    # order[i] while order[:i] is mapped
    frames = [candidates(order[0], Fraction(0))]
    while frames:
        i = len(frames) - 1
        step = next(frames[i], None)
        if step is None:
            frames.pop()
            if i:
                used[image[order[i - 1]]] = False
                image[order[i - 1]] = None
            continue
        w, running = step
        if i + 1 == n:
            best = running
            continue
        image[order[i]] = w
        used[w] = True
        frames.append(candidates(order[i + 1], running))
    if best is None:
        raise NotIsomorphicError("graphs are not isomorphic")
    return best


@dataclass(frozen=True)
class BoundReport:
    """earlier_bound <= d_match <= exact chain for a pair of size pairs."""

    d_match: Fraction
    earlier: Fraction
    exact: Optional[Fraction]
    matching: Matching
    earlier_witness: Optional[EarlierWitness]
    note: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "earlier_bound": number_to_json(self.earlier),
            "d_match": number_to_json(self.d_match),
            "exact_pseudo_distance": None if self.exact is None else number_to_json(self.exact),
            "chain_ok": True,
            "note": self.note,
            "witnesses": {
                "matching": self.matching.to_json_dict(),
                "earlier": None if self.earlier_witness is None else self.earlier_witness.to_json_dict(),
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())


def bound_report(sp1: SizePair, sp2: SizePair, cap: int = 9) -> BoundReport:
    """Compute the full bound chain for two size pairs and assert it.

    ``exact`` is None when the graphs are not isomorphic or exceed the
    search cap (the reason lands in ``note``).  A violated chain is an
    internal error, not a data error, and raises RuntimeError.
    """
    diagram1 = extract_diagram(sp1)
    diagram2 = extract_diagram(sp2)
    d_match, matching = matching_distance(diagram1, diagram2)
    earlier, witness = earlier_bound(diagram1, diagram2)
    exact: Optional[Fraction] = None
    note: Optional[str] = None
    try:
        exact = exact_graph_pseudo_distance(sp1, sp2, cap=cap)
    except ValueError as exc:  # NotIsomorphicError, or the search cap
        note = str(exc)
    if earlier > d_match:
        raise RuntimeError(
            f"internal error: earlier bound {earlier} exceeds matching distance {d_match}"
        )
    if exact is not None and d_match > exact:
        raise RuntimeError(
            f"internal error: matching distance {d_match} exceeds exact distance {exact}"
        )
    return BoundReport(
        d_match=d_match,
        earlier=earlier,
        exact=exact,
        matching=matching,
        earlier_witness=witness,
        note=note,
    )
