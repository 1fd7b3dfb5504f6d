"""Lower and upper bounds bracketing the natural pseudo-distance."""

import hashlib
import inspect
import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from sizematch import (
    BoundReport,
    Diagram,
    DisconnectedGraphError,
    NotIsomorphicError,
    SizePair,
    bound_report,
    earlier_bound,
    earlier_bound_grid_oracle,
    exact_graph_pseudo_distance,
    extract_diagram,
    matching_distance,
    evaluate_diagram,
)
from sizematch._rational import number_to_json
from sizematch.bounds import EarlierWitness
from sizematch.selftest import random_diagram, random_isomorphic_pair, random_size_pair

from test_core import path_fixture
from test_matching import HUGE, _near_copy


# ------------------------------------------------------------ earlier bound


def test_earlier_bound_worked_example():
    """d1 has an extra cornerpoint (1, 3): the best separating 4-tuple pinches
    it with x = 1, y just under 3 and (xi, eta) balanced at the apex 2."""
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    s, w = earlier_bound(d1, d2)
    assert s == 1
    assert w is not None
    # the witness is strictly admissible and certified by direct evaluation
    assert w.x <= w.xi < w.eta <= w.y
    assert w.value_left > w.value_right
    assert evaluate_diagram(d1, w.x, w.y) == w.value_left
    assert evaluate_diagram(d2, w.xi, w.eta) == w.value_right
    assert 0 < w.achieved <= s
    assert w.achieved == min(w.xi - w.x, w.y - w.eta)


def test_earlier_bound_identical_diagrams_is_zero():
    d = Diagram(0, [((1, 3), 1), ((2, 4), 2)])
    assert earlier_bound(d, d) == (0, None)


def test_earlier_bound_is_asymmetric_by_construction():
    # d2 dominates d1 nowhere, so swapping the arguments changes the value
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    s_forward, _ = earlier_bound(d1, d2)
    s_backward, _ = earlier_bound(d2, d1)
    assert s_forward == 1
    assert s_backward == 0


def test_earlier_bound_infinity_gap_regression():
    """Empty diagrams differing only in infinity_x: the optimal y-cell is
    unbounded above, which once crashed the witness construction."""
    d1 = Diagram(F(19, 8), [])
    d2 = Diagram(F(25, 8), [])
    s, w = earlier_bound(d1, d2)
    assert s == F(3, 4)
    assert w is not None and w.achieved == F(9, 16)
    assert earlier_bound_grid_oracle(d1, d2, 0) == F(9, 16)


def test_earlier_bound_shifted_copy():
    """Shifting every value up by c leaves d1 exactly c 'earlier' than d2."""
    sp = path_fixture()
    d1 = extract_diagram(sp)
    for c in (F(1, 2), 1, F(5, 4)):
        shifted = Diagram(
            d1.infinity_x + c, [((p.x + c, p.y + c), m) for p, m in d1.points]
        )
        s, w = earlier_bound(shifted, d1)
        assert s == c, f"shift {c}: got {s}"
        assert w is not None


def _large_diagram(rng):
    d = random_diagram(rng, max_points=30, max_multiplicity=3)
    while d.total_multiplicity < 10:
        d = random_diagram(rng, max_points=30, max_multiplicity=3)
    return d


def _large_pair(seed):
    """10-30 points a side, multiplicities up to 3; every third pair is a near copy."""
    rng = random.Random(seed)
    d1 = _large_diagram(rng)
    if seed % 3:
        return d1, _large_diagram(rng)

    def jitter():
        return F(rng.randint(-1, 1), 16)

    return d1, Diagram(
        d1.infinity_x + jitter(),
        [((p.x + jitter(), p.y + jitter()), m) for p, m in d1.points],
    )


# computed by the cell enumeration over pairs of constancy boxes that
# earlier_bound used before the anti-diagonal reduction
LARGE_EXPECTED = [
    F(1, 16), 2, F(7, 8), F(1, 16), 1, F(7, 8), F(1, 16), F(7, 8), F(1, 4), F(1, 16),
    F(11, 4), 1, F(1, 16), 1, F(3, 4), F(1, 16), F(5, 8), F(7, 8), F(1, 16), 3,
]


@pytest.mark.parametrize("seed", range(len(LARGE_EXPECTED)))
def test_earlier_bound_exact_at_larger_sizes(seed):
    d1, d2 = _large_pair(seed)
    s, w = earlier_bound(d1, d2)
    assert s == LARGE_EXPECTED[seed]
    assert (w is None) == (s == 0)
    if w is not None:
        assert w.x <= w.xi < w.eta <= w.y
        assert evaluate_diagram(d1, w.x, w.y) == w.value_left
        assert evaluate_diagram(d2, w.xi, w.eta) == w.value_right
        assert w.value_left > w.value_right
        assert 0 < w.achieved <= s
    assert earlier_bound_grid_oracle(d1, d2, 0) <= s


# sha256 of the value and witness JSON of both argument orders of every pair
# of _scaled_cases(group), written by the earlier earlier_bound that compared
# Fractions and rescanned both diagrams per count; the sweep on one integer
# scale must reproduce them byte for byte
EARLIER_PINS = {
    "near_copies": "b240ad72ee29f945fb9d1d798d8d8d7ee652d1de4e2901b324d106fb44938731",
    "unrelated": "2c5d0d50dbe6ef015b25db8ff5f085896e0f139b73b945388216866f78d04299",
    "multiplicities": "443f315cbe2949c71985939ce087a17ef443238904b4403a2e69b0ee4574c62d",
    "thirds_and_sevenths": "a1fadf6e3bb7ba404566d020d2d732b7eb1cd6af45c3286f3d4107ea1c0681cf",
    "beyond_float_range": "4c342f5389e0e87420c62436acd4d4a57e334210e5f03002daffbc45c58c6012",
}


def _grid_diagram(rng, n, denominators, multiplicities=(1,)):
    """n distinct points, x in [0, 64] and persistence in (0, 2] on the given grids."""
    points = {}
    while len(points) < n:
        den = rng.choice(denominators)
        x = F(rng.randint(0, 64 * den), den)
        den = rng.choice(denominators)
        points[x, x + F(rng.randint(1, 2 * den), den)] = rng.choice(multiplicities)
    infinity_x = min(x for x, _ in points) - F(1, rng.choice(denominators))
    return Diagram(infinity_x, list(points.items()))


def _huge_pair(rng, n):
    """A near copy whose coordinates lie beyond the float range, read as 'p/1' JSON."""
    def rows(offsets):
        return [[f"{HUGE + x}/1", f"{HUGE + y}/1", m] for x, y, m in offsets]

    offsets = []
    for _ in range(n):
        x = rng.randint(0, 4 * n)
        offsets.append((x, x + rng.randint(1, 9), rng.randint(1, 3)))
    moved = [(x + rng.randint(-1, 1), y + rng.randint(-1, 1), m) for x, y, m in offsets]
    moved = [(x, max(y, x + 1), m) for x, y, m in moved]
    return tuple(
        Diagram.from_json_dict({"infinity_x": "1/3", "points": rows(side) + [["1/3", "7/3", 1]]})
        for side in (offsets, moved)
    )


def _scaled_cases(group):
    rng = random.Random(f"earlier-scale:{group}")
    pairs = []
    for n in (60, 100, 200):
        if group == "near_copies":
            d1 = _grid_diagram(rng, n, [64])
            pairs.append((d1, _near_copy(rng, d1, [64])))
        elif group == "unrelated":
            pairs.append((_grid_diagram(rng, n, [64]), _grid_diagram(rng, n, [64])))
        elif group == "multiplicities":
            d1 = _grid_diagram(rng, n, [64], multiplicities=(2, 3))
            pairs.append((d1, _near_copy(rng, d1, [64])))
        elif group == "thirds_and_sevenths" and n < 200:
            d1 = _grid_diagram(rng, n, [3, 7, 21])
            pairs.append((d1, _near_copy(rng, d1, [3, 7])))
            pairs.append((d1, _grid_diagram(rng, n, [3, 7, 21])))
        elif group == "beyond_float_range" and n == 60:
            pairs.append(_huge_pair(rng, n))
    return pairs


def _earlier_digest(group):
    records = []
    for d1, d2 in _scaled_cases(group):
        for left, right in ((d1, d2), (d2, d1)):
            s, w = earlier_bound(left, right)
            assert (w is None) == (s == 0)
            records.append({"s": number_to_json(s), "witness": w and w.to_json_dict()})
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(EARLIER_PINS))
def test_earlier_bound_witness_json_is_pinned_at_scale(group):
    assert _earlier_digest(group) == EARLIER_PINS[group]


def test_earlier_bound_scaled_cases_cover_their_shapes():
    sizes = {len(d1.points) for d1, _ in _scaled_cases("near_copies")}
    assert sizes == {60, 100, 200}
    assert all(m >= 2 for pair in _scaled_cases("multiplicities")
               for d in pair for _, m in d.points)
    denominators = {c.denominator for pair in _scaled_cases("thirds_and_sevenths")
                    for d in pair for p, _ in d.points for c in (p.x, p.y)}
    assert {3, 7} <= denominators <= {1, 3, 7, 21}
    assert all(max(p.y for d in pair for p, _ in d.points) > HUGE
               for pair in _scaled_cases("beyond_float_range"))


def test_earlier_bound_near_copy_of_200_points_is_fast():
    d1, d2 = _scaled_cases("near_copies")[-1]
    assert len(d1.points) == 200
    start = time.perf_counter()
    s, w = earlier_bound(d1, d2)
    assert time.perf_counter() - start < 2
    assert s > 0 and w.value_left > w.value_right


def _check_witness(d1, d2, w, s):
    assert w.x <= w.xi < w.eta <= w.y
    assert evaluate_diagram(d1, w.x, w.y) == w.value_left > w.value_right
    assert evaluate_diagram(d2, w.xi, w.eta) == w.value_right
    assert 0 < w.achieved == min(w.xi - w.x, w.y - w.eta) < s


def test_earlier_bound_half_unit_optimum_at_an_odd_width():
    """The optimum pinches (1/3, 2/3): width one unit of the pair's scale 1/3,
    so s = 1/6 is half a unit.  d2's far unit has threshold 14/3, beyond it."""
    d1 = Diagram(0, [((F(1, 3), F(2, 3)), 1)])
    d2 = Diagram(0, [((5, 6), 1)])
    s, w = earlier_bound(d1, d2)
    assert s == F(1, 6)
    assert (w.x, w.y, w.achieved) == (F(1, 3), F(5, 8), F(1, 12))
    _check_witness(d1, d2, w, s)
    assert earlier_bound_grid_oracle(d1, d2, 2) <= s


def test_earlier_bound_skip_query_on_a_d2_point():
    """After the pair (-1, cut) sets s = 1, the pair (0, 4) asks whether two units
    of d2 dominate (0 + 1, 4 - 1) = (1, 3), which is d2's point itself: they do
    (px <= x, py >= y), so the pair is worth no more and the witness stays at x = -1."""
    d1 = Diagram(-1, [((0, 4), 1)])
    d2 = Diagram(0, [((1, 3), 1)])
    s, w = earlier_bound(d1, d2)
    assert s == 1
    # breaks -1, 0, 1, 3, 4: gap 1, and the unbounded y-cell is cut at 2*4 + 1 + 1
    assert (w.x, w.y, w.achieved) == (-1, 10 - F(1, 8), F(3, 4))
    _check_witness(d1, d2, w, s)


def test_earlier_bound_more_units_than_d2_has():
    """c = l1(1, 5-) = 4 exceeds d2's 2 units, so no threshold reaches c and the
    pair is worth its half width 2."""
    d1 = Diagram(0, [((1, 5), 3)])
    d2 = Diagram(0, [((1, 5), 1)])
    s, w = earlier_bound(d1, d2)
    assert s == 2
    assert (w.x, w.y, w.achieved) == (1, 5 - F(1, 8), F(7, 4))
    _check_witness(d1, d2, w, s)


def test_earlier_bound_d1_without_proper_points():
    """Only d1's point at infinity counts: s is the gap 5/7 - 1/3 between the
    points at infinity, and 0 the other way round."""
    d1 = Diagram(F(1, 3), [])
    d2 = Diagram(F(5, 7), [((1, 2), 2)])
    s, w = earlier_bound(d1, d2)
    assert s == F(8, 21)
    _check_witness(d1, d2, w, s)
    assert earlier_bound_grid_oracle(d1, d2, 2) <= s
    assert earlier_bound(Diagram(F(5, 7), []), Diagram(F(1, 3), [((1, 2), 2)])) == (0, None)


def _pair_reduction_oracle(d1, d2):
    """s, the first (ax, by) that reaches it and the breaks, by the pair reduction
    counted directly on Fractions: every d1 x-break ax against every top by."""
    breaks = sorted({d1.infinity_x, d2.infinity_x}
                    | {c for d in (d1, d2) for p, _ in d.points for c in (p.x, p.y)})
    cut = 2 * breaks[-1] - breaks[0] + 1
    best, best_pair = F(0), None
    for ax in sorted({d1.infinity_x} | {p.x for p, _ in d1.points}):
        for by in sorted({p.y for p, _ in d1.points} | {cut}, reverse=True):
            c = (d1.infinity_x <= ax) + sum(m for p, m in d1.points if p.x <= ax and p.y >= by)
            thresholds = sorted([max(d2.infinity_x - ax, 0)] + [
                max(p.x - ax, by - p.y, 0) for p, m in d2.points for _ in range(m)])
            worth = (by - ax) / 2
            if c == 0:
                worth = 0
            elif c <= len(thresholds):
                worth = min(worth, thresholds[c - 1])
            if worth > best:
                best, best_pair = worth, (ax, by)
    return best, best_pair, breaks


def _oracle_diagram(rng, den, multiplicities):
    """0-4 points on the 1/den grid, close enough to one another to interact."""
    infinity_x = F(rng.randint(0, 2 * den), den)
    points = []
    for _ in range(rng.choice([0, 1, 2, 3, 4])):
        x = infinity_x + F(rng.randint(0, 3 * den), den)
        points.append(((x, x + F(rng.randint(1, 3 * den), den)), rng.choice(multiplicities)))
    return Diagram(infinity_x, points)


def test_earlier_bound_matches_the_pair_reduction_oracle():
    rng = random.Random("earlier-oracle")
    seen = set()
    for trial in range(2000):
        den = rng.choice([3, 7, 64])
        multiplicities = rng.choice([(1,), (1, 2, 3)])
        d1 = _oracle_diagram(rng, den, multiplicities)
        d2 = (_near_copy(rng, d1, [den]) if trial % 3 == 0
              else _oracle_diagram(rng, den, multiplicities))
        seen.add(den)
        if any(m == 3 for d in (d1, d2) for _, m in d.points):
            seen.add("multiplicity 3")
        if not d1.points or not d2.points:
            seen.add("no proper points")
        for left, right in ((d1, d2), (d2, d1)):
            s, w = earlier_bound(left, right)
            expected, pair, breaks = _pair_reduction_oracle(left, right)
            assert s == expected, f"trial {trial}"
            if pair is None:
                assert w is None
                continue
            gap = min(b - a for a, b in zip(breaks, breaks[1:]))
            assert (w.x, w.y + gap / 8) == pair, f"trial {trial}"
    assert seen == {3, 7, 64, "multiplicity 3", "no proper points"}


def test_earlier_bound_memory_is_linear_in_the_breaks():
    """The sweep holds O(B) counts: a 300-point near copy peaks under 0.5 MiB."""
    rng = random.Random("earlier-memory")
    d1 = _grid_diagram(rng, 300, [64])
    d2 = _near_copy(rng, d1, [64])
    tracemalloc.start()
    try:
        s, _ = earlier_bound(d1, d2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s > 0
    assert peak < 2**19


def test_earlier_bound_raises_the_best_on_every_pair():
    """Nested staircases: each lower top of d1 is a better pair, so every pair
    that is not skipped runs the selection over all of d2."""
    n = 1000
    d1 = Diagram(0, [((0, 2 * n - i), 1) for i in range(n)])
    d2 = Diagram(0, [((F(i, 2), 2 * n - i + F(1, 2)), 1) for i in range(n)])
    start = time.perf_counter()
    s, w = earlier_bound(d1, d2)
    assert time.perf_counter() - start < 2
    assert s == F(n - 1, 2)
    _check_witness(d1, d2, w, s)


# ---------------------------------------------------------------- oracle


def test_grid_oracle_frozen_levels():
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    assert earlier_bound_grid_oracle(d1, d2, 0) == F(1, 2)
    assert earlier_bound_grid_oracle(d1, d2, 1) == F(3, 4)
    assert earlier_bound_grid_oracle(d1, d2, 2) == F(7, 8)


def test_grid_oracle_monotone_and_below_exact():
    rng = random.Random(70)
    for trial in range(15):
        sp1 = random_size_pair(rng, max_vertices=6)
        sp2 = random_size_pair(rng, max_vertices=6)
        d1, d2 = extract_diagram(sp1), extract_diagram(sp2)
        s, _ = earlier_bound(d1, d2)
        prev = F(0)
        for level in (0, 1, 2):
            approx = earlier_bound_grid_oracle(d1, d2, level)
            assert prev <= approx <= s, f"trial {trial} level {level}"
            prev = approx


def test_grid_oracle_rejects_negative_level():
    d = Diagram(0, [])
    with pytest.raises(ValueError):
        earlier_bound_grid_oracle(d, d, -1)


# ------------------------------------------------------------- exact search


def test_exact_distance_identical_graphs():
    sp = path_fixture()
    assert exact_graph_pseudo_distance(sp, sp) == 0


def test_exact_distance_shifted_values():
    sp1 = path_fixture()
    sp2 = SizePair(
        [(v, F(1, 2) + F(int(sp1.value(v)))) for v in sp1.vertex_ids], sp1.edges
    )
    assert exact_graph_pseudo_distance(sp1, sp2) == F(1, 2)


def test_exact_distance_picks_best_isomorphism():
    # a path with a reversible value pattern: the flip is cheaper than identity
    sp1 = SizePair([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    sp2 = SizePair([("x", 2), ("y", 1), ("z", 0)], [("x", "y"), ("y", "z")])
    assert exact_graph_pseudo_distance(sp1, sp2) == 0


def test_exact_distance_not_isomorphic():
    path3 = SizePair([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    # different vertex count: rejected by the prefilter
    with pytest.raises(NotIsomorphicError):
        exact_graph_pseudo_distance(path3, SizePair([("u", 0), ("v", 1)], [("u", "v")]))
    # same degree sequence {1,1,1,2,2,3} but different shape: the degree-3
    # vertex has neighbor degrees {2,2,1} in one tree and {2,1,1} in the
    # other, so only the adjacency search itself can tell them apart
    t1 = SizePair(
        [(f"a{i}", i) for i in range(6)],
        [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a2", "a5")],
    )
    t2 = SizePair(
        [(f"b{i}", i) for i in range(6)],
        [("b0", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4"), ("b3", "b5")],
    )
    with pytest.raises(NotIsomorphicError):
        exact_graph_pseudo_distance(t1, t2)


def test_exact_distance_cap():
    rng = random.Random(71)
    sp = random_size_pair(rng, max_vertices=10)
    while sp.n_vertices <= 9:
        sp = random_size_pair(rng, max_vertices=10)
    with pytest.raises(ValueError):
        exact_graph_pseudo_distance(sp, sp, cap=9)


@pytest.mark.parametrize("n", [200, 1500])
def test_exact_distance_search_depth_is_not_bounded_by_recursion(n):
    # an n-vertex path: the search goes n mappings deep, and each image is
    # drawn from the neighbours of the last one, so it stays fast
    edges = [(i, i + 1) for i in range(n - 1)]
    sp1 = SizePair([(i, 37 * i % 11) for i in range(n)], edges)
    sp2 = SizePair([(i, 37 * i % 11 + F(1, 8)) for i in range(n)], edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    start = time.perf_counter()
    try:
        assert exact_graph_pseudo_distance(sp1, sp2, cap=n) == F(1, 8)
    finally:
        sys.setrecursionlimit(limit)
    assert time.perf_counter() - start < 5


def _random_size_pair_with(rng, n):
    sp = random_size_pair(rng, n)
    while sp.n_vertices != n:
        sp = random_size_pair(rng, n)
    return sp


def _double_edge_swap(rng, sp):
    """sp with edges (a, b), (c, d) replaced by (a, d), (c, b): the same degrees,
    often another shape; sp itself when ten tries give no simple connected swap."""
    edges = list(sp.edges)
    present = {frozenset(e) for e in edges}
    for _ in range(10):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) < 4 or {frozenset((a, d)), frozenset((c, b))} & present:
            continue
        swapped = [e for e in edges if e not in ((a, b), (c, d))] + [(a, d), (c, b)]
        try:
            return SizePair(sp.vertex_values, swapped)
        except DisconnectedGraphError:
            continue
    return sp


def _shuffled_copy(rng, ids, edges):
    """The graph ``edges`` on positions, with ids[p] at position p and fresh values,
    its vertices and edges given in shuffled order."""
    vertices = [(vid, F(rng.randint(0, 16), 4)) for vid in ids]
    rng.shuffle(vertices)
    edges = [(ids[a], ids[b]) for a, b in edges]
    rng.shuffle(edges)
    return SizePair(vertices, edges)


def test_exact_distance_against_networkx_isomorphisms():
    nx = pytest.importorskip("networkx", exc_type=ImportError)
    from networkx.algorithms.isomorphism import GraphMatcher

    def graph(sp):
        g = nx.Graph()
        g.add_nodes_from(sp.vertex_ids)
        g.add_edges_from(sp.edges)
        return g

    def oracle(sp1, sp2):
        """Min over every isomorphism of the sup value gap; None if there is none."""
        isomorphisms = GraphMatcher(graph(sp1), graph(sp2)).isomorphisms_iter()
        return min(
            (max(abs(F(sp1.value(v)) - F(sp2.value(w))) for v, w in iso.items())
             for iso in isomorphisms),
            default=None,
        )

    rng = random.Random(75)
    for trial in range(300):
        sp1, sp2 = random_isomorphic_pair(rng, max_vertices=8)
        assert exact_graph_pseudo_distance(sp1, sp2) == oracle(sp1, sp2), f"trial {trial}"
    # unrelated pairs, then pairs with one degree sequence that only the
    # adjacency checks of the search can tell apart
    outcomes = {True: 0, False: 0}
    for trial in range(600):
        sp1 = _random_size_pair_with(rng, 7)
        sp2 = _random_size_pair_with(rng, 7) if trial < 300 else _double_edge_swap(rng, sp1)
        expected = oracle(sp1, sp2)
        isomorphic = nx.is_isomorphic(graph(sp1), graph(sp2))
        assert isomorphic == (expected is not None), f"trial {trial}"
        outcomes[isomorphic] += 1
        if isomorphic:
            assert exact_graph_pseudo_distance(sp1, sp2) == expected, f"trial {trial}"
        else:
            with pytest.raises(NotIsomorphicError):
                exact_graph_pseudo_distance(sp1, sp2)
    assert min(outcomes.values()) > 0, outcomes
    # stars, leafy trees and complete bipartite graphs K_{m,n}, on ids whose str
    # order differs from their input order: ints from 1 to 12, and a mix of
    # str and int such as "10" and 9
    for trial in range(120):
        n = rng.randint(2, 7)
        shape = trial % 3
        if shape == 0:
            edges = [(0, k) for k in range(1, n)]
        elif shape == 1:
            spine = max(1, n // 3)
            edges = [(k, k - 1) for k in range(1, spine)]
            edges += [(k, rng.randrange(spine)) for k in range(spine, n)]
        else:
            m = rng.randint(1, n - 1)
            edges = [(a, b) for a in range(m) for b in range(m, n)]
        pool = list(range(1, 13)) if trial % 2 else [k if k % 2 else str(k) for k in range(5, 17)]
        sp1, sp2 = (_shuffled_copy(rng, rng.sample(pool, n), edges) for _ in range(2))
        expected = oracle(sp1, sp2)
        assert expected is not None and exact_graph_pseudo_distance(sp1, sp2) == expected, trial


def test_matching_distance_lower_bounds_exact():
    rng = random.Random(72)
    for trial in range(40):
        sp1, sp2 = random_isomorphic_pair(rng, max_vertices=7)
        exact = exact_graph_pseudo_distance(sp1, sp2)
        d_match, _ = matching_distance(extract_diagram(sp1), extract_diagram(sp2))
        assert d_match <= exact, f"trial {trial}: {d_match} > {exact}"


# -------------------------------------------------------------- full report


def test_bound_report_chain_isomorphic():
    rng = random.Random(73)
    for trial in range(25):
        sp1, sp2 = random_isomorphic_pair(rng, max_vertices=6)
        report = bound_report(sp1, sp2)
        assert report.exact is not None
        assert report.note is None
        assert report.earlier <= report.d_match <= report.exact, f"trial {trial}"
        d1, d2 = extract_diagram(sp1), extract_diagram(sp2)
        assert earlier_bound_grid_oracle(d1, d2, 0) <= report.earlier


def test_bound_report_chain_at_realistic_sizes():
    rng = random.Random(77)
    for trial in range(40):
        sp1, sp2 = random_isomorphic_pair(rng, max_vertices=60)
        report = bound_report(sp1, sp2, cap=60)
        assert report.exact is not None, f"trial {trial}: {report.note}"
        assert report.earlier <= report.d_match <= report.exact, f"trial {trial}"


def test_bound_report_non_isomorphic_sets_note():
    sp1 = path_fixture()
    sp2 = SizePair([("u", 0), ("v", 1)], [("u", "v")])
    report = bound_report(sp1, sp2)
    assert report.exact is None
    assert report.note is not None
    assert report.earlier <= report.d_match


def test_bound_report_respects_cap():
    rng = random.Random(74)
    sp1, sp2 = random_isomorphic_pair(rng, max_vertices=6)
    report = bound_report(sp1, sp2, cap=1)
    if sp1.n_vertices > 1:
        assert report.exact is None
        assert "cap" in report.note


def test_bound_report_json():
    sp1, sp2 = path_fixture(), path_fixture()
    report = bound_report(sp1, sp2)
    data = report.to_json_dict()
    assert data["chain_ok"] is True
    assert data["earlier_bound"] == 0.0
    assert data["d_match"] == 0.0
    assert data["exact_pseudo_distance"] == 0.0
    assert "matching" in data["witnesses"]
    assert isinstance(report, BoundReport)


def test_bound_json_is_lossless():
    third = F(1, 3)
    _, matching = matching_distance(Diagram(0, []), Diagram(0, []))
    witness = EarlierWitness(
        x=third, y=1, xi=F(1, 2), eta=F(2, 3), value_left=2, value_right=1, achieved=F(1, 6)
    )
    report = BoundReport(
        d_match=third, earlier=third, exact=third, matching=matching, earlier_witness=witness
    )
    data = json.loads(report.dumps())
    assert data["earlier_bound"] == data["d_match"] == data["exact_pseudo_distance"] == "1/3"
    earlier = data["witnesses"]["earlier"]
    assert (earlier["x"], earlier["eta"], earlier["achieved"]) == ("1/3", "2/3", "1/6")
    assert witness.to_json_dict()["x"] == "1/3"
