"""Lower and upper bounds bracketing the natural pseudo-distance."""

import inspect
import json
import random
import sys
from fractions import Fraction as F

import pytest

from sizematch import (
    BoundReport,
    Diagram,
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
from sizematch.bounds import EarlierWitness
from sizematch.selftest import random_diagram, random_isomorphic_pair, random_size_pair

from test_core import path_fixture


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


def test_exact_distance_search_depth_is_not_bounded_by_recursion():
    # a 200-vertex path: the search goes 200 mappings deep
    edges = [(i, i + 1) for i in range(199)]
    sp1 = SizePair([(i, 37 * i % 11) for i in range(200)], edges)
    sp2 = SizePair([(i, 37 * i % 11 + F(1, 8)) for i in range(200)], edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        assert exact_graph_pseudo_distance(sp1, sp2, cap=200) == F(1, 8)
    finally:
        sys.setrecursionlimit(limit)


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
