"""The property-suite runner itself: generators, statuses, determinism."""

import random
from fractions import Fraction as F

import pytest

from sizematch import Diagram, SizePair, run_selftest
from sizematch import selftest
from sizematch.selftest import (
    SuiteResult,
    _fail,
    _shrink_diagram_pair,
    _shrink_graph,
    _suite,
    perturbed_values,
    random_diagram,
    random_isomorphic_pair,
    random_size_pair,
)


def test_generators_produce_valid_objects():
    rng = random.Random(90)
    for _ in range(50):
        sp = random_size_pair(rng)
        assert isinstance(sp, SizePair)
        assert 1 <= sp.n_vertices <= 10
        d = random_diagram(rng)
        for p, m in d.points:
            assert p.x >= d.infinity_x and m >= 1


def test_perturbed_values_stay_within_epsilon():
    rng = random.Random(91)
    for _ in range(50):
        sp = random_size_pair(rng)
        eps = F(rng.randint(0, 8), 8)
        moved = perturbed_values(rng, sp, eps)
        assert set(moved) == set(sp.vertex_ids)
        for v in sp.vertex_ids:
            assert abs(moved[v] - F(sp.value(v))) <= eps


def test_isomorphic_pair_preserves_shape():
    rng = random.Random(92)
    for _ in range(30):
        sp1, sp2 = random_isomorphic_pair(rng)
        assert sp1.n_vertices == sp2.n_vertices
        assert sp1.n_edges == sp2.n_edges
        assert sorted(sp1.degree(v) for v in sp1.vertex_ids) == sorted(
            sp2.degree(v) for v in sp2.vertex_ids
        )


def test_run_selftest_passes_and_is_deterministic():
    results, ok = run_selftest(seed=123, cap=6, scale=1)
    again, ok2 = run_selftest(seed=123, cap=6, scale=1)
    assert ok and ok2
    assert [r.name for r in results] == [r.name for r in again]
    assert [r.status for r in results] == [r.status for r in again]
    assert [r.cases for r in results] == [r.cases for r in again]
    assert all(isinstance(r, SuiteResult) and r.status == "pass" for r in results)


def test_run_selftest_cap_zero_skips():
    results, ok = run_selftest(seed=1, cap=0, scale=1)
    assert ok
    by_name = {r.name: r for r in results}
    assert by_name["oracle_equivalence"].status == "skip"
    assert by_name["bound_chain"].status == "skip"
    assert by_name["metric_axioms"].status == "pass"


# ------------------------------------------------------------ failure paths


def test_suite_reports_the_first_failing_case():
    def plain(i):
        if i == 2:
            raise AssertionError("plain message")

    def with_data(i):
        if i == 1:
            _fail("with data", {"k": 1})

    def raising(i):
        raise KeyError("x")

    outcomes = [
        (r.status, r.cases, r.message, r.counterexample)
        for r in (_suite("s", 5, plain), _suite("s", 5, with_data), _suite("s", 5, raising))
    ]
    assert outcomes == [
        ("fail", 3, "plain message", None),
        ("fail", 2, "with data", {"k": 1}),
        ("fail", 1, "KeyError: 'x'", None),
    ]


def test_shrink_graph_drops_vertices_while_the_check_fails_or_raises():
    path = SizePair([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])

    def raises(g):
        raise RuntimeError("check crashed")

    # a crashing check counts as a failing one
    assert _shrink_graph(path, raises).n_vertices == 1
    # dropping "b" first would disconnect the path, so "a" goes first
    assert _shrink_graph(path, lambda g: "b" in g.vertex_ids).vertex_ids == ("b",)


def test_shrink_diagram_pair_lowers_multiplicities_while_failing_or_raising():
    d1 = Diagram(0, [((0, 2), 2), ((1, 3), 1)])
    d2 = Diagram(1, [((1, 2), 1)])

    def raises(a, b):
        raise RuntimeError("check crashed")

    assert _shrink_diagram_pair(d1, d2, raises) == (Diagram(0), Diagram(1))
    def needs_x0(a, b):
        return any(p.x == 0 for p, _ in a.points)

    assert _shrink_diagram_pair(d1, d2, needs_x0) == (Diagram(0, [((0, 2), 1)]), Diagram(1))


def test_oracle_failure_shrinks_to_empty_diagrams(monkeypatch):
    monkeypatch.setattr(selftest, "brute_force_matching_distance", lambda d1, d2, cap: F(-1))
    results, ok = run_selftest(seed=0)
    assert not ok
    by_name = {r.name: r for r in results}
    oracle = by_name.pop("oracle_equivalence")
    assert (oracle.status, oracle.cases) == ("fail", 1)
    assert oracle.message.endswith(" != brute force -1")
    assert oracle.counterexample["d1"]["points"] == [] == oracle.counterexample["d2"]["points"]
    assert all(r.status == "pass" for r in by_name.values())


@pytest.mark.parametrize("seed", [0, 1])
def test_representation_failure_shrinks_to_one_vertex(monkeypatch, seed):
    monkeypatch.setattr(
        selftest,
        "evaluate_diagram_on_grid",
        lambda diagram, xs, ys: {(x, y): -1 for x in xs for y in ys},
    )
    first = random_size_pair(random.Random(f"{seed}:representation"))
    assert first.n_vertices > 1  # so the shrink has work to do
    results, ok = run_selftest(seed=seed, cap=0)
    assert not ok
    representation = results[0]
    assert representation.name == "representation_round_trips"
    assert (representation.status, representation.cases) == ("fail", 1)
    assert representation.message.startswith("representation mismatch at ")
    assert len(representation.counterexample["vertices"]) == 1
    assert representation.counterexample["edges"] == []
