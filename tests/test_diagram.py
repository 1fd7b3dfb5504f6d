"""Cornerpoint diagrams: extraction, multiplicities, representation identity."""

import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from sizematch import (
    Diagram,
    ExtendedPoint,
    count_in_square,
    evaluate_diagram,
    evaluate_diagram_on_grid,
    extract_diagram,
    multiplicity,
    multiplicity_at_infinity,
    multiplicity_grid,
    reduced_size_function,
    size_function_on_grid,
    SizePair,
)
from sizematch._rational import number_to_json
from sizematch.core import _quarter_gap_grid
from sizematch.diagram import _on_one_unit
from sizematch.realize import RectField
from sizematch.selftest import random_diagram, random_size_pair

from test_core import path_fixture


def star_fixture():
    """Center at 1 with three leaves at 0: two cornerpoints stacked at (0, 1)."""
    return SizePair(
        [("c", 1), ("l1", 0), ("l2", 0), ("l3", 0)],
        [("c", "l1"), ("c", "l2"), ("c", "l3")],
    )


def two_merge_fixture():
    """Two separate merges at distinct levels plus a zero-persistence vertex."""
    return SizePair(
        [("a", 0), ("b", 1), ("m1", 2), ("c", 1), ("m2", 4), ("z", 4)],
        [("a", "m1"), ("b", "m1"), ("m1", "m2"), ("c", "m2"), ("m2", "z")],
    )


# --------------------------------------------------------------- extraction


def test_path_diagram():
    d = extract_diagram(path_fixture())
    assert d.infinity_x == 0
    assert d.points == (
        (ExtendedPoint(0, 3), 1),
        (ExtendedPoint(1, 2), 1),
    )


def test_star_diagram_multiplicity_two():
    d = extract_diagram(star_fixture())
    assert d.infinity_x == 0
    assert d.points == ((ExtendedPoint(0, 1), 2),)
    assert d.total_multiplicity == 2


def test_two_merge_diagram():
    d = extract_diagram(two_merge_fixture())
    assert d.infinity_x == 0
    assert dict(d.points) == {
        ExtendedPoint(1, 2): 1,
        ExtendedPoint(1, 4): 1,
    }


def test_zero_persistence_merges_are_dropped():
    # both vertices appear at level 0; the merge at 0 has no persistence
    sp = SizePair([("a", 0), ("b", 0)], [("a", "b")])
    d = extract_diagram(sp)
    assert d.infinity_x == 0
    assert d.points == ()


def test_elder_rule_tie_breaks_by_id():
    # two vertices born at the same level merge later: either could survive
    # the merge, but the diagram only records (birth, death) = (0, 2) once
    sp = SizePair([("p", 0), ("q", 0), ("top", 2)], [("p", "top"), ("q", "top")])
    d = extract_diagram(sp)
    assert d.points == ((ExtendedPoint(0, 2), 1),)


def test_extraction_births_count():
    """Every component born in the sweep either dies at a merge or survives.

    With pairwise-distinct vertex values no merge has zero persistence, so
    total multiplicity + 1 equals the number of births, and a vertex opens a
    component exactly when it has no neighbor of strictly smaller value.
    """
    rng = random.Random(50)
    for _ in range(30):
        base = random_size_pair(rng, max_vertices=9)
        ids = sorted(base.vertex_ids)
        levels = rng.sample(range(8 * len(ids)), len(ids))
        sp = SizePair(
            [(v, F(levels[i], 8)) for i, v in enumerate(ids)], base.edges
        )
        births = sum(
            1
            for v in sp.vertex_ids
            if all(sp.value(u) > sp.value(v) for u in sp.neighbors(v))
        )
        d = extract_diagram(sp)
        assert d.total_multiplicity + 1 == births
        assert d.infinity_x == sp.min_value


def test_extraction_births_bound_with_ties():
    # with ties, zero-persistence merges are dropped, leaving an inequality
    rng = random.Random(51)
    for _ in range(30):
        sp = random_size_pair(rng, max_vertices=9)
        d = extract_diagram(sp)
        assert d.total_multiplicity + 1 <= sp.n_vertices
        assert d.infinity_x == sp.min_value


def _tied_graph(seed):
    """50-400 vertices on 3-6 shared levels of 1/12 steps, each value an int,
    float or Fraction where that type holds it exactly; a random tree plus
    extra edges.  Seed 0 names its vertices 0, 1, ... and one more "1"."""
    rng = random.Random(f"extract-ranks:{seed}")
    n = rng.randint(50, 400)
    levels = [F(k, 12) for k in rng.sample(range(-12, 48), rng.randint(3, 6))]

    def value(level):
        forms = [level]
        if level.denominator in (1, 2, 4):
            forms.append(float(level))
        if level.denominator == 1:
            forms.append(int(level))
        return rng.choice(forms)

    ids = list(range(n - 1)) + ["1"] if seed == 0 else [f"v{i}" for i in range(n)]
    rng.shuffle(ids)
    edges = {frozenset((ids[i], ids[rng.randrange(i)])) for i in range(1, n)}
    for _ in range(n // 4):
        edges.add(frozenset(rng.sample(ids, 2)))
    return [(v, value(rng.choice(levels))) for v in ids], [tuple(e) for e in edges]


# (infinity_x, "x,y,multiplicity ...") of _tied_graph(seed), computed by the
# extraction that sorted each vertex's neighbours by (value, id) before merging
TIED_EXPECTED = [
    ("5/6", "5/6,1,16 5/6,5/3,27 1,5/3,25"),
    ("-11/12", "-11/12,3/4,2 -11/12,13/6,3 -11/12,11/4,1 3/4,13/6,2 3/4,11/4,3"),
    ("-7/12", "-7/12,0,5 -7/12,2,9 -7/12,47/12,7 0,2,9 0,47/12,5 2,47/12,2"),
    ("-1", "-1,-5/12,3 -1,11/6,13 -1,7/2,15 -1,11/3,8 -5/12,11/6,9 -5/12,7/2,11 "
     "-5/12,11/3,4 11/6,7/2,8 11/6,11/3,8 7/2,11/3,6"),
    ("-1", "-1,-3/4,2 -1,19/12,5 -1,11/4,2 -1,23/6,1 -3/4,19/12,2 -3/4,23/6,1"),
    ("-7/12", "-7/12,-5/12,10 -7/12,3/4,13 -7/12,35/12,4 -5/12,3/4,6 -5/12,35/12,4 "
     "3/4,35/12,4"),
    ("-1", "-1,1/2,9 -1,19/6,12 -1,11/3,11 -1,47/12,5 1/2,19/6,10 1/2,11/3,3 1/2,47/12,4 "
     "19/6,11/3,3 19/6,47/12,3 11/3,47/12,5"),
    ("-1", "-1,-5/6,3 -1,-2/3,9 -1,0,5 -1,23/12,5 -1,7/3,3 -5/6,-2/3,2 -5/6,0,5 "
     "-5/6,23/12,2 -5/6,7/3,3 -2/3,0,6 -2/3,23/12,1 -2/3,7/3,3 0,23/12,5 0,7/3,2"),
    ("1/6", "1/6,2,8 1/6,17/6,21 1/6,41/12,13 2,17/6,15 2,41/12,6 17/6,41/12,4"),
    ("-1/6", "-1/6,1/4,19 -1/6,1,12 -1/6,2,13 -1/6,43/12,7 1/4,1,11 1/4,2,5 1/4,43/12,11 "
     "1,2,1 1,43/12,1 2,43/12,2"),
    ("-11/12", "-11/12,17/12,6 -11/12,10/3,7 -11/12,23/6,4 17/12,23/6,3 10/3,23/6,2"),
    ("-3/4", "-3/4,5/12,6 -3/4,2,8 5/12,2,2"),
    ("-11/12", "-11/12,-2/3,17 -11/12,1/6,6 -2/3,1/6,8"),
    ("-11/12", "-11/12,-1/4,3 -11/12,0,11 -11/12,5/6,6 -11/12,17/12,4 -11/12,23/6,5 -1/4,0,4 "
     "-1/4,5/6,8 -1/4,17/12,9 -1/4,23/6,1 0,5/6,3 0,17/12,3 0,23/6,1 5/6,17/12,3 "
     "5/6,23/6,2 17/12,23/6,2"),
    ("1/3", "1/3,1/2,31 1/3,41/12,36 1/2,41/12,9"),
    ("-1/12", "-1/12,1/4,2 -1/12,3/2,3 -1/12,25/12,5 -1/12,19/6,5 1/4,3/2,3 1/4,25/12,1 "
     "1/4,19/6,9 1/4,43/12,5 3/2,25/12,2 3/2,19/6,3 3/2,43/12,5 25/12,19/6,3 "
     "25/12,43/12,2 19/6,43/12,1"),
    ("-11/12", "-11/12,-3/4,9 -11/12,7/12,16 -11/12,23/12,21 -11/12,7/2,8 -3/4,7/12,11 "
     "-3/4,23/12,10 -3/4,7/2,5 7/12,23/12,6 7/12,7/2,6 23/12,7/2,6"),
    ("-2/3", "-2/3,35/12,25 -2/3,37/12,18 35/12,37/12,10"),
    ("11/12", "11/12,11/6,5 11/12,11/4,2 11/12,13/4,2 5/3,11/6,1 11/6,11/4,2 11/6,13/4,1"),
    ("-1/3", "-1/3,7/4,4 -1/3,3,4 -1/3,41/12,4 -1/3,23/6,3 5/4,7/4,7 5/4,3,3 5/4,41/12,4 "
     "5/4,23/6,2 7/4,3,1 7/4,41/12,1 7/4,23/6,3 3,41/12,1 3,23/6,1 41/12,23/6,1"),
]


@pytest.mark.parametrize("seed", range(len(TIED_EXPECTED)))
def test_extraction_exact_on_tied_graphs(seed):
    vertices, edges = _tied_graph(seed)
    sp = SizePair(vertices, edges)
    d = extract_diagram(sp)
    infinity_x, points = TIED_EXPECTED[seed]
    rows = [row.split(",") for row in points.split()]
    assert d == Diagram(F(infinity_x), [((F(x), F(y)), int(m)) for x, y, m in rows])
    grid = _quarter_gap_grid(sp.critical_values)
    assert evaluate_diagram_on_grid(d, grid, grid) == size_function_on_grid(sp, grid, grid)


# ------------------------------------------------------------- multiplicity


def test_multiplicity_at_cornerpoints_and_elsewhere():
    sp = path_fixture()
    assert multiplicity(sp, 1, 2) == 1
    assert multiplicity(sp, 0, 3) == 1
    assert multiplicity(sp, 0, 2) == 0
    assert multiplicity(sp, 2, 3) == 0
    assert multiplicity(sp, F(1, 2), F(3, 2)) == 0


def test_multiplicity_regression_near_vertical_gap():
    """A probe point horizontally close to a cornerpoint used to bleed its
    multiplicity when the probe spacing exceeded half the local gap."""
    sp = path_fixture()
    assert multiplicity(sp, F(3, 4), 2) == 0
    assert multiplicity(sp, F(7, 8), 2) == 0
    assert multiplicity(sp, 1, F(9, 4)) == 0


def test_multiplicity_star_stack():
    assert multiplicity(star_fixture(), 0, 1) == 2


def test_multiplicity_rejects_bad_domain():
    sp = path_fixture()
    with pytest.raises(ValueError):
        multiplicity(sp, 2, 2)


def test_multiplicity_at_infinity():
    sp = path_fixture()
    assert multiplicity_at_infinity(sp, 0) == 1
    assert multiplicity_at_infinity(sp, 1) == 0
    assert multiplicity_at_infinity(sp, -5) == 0
    star = star_fixture()
    assert multiplicity_at_infinity(star, 0) == 1


def test_multiplicity_equals_extracted_everywhere():
    rng = random.Random(51)
    for trial in range(25):
        sp = random_size_pair(rng, max_vertices=8)
        d = extract_diagram(sp)
        expected = {(p.x, p.y): m for p, m in d.points}
        values = sorted(set(F(sp.value(v)) for v in sp.vertex_ids))
        probes = set(values)
        probes.update(a + F(1, 3) for a in values)
        if len(values) >= 2:
            probes.update((a + b) / 2 for a, b in zip(values, values[1:]))
        for x in sorted(probes):
            for y in sorted(probes):
                if x < y:
                    assert multiplicity(sp, x, y) == expected.get((x, y), 0), (
                        f"trial {trial}: mu({x},{y})"
                    )
        ks = sorted(set(values) | {values[0] - 1, (values[0] + values[-1]) / 2})
        for k in ks:
            want = 1 if k == d.infinity_x else 0
            assert multiplicity_at_infinity(sp, k) == want, f"trial {trial}: mu_inf({k})"


def test_multiplicity_grid_matches_single_point_calls():
    rng = random.Random(52)
    for _ in range(20):
        sp = random_size_pair(rng, max_vertices=8)
        values = sorted(set(F(sp.value(v)) for v in sp.vertex_ids))
        coords = sorted(
            set(values)
            | {a + F(1, 4) for a in values}
            | {values[0] - F(1, 2), values[-1] + F(1, 2)}
        )
        grid = multiplicity_grid(sp, coords)
        for x in coords:
            for y in coords:
                if x < y:
                    assert grid[(x, y)] == multiplicity(sp, x, y)


# ------------------------------------------------------------ square counts


def test_count_in_square_frozen():
    sp = path_fixture()
    assert count_in_square(sp, (1, 2), F(1, 4)) == 1
    assert count_in_square(sp, ExtendedPoint(1, 2), F(1, 4)) == 1
    assert count_in_square(sp, (F(9, 10), F(21, 10)), F(2, 5)) == 1
    assert count_in_square(sp, (F(1, 2), F(5, 2)), F(3, 4)) == 2
    assert count_in_square(sp, (2, 3), F(1, 4)) == 0


def test_count_in_square_star():
    assert count_in_square(star_fixture(), (0, 1), F(1, 4)) == 2


def test_count_in_square_rejects_degenerate():
    sp = path_fixture()
    with pytest.raises(ValueError):
        count_in_square(sp, (1, 2), 0)
    with pytest.raises(ValueError):
        count_in_square(sp, (1, 2), F(1, 2))  # square touches the diagonal
    with pytest.raises(ValueError):
        count_in_square(sp, ExtendedPoint.at_infinity(0), F(1, 4))
    with pytest.raises(ValueError):
        count_in_square(sp, "center", F(1, 4))


# ------------------------------------------------ representation identity


def test_representation_identity_on_path():
    sp = path_fixture()
    d = extract_diagram(sp)
    for x in [F(-1, 2), 0, F(1, 2), 1, F(3, 2), 2, F(5, 2), 3]:
        for y in [F(1, 2), 1, F(3, 2), 2, F(5, 2), 3, F(7, 2)]:
            if x < y:
                assert evaluate_diagram(d, x, y) == reduced_size_function(sp, x, y)


def test_representation_identity_seeded():
    rng = random.Random(53)
    for trial in range(40):
        sp = random_size_pair(rng, max_vertices=10)
        d = extract_diagram(sp)
        values = sorted(set(F(sp.value(v)) for v in sp.vertex_ids))
        grid = sorted(
            set(values)
            | {a + F(1, 4) for a in values}
            | {values[0] - 1, values[-1] + 1}
        )
        direct = size_function_on_grid(sp, grid, grid)
        viadiag = evaluate_diagram_on_grid(d, grid, grid)
        assert direct == viadiag, f"trial {trial}"


def test_evaluate_diagram_fig_layout():
    d = Diagram(0, [((1, 4), 2), ((2, 3), 1), ((0, 1), 1)])
    assert evaluate_diagram(d, F(3, 2), F(7, 2)) == 3
    assert evaluate_diagram(d, F(-1, 2), 5) == 0
    assert evaluate_diagram(d, 0, F(1, 2)) == 2  # infinity line + (0,1)
    assert evaluate_diagram(d, 10, 11) == 1


def _evaluate_reference(d, x, y):
    """The representation formula transcribed over ``d.points``, compared exactly."""
    total = 1 if d.infinity_x <= x else 0
    for point, mult in d.points:
        if point.x <= x and point.y > y:
            total += mult
    return total


def test_evaluate_matches_grid_evaluator():
    rng = random.Random(54)
    for _ in range(30):
        inf_x = F(rng.randint(-4, 4), 2)
        pts = []
        for _ in range(rng.randint(0, 5)):
            x = inf_x + F(rng.randint(0, 8), 2)
            pts.append(((x, x + F(rng.randint(1, 6), 2)), rng.randint(1, 2)))
        d = Diagram(inf_x, pts)
        coords = sorted({inf_x - 1, inf_x, inf_x + F(1, 2)}
                        | {p[0][0] for p in pts}
                        | {p[0][1] for p in pts}
                        | {p[0][1] + F(1, 3) for p in pts})
        table = evaluate_diagram_on_grid(d, coords, coords)
        for x in coords:
            for y in coords:
                if x < y:
                    assert table[(x, y)] == evaluate_diagram(d, x, y) == _evaluate_reference(d, x, y)


def test_both_evaluators_equal_the_formula_between_scale_steps_seeded():
    rng = random.Random(55)
    for trial in range(150):
        den = rng.choice((1, 3, 5, 7, 64, 63))
        inf_x = F(rng.randint(-64, 64), den)
        pts = []
        for _ in range(rng.randint(0, 6)):
            x = inf_x + F(rng.randint(0, 96), den)
            pts.append(((x, x + F(rng.randint(1, 96), den)), rng.randint(1, 3)))
        d = Diagram(inf_x, pts)
        breaks = {inf_x} | {c for (point, _) in pts for c in point}
        between = {b + F(rng.choice((-1, 1)), rng.choice((3, 7, 128))) for b in breaks}
        coords = sorted(breaks | between | {F(rng.randint(-300, 300), 21) for _ in range(6)})
        table = evaluate_diagram_on_grid(d, coords, coords)
        assert len(table) == sum(x < y for x in coords for y in coords)
        for (x, y), value in table.items():
            assert value == _evaluate_reference(d, x, y), f"trial {trial}"
        floats = [float(c) for c in coords] + [rng.uniform(-8, 8) for _ in range(4)]
        for x, y in ([(c, e) for c in coords for e in (-math.inf, math.inf)]
                     + [(-math.inf, c) for c in floats]
                     + [(rng.choice(floats), rng.choice(coords)) for _ in range(20)]
                     + [(rng.choice(coords), rng.choice(floats)) for _ in range(20)]):
            if x < y:
                assert evaluate_diagram(d, x, y) == _evaluate_reference(d, x, y), (trial, x, y)
        assert evaluate_diagram_on_grid(d, floats, floats) == {
            (F(x), F(y)): _evaluate_reference(d, x, y) for x in floats for y in floats if x < y}


def test_both_evaluators_refuse_a_bool():
    d = Diagram(0, [((1, 2), 1)])
    for x, y in ((False, True), (0, True), (False, 1)):
        with pytest.raises(TypeError, match="bool"):
            evaluate_diagram(d, x, y)
        with pytest.raises(TypeError, match="bool"):
            evaluate_diagram_on_grid(d, [x], [y])


def test_the_evaluators_read_neither_points_nor_copies(monkeypatch):
    d = Diagram(0, [((F(1, 2), 2), 1), ((1, 3), 2)])

    def refuse(*_):
        raise AssertionError("an evaluator read the points")

    monkeypatch.setattr(Diagram, "points", property(refuse))
    monkeypatch.setattr(Diagram, "expanded", refuse)
    assert evaluate_diagram(d, 1, 2) == 3
    assert evaluate_diagram(d, F(-1, 2), math.inf) == 0
    assert evaluate_diagram_on_grid(d, [0, 1], [2, 3]) == {(0, 3): 1, (1, 3): 1, (0, 2): 1, (1, 2): 3}


# ------------------------------------------------------------ Diagram type


def test_diagram_accumulates_multiplicities_and_sorts():
    d = Diagram(0, [((2, 3), 1), ((1, 2), 1), (((1, 2)), 1)])
    assert d.points == ((ExtendedPoint(1, 2), 2), (ExtendedPoint(2, 3), 1))


def _dict_and_sort_points(entries):
    """The construction Diagram used before its integer scale: a dict, then a Fraction sort."""
    counts = {}
    for (x, y), mult in entries:
        point = ExtendedPoint(x, y)
        counts[point] = counts.get(point, 0) + mult
    return tuple(sorted(counts.items(), key=lambda pm: (pm[0].x, pm[0].y)))


def test_diagram_merges_on_its_integer_scale_like_the_dict_reference():
    rng = random.Random(15)
    den = lambda: rng.choice([1, 3, 7, 64])

    def spelled(value):
        """value as a Fraction, or as an int or a float when one holds it exactly."""
        forms = [value]
        if value.denominator == 1:
            forms.append(int(value))
        if value.denominator in (1, 64) and abs(value) < 2**53:
            forms.append(float(value))
        return rng.choice(forms)

    for _ in range(300):
        infinity_x = F(rng.randint(-20, 20), den())
        distinct = {}
        for _ in range(rng.randint(0, 6)):
            x = infinity_x + F(rng.randint(0, 40), den())
            y = 10**400 if rng.random() < 0.1 else x + F(rng.randint(1, 30), den())
            distinct[x, F(y)] = rng.randint(1, 4)
        canonical = []
        for point, mult in distinct.items():
            while mult:  # one point's multiplicity split across entries
                part = rng.randint(1, mult)
                canonical.append((point, part))
                mult -= part
        rng.shuffle(canonical)
        entries = []
        for (x, y), mult in canonical:
            x, y = spelled(x), spelled(y)
            shape = rng.randrange(3 if mult == 1 else 2)
            entries.append([((x, y), mult), (ExtendedPoint(x, y), mult), (x, y)][shape])
        d = Diagram(spelled(infinity_x), entries)
        assert d.points == _dict_and_sort_points(canonical)
        assert d._scale == math.lcm(
            d.infinity_x.denominator, *(c.denominator for p, _ in d.points for c in (p.x, p.y))
        )
        assert d._rows == tuple((p.x * d._scale, p.y * d._scale, m) for p, m in d.points)
        assert all(type(v) is int for row in d._rows for v in row)
        again = Diagram(infinity_x, canonical)
        assert d == again and hash(d) == hash(again)
        assert d.points is d.points
    for entry in (ExtendedPoint(1, 2), (1, 2, 1)):
        with pytest.raises(ValueError, match=r"^cannot interpret diagram point entry "):
            Diagram(0, [entry])


def test_diagrams_of_equal_rows_on_different_scales_differ():
    whole = Diagram(0, [((1, 3), 1)])
    halves = Diagram(0, [((F(1, 2), F(3, 2)), 1)])
    assert whole._rows == halves._rows == ((1, 3, 1),)
    assert whole != halves
    assert whole.points != halves.points


def test_on_one_unit_puts_both_diagrams_on_twice_the_lcm_of_their_scales():
    rng = random.Random(24)
    pairs = [(random_diagram(rng), random_diagram(rng)) for _ in range(60)]
    for den1, den2 in ((3, 5), (7, 64), (64, 3), (5, 7), (3, 3)):
        pairs.append((
            Diagram(F(-1, den1), [((F(1, den1), F(7, den1)), 2), ((0, 2), 1), ((F(2, 3), 1), 1)]),
            Diagram(F(1, den2), [((F(1, den2), F(9, den2)), 1), ((F(3, 64), F(1, 7)), 3)]),
        ))
    pairs.append((Diagram(0), Diagram(F(1, 5))))
    for d1, d2 in pairs:
        unit, rows1, rows2, infinity1, infinity2 = _on_one_unit(d1, d2)
        assert unit == 2 * math.lcm(d1._scale, d2._scale)
        assert type(infinity1) is type(infinity2) is int and (infinity1, infinity2) == (
            d1.infinity_x * unit, d2.infinity_x * unit)
        for d, rows in ((d1, rows1), (d2, rows2)):
            expected = [(p.x * unit, p.y * unit, m) for p, m in d.points]
            assert all(x.denominator == y.denominator == 1 for x, y, _ in expected)
            assert rows == expected
            assert all(type(x) is type(y) is int and (y - x) % 2 == 0 for x, y, _ in rows)


def test_a_diagram_builds_no_point_until_points_is_read(monkeypatch):
    def refuse(cls, x, y):
        raise AssertionError("a point was built")

    monkeypatch.setattr(ExtendedPoint, "_exact", classmethod(refuse))
    built = Diagram(F(-1, 2), [((F(1, 4), F(7, 4)), 2), ((0.5, 3), 1), ((F(1, 2), 3), 1)])
    loaded = Diagram.from_json_dict(
        {"infinity_x": -0.5, "points": [[0.25, "7/4", 2], ["1/2", 3, 2]]}
    )
    sp = SizePair([("a", 0), ("b", 2), ("c", 1), ("d", 3)], [("a", "b"), ("b", "c"), ("c", "d")])
    extracted = extract_diagram(sp)
    assert built == loaded and hash(built) == hash(loaded)
    assert built.total_multiplicity == 4
    assert extracted == Diagram(0, [((1, 2), 1)]) and extracted.total_multiplicity == 1
    with pytest.raises(AssertionError, match="a point was built"):
        built.points


def test_diagram_json_is_written_from_its_rows_seeded(monkeypatch):
    # each coordinate is encoded from its row int and the scale: the bytes are
    # those of number_to_json on the point's Fractions, and no point is built
    rng = random.Random(19)
    cases = [Diagram(0, []), Diagram(F(-1, 3), [((F(1, 3), 1), 1), ((0, 10**400), 2)])]
    cases.append(Diagram.from_json_dict(
        {"infinity_x": 0, "points": [[0, "%d/1" % 10**400, 1], ["1/7", 0.75, 2]]}))
    for _ in range(150):
        dens = rng.choice([(1, 2, 1024), (1, 3, 7, 21), (2**60, 3), (5, 10**6 + 3, 64)])
        infinity_x = F(rng.randint(-50, 50), rng.choice(dens))
        entries = []
        for _ in range(rng.randint(1, 8)):
            x = infinity_x + F(rng.randint(0, 99), rng.choice(dens))
            y = x + (F(10**400) if rng.random() < 0.05 else F(rng.randint(1, 99), rng.choice(dens)))
            entries.append(((x, y), rng.randint(1, 3)))
        cases.append(Diagram(infinity_x, entries))
    expected = [
        {"infinity_x": number_to_json(d.infinity_x),
         "points": [[number_to_json(p.x), number_to_json(p.y), m] for p, m in d.points]}
        for d in cases
    ]
    fresh = [Diagram(d.infinity_x, d.points) for d in cases]  # no points read yet

    def refuse(cls, x, y):
        raise AssertionError("a point was built")

    monkeypatch.setattr(ExtendedPoint, "_exact", classmethod(refuse))
    assert any(d._scale % 2 and d._scale > 1 for d in fresh)
    for d, want in zip(fresh, expected):
        assert d.to_json_dict() == want
        assert d.dumps() == json.dumps(want)


def test_diagram_rejects_on_or_below_diagonal():
    with pytest.raises(ValueError):
        ExtendedPoint(1, 1)
    with pytest.raises(ValueError):
        Diagram(0, [((2, 1), 1)])


def test_diagram_rejects_bad_multiplicity():
    with pytest.raises(ValueError):
        Diagram(0, [((1, 2), 0)])
    with pytest.raises(ValueError):
        Diagram(0, [((1, 2), -1)])


def test_extended_point_at_infinity():
    p = ExtendedPoint.at_infinity(F(1, 2))
    assert p.is_at_infinity
    assert p.y == math.inf
    assert p.persistence == math.inf


def test_diagram_expanded():
    d = Diagram(0, [((1, 2), 2), ((0, 3), 1)])
    assert d.expanded() == (
        ExtendedPoint(0, 3),
        ExtendedPoint(1, 2),
        ExtendedPoint(1, 2),
    )


def test_diagram_json_round_trip_bit_exact():
    d = Diagram(F(-1, 2), [((F(1, 4), F(7, 4)), 2), ((F(1, 2), 3), 1)])
    again = Diagram.loads(d.dumps())
    assert again == d
    assert again.infinity_x == F(-1, 2)
    assert again.points[0][0].x == F(1, 4)


def test_diagram_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Diagram.from_json_dict({"points": []})
    with pytest.raises(ValueError):
        Diagram.from_json_dict({"infinity_x": 0, "points": [[1, 2]]})
    with pytest.raises(ValueError):
        Diagram.from_json_dict({"infinity_x": 0, "points": [[1, 2, 1, 9]]})


def test_diagram_json_round_trip_beyond_float():
    # 1/3 has no float and 10**400 overflows one: both travel as exact literals
    d = Diagram(F(-1, 3), [((F(1, 3), 1), 1), ((0, 10**400), 2)])
    text = d.dumps()
    assert Diagram.loads(text) == d
    assert json.loads(text) == {
        "infinity_x": "-1/3",
        "points": [[0, 10**400, 2], ["1/3", 1, 1]],
    }


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads ints of any length from text")
@pytest.mark.parametrize("kind", [Diagram, RectField], ids=["Diagram", "RectField"])
def test_loads_refuses_an_int_too_long_to_read_in_one_message(kind):
    # the int literal is refused while the JSON is read, before its shape is looked at
    text = '{"infinity_x": 0, "points": [[0, 1' + "0" * 4400 + ", 1]]}"
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as info:
            kind.loads(text)
    finally:
        sys.set_int_max_str_digits(before)
    message = str(info.value)
    assert message == ("an exact number holds an integer of more than 4300 digits, more than "
                       "this interpreter reads from text (sys.get_int_max_str_digits() is 4300)")
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_diagram_json_integral_values_print_as_integers():
    d = Diagram(0, [((0, 3), 1), ((F(1, 2), 2), 1)])
    assert d.dumps() == '{"infinity_x": 0, "points": [[0, 3, 1], [0.5, 2, 1]]}'


@pytest.mark.parametrize(
    "data",
    [
        {"infinity_x": "a/b", "points": []},
        {"infinity_x": 0, "points": [["1/0", 1, 1]]},
        {"infinity_x": 0, "points": [[0, "1//2", 1]]},
        {"infinity_x": 0, "points": [["1/3", "1/4", 1]]},
        {"infinity_x": 0, "points": [[None, 1, 1]]},
    ],
)
def test_diagram_json_rejects_bad_numbers(data):
    with pytest.raises(ValueError, match=r"^diagram JSON: "):
        Diagram.from_json_dict(data)


# (stage, JSON row, message) per fault: from_json_dict reports a bad number
# (stage 0) before any multiplicity or diagonal fault (stage 1) of an earlier row
JSON_FAULTS = {
    "bad number": (0, '["abc", 2, 1]', "malformed rational literal 'abc'"),
    "NaN": (0, "[1, NaN, 1]", "expected a finite number, got nan"),
    "Infinity": (0, "[1, Infinity, 1]", "expected a finite number, got inf"),
    "bool": (0, "[true, 2, 1]", "expected a real number, got a bool"),
    "bad p/q": (0, '[1, "1/0", 1]', "malformed rational literal '1/0'"),
    "null": (0, "[1, null, 1]", "expected a real number, got NoneType"),
    "multiplicity 0": (1, "[1, 2, 0]", "multiplicity must be a positive integer, got 0"),
    "multiplicity 1.5": (1, "[1, 2, 1.5]", "multiplicity must be a positive integer, got 1.5"),
    "on the diagonal": (1, "[1, 1, 1]", "point must lie strictly above the diagonal, got (1, 1)"),
    "below the diagonal": (
        1, '["5/2", 0.5, 1]', "point must lie strictly above the diagonal, got (5/2, 1/2)"
    ),
    "float on the diagonal": (
        1,
        "[0.1, 0.1, 2]",
        "point must lie strictly above the diagonal, got "
        "(3602879701896397/36028797018963968, 3602879701896397/36028797018963968)",
    ),
}

# (entry, exception, message) per fault of Diagram(...), which checks entry by entry
API_FAULTS = {
    "bad number": (((1, "2"), 1), TypeError, "expected a real number, got str"),
    "NaN": (((math.nan, 2), 1), ValueError, "expected a finite number, got nan"),
    "x = inf": (((math.inf, 2), 1), ValueError, "expected a finite number, got inf"),
    "bool": (((True, 2), 1), TypeError, "expected a real number, got a bool"),
    "multiplicity 0": (((1, 2), 0), ValueError, "multiplicity must be a positive integer, got 0"),
    "multiplicity True": (
        ((1, 2), True), ValueError, "multiplicity must be a positive integer, got True"
    ),
    "on the diagonal": (
        ((F(1, 3), F(1, 3)), 1),
        ValueError,
        "point must lie strictly above the diagonal, got (1/3, 1/3)",
    ),
    "below the diagonal": (
        ((2.5, 2), 1), ValueError, "point must lie strictly above the diagonal, got (5/2, 2)"
    ),
    "y = inf": (
        ((1, math.inf), 1),
        ValueError,
        "the cornerpoint at infinity is given by infinity_x, not a point",
    ),
    "point at infinity": (
        (ExtendedPoint.at_infinity(1), 2),
        ValueError,
        "the cornerpoint at infinity is given by infinity_x, not a point",
    ),
    "malformed entry": ((1, 2, 3), ValueError, "cannot interpret diagram point entry (1, 2, 3)"),
}


def _two_fault_cases(faults, seed):
    """Valid rows and two row indices i < j for every ordered pair (first, second) of faults."""
    rng = random.Random(seed)
    for first in faults:
        for second in faults:
            n = rng.randint(2, 6)
            i, j = sorted(rng.sample(range(n), 2))
            rows = [None] * n
            for k in range(n):
                x = F(rng.randint(0, 40), rng.choice([1, 3, 64]))
                rows[k] = (x, x + F(rng.randint(1, 40), 64), rng.randint(1, 3))
            yield rows, i, first, j, second


def test_the_first_fault_and_its_message_are_pinned_for_json():
    spell = lambda v: f'"{v.numerator}/{v.denominator}"' if v.denominator % 64 else repr(float(v))
    cases = 0
    for rows, i, first, j, second in _two_fault_cases(JSON_FAULTS, 17):
        text = [f"[{spell(x)}, {spell(y)}, {m}]" for x, y, m in rows]
        text[i], text[j] = JSON_FAULTS[first][1], JSON_FAULTS[second][1]
        data = json.loads(f'{{"infinity_x": -1, "points": [{", ".join(text)}]}}')
        # a bad number anywhere comes first; otherwise the earlier row's fault
        reported = second if JSON_FAULTS[second][0] < JSON_FAULTS[first][0] else first
        with pytest.raises(ValueError) as info:
            Diagram.from_json_dict(data)
        assert str(info.value) == f"diagram JSON: {JSON_FAULTS[reported][2]}", (first, second)
        cases += 1
    assert cases == len(JSON_FAULTS) ** 2
    data = {"infinity_x": 0, "points": [[1, 1, 1], [1, 2, 0]]}
    with pytest.raises(ValueError, match=r"^diagram JSON: point must lie strictly above the "
                       r"diagonal, got \(1, 1\)$"):
        Diagram.from_json_dict(data)


def test_the_first_fault_and_its_message_are_pinned_for_entries():
    for rows, i, first, j, second in _two_fault_cases(API_FAULTS, 18):
        entries = [((x, y), m) for x, y, m in rows]
        entries[i], entries[j] = API_FAULTS[first][0], API_FAULTS[second][0]
        _, kind, message = API_FAULTS[first]
        with pytest.raises(kind) as info:
            Diagram(F(-1, 3), entries)
        assert type(info.value) is kind and str(info.value) == message, (first, second)


def test_diagram_with_many_odd_denominators_stays_small():
    rng = random.Random(3)
    entries = []
    for _ in range(2000):
        x = F(rng.randint(0, 10**6), rng.randint(1, 10**4))
        entries.append(((x, x + F(rng.randint(0, 10**6), rng.randint(1, 10**4))), 1))
    entries = [((x, y), m) for (x, y), m in entries if y > x]
    tracemalloc.start()
    try:
        d = Diagram(0, entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d._scale.bit_length() > 8000
    assert peak <= 6 * 2**20


def test_extraction_localized_above_infinity_x():
    rng = random.Random(55)
    for _ in range(30):
        sp = random_size_pair(rng, max_vertices=9)
        d = extract_diagram(sp)
        for p, _ in d.points:
            assert p.x >= d.infinity_x
            assert p.y > p.x
