"""Realizing diagram pairs by explicit fields on a rectangle grid."""

import copy
import hashlib
import importlib
import json
import pickle
import random
import time
from fractions import Fraction as F

import pytest

from sizematch import (
    Diagram,
    ModelViolationError,
    RectField,
    SizePair,
    discretize,
    evaluate_diagram,
    extract_diagram,
    matching_distance,
    max_field_gap,
    multiplicity_grid,
    realize,
    reduced_size_function,
)
from sizematch.core import _quarter_gap_grid
from sizematch.selftest import random_diagram

from test_matching import HUGE

# the package attribute sizematch.realize is the function, so fetch the module
realize_module = importlib.import_module("sizematch.realize")
diagram_module = importlib.import_module("sizematch.diagram")


def worked_pair():
    return Diagram(0, [((1, 3), 1)]), Diagram(0, [])


# ------------------------------------------------------------ worked example


def test_realize_worked_example_exact_fields():
    d1, d2 = worked_pair()
    phi, psi, params = realize(d1, d2)
    assert params.S == 4
    assert params.d_match == 1
    assert params.swapped is False
    assert params.epsilons == (F(1, 4),)
    assert phi.x_breaks == (0, F(1, 4), F(1, 3), F(1, 2), 1)
    assert psi.x_breaks == phi.x_breaks
    grid = (0, F(7, 4), 2, F(9, 4), 4)
    assert phi.y_breaks == grid
    # boundary columns carry the base profiles on both sides
    assert phi.values_per_column[0] == grid
    assert psi.values_per_column[0] == grid
    assert phi.values_per_column[4] == grid
    # pit column: rim 3, bottom 1 at the structure center y = 2
    assert phi.values_per_column[2] == (0, 3, 1, 3, 4)
    # flanks hold the rim across the structure
    assert phi.values_per_column[1] == (0, 3, 3, 3, 4)
    assert phi.values_per_column[3] == (0, 3, 3, 3, 4)
    # the matched side plateaus at the center height 2
    assert psi.values_per_column[1] == (0, 2, 2, 2, 4)
    assert psi.values_per_column[2] == (0, 2, 2, 2, 4)
    assert psi.values_per_column[3] == (0, 2, 2, 2, 4)


def test_realize_worked_example_gap_and_round_trip():
    d1, d2 = worked_pair()
    phi, psi, params = realize(d1, d2)
    assert max_field_gap(phi, psi) == 1 == params.d_match
    assert extract_diagram(discretize(phi, 1)) == d1
    assert extract_diagram(discretize(psi, 1)) == d2
    # the gap is attained at the pit bottom (x = 1/3, y = 2)
    assert phi.value_at(2, 2) == 1
    assert psi.value_at(2, 2) == 2


def test_realize_refinement_invariance():
    d1, d2 = worked_pair()
    phi, psi, _ = realize(d1, d2)
    for refine in (2, 3, 4):
        assert extract_diagram(discretize(phi, refine)) == d1, f"refine {refine}"
        assert extract_diagram(discretize(psi, refine)) == d2, f"refine {refine}"


# ------------------------------------------------------------- orientation


def test_realize_swapped_orientation():
    d1 = Diagram(2, [])
    d2 = Diagram(0, [((1, 3), 1)])
    phi, psi, params = realize(d1, d2)
    assert params.swapped is True
    assert extract_diagram(discretize(phi, 1)) == d1
    assert extract_diagram(discretize(psi, 1)) == d2
    assert max_field_gap(phi, psi) == params.d_match
    value, _ = matching_distance(d1, d2)
    assert params.d_match == value


def test_realize_equal_infinity_not_swapped():
    d1 = Diagram(0, [((0, 2), 1)])
    d2 = Diagram(0, [((0, 1), 1)])
    _, _, params = realize(d1, d2)
    assert params.swapped is False


# ----------------------------------------------------------------- validity


def test_realize_rejects_mislocalized_diagram():
    bad = Diagram(1, [((0, 2), 1)])  # abscissa below infinity_x
    good = Diagram(0, [])
    with pytest.raises(ModelViolationError):
        realize(bad, good)
    with pytest.raises(ModelViolationError):
        realize(good, bad)


def test_realize_epsilon_underflow():
    # persistence 10^-12: the half-width 10^-12 / 8 is below the minimum 10^-12
    d1 = Diagram(0, [((0, F(1, 10**12)), 1)])
    with pytest.raises(ValueError, match="underflows"):
        realize(d1, Diagram(0, []))


def test_realize_degenerate_plateau():
    """When the matched structure's center is at or below the other side's
    base level, the plateau degenerates to a flat-then-rise profile."""
    d1 = Diagram(0, [((0, F(1, 2)), 1)])  # center 1/4 <= min_psi
    d2 = Diagram(F(1, 4), [])
    phi, psi, params = realize(d1, d2)
    assert extract_diagram(discretize(phi, 1)) == d1
    assert extract_diagram(discretize(psi, 1)) == d2
    assert max_field_gap(phi, psi) == params.d_match


# ------------------------------------------------------------------ seeded


def test_realize_seeded_round_trips():
    rng = random.Random(80)
    for trial in range(40):
        d1 = random_diagram(rng, max_points=4)
        d2 = random_diagram(rng, max_points=4)
        phi, psi, params = realize(d1, d2)
        assert extract_diagram(discretize(phi, 1)) == d1, f"trial {trial}"
        assert extract_diagram(discretize(psi, 1)) == d2, f"trial {trial}"
        assert max_field_gap(phi, psi) == params.d_match, f"trial {trial}"
        assert extract_diagram(discretize(phi, 2)) == d1, f"trial {trial} (refined)"
        assert extract_diagram(discretize(psi, 2)) == d2, f"trial {trial} (refined)"


def test_realize_matches_matching_distance_seeded():
    rng = random.Random(81)
    for _ in range(25):
        d1 = random_diagram(rng, max_points=3)
        d2 = random_diagram(rng, max_points=3)
        value, _ = matching_distance(d1, d2)
        _, _, params = realize(d1, d2)
        assert params.d_match == value


def test_realize_float_inputs_round_trip():
    # non-dyadic floats promote to their exact binary values and still
    # round-trip bit-exactly through the whole pipeline
    d1 = Diagram(0.0, [((1.0, 2.0), 1)])
    d2 = Diagram(0.5, [((1.2, 2.1), 1)])
    phi, psi, params = realize(d1, d2)
    assert extract_diagram(discretize(phi, 1)) == d1
    assert extract_diagram(discretize(psi, 1)) == d2
    value, _ = matching_distance(d1, d2)
    assert max_field_gap(phi, psi) == params.d_match == value


# ------------------------------------------------------------------- layout

# sha256 of the realize JSON of _pinned_pair(seed), written by the earlier
# implementation that kept one profile per column abscissa in a dict; the
# ordered column list must reproduce it byte for byte
REALIZE_PINS = {
    0: "ccb02d19a1651cf70834006854a524d26ad9db4538e8347eee51e307a375ff6b",
    1: "f473428c543f27b10c40145752a2e55e0b6bb000dc6ee36420969157bd1007fc",
    2: "04c3b173f937ec9b0a854499e1d7f7114d70e0e450c6223a312c0a0fab28987c",
    3: "9f745ea0ca7b35eb7c4a70310dacd5eb1709a8fa73dd73d2d2535eda3645281c",
}


def _pinned_pair(seed):
    rng = random.Random(f"realize-pin:{seed}")
    return random_diagram(rng, max_points=6), random_diagram(rng, max_points=6)


@pytest.mark.parametrize("seed", sorted(REALIZE_PINS))
def test_realize_column_layout(seed):
    phi, psi, params = realize(*_pinned_pair(seed))
    k = len(params.structures)
    assert k >= 4
    layout = [F(0)]
    for i in range(k, 0, -1):
        layout += [F(1, 3 * i + 1), F(1, 3 * i), F(1, 3 * i - 1)]
    layout.append(F(1))
    assert phi.x_breaks == psi.x_breaks == tuple(layout)
    low, high = (psi, phi) if params.swapped else (phi, psi)
    for field, side in ((low, "left"), (high, "right")):
        columns = field.values_per_column
        assert columns[0] == columns[-1]  # the base, at x = 0 and x = 1
        for i, st in enumerate(params.structures, start=1):
            first = 3 * (k - i) + 1  # the column at 1/(3i+1)
            flank, middle, other_flank = columns[first : first + 3]
            assert flank == other_flank
            if getattr(st, side) is None:
                assert middle == flank  # a plateau triple
            else:
                assert middle != flank  # a pit dips below its rim


@pytest.mark.parametrize("seed", sorted(REALIZE_PINS))
def test_realize_json_is_pinned(seed):
    phi, psi, params = realize(*_pinned_pair(seed))
    text = json.dumps(
        {"phi": phi.to_json_dict(), "psi": psi.to_json_dict(), "params": params.to_json_dict()}
    )
    assert hashlib.sha256(text.encode()).hexdigest() == REALIZE_PINS[seed]


# sha256 of the realize JSON of _scaled_pair(group), written by the earlier
# realize that sampled columns and scanned the gap in Fraction arithmetic;
# the integer sampler and gap scan must reproduce them byte for byte
SCALED_REALIZE_PINS = {
    "near_copy_20": "4705527a25a6654292cde54edbcef11bb302a531b5f58e15bf98825045b02825",
    "near_copy_40": "736c08da5f76231322f538113dfdae2d4f8c1203eee9b5737275f6b349b55691",
    "unrelated_21_and_7": "82af8f1929eef154b84872f5ba884ee07081c9325045803de0b62980b5e2fb56",
    "beyond_float_range": "d146617ff0c2d686ffea9933ff877d0a2d4fcfd1c03e2f41104823d570cc660c",
}


def _localized_diagram(rng, n, denominators):
    """n distinct points with x in [0, 10] and persistence in (0, 4], x >= infinity_x."""
    points = set()
    while len(points) < n:
        den = rng.choice(denominators)
        x = F(rng.randint(0, 10 * den), den)
        den = rng.choice(denominators)
        points.add((x, x + F(rng.randint(den // 4 or 1, 4 * den), den)))
    infinity_x = min(x for x, _ in points) - F(rng.randint(0, 4), rng.choice(denominators))
    return Diagram(infinity_x, sorted(points))


def _moved(rng, d, steps, den):
    """d with every coordinate moved by at most steps/den, kept localized and above the diagonal."""
    move = lambda: F(rng.randint(-steps, steps), den)
    points = []
    for p, _ in d.points:
        x = max(p.x + move(), d.infinity_x)
        points.append((x, max(p.y + move(), x + F(1, den))))
    return Diagram(d.infinity_x, points)


def _scaled_pair(group):
    rng = random.Random(f"realize-scale:{group}")
    if group.startswith("near_copy_"):
        d1 = _localized_diagram(rng, int(group.rpartition("_")[2]), [64])
        return d1, _moved(rng, d1, 4, 64)
    if group == "unrelated_21_and_7":
        return _localized_diagram(rng, 12, [21, 7]), _localized_diagram(rng, 12, [21, 7])
    rows = []
    for _ in range(6):
        x = HUGE + rng.randint(0, 40)
        rows.append([f"{x}/1", f"{x + rng.randint(1, 9)}/1", 1])
    rows.append(["1/3", "7/3", 1])
    d1 = Diagram.from_json_dict({"infinity_x": "1/3", "points": rows})
    return d1, _moved(rng, d1, 1, 1)


@pytest.mark.parametrize("group", sorted(SCALED_REALIZE_PINS))
def test_realize_json_is_pinned_at_scale(group):
    phi, psi, params = realize(*_scaled_pair(group))
    text = json.dumps(
        {"phi": phi.to_json_dict(), "psi": psi.to_json_dict(), "params": params.to_json_dict()}
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SCALED_REALIZE_PINS[group]


def test_realize_scaled_pairs_cover_their_shapes():
    for n in (20, 40):
        d1, d2 = _scaled_pair(f"near_copy_{n}")
        assert len(d1.points) == len(d2.points) == n
        assert {c.denominator for d in (d1, d2) for p, _ in d.points for c in (p.x, p.y)} <= {
            1, 2, 4, 8, 16, 32, 64}
    denominators = {c.denominator for d in _scaled_pair("unrelated_21_and_7")
                    for p, _ in d.points for c in (p.x, p.y)}
    assert {7, 21} <= denominators <= {1, 3, 7, 21}
    assert all(max(p.y for p, _ in d.points) > HUGE for d in _scaled_pair("beyond_float_range"))


def _random_column(rng, rows):
    """Values with denominators from {1, 3, 7, 21}, negative ones included."""
    return [F(rng.randint(-60, 60), rng.choice((1, 3, 7, 21))) for _ in range(rows)]


def test_max_field_gap_equals_the_fraction_maximum_seeded():
    rng = random.Random(82)
    for trial in range(60):
        n_columns, n_rows = rng.randint(2, 7), rng.randint(2, 9)
        x_breaks = sorted(rng.sample(range(50), n_columns))
        y_breaks = [F(k, 3) for k in sorted(rng.sample(range(-30, 30), n_rows))]
        fields = []
        for _ in range(2):
            shared = _random_column(rng, n_rows)
            columns = [shared if rng.random() < 0.4 else _random_column(rng, n_rows)
                       for _ in range(n_columns)]
            fields.append(RectField(x_breaks, y_breaks, columns))
        a, b = fields
        expected = max(abs(u - v) for cu, cv in zip(a.values_per_column, b.values_per_column)
                       for u, v in zip(cu, cv))
        assert max_field_gap(a, b) == max_field_gap(b, a) == expected, f"trial {trial}"
        assert max_field_gap(a, a) == 0


def _node_gap(a, b):
    """max |a - b| over every node of two fields, one Fraction per node."""
    return max(abs(F(u) - F(v)) for cu, cv in zip(a.values_per_column, b.values_per_column)
               for u, v in zip(cu, cv))


def test_max_field_gap_scans_each_column_pair_like_the_node_reference_seeded():
    rng = random.Random(86)
    shared_seen = 0
    for trial in range(60):
        phi, psi, params = realize(random_diagram(rng, max_points=5),
                                   random_diagram(rng, max_points=5))
        shared_seen += len(set(map(id, phi.values_per_column))) < phi.n_columns
        assert max_field_gap(phi, psi) == _node_gap(phi, psi) == params.d_match, f"trial {trial}"
    assert shared_seen >= 50
    # one column object repeats in one field while the other field holds
    # different columns there: the scan must key on the pair, not on one side
    rng = random.Random(87)
    for trial in range(60):
        n_columns, n_rows = rng.randint(3, 8), rng.randint(2, 6)
        x_breaks, y_breaks = range(n_columns), range(n_rows)
        repeated = _random_column(rng, n_rows)
        held = [repeated if rng.random() < 0.6 else _random_column(rng, n_rows)
                for _ in range(n_columns)]
        varied = [_random_column(rng, n_rows) for _ in range(n_columns)]
        a, b = RectField(x_breaks, y_breaks, held), RectField(x_breaks, y_breaks, varied)
        assert max_field_gap(a, b) == max_field_gap(b, a) == _node_gap(a, b), f"trial {trial}"
    column = (0, 4)
    a = RectField((0, 1, 2), (0, 1), (column, column, column))
    b = RectField((0, 1, 2), (0, 1), ((0, 4), (0, 4), (0, 9)))
    assert max_field_gap(a, b) == max_field_gap(b, a) == 5


def test_value_at_equals_the_interpolation_formula_seeded():
    rng = random.Random(83)
    for trial in range(60):
        n_rows = rng.randint(2, 8)
        ys = [F(k, rng.choice((1, 3, 7))) for k in rng.sample(range(-40, 40), n_rows)]
        ys = sorted(set(ys))
        if len(ys) < 2:
            continue
        field = RectField((0, 1), ys, [_random_column(rng, len(ys)) for _ in range(2)])
        for column, vs in enumerate(field.values_per_column):
            heights = list(ys) + [F(rng.randint(-40 * 21, 40 * 21), 21) for _ in range(8)]
            for y in heights:
                if not ys[0] <= y <= ys[-1]:
                    with pytest.raises(ValueError, match="outside the field range"):
                        field.value_at(column, y)
                    continue
                i = max(k for k in range(len(ys) - 1) if ys[k] <= y)
                expected = vs[i] + (vs[i + 1] - vs[i]) * (y - ys[i]) / (ys[i + 1] - ys[i])
                assert field.value_at(column, y) == expected, f"trial {trial}"
                assert field.value_at(column, float(y) if y.denominator == 1 else y) == expected


# equal values given as int, float and Fraction, values no float holds, and
# distinct values closer than 2^-64 around 0 and 1
MIXED_VALUES = [0, 0.0, F(0), 1, 1.0, F(1), 0.5, F(1, 2), F(1, 3), F(2, 3), 2, 2.0, F(7, 3),
                -1, -1.0, F(-2, 7), F(-1, 1), 0.25, F(5, 4), F(1, 2**70), F(1, 3 * 2**66),
                F(-1, 2**80), 1 + 2**-52, F(2**52 + 1, 2**52), F(3 * 2**70 + 1, 3 * 2**70)]


def test_extract_diagram_mixed_value_types_match_the_four_point_oracle():
    rng = random.Random(84)
    for trial in range(60):
        n = rng.randint(2, 14)
        values = [rng.choice(MIXED_VALUES) for _ in range(n)]
        edges = [(i, rng.randrange(i)) for i in range(1, n)]
        edges += [e for e in {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3)}
                  if e not in edges and e[::-1] not in edges]
        sp = SizePair(list(enumerate(values)), edges)
        diagram = extract_diagram(sp)
        # the same graph on Fractions only gives the same diagram
        fractions_only = SizePair([(i, F(v)) for i, v in enumerate(values)], edges)
        assert diagram == extract_diagram(fractions_only)
        levels = sorted({F(v) for v in values})
        assert diagram.infinity_x == levels[0]
        coords = sorted(
            set(levels)
            | {(a + b) / 2 for a, b in zip(levels, levels[1:])}
            | {levels[0] - 1, levels[-1] + 1}
        )
        expected = {(p.x, p.y): m for p, m in diagram.points}
        for (x, y), got in multiplicity_grid(sp, coords).items():
            assert got == expected.get((x, y), 0), f"trial {trial}: ({x}, {y})"


def test_ratio_levels_sort_values_closer_than_2_to_the_minus_64_exactly():
    keys = sorted({F(v).as_integer_ratio() for v in MIXED_VALUES}, key=lambda k: F(*k))
    floors = [(n << 64) // d for n, d in keys]
    assert len(set(floors)) < len(floors)  # the floor key alone cannot order them
    rng = random.Random(89)
    for trial in range(20):
        # descending first: a sort on the floor key alone would keep its ties in that order
        given = keys[::-1] if trial == 0 else rng.sample(keys, len(keys))
        given += rng.choices(keys, k=5)
        assert diagram_module._ratio_levels(given) == keys, f"trial {trial}"


# -------------------------------------------------------------- discretize


def test_discretize_shape_and_connectivity():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    sp = discretize(phi, 1)
    assert sp.n_vertices == 5 * 5
    # grid graph edge count: horizontal + vertical
    assert sp.n_edges == 4 * 5 + 4 * 5
    assert sp.min_value == 0


def test_discretize_refine_scales_rows():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    sp = discretize(phi, 3)
    assert sp.n_vertices == 5 * (3 * 4 + 1)


def test_discretize_refined_rows_equal_value_at():
    d1, d2 = worked_pair()
    for field in realize(d1, d2)[:2]:
        sp = discretize(field, 3)
        breaks = field.y_breaks
        rows = [a + (b - a) * k / 3 for a, b in zip(breaks, breaks[1:]) for k in range(3)]
        rows.append(breaks[-1])
        for ci in range(field.n_columns):
            for ri, y in enumerate(rows):
                assert sp.value(f"c{ci}r{ri}") == field.value_at(ci, y), (ci, ri)


def _reference_grid(field, refine):
    """The grid graph as discretize once built it, one id string per use;
    refined rows take their values from value_at."""
    breaks = field.y_breaks
    heights = [a + (b - a) * F(k, refine)
               for a, b in zip(breaks, breaks[1:]) for k in range(refine)]
    heights.append(breaks[-1])
    columns = [[field.value_at(ci, y) for y in heights] for ci in range(field.n_columns)]
    vertices = []
    for ci, column in enumerate(columns):
        vertices.extend((f"c{ci}r{ri}", value) for ri, value in enumerate(column))
    edges = []
    rows = (len(field.y_breaks) - 1) * refine + 1
    for ci in range(field.n_columns):
        for ri in range(rows - 1):
            edges.append((f"c{ci}r{ri}", f"c{ci}r{ri + 1}"))
    for ci in range(field.n_columns - 1):
        for ri in range(rows):
            edges.append((f"c{ci}r{ri}", f"c{ci + 1}r{ri}"))
    return SizePair(vertices, edges)


def test_discretize_builds_the_reference_grid_graph_seeded():
    rng = random.Random(84)
    pairs = [(Diagram(0, []), Diagram(1, [])), worked_pair()]
    pairs += [(random_diagram(rng, max_points=4), random_diagram(rng, max_points=4))
              for _ in range(12)]
    assert any(not d.points for pair in pairs[2:] for d in pair)
    assert any(m > 1 for pair in pairs[2:] for d in pair for _, m in d.points)
    for trial, pair in enumerate(pairs):
        for field in realize(*pair)[:2]:
            for refine in (1, 2, 3):
                got, want = discretize(field, refine), _reference_grid(field, refine)
                case = f"trial {trial}, refine {refine}"
                assert got._ids == want._ids, case
                assert got.vertex_ids == want.vertex_ids, case
                assert got.edges == want.edges, case
                assert got.vertex_values == want.vertex_values, case
                assert got._adj == want._adj, case


def test_discretize_equals_the_reference_grid_size_pair_seeded():
    rng = random.Random(88)
    for trial in range(12):
        pair = random_diagram(rng, max_points=4), random_diagram(rng, max_points=4)
        for field in realize(*pair)[:2]:
            for refine in (1, 2, 3):
                got, want = discretize(field, refine), _reference_grid(field, refine)
                case = f"trial {trial}, refine {refine}"
                assert got == want, case
                assert got.n_edges == want.n_edges == len(want.edges), case


def test_discretize_rejects_bad_refine():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    with pytest.raises(ValueError):
        discretize(phi, 0)
    with pytest.raises(ValueError):
        discretize(phi, -2)


def test_discretize_refuses_a_grid_too_large_before_sampling(monkeypatch):
    phi, _, _ = realize(*worked_pair())  # 5 columns, 5 y breaks
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        discretize(phi, 10**9)
    assert time.perf_counter() - start < 1
    assert str(info.value) == (
        "refine 1000000000 would sample 20000000005 grid nodes, more than 10000000"
    )
    # refine 3 makes 5 * (4 * 3 + 1) = 65 nodes: the cap itself is allowed
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 65)
    assert len(discretize(phi, 3).vertex_values) == 65
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 64)
    with pytest.raises(ValueError, match=r"^refine 3 would sample 65 grid nodes, more than 64$"):
        discretize(phi, 3)


def test_realize_refuses_an_oversized_grid_before_sampling_a_field(monkeypatch):
    # six points against an empty diagram: 20 columns of 20 rows, 400 nodes
    calls = []
    sample = realize_module._sample
    monkeypatch.setattr(realize_module, "_sample", lambda *a: calls.append(1) or sample(*a))
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 100)
    d1 = Diagram(0, [((i, i + 2 + F(i, 7)), 1) for i in range(6)])
    with pytest.raises(ValueError, match=r"^refine 1 would sample 400 grid nodes, more than 100$"):
        realize(d1, Diagram(0, []))
    assert calls == []
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 400)  # the cap itself is allowed
    assert realize(d1, Diagram(0, []))[2].d_match > 0
    assert calls


# ------------------------------------------------------------------- fields


def test_rect_field_value_at_interpolates():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    # linear between (0, 0) and (7/4, 3) on the pit column
    assert phi.value_at(2, F(7, 8)) == F(3, 2)
    assert phi.value_at(2, 0) == 0
    assert phi.value_at(2, 4) == 4


def test_rect_field_value_at_refuses_a_column_outside_the_field():
    phi, _, _ = realize(*worked_pair())  # 5 columns
    for column in (-1, phi.n_columns):
        with pytest.raises(IndexError, match=r"^column -?\d+ is outside 0 <= column < n_columns = 5$"):
            phi.value_at(column, 1)
    assert phi.value_at(phi.n_columns - 1, 1) == phi.value_at(0, 1)


def test_rect_field_json_round_trip_with_thirds():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    text = phi.dumps()
    assert '"1/3"' in text  # non-dyadic breaks serialize as exact p/q strings
    again = RectField.loads(text)
    assert again == phi


def test_rect_field_shares_equal_columns():
    # realize() hands equal columns over as one object; the field keeps one
    # converted tuple for them, and its JSON writes each copy in full
    phi, psi, _ = realize(*_pinned_pair(0))
    for field in (phi, psi):
        columns = field.values_per_column
        assert columns[0] is columns[-1]
        data = json.loads(field.dumps())
        assert data["values_per_column"][0] == data["values_per_column"][-1]
        assert len(data["values_per_column"]) == field.n_columns
    # columns made one at a time and dropped by the caller stay distinct
    field = RectField((0, 1, 2), (0, 4), ([c, 4] for c in (0, 1, 2)))
    assert field.values_per_column == ((0, 4), (1, 4), (2, 4))
    assert json.loads(field.dumps())["values_per_column"] == [[0, 4], [1, 4], [2, 4]]


def test_rect_field_read_back_holds_equal_columns_once():
    # two copies of one point give equal flank and pit columns at different indices in
    # realize(); a field read back from its JSON finds equal columns by value
    d1, d2 = Diagram(0, [((1, 3), 2), ((F(1, 2), 2), 1)]), Diagram(0, [((F(5, 4), F(13, 4)), 1)])
    for pair in (_pinned_pair(0), _pinned_pair(1), (d1, d2)):
        phi, psi, params = realize(*pair)
        again = [RectField.loads(field.dumps()) for field in (phi, psi)]
        assert again == [phi, psi] and [hash(f) for f in again] == [hash(phi), hash(psi)]
        assert max_field_gap(*again) == params.d_match
        for field, read in zip((phi, psi), again):
            assert read.dumps() == field.dumps()
            columns = read.values_per_column
            assert len(read._distinct) == len(set(columns)) <= len(field._distinct)
            for i in range(read.n_columns):
                for j in range(i):
                    assert (columns[i] is columns[j]) == (columns[i] == columns[j])
    assert len(again[0]._distinct) < len(phi._distinct)


def test_realize_refuses_the_least_grid_its_multiplicities_imply_before_matching(monkeypatch):
    # seven copies of one point against none: 7 equal structures, so 23 columns of
    # exactly 5 rows, 115 nodes, the least grid that 7 copies can make
    solved = []
    solve = realize_module.matching_distance
    monkeypatch.setattr(realize_module, "matching_distance", lambda *a: solved.append(1) or solve(*a))
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 114)
    d1, empty = Diagram(0, [((1, 3), 7)]), Diagram(0, [])
    for pair in ((d1, empty), (empty, d1)):
        with pytest.raises(ValueError, match=r"^refine 1 would sample at least 115 grid nodes, more than 114$"):
            realize(*pair)
    assert solved == []
    monkeypatch.setattr(realize_module, "_MAX_GRID_NODES", 115)
    phi, _, _ = realize(d1, empty)
    assert (phi.n_columns, len(phi.y_breaks), solved) == (23, 5, [1])


def test_rect_field_validation():
    with pytest.raises(ValueError):
        RectField(
            x_breaks=(0,),  # fewer than two columns
            y_breaks=(0, 1),
            values_per_column=((0, 1),),
        )
    with pytest.raises(ValueError):
        RectField(
            x_breaks=(0, 1),
            y_breaks=(1, 0),  # not increasing
            values_per_column=((0, 1), (0, 1)),
        )
    with pytest.raises(ValueError):
        RectField(
            x_breaks=(0, 1),
            y_breaks=(0, 1),
            values_per_column=((0, 1), (0,)),  # length mismatch
        )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data["y_breaks_per_column"][3].__setitem__(1, 1.5), "share one y grid"),
        (lambda data: data["y_breaks_per_column"].pop(), "4 y grids for 5 columns"),
        (lambda data: data.__setitem__("S", 5), "ends of the y grid"),
        (lambda data: data.__setitem__("min_phi", "1/3"), "ends of the y grid"),
    ],
    ids=["grids-differ", "grid-count", "S", "min_phi"],
)
def test_rect_field_from_json_dict_refuses_a_broken_grid(edit, message):
    data = realize(*worked_pair())[0].to_json_dict()
    RectField.from_json_dict(data)
    edit(data)
    with pytest.raises(ValueError, match=f"^field JSON: .*{message}"):
        RectField.from_json_dict(data)


def test_max_field_gap_requires_shared_columns():
    d1, d2 = worked_pair()
    phi, psi, _ = realize(d1, d2)
    other = RectField(
        x_breaks=(0, 1),
        y_breaks=(0, 4),
        values_per_column=((0, 4), (0, 4)),
    )
    with pytest.raises(ValueError):
        max_field_gap(phi, other)


def test_max_field_gap_rejects_different_ranges():
    a = RectField(x_breaks=(0, F(1, 2), 1), y_breaks=(0, 4), values_per_column=((0, 4),) * 3)
    taller = RectField(x_breaks=(0, F(1, 2), 1), y_breaks=(0, 5), values_per_column=((0, 5),) * 3)
    lower = RectField(x_breaks=(0, F(1, 2), 1), y_breaks=(-1, 4),
                      values_per_column=((0, 4),) * 3)
    for other in (taller, lower):
        with pytest.raises(ValueError):
            max_field_gap(a, other)
        with pytest.raises(ValueError):
            max_field_gap(other, a)


# ------------------------------------------------------- the grid self-check


def _float_diagram(rng, n):
    """n points with non-dyadic float coordinates, localized above infinity_x."""
    infinity_x = rng.uniform(-2, 2)
    points = []
    for _ in range(n):
        x = infinity_x + rng.uniform(0, 10)
        points.append((x, x + rng.uniform(0.1, 4)))
    return Diagram(infinity_x, points)


def _self_check_pairs(count):
    """Seeded 8-13-point pairs, in turn float, odd-denominator and near-copy."""
    rng = random.Random(90)
    for trial in range(count):
        n = rng.randint(8, 13)
        if trial % 3 == 0:
            yield _float_diagram(rng, n), _float_diagram(rng, rng.randint(8, 13))
        elif trial % 3 == 1:
            yield (_localized_diagram(rng, n, [3, 7, 21]),
                   _localized_diagram(rng, rng.randint(8, 13), [3, 5, 9]))
        else:
            d1 = _localized_diagram(rng, n, [64])
            yield d1, _moved(rng, d1, 4, 64)


def test_grid_sweep_equals_the_extraction_of_the_discretized_field_seeded():
    fields = 0
    for trial, pair in enumerate(_self_check_pairs(102)):
        phi, psi, _ = realize(*pair)
        for refine in (1, 2, 3):
            got = realize_module._field_diagrams((phi, psi), refine)
            for field, diagram in zip((phi, psi), got):
                want = extract_diagram(discretize(field, refine))
                assert diagram == want, f"trial {trial}, refine {refine}"
        fields += 2
    assert fields >= 200


def _size_function_mismatch(field, diagram):
    """The first (x, y) of the quarter-gap grid of the discretized field's values where the
    field's reduced size function, by direct search, differs from the diagram's; else None."""
    sp = discretize(field, 1)
    grid = _quarter_gap_grid(sp.critical_values)
    for i, x in enumerate(grid):
        for y in grid[i + 1:]:
            if reduced_size_function(sp, x, y) != evaluate_diagram(diagram, x, y):
                return x, y
    return None


def test_realized_fields_have_the_prescribed_size_functions_seeded():
    # an oracle that shares no code with the grid sweep: the direct search of core
    # against the representation formula of the prescribed diagram
    rng = random.Random(92)
    pairs = [(random_diagram(rng, max_points=2), random_diagram(rng, max_points=2))
             for _ in range(12)]
    assert any(d.points for pair in pairs for d in pair)
    for trial, pair in enumerate(pairs):
        for field, diagram in zip(realize(*pair)[:2], pair):
            assert _size_function_mismatch(field, diagram) is None, f"trial {trial}"
    # the worked example's pit bottom (1 at column 2, y = 2) moved down by 1/64 is caught
    d1, d2 = worked_pair()
    phi = realize(d1, d2)[0]
    columns = [list(vs) for vs in phi.values_per_column]
    columns[2][2] -= F(1, 64)
    broken = RectField(phi.x_breaks, phi.y_breaks, columns)
    assert _size_function_mismatch(phi, d1) is None
    assert _size_function_mismatch(broken, d1) is not None


def _break_one_node(monkeypatch, which, column, row, shift):
    """Make realize() build its `which`-th field (0: the one anchored lower)
    with one node moved by `shift`, before its self-check runs."""
    made = realize_module.RectField._exact
    calls = []

    def broken(x_breaks, y_breaks, distinct, layout):
        if len(calls) == which:
            # the moved column is a new distinct one, and only its own layout slot points at it
            moved = list(distinct[layout[column]])
            moved[row] = (F(*moved[row]) + shift).as_integer_ratio()
            distinct += (tuple(moved),)
            layout = layout[:column] + (len(distinct) - 1,) + layout[column + 1:]
        calls.append(layout)
        return made(x_breaks, y_breaks, distinct, layout)

    monkeypatch.setattr(realize_module.RectField, "_exact", staticmethod(broken))


def test_realize_self_check_catches_a_moved_pit_bottom(monkeypatch):
    # the worked example's scale is 4: its pit bottom (1 at column 2, y = 2)
    # moved up one unit of it makes the cornerpoint (5/4, 3)
    d1, d2 = worked_pair()
    _break_one_node(monkeypatch, 0, 2, 2, F(1, 4))
    with pytest.raises(RuntimeError, match="does not reproduce the first diagram"):
        realize(d1, d2)
    # a plateau node of the second field moved down makes a pit there
    monkeypatch.undo()
    _break_one_node(monkeypatch, 1, 2, 2, F(-1, 4))
    with pytest.raises(RuntimeError, match="does not reproduce the second diagram"):
        realize(d1, d2)


def test_realize_self_check_catches_a_moved_plateau_node(monkeypatch):
    # psi's plateau at 2 raised to 9/4 under the pit bottom keeps psi's diagram
    # but widens the gap there from 1 to 5/4
    d1, d2 = worked_pair()
    _break_one_node(monkeypatch, 1, 2, 2, F(1, 4))
    with pytest.raises(RuntimeError, match=r"realized field gap 5/4 differs from the matching distance 1"):
        realize(d1, d2)


# ------------------------------------------------------------ RectField API

WORKED_PHI_REPR = (
    "RectField(x_breaks=(Fraction(0, 1), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), "
    "Fraction(1, 1)), y_breaks=(Fraction(0, 1), Fraction(7, 4), Fraction(2, 1), Fraction(9, 4), "
    "Fraction(4, 1)), values_per_column=((Fraction(0, 1), Fraction(7, 4), Fraction(2, 1), "
    "Fraction(9, 4), Fraction(4, 1)), (Fraction(0, 1), Fraction(3, 1), Fraction(3, 1), "
    "Fraction(3, 1), Fraction(4, 1)), (Fraction(0, 1), Fraction(3, 1), Fraction(1, 1), "
    "Fraction(3, 1), Fraction(4, 1)), (Fraction(0, 1), Fraction(3, 1), Fraction(3, 1), "
    "Fraction(3, 1), Fraction(4, 1)), (Fraction(0, 1), Fraction(7, 4), Fraction(2, 1), "
    "Fraction(9, 4), Fraction(4, 1))))"
)


def test_rect_field_values_per_column_equal_value_at_seeded():
    for trial, pair in enumerate(_self_check_pairs(6)):
        for field in realize(*pair)[:2]:
            columns = field.values_per_column
            assert columns is field.values_per_column  # built once
            assert columns[0] is columns[-1]
            for ci, column in enumerate(columns):
                assert all(type(v) is F for v in column)
                assert column == tuple(field.value_at(ci, y) for y in field.y_breaks), trial


def test_rect_field_equality_and_hash_agree_across_constructors_seeded():
    for trial, pair in enumerate(_self_check_pairs(9)):
        phi, psi, _ = realize(*pair)
        for field in (phi, psi):
            again = RectField.loads(field.dumps())
            public = RectField(field.x_breaks, field.y_breaks,
                               [list(vs) for vs in field.values_per_column])
            floats = RectField([float(x) if x.denominator == 1 else x for x in field.x_breaks],
                               field.y_breaks, field.values_per_column)
            for other in (again, public, floats):
                assert other == field and field == other, f"trial {trial}"
                assert hash(other) == hash(field), f"trial {trial}"
                assert other.dumps() == field.dumps()
    a = RectField((0, 1), (0, 1), ((0, 1), (0, 1)))
    assert a != RectField((0, 1), (0, 1), ((0, 1), (0, F(3, 2))))
    assert a != RectField((0, 2), (0, 1), ((0, 1), (0, 1)))
    assert a != ((0, 1), (0, 1), ((0, 1), (0, 1)))


def test_rect_field_repr_is_the_dataclass_repr():
    phi, _, _ = realize(*worked_pair())
    assert repr(phi) == WORKED_PHI_REPR
    assert repr(RectField.loads(phi.dumps())) == WORKED_PHI_REPR


def test_rect_field_refuses_assignment_but_copies_and_pickles():
    phi, _, _ = realize(*worked_pair())
    for name in ("x_breaks", "y_breaks", "values_per_column", "_columns", "other"):
        with pytest.raises(AttributeError):
            setattr(phi, name, ())
    assert phi.n_columns == 5
    for again in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert again == phi and repr(again) == WORKED_PHI_REPR
        assert again.values_per_column[0] is again.values_per_column[-1]


def test_rect_field_copies_keep_the_layout():
    phi, _, _ = realize(*_pinned_pair(0))
    assert len(set(phi._layout)) == len(phi._distinct) < phi.n_columns
    for again in (copy.copy(phi), copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert (again._layout, again._distinct) == (phi._layout, phi._distinct)


def test_realize_near_copy_80_points_budget():
    rng = random.Random(0)
    d1 = random_diagram(rng, max_points=80)
    while d1.total_multiplicity < 80:
        d1 = random_diagram(rng, max_points=80)
    move = lambda: F(rng.randint(-1, 1), 8)
    points = []
    for p in d1.expanded():
        x = max(p.x + move(), d1.infinity_x)
        points.append((x, max(p.y + move(), x + F(1, 8))))
    d2 = Diagram(d1.infinity_x, points)
    start = time.perf_counter()
    phi, psi, params = realize(d1, d2)
    elapsed = time.perf_counter() - start
    assert len(params.structures) == 80
    assert elapsed < 2, f"realize took {elapsed:.2f} s"
