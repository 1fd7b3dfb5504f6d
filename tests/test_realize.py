"""Realizing diagram pairs by explicit fields on a rectangle grid."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from sizematch import (
    Diagram,
    ModelViolationError,
    RectField,
    SizePair,
    discretize,
    extract_diagram,
    matching_distance,
    max_field_gap,
    realize,
)
from sizematch.selftest import random_diagram


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


def test_discretize_rejects_bad_refine():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    with pytest.raises(ValueError):
        discretize(phi, 0)
    with pytest.raises(ValueError):
        discretize(phi, -2)


# ------------------------------------------------------------------- fields


def test_rect_field_value_at_interpolates():
    d1, d2 = worked_pair()
    phi, _, _ = realize(d1, d2)
    # linear between (0, 0) and (7/4, 3) on the pit column
    assert phi.value_at(2, F(7, 8)) == F(3, 2)
    assert phi.value_at(2, 0) == 0
    assert phi.value_at(2, 4) == 4


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
