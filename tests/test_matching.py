"""Bottleneck matching distance: ground distance, solver, oracle, stability."""

import hashlib
import json
import math
import random
import struct
import sys
import time
from fractions import Fraction as F

import pytest

from sizematch import (
    DIAGONAL,
    Diagram,
    ExtendedPoint,
    Matching,
    SizePair,
    brute_force_matching_distance,
    extract_diagram,
    matching_distance,
    pseudo_distance_d,
    stability_probe,
)
from sizematch._rational import as_fraction, int_from_text, number_from_json, number_to_json
from sizematch._rational import ratio_to_json
from sizematch.matching import _max_norm
from sizematch.selftest import perturbed_values, random_diagram, random_size_pair

from test_core import path_fixture


# ------------------------------------------------------------ ground metric


def test_pseudo_distance_proper_pairs():
    assert pseudo_distance_d(ExtendedPoint(1, 3), ExtendedPoint(2, 4)) == 1
    # through the diagonal: persistences 2 and 0.2, so 1 beats max-norm 9
    assert pseudo_distance_d(ExtendedPoint(1, F(3, 2)), ExtendedPoint(10, F(51, 5))) == F(1, 4)


def test_pseudo_distance_diagonal():
    assert pseudo_distance_d(ExtendedPoint(1, 3), DIAGONAL) == 1
    assert pseudo_distance_d(DIAGONAL, ExtendedPoint(0, F(1, 2))) == F(1, 4)
    assert pseudo_distance_d(DIAGONAL, DIAGONAL) == 0


def test_pseudo_distance_infinity_conventions():
    a = ExtendedPoint.at_infinity(0)
    b = ExtendedPoint.at_infinity(2)
    assert pseudo_distance_d(a, b) == 2  # inf - inf treated as 0 in the y slot
    assert pseudo_distance_d(a, a) == 0
    assert pseudo_distance_d(a, ExtendedPoint(1, 2)) == math.inf
    assert pseudo_distance_d(a, DIAGONAL) == math.inf


def test_pseudo_distance_symmetry_seeded():
    rng = random.Random(60)
    for _ in range(60):
        pts = []
        for _ in range(2):
            x = F(rng.randint(-8, 8), 4)
            pts.append(ExtendedPoint(x, x + F(rng.randint(1, 9), 4)))
        p, q = pts
        assert pseudo_distance_d(p, q) == pseudo_distance_d(q, p)


# ------------------------------------------------------- solver worked cases


def test_distance_single_point_to_empty():
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    value, m = matching_distance(d1, d2)
    assert value == 1  # (1,3) retracts onto the diagonal at cost 1
    assert m.cost == 1
    assert (ExtendedPoint(1, 3), DIAGONAL) in m.pairs
    m.verify(d1, d2)


def test_distance_path_example():
    d1 = extract_diagram(path_fixture())
    d2 = Diagram(F(1, 2), [((F(6, 5), F(21, 10)), 1)])
    value, m = matching_distance(d1, d2)
    assert value == F(6, 5)
    m.verify(d1, d2)


def test_distance_infinity_gap_dominates():
    d1 = Diagram(0, [])
    d2 = Diagram(F(7, 2), [])
    value, m = matching_distance(d1, d2)
    assert value == F(7, 2)
    assert m.pairs == ((ExtendedPoint.at_infinity(0), ExtendedPoint.at_infinity(F(7, 2))),)


def test_distance_prefers_direct_over_diagonal():
    d1 = Diagram(0, [((2, 10), 1)])
    d2 = Diagram(0, [((F(5, 2), 10), 1)])
    value, m = matching_distance(d1, d2)
    assert value == F(1, 2)
    assert (ExtendedPoint(2, 10), ExtendedPoint(F(5, 2), 10)) in m.pairs


def test_distance_multiplicity_expansion():
    # one side stacks two copies; both must be matched separately
    d1 = Diagram(0, [((1, 5), 2)])
    d2 = Diagram(0, [((1, 5), 1)])
    value, m = matching_distance(d1, d2)
    assert value == 2  # second copy dies to the diagonal
    m.verify(d1, d2)


def test_identity_and_symmetry_exact():
    rng = random.Random(61)
    for _ in range(40):
        a = random_diagram(rng)
        b = random_diagram(rng)
        assert matching_distance(a, a)[0] == 0
        assert matching_distance(a, b)[0] == matching_distance(b, a)[0]


def test_triangle_inequality_exact():
    rng = random.Random(62)
    for trial in range(60):
        a = random_diagram(rng)
        b = random_diagram(rng)
        c = random_diagram(rng)
        ab = matching_distance(a, b)[0]
        bc = matching_distance(b, c)[0]
        ac = matching_distance(a, c)[0]
        assert ac <= ab + bc, f"trial {trial}: {ac} > {ab} + {bc}"


def test_solver_agrees_with_brute_force():
    rng = random.Random(63)
    for trial in range(120):
        d1 = random_diagram(rng, max_points=5)
        d2 = random_diagram(rng, max_points=5)
        solver, m = matching_distance(d1, d2)
        brute = brute_force_matching_distance(d1, d2)
        assert solver == brute, f"trial {trial}: {solver} != {brute}"
        m.verify(d1, d2)


def test_brute_force_cap():
    d = Diagram(0, [((1, 2), 9)])
    with pytest.raises(ValueError):
        brute_force_matching_distance(d, d, cap=8)
    assert brute_force_matching_distance(d, d, cap=9) == 0


def test_huge_multiplicities_are_refused_before_anything_is_expanded():
    huge = Diagram(0, [((1, 2), 10**22)])
    small = Diagram(0, [((1, 2), 1)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^brute force is capped at 8 points per side, "
                       r"got 1 and 10000000000000000000000$"):
        brute_force_matching_distance(small, huge)
    with pytest.raises(ValueError, match=r"^the first diagram has 10000000000000000000000 "):
        matching_distance(huge, small)
    with pytest.raises(ValueError, match=r"^the second diagram has 1000001 points "):
        matching_distance(small, Diagram(0, [((1, 2), 10**6 + 1)]))
    assert time.perf_counter() - start < 1


def test_witness_is_deterministic_and_identity_at_zero():
    d1 = Diagram(0, [((0, 4), 1), ((1, 3), 1)])
    d2 = Diagram(0, [((0, 4), 1), ((1, 3), 1)])
    _, m1 = matching_distance(d1, d2)
    _, m2 = matching_distance(d1, d2)
    assert m1 == m2
    # identical diagrams at distance 0: the witness must be the identity
    pairs = {(l, r) for l, r in m1.pairs if not (l is not DIAGONAL and l.is_at_infinity)}
    assert pairs == {
        (ExtendedPoint(0, 4), ExtendedPoint(0, 4)),
        (ExtendedPoint(1, 3), ExtendedPoint(1, 3)),
    }


def test_witness_cost_is_max_of_pair_costs():
    rng = random.Random(64)
    for _ in range(40):
        d1 = random_diagram(rng)
        d2 = random_diagram(rng)
        value, m = matching_distance(d1, d2)
        grounds = [pseudo_distance_d(l, r) for l, r in m.pairs]
        assert max(grounds) == value == m.cost


def _sized_diagram(rng, multiplicities, infinity_x=None):
    """One point per entry of ``multiplicities`` on a quarter grid, ties likely."""
    if infinity_x is None:
        infinity_x = F(rng.randint(-8, 8), 4)
    entries = []
    for mult in multiplicities:
        x = infinity_x + F(rng.randint(0, 10), 4)
        entries.append(((x, x + F(rng.randint(1, 8), 4)), mult))
    return Diagram(infinity_x, entries)


def _split(rng, total):
    """Multiplicities of 1 to 3 that add up to ``total``."""
    out = []
    while sum(out) < total:
        out.append(min(rng.randint(1, 3), total - sum(out)))
    return out


def _direct_pairs(m):
    return [
        (l, r) for l, r in m.pairs
        if l is not DIAGONAL and r is not DIAGONAL and not l.is_at_infinity
    ]


def test_solver_agrees_with_brute_force_at_the_cap_with_multiplicities():
    rng = random.Random(66)
    splits = [[2, 2, 2, 2], [2, 3, 3], [3, 2, 3], [3, 3, 2]]
    for trial in range(20):
        d1 = _sized_diagram(rng, rng.choice(splits))
        d2 = _sized_diagram(rng, rng.choice(splits))
        assert d1.total_multiplicity == d2.total_multiplicity == 8
        solver, m = matching_distance(d1, d2)
        brute = brute_force_matching_distance(d1, d2, cap=8)
        assert solver == brute, f"trial {trial}: {solver} != {brute}"
        m.verify(d1, d2)


def _maximum_matching_size(edges, rows, cols):
    """Size of a maximum matching of a bipartite edge list (scipy)."""
    sparse = pytest.importorskip("scipy.sparse", exc_type=ImportError)
    csgraph = pytest.importorskip("scipy.sparse.csgraph", exc_type=ImportError)
    if not edges:
        return 0
    graph = sparse.csr_matrix(([1] * len(edges), tuple(zip(*edges))), shape=(rows, cols))
    return int((csgraph.maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def _slot_graph_is_perfect(d1, d2, t):
    """Perfect matching in the explicit doubled graph at threshold t."""
    left, right = d1.expanded(), d2.expanded()
    nl, nr = len(left), len(right)
    # rows: left points, then one diagonal slot per right point;
    # columns: right points, then one diagonal slot per left point
    edges = [(nl + j, nr + i) for j in range(nr) for i in range(nl)]
    for i, p in enumerate(left):
        edges += [(i, j) for j, q in enumerate(right) if pseudo_distance_d(p, q) <= t]
        if pseudo_distance_d(p, DIAGONAL) <= t:
            edges.append((i, nr + i))
    for j, q in enumerate(right):
        if pseudo_distance_d(DIAGONAL, q) <= t:
            edges.append((nl + j, j))
    return _maximum_matching_size(edges, nl + nr, nl + nr) == nl + nr


def _max_direct_pairs(d1, d2, t):
    """Largest number of pairs of max-norm <= t that realize() accepts."""
    left, right = d1.expanded(), d2.expanded()
    edges = [
        (i, j) for i, p in enumerate(left) for j, q in enumerate(right)
        if pseudo_distance_d(p, q) == _max_norm(p, q) <= t
    ]
    return _maximum_matching_size(edges, len(left), len(right))


def test_solver_threshold_against_scipy_slot_matching():
    rng = random.Random(67)
    for trial in range(10):
        d1, d2 = (_sized_diagram(rng, _split(rng, rng.randint(20, 60)), 0) for _ in range(2))
        value, m = matching_distance(d1, d2)
        m.verify(d1, d2)
        assert _slot_graph_is_perfect(d1, d2, value), f"trial {trial}"
        candidates = {F(0)}
        for p in d1.expanded():
            candidates.add(pseudo_distance_d(p, DIAGONAL))
            candidates.update(pseudo_distance_d(p, q) for q in d2.expanded())
        candidates.update(pseudo_distance_d(DIAGONAL, q) for q in d2.expanded())
        below = [c for c in candidates if c < value]
        if below:
            assert not _slot_graph_is_perfect(d1, d2, max(below)), f"trial {trial}"
        assert len(_direct_pairs(m)) == _max_direct_pairs(d1, d2, value), f"trial {trial}"


def test_witness_direct_pairs_cost_their_max_norm():
    rng = random.Random(68)
    for _ in range(60):
        d1 = random_diagram(rng, max_points=8, max_multiplicity=3)
        d2 = random_diagram(rng, max_points=8, max_multiplicity=3)
        _, m = matching_distance(d1, d2)
        for l, r in _direct_pairs(m):
            assert pseudo_distance_d(l, r) == _max_norm(l, r)


def test_identical_diagrams_give_the_identity_witness():
    rng = random.Random(69)
    for _ in range(30):
        d = _sized_diagram(rng, [rng.randint(1, 3) for _ in range(rng.randint(0, 12))])
        value, m = matching_distance(d, d)
        assert value == 0
        assert sorted(_direct_pairs(m), key=lambda pq: (pq[0].x, pq[0].y)) == [
            (p, p) for p in d.expanded()
        ]
        assert all(DIAGONAL not in pair for pair in m.pairs)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_long_alternating_paths_do_not_recurse():
    # d2's i-th point is d1's i-th point moved 3/5 toward d1's (i-1)-th one,
    # so each point of d1 is nearest to its successor's partner and covering
    # the last one shifts the whole staircase: one alternating path of n steps
    n = 300
    d1 = Diagram(0, [((i + 1, i + 3), 1) for i in range(n)])
    d2 = Diagram(0, [((i + F(2, 5), i + F(12, 5)), 1) for i in range(n)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        value, m = matching_distance(d1, d2)
    finally:
        sys.setrecursionlimit(limit)
    assert value == F(3, 5)
    assert len(_direct_pairs(m)) == n
    m.verify(d1, d2)


# ------------------------------------------------------------- verification


def test_verify_rejects_wrong_cost():
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    _, m = matching_distance(d1, d2)
    bad = Matching(pairs=m.pairs, cost=m.cost + 1)
    with pytest.raises(ValueError):
        bad.verify(d1, d2)


def test_verify_rejects_missing_point():
    d1 = Diagram(0, [((1, 3), 1)])
    d2 = Diagram(0, [])
    only_inf = Matching(
        pairs=((ExtendedPoint.at_infinity(0), ExtendedPoint.at_infinity(0)),),
        cost=F(1),
    )
    with pytest.raises(ValueError):
        only_inf.verify(d1, d2)


def test_verify_rejects_missing_infinity_pair():
    d1 = Diagram(0, [])
    d2 = Diagram(0, [])
    with pytest.raises(ValueError):
        Matching(pairs=(), cost=F(0)).verify(d1, d2)


def test_verify_rejects_diagonal_to_diagonal():
    d1 = Diagram(0, [])
    d2 = Diagram(0, [])
    m = Matching(
        pairs=(
            (ExtendedPoint.at_infinity(0), ExtendedPoint.at_infinity(0)),
            (DIAGONAL, DIAGONAL),
        ),
        cost=F(0),
    )
    with pytest.raises(ValueError):
        m.verify(d1, d2)


# --------------------------------------------------------------------- JSON


def test_matching_json_round_trip():
    # dyadic coordinates travel as plain floats
    d1 = extract_diagram(path_fixture())
    d2 = Diagram(F(1, 2), [((F(5, 4), F(17, 8)), 1)])
    _, m = matching_distance(d1, d2)
    data = m.to_json_dict()
    again = Matching.from_json_dict(data, infinity_left=d1.infinity_x, infinity_right=d2.infinity_x)
    again.verify(d1, d2)
    assert again.cost == m.cost
    assert again == m


def test_matching_json_round_trip_is_lossless_for_any_rational():
    d1 = Diagram(0, [((F(1, 3), F(7, 3)), 1)])
    d2 = Diagram(0, [((F(2, 3), F(7, 3)), 1)])
    _, m = matching_distance(d1, d2)
    assert m.cost == F(1, 3)
    again = Matching.from_json_dict(
        json.loads(m.dumps()), infinity_left=d1.infinity_x, infinity_right=d2.infinity_x
    )
    assert again == m


def test_number_codec_beyond_the_float_range():
    for value in (F(10**400 + 1, 2), F(1, 3 * 10**400), F(10**400)):
        assert number_from_json(json.loads(json.dumps(number_to_json(value)))) == value
    assert number_to_json(F(3, 2)) == 1.5


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python writes ints of any length as text")
def test_number_codec_refuses_an_int_too_long_to_write():
    # the codec checks the int limit of writing as text on the reduced num and den;
    # an int of exactly the limit's 4300 digits is still written
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert number_to_json(10**4300 - 1) == 10**4300 - 1
        assert number_to_json(F(-1, 10**4300 - 1)) == f"-1/{10**4300 - 1}"
        for num, den in ((10**4300, 1), (-(10**4300), 3), (1, 10**4300), (7, 3 * 10**4300)):
            with pytest.raises(ValueError, match=r"more than 4300 digits.*is 4300\)$"):
                ratio_to_json(num, den)
        sys.set_int_max_str_digits(0)  # no limit
        assert ratio_to_json(10**4300, 1) == 10**4300
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads ints of any length from text")
def test_number_codec_refuses_an_int_too_long_to_read():
    # an int of exactly the limit's 4300 digits is still read; a longer one, in an int
    # literal or either side of a ratio, is refused by a message that names the limit
    refused = r"^an exact number .* reads from text .*is 4300\)$"
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert int_from_text("9" * 4300) == 10**4300 - 1
        assert number_from_json("-1/" + "9" * 4300) == F(-1, 10**4300 - 1)
        for text in ("1" * 4301, " -" + "1" * 4301):
            with pytest.raises(ValueError, match=refused):
                int_from_text(text)
        for text in ("1/" + "1" * 4301, "+" + "1" * 4301 + "/3"):
            with pytest.raises(ValueError, match=refused):
                number_from_json(text)
        # a literal that is not a decimal int stays malformed, however long
        with pytest.raises(ValueError, match="^malformed rational literal"):
            number_from_json("1/" + "1" * 4301 + "x")
        sys.set_int_max_str_digits(0)  # no limit
        assert number_from_json("1/" + "1" * 4301) == F(1, int("1" * 4301))
    finally:
        sys.set_int_max_str_digits(before)


def _number_to_json_reference(value):
    """number_to_json as written with a Fraction round trip, kept as the reference."""
    frac = as_fraction(value)
    den = frac.denominator
    if den == 1:
        return int(frac)
    if den & (den - 1):
        return f"{frac.numerator}/{den}"
    try:
        as_float = float(frac)
    except OverflowError:
        as_float = math.inf
    if math.isfinite(as_float) and F(as_float) == frac:
        return as_float
    return f"{frac.numerator}/{frac.denominator}"


def test_number_to_json_equals_its_fraction_reference():
    edges = [F(1, 2**1074), F(1, 2**1075), F(3, 2**1075), F(2**53 + 1, 2**60),
             F(2**53 - 1, 2**60), F(2**53 + 1), F(2**54 + 1, 2), F(2**53 - 1, 2**1074),
             F(sys.float_info.max), F(sys.float_info.max) + F(1, 2), F(2**1024),
             F(2**1024 + 1, 2), F(1, 2**1100), F(1, 3), F(-7, 3), F(10**400),
             F(-(10**400) - 1, 2), F(-1, 2**1074), 10**400, -(2**64), 0,
             sys.float_info.max, 5e-324, -0.0, 0.1, F(0)]
    rng = random.Random(8)
    values = list(edges)
    for _ in range(3000):
        kind = rng.randrange(4)
        if kind == 0:  # a dyadic, often inside the float range and sometimes past it
            value = F(rng.randint(-(2**70), 2**70), 2 ** rng.randint(0, 1140))
        elif kind == 1:  # a finite double from random bits
            value = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if not math.isfinite(value):
                continue
        elif kind == 2:
            value = F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))
        else:
            value = rng.choice([-1, 1]) * rng.randint(0, 2 ** rng.randint(1, 1100))
        values.append(value)
    for value in values:
        encoded, reference = number_to_json(value), _number_to_json_reference(value)
        assert type(encoded) is type(reference) and encoded == reference, value
        assert number_from_json(json.loads(json.dumps(encoded))) == value


def test_matching_json_needs_infinity_context():
    d1 = Diagram(0, [])
    d2 = Diagram(1, [])
    _, m = matching_distance(d1, d2)
    with pytest.raises(ValueError):
        Matching.from_json_dict(m.to_json_dict())


def test_matching_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Matching.from_json_dict({"cost": 0})
    with pytest.raises(ValueError):
        Matching.from_json_dict({"cost": 0, "pairs": [{"left": "diag"}]})
    with pytest.raises(ValueError):
        Matching.from_json_dict({"cost": 0, "pairs": [{"left": "what", "right": "diag"}]})
    for data in (
        {"cost": 1, "pairs": 5},
        {"cost": [1], "pairs": []},
        {"cost": 1, "pairs": [{"left": [True, 2], "right": "diag"}]},
        {"cost": 1, "pairs": [{"left": [1, 0], "right": "diag"}]},
    ):
        with pytest.raises(ValueError, match="^matching JSON: ") as info:
            Matching.from_json_dict(data)
        assert str(info.value).count("matching JSON") == 1, data


def test_matching_json_quotes_a_long_row_or_side_by_its_length_and_start():
    side = "s" * 10**6
    for data, message in (
        ({"cost": 0, "pairs": [{"left": side, "right": "diag"}]},
         f"bad pair side of {len(side)} characters, starting {side[:20]!r}"),
        ({"cost": 0, "pairs": [side]},
         f"bad pair row of {len(side)} characters, starting {side[:20]!r}"),
    ):
        with pytest.raises(ValueError) as info:
            Matching.from_json_dict(data)
        assert str(info.value) == f"matching JSON: {message}"


# ---------------------------------------------------------------- stability


def test_stability_probe_holds_within_epsilon():
    sp = path_fixture()
    moved = {"a": F(1, 4), "b": 2, "c": F(3, 4), "d": F(13, 4), "e": 0}
    value, holds = stability_probe(sp, moved, F(1, 4))
    assert holds
    assert value <= F(1, 4)


def test_stability_probe_rejects_oversized_perturbation():
    sp = path_fixture()
    moved = {"a": 1, "b": 2, "c": 1, "d": 3, "e": 0}
    with pytest.raises(ValueError):
        stability_probe(sp, moved, F(1, 2))


def test_stability_probe_rejects_wrong_key_set():
    sp = path_fixture()
    with pytest.raises(ValueError):
        stability_probe(sp, {"a": 0}, 1)


def test_stability_probe_rejects_negative_epsilon():
    sp = path_fixture()
    with pytest.raises(ValueError):
        stability_probe(sp, {v: sp.value(v) for v in sp.vertex_ids}, -1)


def test_stability_fuzz_seeded():
    rng = random.Random(65)
    for trial in range(80):
        sp = random_size_pair(rng, max_vertices=9)
        epsilon = F(rng.randint(0, 12), 8)
        moved = perturbed_values(rng, sp, epsilon)
        value, holds = stability_probe(sp, moved, epsilon)
        assert holds, f"trial {trial}: d_match {value} > {epsilon}"


# ------------------------------------------------------------ integer scale

# sha256 of the value and witness JSON of every pair of _scale_cases(group),
# written by the earlier solver that compared Fraction max-norms directly;
# the solver on one integer scale per pair must reproduce them byte for byte
SCALE_PINS = {
    "thirds_and_sevenths": "4f554c0e779d9c646afec2335b095b350634829eff5caec7094ceed4f761622a",
    "dyadic": "eb04e4da96c2a9895893f27d2889e67fa67b05ce7a61469bc98497befc1a00b0",
    "integral": "4dee33a416371853a83d3738c464f4eeae1b96caea6afd99404d2aa3a8a6fab5",
    "mixed_denominators": "b0451780c8502ac2c1cd4bd63e497065eebfb1c37c796e074e2e5bd865154551",
    "beyond_float_range": "6d0cb6ecad83afa69850cf1a39b6c6fc8cee5e29295b7b7cd9005abbabf02be5",
    "empty": "ea8f85a538a02e3aa2ab6a898d9283aa6c0af3ffa4e5f4b4ecb415408103dd13",
}

HUGE = 10**400


def _rational_diagram(rng, denominators, max_points=7, max_multiplicity=3):
    """Random diagram whose every coordinate has a denominator from the list."""
    den = lambda: rng.choice(denominators)
    infinity_x = F(rng.randint(-20, 20), den())
    entries = []
    for _ in range(rng.randint(0, max_points)):
        x = infinity_x + F(rng.randint(0, 40), den())
        entries.append(((x, x + F(rng.randint(1, 30), den())), rng.randint(1, max_multiplicity)))
    return Diagram(infinity_x, entries)


def _near_copy(rng, d, denominators):
    """Every coordinate of d moved by at most a few grid steps, kept above the diagonal."""
    step = lambda: F(rng.randint(-3, 3), rng.choice(denominators))
    entries = []
    for p, mult in d.points:
        x = p.x + step()
        entries.append(((x, max(p.y + step(), x + F(1, rng.choice(denominators)))), mult))
    return Diagram(min([d.infinity_x + step()] + [x for (x, _), _ in entries]), entries)


def _rational_pair(rng, denominators):
    d1 = _rational_diagram(rng, denominators)
    if rng.random() < 0.5:
        return d1, _rational_diagram(rng, denominators)
    return d1, _near_copy(rng, d1, denominators)


def _huge_pair(rng):
    """Coordinates beyond the float range, given as 'p/1' in diagram JSON."""
    def side():
        rows = []
        for _ in range(rng.randint(1, 5)):
            x = HUGE + rng.randint(0, 12)
            rows.append([f"{x}/1", f"{x + rng.randint(1, 9)}/1", rng.randint(1, 3)])
        rows.append(["1/3", "7/3", rng.randint(1, 2)])
        return Diagram.from_json_dict({"infinity_x": 0, "points": rows})

    return side(), side()


def _scale_cases(group):
    rng = random.Random(f"integer-scale:{group}")
    if group == "thirds_and_sevenths":
        return [_rational_pair(rng, [3, 7, 21]) for _ in range(40)]
    if group == "dyadic":
        return [_rational_pair(rng, [2, 64, 1024]) for _ in range(40)]
    if group == "integral":
        return [_rational_pair(rng, [1]) for _ in range(40)]
    if group == "mixed_denominators":
        return [_rational_pair(rng, [1, 2, 3, 7, 12, 64, 1024]) for _ in range(40)]
    if group == "beyond_float_range":
        return [_huge_pair(rng) for _ in range(10)]
    assert group == "empty"
    lone = Diagram(F(1, 3), [((F(2, 7), F(9, 2)), 2)])
    return [(Diagram(0, []), Diagram(0, [])), (Diagram(F(1, 3), []), Diagram(F(5, 7), [])),
            (lone, Diagram(0, [])), (Diagram(0, []), lone)]


def _scale_digest(group):
    records = []
    for d1, d2 in _scale_cases(group):
        value, m = matching_distance(d1, d2)
        m.verify(d1, d2)
        records.append({"value": number_to_json(value), "witness": m.to_json_dict()})
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(SCALE_PINS))
def test_integer_scale_witness_json_is_pinned(group):
    assert _scale_digest(group) == SCALE_PINS[group]


def test_integer_scale_cases_cover_their_shapes():
    pairs = _scale_cases("mixed_denominators")
    assert any(m > 1 for d1, _ in pairs for _, m in d1.points)
    denominators = {c.denominator for d1, d2 in pairs for d in (d1, d2)
                    for p, _ in d.points for c in (p.x, p.y)}
    assert {3, 7, 64} <= denominators
    assert all(max(p.y for d in pair for p, _ in d.points) > HUGE
               for pair in _scale_cases("beyond_float_range"))


def test_solver_agrees_with_brute_force_at_the_cap_on_non_dyadic_rationals():
    rng = random.Random(71)
    splits = [[1] * 8, [2, 2, 2, 2], [2, 3, 3], [3, 1, 2, 2]]

    def capped(multiplicities):
        infinity_x = F(rng.randint(-6, 6), rng.choice([3, 5, 7]))
        entries = []
        for mult in multiplicities:
            x = infinity_x + F(rng.randint(0, 12), rng.choice([3, 5, 7]))
            entries.append(((x, x + F(rng.randint(1, 10), rng.choice([3, 5, 7]))), mult))
        return Diagram(infinity_x, entries)

    # near copies: the oracle's branch and bound finds a good bound early,
    # unrelated pairs at the cap can take it seconds each
    for trial in range(8):
        d1 = capped(splits[trial % len(splits)])
        d2 = _near_copy(rng, d1, [3, 5, 7])
        assert d1.total_multiplicity == d2.total_multiplicity == 8
        solver, m = matching_distance(d1, d2)
        assert solver == brute_force_matching_distance(d1, d2, cap=8), f"trial {trial}"
        m.verify(d1, d2)
