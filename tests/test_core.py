"""Parsing, validation, and exact evaluation of reduced size functions."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

from sizematch import (
    DisconnectedGraphError,
    ModelViolationError,
    ParseError,
    SizePair,
    evaluate_diagram_on_grid,
    extract_diagram,
    load_size_pair,
    parse_size_pair,
    reduced_size_function,
    shifted_inequality_check,
    size_function_on_grid,
    sublevel_components,
)
from sizematch.cli import main
from sizematch.core import _quarter_gap_grid
from sizematch.selftest import random_size_pair


def path_fixture():
    """Five-vertex path a-b-c-d-e with values 0, 2, 1, 3, 0."""
    return SizePair(
        [("a", 0), ("b", 2), ("c", 1), ("d", 3), ("e", 0)],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )


# ------------------------------------------------------------------ parsing


def test_parse_basic():
    sp = parse_size_pair("a,1.5\nb,2\n", "a,b\n")
    assert sp.n_vertices == 2
    assert sp.value("a") == F(3, 2)
    assert sp.edges == (("a", "b"),)


def test_parse_skips_blank_lines_and_strips():
    sp = parse_size_pair("\n  a , 1\n\nb,2\n", "\n a , b \n")
    assert sp.vertex_ids == ("a", "b")
    assert sp.n_edges == 1


def test_parse_id_may_contain_commas():
    # vertex lines split on the last comma, so ids may contain commas
    # (edge lines cannot reference such ids: they split on every comma)
    sp = parse_size_pair("x,y,3\n", "")
    assert sp.vertex_ids == ("x,y",)
    assert sp.value("x,y") == 3


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_size_pair("a,1\nnocomma\n", "")
    assert info.value.line == 2
    assert "line 2" in str(info.value)


def test_parse_error_bad_value():
    with pytest.raises(ParseError) as info:
        parse_size_pair("a,one\n", "")
    assert info.value.line == 1


def test_parse_error_bad_edge():
    with pytest.raises(ParseError) as info:
        parse_size_pair("a,1\nb,2\n", "a,b\na\n")
    assert info.value.line == 2


def test_load_size_pair(tmp_path):
    vp = tmp_path / "v.csv"
    ep = tmp_path / "e.csv"
    vp.write_text("a,0\nb,1\n")
    ep.write_text("a,b\n")
    sp = load_size_pair(vp, ep)
    assert sp.n_vertices == 2


# --------------------------------------------------------------- validation


def test_rejects_empty_vertex_set():
    with pytest.raises(ModelViolationError):
        SizePair([], [])


def test_rejects_duplicate_vertex_ids():
    with pytest.raises(ModelViolationError):
        SizePair([("a", 1), ("a", 2)], [])


def test_rejects_nan_and_inf_values():
    with pytest.raises(ModelViolationError):
        SizePair([("a", float("nan"))], [])
    with pytest.raises(ModelViolationError):
        SizePair([("a", float("inf"))], [])


def test_rejects_self_loop():
    with pytest.raises(ModelViolationError):
        SizePair([("a", 1), ("b", 2)], [("a", "a"), ("a", "b")])


def test_rejects_duplicate_edge():
    with pytest.raises(ModelViolationError):
        SizePair([("a", 1), ("b", 2)], [("a", "b"), ("b", "a")])


def test_rejects_unknown_endpoint():
    with pytest.raises(ModelViolationError):
        SizePair([("a", 1)], [("a", "b")])


def test_rejects_disconnected_with_component_count():
    with pytest.raises(DisconnectedGraphError) as info:
        SizePair([("a", 1), ("b", 2), ("c", 3)], [("a", "b")])
    assert info.value.component_count == 2
    assert "2 components" in str(info.value)


# (vertices, edges, exception type, message): the first fault found wins, in
# this order: empty input; per vertex, duplicate id then value; per edge in
# input order, unknown first end, unknown second end, self-loop, duplicate
# edge; then connectivity
VALIDATION_ERRORS = [
    ([], [], ModelViolationError, "a size pair needs at least one vertex"),
    ([("a", 1), ("a", float("nan"))], [], ModelViolationError, "duplicate vertex id 'a'"),
    ([(1, 0), (1.0, 2)], [], ModelViolationError, "duplicate vertex id 1.0"),
    ([("a", "x"), ("a", 1)], [], ModelViolationError,
     "value of vertex 'a' must be a real number, got str"),
    ([("a", 0), ("b", True)], [], ModelViolationError,
     "value of vertex 'b' must be a real number, got bool"),
    ([("a", float("-inf"))], [], ModelViolationError, "value of vertex 'a' must be finite, got -inf"),
    ([("a", 0), ("b", 1)], [("a", "z"), ("a", "a")], ModelViolationError,
     "edge ('a', 'z') references unknown vertex 'z'"),
    ([("a", 0), ("b", 1)], [("y", "z")], ModelViolationError,
     "edge ('y', 'z') references unknown vertex 'y'"),
    ([("a", 0), ("b", 1)], [("a", "a"), ("a", "z")], ModelViolationError,
     "self-loop at vertex 'a'"),
    ([("a", 0), ("b", 1)], [("a", "b"), ("b", "a")], ModelViolationError,
     "duplicate edge ('b', 'a')"),
    ([(1, 0), ("1", 1)], [(1, "1"), ("1", 1)], ModelViolationError, "duplicate edge ('1', 1)"),
    ([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("a", "b"), ("c", "c")], ModelViolationError,
     "duplicate edge ('a', 'b')"),
    ([("a", 0), ("b", 1), ("c", 2), ("d", 3)], [("a", "b")], DisconnectedGraphError,
     "graph is disconnected (3 components)"),
]


@pytest.mark.parametrize("vertices, edges, error, message", VALIDATION_ERRORS)
def test_validation_error_order(vertices, edges, error, message):
    with pytest.raises(ModelViolationError) as info:
        SizePair(vertices, edges)
    assert type(info.value) is error
    assert str(info.value) == message


# (edge line 2, and either all edges with "a,b" on the ids a, b and "", or the
# error message); vertex and edge lines are stripped before splitting
EDGE_LINES = [
    ("a,b,c", "edge line 2: expected 'u,v', got 'a,b,c'"),
    ("a", "edge line 2: expected 'u,v', got 'a'"),
    ("a,", [("", "a"), ("a", "b")]),
    (",b", [("", "b"), ("a", "b")]),
    ("  , a ", [("", "a"), ("a", "b")]),
    (" b , a ", "duplicate edge ('b', 'a')"),
]


@pytest.mark.parametrize("line, expected", EDGE_LINES)
def test_edge_line_parsing(line, expected):
    vertex_text, edge_text = "a,0\nb,1\n,2\n", f"a,b\n{line}\n"
    if isinstance(expected, list):
        assert parse_size_pair(vertex_text, edge_text).edges == tuple(expected)
    elif expected.startswith("edge line"):
        with pytest.raises(ParseError) as info:
            parse_size_pair(vertex_text, edge_text)
        assert (str(info.value), info.value.line) == (expected, 2)
    else:
        with pytest.raises(ModelViolationError) as info:
            parse_size_pair(vertex_text, edge_text)
        assert str(info.value) == expected


@pytest.mark.parametrize(
    "edge_text, code, message",
    [
        ("a,b\na,b,c\n", 2, "edge line 2: expected 'u,v', got 'a,b,c'"),
        ("a,b\nb\n", 2, "edge line 2: expected 'u,v', got 'b'"),
        ("a,b\nb,b\n", 3, "self-loop at vertex 'b'"),
        ("a,b\nb,a\n", 3, "duplicate edge ('b', 'a')"),
        ("a,b\nb,z\n", 3, "edge ('b', 'z') references unknown vertex 'z'"),
        ("a,b\n", 3, "graph is disconnected (2 components)"),
    ],
)
def test_cli_exit_codes_for_bad_graphs(tmp_path, capsys, edge_text, code, message):
    vertex_path, edge_path = tmp_path / "v.csv", tmp_path / "e.csv"
    vertex_path.write_text("a,0\nb,1\nc,2\n")
    edge_path.write_text(edge_text)
    assert main(["diagram", str(vertex_path), str(edge_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"error: {edge_path}: " if code == 2 else "error: "
    assert captured.err == prefix + message + "\n"


def test_single_vertex_is_connected():
    sp = SizePair([("a", 5)], [])
    assert sp.min_value == 5
    assert reduced_size_function(sp, 5, 6) == 1


# --------------------------------------------------------- id-level views


def _mixed_graph(seed):
    """Seeded connected graph: str, int, tuple or mixed ids (the mixed ones
    share str() between 1 and "1", (0,) and "(0,)"), int/float/Fraction
    values with ties across types, each edge given in a random direction."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    kind = seed % 4
    if kind == 0:
        ids = [f"v{i}" for i in rng.sample(range(100), n)]
    elif kind == 1:
        ids = rng.sample(range(-50, 50), n)
    elif kind == 2:
        ids = [(i, rng.randint(0, 3)) for i in rng.sample(range(100), n)]
    else:
        pool = list(range(15)) + [str(i) for i in range(15)] + [(i,) for i in range(5)] + ["(0,)"]
        ids = rng.sample(pool, n)
    values = [
        rng.choice([rng.randint(-2, 2), rng.randint(-8, 8) / 4, F(rng.randint(-12, 12), 6)])
        for _ in ids
    ]
    pairs = {(i, rng.randrange(i)) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a > b and (a, b) not in pairs:
            pairs.add((a, b))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    edges = [(ids[a], ids[b]) if rng.random() < 0.5 else (ids[b], ids[a]) for a, b in pairs]
    return list(zip(ids, values)), edges


@pytest.mark.parametrize("seed", range(40))
def test_views_equal_independent_rebuild(seed):
    vertices, edges = _mixed_graph(seed)
    sp = SizePair(vertices, edges)
    key = {vid: (str(vid), p) for p, (vid, _) in enumerate(vertices)}
    ends = [tuple(sorted(e, key=key.get)) for e in edges]
    assert sp.vertex_ids == tuple(sorted(key, key=key.get))
    assert sp.edges == tuple(sorted(ends, key=lambda e: (key[e[0]], key[e[1]])))
    assert sp.n_vertices == len(vertices) and sp.n_edges == len(edges)
    assert sp.vertex_values == dict(vertices)
    assert sp.critical_values == tuple(sorted({value for _, value in vertices}))
    for vid, value in vertices:
        around = {u for e in edges for u in e if vid in e and u != vid}
        assert sp.neighbors(vid) == tuple(sorted(around, key=key.get))
        assert sp.degree(vid) == len(around)
        assert sp.value(vid) == value
    for y in sp.critical_values:
        firsts = [min(c, key=key.get) for c in sublevel_components(sp, y).components]
        assert firsts == sorted(firsts, key=key.get)

    rng = random.Random(seed)
    shuffled = vertices[::-1]
    rng.shuffle(shuffled)
    flipped = [(v, u) for u, v in edges]
    rng.shuffle(flipped)
    assert SizePair(dict(shuffled), flipped) == sp
    vid, value = vertices[rng.randrange(len(vertices))]
    assert SizePair([(v, x + 1 if v == vid else x) for v, x in vertices], edges) != sp
    if len(vertices) > 2:
        (u, v), rest = edges[0], edges[1:]
        w = next((w for w, _ in vertices if w not in (u, v) and (u, w) not in ends
                  and (w, u) not in ends), None)
        if w is not None:
            try:
                rewired = SizePair(vertices, [(u, w)] + rest)
            except DisconnectedGraphError:
                rewired = None
            assert rewired is None or (rewired != sp and rewired.n_edges == sp.n_edges)

    d = extract_diagram(sp)
    grid = _quarter_gap_grid(sp.critical_values)
    assert evaluate_diagram_on_grid(d, grid, grid) == size_function_on_grid(sp, grid, grid)


DETERMINISM_SCRIPT = """
from sizematch import SizePair, sublevel_components
from sizematch.selftest import _graph_dump

cycle = SizePair([(1, 0), ("1", 1), (2, 2), ("2", 3)], [(1, "1"), ("1", 2), (2, "2"), ("2", 1)])
print(cycle.vertex_ids, cycle.edges, [cycle.neighbors(v) for v in cycle.vertex_ids])
path = SizePair([(1, 0), ("1", 0), ("a", 1)], [(1, "a"), ("a", "1")])
print(path.neighbors("a"), [sorted(map(repr, c)) for c in sublevel_components(path, 0).components])
print(_graph_dump(cycle))
"""


def test_views_do_not_depend_on_the_hash_seed():
    # ids 1 and "1" share their str(); ties are broken by input position
    import sizematch

    source = os.path.dirname(os.path.dirname(os.path.abspath(sizematch.__file__)))
    outputs = []
    for hash_seed in ("1", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(DETERMINISM_SCRIPT)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------- sublevel decomposition


def test_sublevel_components_path():
    sp = path_fixture()
    part = sublevel_components(sp, -1)  # below the minimum value: empty partition
    assert part.count == 0
    assert part.components == ()
    part = sublevel_components(sp, 0)
    assert part.count == 2
    assert part.component_of("a") != part.component_of("e")
    part = sublevel_components(sp, 1)  # a, {c}, e
    assert part.count == 3
    part = sublevel_components(sp, 2)  # a-b-c, e
    assert part.count == 2
    assert part.component_of("a") == part.component_of("c")
    part = sublevel_components(sp, 3)
    assert part.count == 1


def test_sublevel_edge_needs_both_endpoints():
    # edge is active only when both endpoint values are <= y
    sp = SizePair([("lo", 0), ("hi", 10)], [("lo", "hi")])
    assert sublevel_components(sp, 5).count == 1
    assert sublevel_components(sp, 10).count == 1
    assert sublevel_components(sp, 9.99).count == 1


# ------------------------------------------------- reduced size function


def test_domain_requires_x_below_y():
    sp = path_fixture()
    with pytest.raises(ValueError):
        reduced_size_function(sp, 1, 1)
    with pytest.raises(ValueError):
        reduced_size_function(sp, 2, 1)


def test_path_frozen_region_table():
    sp = path_fixture()
    # y in [0, 1): components {a}, {e}; both contain a vertex <= x for x >= 0
    assert reduced_size_function(sp, 0, F(1, 2)) == 2
    assert reduced_size_function(sp, F(1, 2), F(3, 4)) == 2
    # y in [1, 2): components {a}, {c}, {e}
    assert reduced_size_function(sp, F(1, 2), F(3, 2)) == 2
    assert reduced_size_function(sp, 1, F(3, 2)) == 3
    # y in [2, 3): {a,b,c}, {e}
    assert reduced_size_function(sp, F(1, 2), 2) == 2
    assert reduced_size_function(sp, 0, F(5, 2)) == 2
    # y >= 3: connected
    assert reduced_size_function(sp, F(1, 2), 3) == 1
    assert reduced_size_function(sp, 0, 100) == 1
    # x below the global minimum
    assert reduced_size_function(sp, -F(1, 2), 2) == 0
    assert reduced_size_function(sp, -100, 100) == 0


def test_right_continuity_at_critical_values():
    """Value at a critical level equals the value just above it."""
    sp = path_fixture()
    for x, y in [(F(1, 1), F(2, 1)), (F(0, 1), F(3, 1)), (F(0, 1), F(1, 1))]:
        at = reduced_size_function(sp, x, y)
        above = reduced_size_function(sp, x + F(1, 1000), y + F(1, 1000))
        assert at == above, f"not right-continuous at ({x}, {y}): {at} vs {above}"


def test_monotone_in_x_and_antitone_in_y():
    rng = random.Random(41)
    for _ in range(25):
        sp = random_size_pair(rng, max_vertices=8)
        lo, hi = sp.min_value, sp.max_value
        xs = sorted(lo + (hi - lo + 1) * F(k, 7) - F(1, 2) for k in range(8))
        for i in range(len(xs) - 2):
            x0, x1, y = xs[i], xs[i + 1], xs[-1] + 1
            assert reduced_size_function(sp, x0, y) <= reduced_size_function(sp, x1, y)
            y0, y1 = xs[i + 1], xs[i + 2] if xs[i + 2] > xs[i + 1] else xs[i + 2] + 1
            if x0 < y0 < y1:
                assert reduced_size_function(sp, x0, y0) >= reduced_size_function(sp, x0, y1)


def test_grid_evaluator_matches_pointwise():
    rng = random.Random(42)
    for trial in range(30):
        sp = random_size_pair(rng, max_vertices=9)
        values = sorted(set(sp.critical_values))
        grid = [values[0] - 1] + values + [values[-1] + F(1, 2)]
        if len(values) >= 2:
            grid += [(a + b) / 2 for a, b in zip(values, values[1:])]
        grid = sorted(set(grid))
        table = size_function_on_grid(sp, grid, grid)
        for x in grid:
            for y in grid:
                if x < y:
                    assert table[(x, y)] == reduced_size_function(sp, x, y), (
                        f"trial {trial}: mismatch at ({x}, {y})"
                    )


def test_grid_evaluator_only_returns_domain_pairs():
    sp = path_fixture()
    table = size_function_on_grid(sp, [0, 1], [0, 1])
    assert set(table) == {(0, 1)}


# ------------------------------------------------- shifted inequality check


def test_shifted_inequality_accepts_true_shift():
    sp1 = path_fixture()
    shifted = SizePair(
        [(v, F(1, 2) + F(int(sp1.value(v)))) for v in sp1.vertex_ids], sp1.edges
    )
    f = {v: v for v in sp1.vertex_ids}
    assert shifted_inequality_check(sp1, shifted, f, F(1, 2)) is True


def test_shifted_inequality_rejects_h_below_sup_gap():
    sp1 = path_fixture()
    shifted = SizePair(
        [(v, F(1, 2) + F(int(sp1.value(v)))) for v in sp1.vertex_ids], sp1.edges
    )
    f = {v: v for v in sp1.vertex_ids}
    with pytest.raises(ValueError):
        shifted_inequality_check(sp1, shifted, f, F(1, 4))


def test_shifted_inequality_rejects_non_isomorphism():
    sp1 = SizePair([("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    sp2 = SizePair([("x", 0), ("y", 1), ("z", 2)], [("x", "y"), ("x", "z")])
    f = {"a": "x", "b": "y", "c": "z"}
    with pytest.raises(ValueError):
        shifted_inequality_check(sp1, sp2, f, 5)


def test_shifted_inequality_on_self_is_true_for_any_h():
    rng = random.Random(43)
    for _ in range(10):
        sp = random_size_pair(rng, max_vertices=7)
        f = {v: v for v in sp.vertex_ids}
        assert shifted_inequality_check(sp, sp, f, 0) is True
        assert shifted_inequality_check(sp, sp, f, F(3, 2)) is True


def test_shifted_inequality_explicit_grid_of_pairs():
    sp1 = path_fixture()
    shifted = SizePair(
        [(v, F(1, 2) + F(int(sp1.value(v)))) for v in sp1.vertex_ids], sp1.edges
    )
    f = {v: v for v in sp1.vertex_ids}
    grid = [(0, 1), (F(1, 2), F(3, 2)), (1, 3), (F(-1, 2), F(7, 2))]
    assert shifted_inequality_check(sp1, shifted, f, F(1, 2), grid=grid) is True
    assert shifted_inequality_check(sp1, shifted, f, F(1, 2), grid=[]) is True


def test_shifted_inequality_explicit_grid_rejects_bad_points():
    sp = path_fixture()
    f = {v: v for v in sp.vertex_ids}
    with pytest.raises(ValueError):
        shifted_inequality_check(sp, sp, f, 0, grid=[(2, 1)])
    with pytest.raises(ValueError):
        shifted_inequality_check(sp, sp, f, 0, grid=[(1, 1)])
    with pytest.raises(ValueError):
        shifted_inequality_check(sp, sp, f, 0, grid=[3])
