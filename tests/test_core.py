"""Parsing, validation, and exact evaluation of reduced size functions."""

import math
import os
import random
import re
import subprocess
import sys
import textwrap
import time
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
from sizematch.core import _UnionFind, _quarter_gap_grid
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


# ------------------------------------------------------- bulk ingestion


# Unicode line boundaries that str.splitlines() breaks at but a file opened
# in text mode does not: inside a line they are part of an id
NON_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NON_BREAKS, ids=[f"U+{ord(c):04X}" for c in NON_BREAKS])
def test_lines_end_only_at_newline_and_carriage_return(char):
    name = f"a{char}b"
    as_text = (f"{name},1\nc,2\r\nd,3\r", f"{name},c\r\nc,d")
    as_lines = (iter([f"{name},1\n", "c,2\r\n", "d,3\r"]), iter([f"{name},c\r\n", "c,d"]))
    for vertex_input, edge_input in (as_text, as_lines):
        sp = parse_size_pair(vertex_input, edge_input)
        assert sp.vertex_ids == (name, "c", "d")
        assert sp.edges == ((name, "c"), ("c", "d"))
        assert sp.value(name) == 1
    # line numbers count only those breaks, as an editor does
    with pytest.raises(ParseError) as info:
        parse_size_pair(f"a,1{char}b,2\nnocomma\n", "")
    assert (str(info.value), info.value.line) == ("vertex line 2: expected 'id,value', got 'nocomma'", 2)
    with pytest.raises(ParseError) as info:
        parse_size_pair(iter([f"a,1{char}b,2\n", "nocomma\n"]), "")
    assert info.value.line == 2


def test_cli_reads_a_unicode_line_separator_inside_an_id(tmp_path, capsys):
    vertex_path, edge_path = tmp_path / "v.csv", tmp_path / "e.csv"
    vertex_path.write_bytes("a\x85b,0\nc,2\r\nd,1\n".encode("utf-8"))
    edge_path.write_bytes("a\x85b,c\nc,d\n".encode("utf-8"))
    assert main(["diagram", str(vertex_path), str(edge_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == '{\n  "infinity_x": 0,\n  "points": [\n    [\n      1,\n      2,\n      1\n    ]\n  ]\n}\n'


def _oracle_lines(text):
    if isinstance(text, str):
        lines = re.split(r"\r\n|\r|\n", text)  # not splitlines(): NON_BREAKS stay in a line
    else:
        lines = [line.rstrip("\n") for line in text]
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            yield number, line


def _oracle_parse(vertex_text, edge_text):
    """The per-line parser that bulk parsing replaced, kept as the oracle."""
    vertices = []
    for number, line in _oracle_lines(vertex_text):
        vid, sep, value_text = line.rpartition(",")
        if not sep:
            raise ParseError(f"vertex line {number}: expected 'id,value', got {line!r}", number)
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(
                f"vertex line {number}: could not parse value {value_text.strip()!r}", number
            ) from None
        vertices.append((vid.strip(), value))
    edges = []
    for number, line in _oracle_lines(edge_text):
        u, sep, v = line.partition(",")
        if not sep or "," in v:
            raise ParseError(f"edge line {number}: expected 'u,v', got {line!r}", number)
        edges.append((u.strip(), v.strip()))
    return _oracle_size_pair(vertices, edges)


def _oracle_size_pair(vertices, edges):
    """The per-item validation that column checks replaced, kept as the oracle.

    Returns the views of the graph: ids ordered by (str, input position),
    each edge once with its ends in that order, and the values.
    """
    if isinstance(vertices, dict):
        vertices = vertices.items()
    items = [(vid, value) for vid, value in vertices]
    if not items:
        raise ModelViolationError("a size pair needs at least one vertex")
    position = {}
    for vid, value in items:
        if vid in position:
            raise ModelViolationError(f"duplicate vertex id {vid!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float, F)):
            raise ModelViolationError(
                f"value of vertex {vid!r} must be a real number, got {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelViolationError(f"value of vertex {vid!r} must be finite, got {value!r}")
        position[vid] = len(position)
    n = len(position)
    adj = [[] for _ in range(n)]
    seen = set()
    for edge in edges:
        u, v = edge
        p = position.get(u)
        if p is None:
            raise ModelViolationError(f"edge ({u!r}, {v!r}) references unknown vertex {u!r}")
        q = position.get(v)
        if q is None:
            raise ModelViolationError(f"edge ({u!r}, {v!r}) references unknown vertex {v!r}")
        if p == q:
            raise ModelViolationError(f"self-loop at vertex {u!r}")
        key = (min(p, q), max(p, q))
        if key in seen:
            raise ModelViolationError(f"duplicate edge ({u!r}, {v!r})")
        seen.add(key)
        adj[p].append(q)
        adj[q].append(p)
    reached, count = set(), 0
    for start in range(n):
        if start not in reached:
            count += 1
            reached.add(start)
            stack = [start]
            while stack:
                for q in adj[stack.pop()]:
                    if q not in reached:
                        reached.add(q)
                        stack.append(q)
    if count != 1:
        raise DisconnectedGraphError(count)
    ids = [vid for vid, _ in items]
    rank = {p: r for r, p in enumerate(sorted(range(n), key=lambda p: str(ids[p])))}
    edge_view = sorted((p, q) if rank[p] < rank[q] else (q, p) for p, q in seen)
    return (
        tuple(ids[p] for p in sorted(range(n), key=rank.__getitem__)),
        tuple((ids[p], ids[q]) for p, q in sorted(edge_view, key=lambda e: (rank[e[0]], rank[e[1]]))),
        dict(items),
    )


def _outcome(build):
    """The views of a successful build, or the exception's type, message and line."""
    try:
        result = build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, SizePair):
        return result.vertex_ids, result.edges, result.vertex_values
    return result


VALUE_TEXTS = ["1", "-2.5", "0", "3e2", " 7 ", "nan", "inf", "-inf", "1e400", "1_0", "x", "", "0x1", "1e-400"]


def _messy_files(rng, pads=True):
    """Seeded vertex and edge lines that mix every kind of fault with clean input.

    With ``pads`` off, no white space is put around fields, into names or on
    blank lines; then a name may hold a NON_BREAKS character or U+00A0
    instead, and a bad value text may still bring white space in.
    """
    n = rng.randint(1, 9)
    # an id with a comma parses as a vertex but cannot appear in an edge line
    stems = ["v", "w", "node "] if pads else ["v", "w", "node"]
    names = [("a,b" if rng.random() < 0.03 else rng.choice(stems)) + str(i) for i in range(n)]
    if not pads and rng.random() < 0.05:
        i = rng.randrange(n)
        names[i] = names[i][0] + rng.choice(NON_BREAKS + ["\xa0"]) + names[i][1:]
    if rng.random() < 0.1 and n > 1:
        names[rng.randrange(n)] = names[0]  # duplicate id
    pad = lambda: rng.choice(["", "", " ", "\t", "  "]) if pads else ""
    vertex_lines = []
    for name in names:
        if rng.random() < 0.03:
            vertex_lines.append(pad() + name + pad())  # no comma
            continue
        value = rng.choice(VALUE_TEXTS) if rng.random() < 0.03 else str(rng.randint(-8, 8) / 4)
        vertex_lines.append(f"{pad()}{name}{pad()},{pad()}{value}{pad()}")
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    if edges and rng.random() < 0.15:
        edges.pop(rng.randrange(len(edges)))  # disconnected
    for _ in range(rng.randint(0, 1)):
        edges.append((rng.choice(names), rng.choice(names)))  # self-loops and duplicates
    if rng.random() < 0.1:
        edges.append((rng.choice(names), "ghost"))
    if edges and rng.random() < 0.1:
        u, v = rng.choice(edges)
        edges.append((v, u))
    rng.shuffle(edges)
    edge_lines = [f"{pad()}{u}{pad()},{pad()}{v}{pad()}" for u, v in edges]
    for _ in range(rng.randint(0, 2)):
        if edge_lines and rng.random() < 0.1:
            edge_lines[rng.randrange(len(edge_lines))] = rng.choice(["a", "a,b,c", ",", "x,,"])
    for lines in (vertex_lines, edge_lines):
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "\t"]) if pads else "")
    return vertex_lines, edge_lines


def _as_input(rng, lines):
    """The lines as one str with mixed line breaks, or as an iterable of lines."""
    ends = [rng.choice(["\n", "\n", "\r\n", "\r"]) for _ in lines]
    if rng.random() < 0.5:
        text = "".join(line + end for line, end in zip(lines, ends))
        return text if rng.random() < 0.7 else text.rstrip("\r\n")
    return [line + end for line, end in zip(lines, ends)]


def test_parse_matches_the_per_line_parser():
    rng = random.Random(1207)
    kinds = {}
    for _ in range(4000):
        vertex_lines, edge_lines = _messy_files(rng)
        vertex_input, edge_input = _as_input(rng, vertex_lines), _as_input(rng, edge_lines)
        # an iterable is read once, so each parser gets its own copy
        copy = lambda given: given if isinstance(given, str) else iter(list(given))
        expected = _outcome(lambda: _oracle_parse(copy(vertex_input), copy(edge_input)))
        got = _outcome(lambda: parse_size_pair(copy(vertex_input), copy(edge_input)))
        assert got == expected, (vertex_input, edge_input)
        kind = expected[0].__name__ if isinstance(expected[0], type) else "ok"
        kinds[kind] = kinds.get(kind, 0) + 1
    # the cases reach every outcome, clean graphs among them
    assert set(kinds) == {"ok", "ParseError", "ModelViolationError", "DisconnectedGraphError"}
    assert min(kinds.values()) >= 100


def _outcome_kind(outcome):
    """"ok", the side of a ParseError ("vertex line" or "edge line"), or the error's type name."""
    if not isinstance(outcome[0], type):
        return "ok"
    if outcome[0] is ParseError:
        return outcome[1].split(" line ")[0] + " line"
    return outcome[0].__name__


def test_whitespace_free_parse_matches_the_per_line_parser():
    # text with no white space but its line breaks takes the parser's split() path
    rng = random.Random(1211)
    spaced = re.compile(r"[^\S\r\n]")  # white space other than a line break
    kinds = {"vertex": {}, "edge": {}}
    comma_ids = separator_ids = 0
    for _ in range(4000):
        vertex_lines, edge_lines = _messy_files(rng, pads=False)
        texts = []
        for lines in (vertex_lines, edge_lines):
            text = "".join(line + rng.choice(["\n", "\r\n", "\r"]) for line in lines)
            texts.append(text if rng.random() < 0.7 else text.rstrip("\r\n"))
        expected = _outcome(lambda: _oracle_parse(*texts))
        assert _outcome(lambda: parse_size_pair(*texts)) == expected, texts
        for side, text in zip(kinds, texts):
            if not spaced.search(text):
                kind = _outcome_kind(expected)
                kinds[side][kind] = kinds[side].get(kind, 0) + 1
        if not spaced.search(texts[0]) and any(line.count(",") > 1 for line in vertex_lines):
            comma_ids += 1
        separator_ids += any(char in texts[0] for char in NON_BREAKS + ["\xa0"])
    everything = {"ok", "vertex line", "edge line", "ModelViolationError", "DisconnectedGraphError"}
    for side in kinds:
        assert set(kinds[side]) == everything, kinds
        assert sum(kinds[side].values()) >= 500, kinds
    assert comma_ids >= 100 and separator_ids >= 100


class _Float(float):
    pass


API_VALUES = [0, 1, 2.5, F(1, 3), F(7), True, "1", None, float("nan"), float("-inf"), _Float(4), 10**400]
API_IDS = ["a", "b", 1, 1.0, "1", (0,), ("a", 1), 2, "c"]


def test_size_pair_matches_the_per_item_validation():
    rng = random.Random(1208)
    for _ in range(3000):
        n = rng.randint(0, 7)
        ids = [rng.choice(API_IDS) for _ in range(n)]
        if rng.random() < 0.03 and ids:
            ids[rng.randrange(n)] = ["unhashable"]
        values = [
            rng.choice(API_VALUES) if rng.random() < 0.1 else rng.choice([rng.randint(-3, 3), rng.randint(-3, 3) / 2, F(rng.randint(-3, 3), 3)])
            for _ in range(n)
        ]
        vertices = list(zip(ids, values))
        edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.3:
                edges.insert(rng.randint(0, len(edges)), rng.choice([
                    ("a", "zz"), (ids[0] if ids else "a",), ("a", "b", "c"), 5, {"x"}, (["l"], "a"),
                ]))
        rng.shuffle(edges)
        hashable = ["unhashable"] not in ids
        given = dict(vertices) if hashable and rng.random() < 0.2 else vertices
        expected = _outcome(lambda: _oracle_size_pair(given, iter(edges)))
        got = _outcome(lambda: SizePair(given, iter(edges)))
        assert got == expected, (given, edges)


def test_union_find_matches_naive_relabelling():
    rng = random.Random(1209)
    for _ in range(300):
        n = rng.randint(1, 60)
        uf, label = _UnionFind(n), list(range(n))
        for _ in range(rng.randint(0, 3 * n)):
            p, q = rng.randrange(n), rng.randrange(n)
            old, new = max(label[p], label[q]), min(label[p], label[q])
            expected = None if old == new else old
            if expected is not None:
                label = [new if lab == old else lab for lab in label]
            assert uf.union(p, q) == expected
            if rng.random() < 0.2:
                assert [uf.find(i) for i in range(n)] == label
        assert [uf.find(i) for i in range(n)] == label


def _elder_rule(values, edges):
    """Cornerpoints of a float-valued graph by a plain elder-rule sweep on ids."""
    neighbours = {v: [] for v in values}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    parent, birth, pairs = {}, {}, {}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for v in sorted(values, key=values.get):
        parent[v], birth[v] = v, values[v]
        for u in neighbours[v]:
            if u not in parent:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            young, elder = (ru, rv) if birth[ru] > birth[rv] else (rv, ru)
            if birth[young] < values[v]:
                key = (birth[young], values[v])
                pairs[key] = pairs.get(key, 0) + 1
            parent[young] = elder
    return min(values.values()), pairs


def test_extraction_on_mixed_int_and_float_values_seeded():
    # ints and floats are swept as they are: equal values of either type, and the two
    # zeros, must tie, and an int beyond the float precision must keep its place
    rng = random.Random(1212)
    choices = [0, 0.0, -0.0, 1, 1.0, -1, -1.0, 0.5, 2, 2.5, -3, 2**53, float(2**53), 2**53 + 1]
    for _ in range(300):
        n = rng.randint(1, 30)
        values = {f"v{i}": rng.choice(choices) for i in range(n)}
        edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
        for _ in range(rng.randint(0, n) if n > 1 else 0):
            u, v = (f"v{i}" for i in rng.sample(range(n), 2))
            if {u, v} not in [set(e) for e in edges]:
                edges.append((u, v))
        diagram = extract_diagram(SizePair(values, edges))
        infinity_x, pairs = _elder_rule(values, edges)
        assert diagram.infinity_x == F(infinity_x)
        assert {(p.x, p.y): m for p, m in diagram.points} == {
            (F(b), F(d)): m for (b, d), m in pairs.items()
        }, (values, edges)


@pytest.mark.parametrize("padded", [True, False], ids=["padded", "whitespace-free"])
def test_load_and_extract_a_40k_vertex_graph(tmp_path, padded):
    rng = random.Random(1210)
    side = 200
    values = {f"p{i}": rng.randint(0, 4096) / 64 for i in range(side * side)}
    edges = [(f"p{i}", f"p{i + 1}") for i in range(side * side) if (i + 1) % side]
    edges += [(f"p{i}", f"p{i + side}") for i in range(side * (side - 1))]
    edges += [(f"p{rng.randrange(side * side)}", f"p{rng.randrange(side * side)}") for _ in range(2000)]
    edges = list({frozenset(e): e for e in edges if e[0] != e[1]}.values())
    rng.shuffle(edges)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    vertex_items = list(values.items())
    rng.shuffle(vertex_items)
    vertex_path, edge_path = tmp_path / "v.csv", tmp_path / "e.csv"
    vertex_path.write_text("".join(f"{v},{value!r}\n" for v, value in vertex_items))
    edge_line = " {} , {}\n" if padded else "{},{}\n"
    edge_path.write_text("".join(edge_line.format(u, v) for u, v in edges))
    start = time.perf_counter()
    diagram = extract_diagram(load_size_pair(vertex_path, edge_path))
    elapsed = time.perf_counter() - start
    infinity_x, pairs = _elder_rule(values, edges)
    assert diagram.infinity_x == F(infinity_x)
    assert {(p.x, p.y): m for p, m in diagram.points} == {(F(b), F(d)): m for (b, d), m in pairs.items()}
    assert len(pairs) > 1000
    assert elapsed < 10.0
