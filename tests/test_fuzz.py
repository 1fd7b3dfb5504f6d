"""A seeded fuzz test of the command line: every input gets an answer or one short error line.

The runs are a fixed number of in-process ``cli.main`` calls from a fixed
seed, so every machine runs the same inputs.  Each input starts as a valid
diagram or graph and may then be mutated: wrong JSON types and shapes,
non-finite and malformed numbers, literals past the interpreter's digit
limit, missing keys, bad CSV values, self-loops, duplicate and unknown
edges, byte-order marks, broken UTF-8, and tokens of 10^4 characters.
"""

import contextlib
import io
import json
import random
import re
from collections import Counter

from sizematch import Diagram, Matching
from sizematch.cli import main
from sizematch.selftest import random_diagram

SEED = 2028
RUNS = 12000
LONG = 10**4
# the one check failure that writes a single line; stability's failure also
# writes its counterexample, and neither can happen on correct code
CHECK_FAILED = re.compile(r"error: realization failed its round-trip check at refine \d+\n")


class _Raw(str):
    """JSON text written as it is: a literal json.dumps cannot write."""


def _json_text(value) -> str:
    if isinstance(value, _Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    return json.dumps(value)


def _odd_number(rng):
    """A JSON value where a diagram number belongs, which the reader must refuse or read."""
    return rng.choice([
        True, None, "abc", "", [], {}, [1, 2], "nan", "1/0", "1/-3", "inf", " 1/3 ", "1/3/4",
        0, -1, 10**9, 0.5, "2/4",
        _Raw("1e400"), _Raw("NaN"), _Raw("-Infinity"), _Raw("-0.0"),
        "1/" + "7" * 4001, _Raw("1" + "0" * 5000),
        "x" * LONG, "1/" + "3" * LONG, _Raw("9" * LONG), _Raw("0." + "5" * LONG),
    ])


def _mutated_diagram(rng, data):
    roll = rng.randrange(8)
    points = data.get("points")
    if not isinstance(points, list):
        points = []
    rows = [row for row in points if isinstance(row, list) and row]
    if roll < 3 and rows:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = _odd_number(rng)
    elif roll == 3:
        data["infinity_x"] = _odd_number(rng)
    elif roll == 4 and data:
        del data[rng.choice(sorted(data))]
    elif roll == 5:
        data["points"] = rng.choice([5, {}, "x", None, [[1, 2]], [[0, 1, 1, 4]], [{"x": 1}],
                                     [[[0, 1, 1]]], ["x" * LONG], [[0, 1, 1]] * 3])
    elif roll == 6:
        data[rng.choice(["extra", "k" * LONG])] = 1
    else:
        return rng.choice([[], 5, "x", None, [data]])
    return data


def _diagram_bytes(rng) -> bytes:
    data = random_diagram(rng, max_points=4, max_multiplicity=3).to_json_dict()
    for _ in range(rng.choice([0, 0, 1, 2])):
        if isinstance(data, dict):
            data = _mutated_diagram(rng, data)
    text = _json_text(data).encode()
    roll = rng.randrange(12)
    if roll == 0:
        text = b"\xef\xbb\xbf" + text  # a byte-order mark is read past
    elif roll == 1:
        text = text[:rng.randrange(len(text))]
    elif roll == 2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + b"\xff" + text[at:]
    elif roll == 3:
        text = b"[" * LONG + b"]" * LONG
    return text


def _graph(rng, n):
    """The vertex and edge lines, as lists of fields, of a random connected graph."""
    ids = [rng.choice([f"v{k}", str(k), f"{k:03d}"]) for k in range(n)]
    vertices = [[vid, rng.choice([str(rng.randint(-4, 9)), repr(rng.randint(0, 32) / 8)])]
                for vid in ids]
    edges = [[ids[k], ids[rng.randrange(k)]] for k in range(1, n)]
    for _ in range(rng.randint(0, 2) if n > 2 else 0):
        a, b = rng.sample(ids, 2)
        if [a, b] not in edges and [b, a] not in edges:
            edges.append([a, b])
    return vertices, edges


def _copy(rng, vertices, edges):
    """The same graph relabelled and shuffled, each value moved by at most 1/2."""
    names = {v: f"u{k}" for k, (v, _) in enumerate(vertices)}
    moved = [[names[v], repr(float(x) + rng.randint(-4, 4) / 8)] for v, x in vertices]
    rng.shuffle(moved)
    return moved, [[names[u], names[v]] for u, v in edges]


def _mutated_graph(rng, vertices, edges) -> None:
    ids = [line[0] for line in vertices if line]
    roll = rng.randrange(12)
    if roll == 0 and vertices:
        rng.choice(vertices)[-1] = rng.choice([
            "abc", "", "nan", "inf", "-inf", "1e400", "0x10", "1_000", "1/2", " 2 ",
            "9" * LONG, "x" * LONG, "1." + "5" * LONG])
    elif roll == 1 and vertices:
        rng.choice(vertices)[0] = rng.choice(["", "x" * LONG, "a,b", "\ufeffv0", "v\x1c0", "v0"])
    elif roll == 2 and vertices:
        vertices.append(list(rng.choice(vertices)))
    elif roll == 3 and ids:
        vid = rng.choice(ids)
        edges.append([vid, vid])
    elif roll == 4 and edges:
        edges.append(rng.choice(edges)[::rng.choice([1, -1])])
    elif roll == 5 and ids:
        edges.append([rng.choice(ids), rng.choice(["zz", "x" * LONG])])
    elif roll == 6:
        line = rng.choice([["x" * LONG], ["a", "b", "1"]])
        vertices.insert(rng.randrange(len(vertices) + 1), line)
    elif roll == 7:
        line = rng.choice([["x" * LONG], ["a", "b", "c"]])
        edges.insert(rng.randrange(len(edges) + 1), line)
    elif roll == 8 and edges:
        edges.remove(rng.choice(edges))
    elif roll == 9 and vertices:
        vertices.remove(rng.choice(vertices))
    elif roll == 10:
        edges.clear()
    else:
        vertices.clear()


def _csv_bytes(rng, lines) -> bytes:
    pad = rng.choice(["", "", " ", "\t"])
    text = rng.choice(["\n", "\r\n", "\r"]).join(
        ",".join(pad + field + pad for field in line) for line in lines)
    data = (text + rng.choice(["", "\n", "\n\n"])).encode()
    roll = rng.randrange(10)
    if roll == 0:
        data = b"\xef\xbb\xbf" + data
    elif roll == 1:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


def _graph_files(rng, count):
    vertices, edges = _graph(rng, rng.randint(1, 9))
    graphs = [(vertices, edges)]
    if count == 2:
        graphs.append(_copy(rng, vertices, edges) if rng.random() < 0.7
                      else _graph(rng, rng.randint(1, 9)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        _mutated_graph(rng, *rng.choice(graphs))
    return [_csv_bytes(rng, lines) for graph in graphs for lines in graph]


def _case(rng):
    """(command, options, file contents) of one run."""
    command = rng.choice(["dist", "dist", "realize", "diagram", "bound", "stability"])
    if command in ("dist", "realize"):
        inputs = [_diagram_bytes(rng), _diagram_bytes(rng)]
    else:
        inputs = _graph_files(rng, 2 if command == "bound" else 1)
    if command == "stability":
        epsilon = rng.choice(["0.25", "1/4", "0", "3", "-1", "x", "1/0", "nan", "x" * LONG])
        options = ["--epsilon", epsilon, "--trials", str(rng.randint(1, 3)),
                   "--seed", str(rng.randint(0, 9))]
    else:
        options = ["--format", rng.choice(["json", "csv"])]
        if command == "dist" and rng.random() < 0.5:
            options.append("--witness")
        if command == "realize" and rng.random() < 0.3:
            options += ["--refine", "2"]
    return command, options, inputs


def _check_witness(out, paths):
    d1, d2 = (Diagram.loads(path.read_text(encoding="utf-8-sig")) for path in paths)
    witness = json.loads(out)["witness"]
    Matching.from_json_dict(witness, d1.infinity_x, d2.infinity_x).verify(d1, d2)


def test_every_fuzzed_input_gets_an_answer_or_one_short_error_line(tmp_path):
    rng = random.Random(SEED)
    codes = Counter()
    for run in range(RUNS):
        command, options, inputs = _case(rng)
        paths = [tmp_path / f"in{k}" for k in range(len(inputs))]
        for path, data in zip(paths, inputs):
            path.write_bytes(data)
        argv = [command, *map(str, paths), *options]
        where = f"run {run}: {' '.join(argv)[:300]}; inputs {[data[:200] for data in inputs]}"
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, SystemExit) as exc:  # main must return
            raise AssertionError(where) from exc
        out, err = out.getvalue(), err.getvalue()
        codes[code] += 1
        documented = code in (0, 2, 3) or code == 1 and CHECK_FAILED.fullmatch(err)
        assert documented, (where, code, err[:300])
        for text in (out, err):
            assert "Traceback" not in text and "set_int_max_str_digits" not in text, where
        if code:
            assert out == "", where
            assert err.count("\n") == 1 and err.endswith("\n"), (where, err[:300])
            assert len(err.encode()) < 1000, (where, err[:300])
        elif command == "stability" or "json" in options:
            json.loads(out)
            if "--witness" in options:
                _check_witness(out, paths)
    # the inputs reach answers and both kinds of refusal
    assert codes[0] > RUNS // 5 and codes[2] > RUNS // 10 and codes[3] > RUNS // 20, codes
