"""End-to-end command-line behavior, run in-process via cli.main(argv)."""

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import sizematch
from sizematch import Diagram
from sizematch._rational import number_from_json
from sizematch.cli import _dumps, main
from sizematch.selftest import SuiteResult

cli_module = importlib.import_module("sizematch.cli")


PATH_V = "a,0\nb,2\nc,1\nd,3\ne,0\n"
PATH_E = "a,b\nb,c\nc,d\nd,e\n"
EDGE_V = "p,0.5\nq,1.5\n"
EDGE_E = "p,q\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("v1", PATH_V), ("e1", PATH_E), ("v2", EDGE_V), ("e2", EDGE_E)
    ]:
        p = tmp_path / f"{name}.csv"
        p.write_text(text)
        paths[name] = str(p)
    for name, text in [
        ("d1", '{"infinity_x": 0.0, "points": [[0.0, 3.0, 1], [1.0, 2.0, 1]]}'),
        ("d2", '{"infinity_x": 0.5, "points": []}'),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- diagram


def test_diagram_json(files, capsys):
    code, out, _ = run(capsys, ["diagram", files["v1"], files["e1"]])
    assert code == 0
    data = json.loads(out)
    assert data["infinity_x"] == 0.0
    assert data["points"] == [[0.0, 3.0, 1], [1.0, 2.0, 1]]


def test_diagram_csv(files, capsys):
    code, out, _ = run(capsys, ["diagram", files["v1"], files["e1"], "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# infinity_x 0.0"
    assert lines[1] == "x,y,multiplicity"
    assert lines[2:] == ["0.0,3.0,1", "1.0,2.0,1"]


# ------------------------------------------------------------------- dist


def test_dist_json_with_witness(files, capsys):
    code, out, _ = run(capsys, ["dist", files["d1"], files["d2"], "--witness"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1.5
    kinds = {(str(p["left"]), str(p["right"])) for p in data["witness"]["pairs"]}
    assert ("inf", "inf") in kinds


def test_dist_identical_diagrams_is_zero(files, capsys):
    code, out, _ = run(capsys, ["dist", files["d1"], files["d1"]])
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_dist_single_point_versus_empty(files, capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"infinity_x": 0.0, "points": [[1.0, 3.0, 1]]}')
    b.write_text('{"infinity_x": 0.0, "points": []}')
    code, out, _ = run(capsys, ["dist", str(a), str(b)])
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_dist_beyond_the_float_range(capsys, tmp_path):
    big = tmp_path / "big.json"
    empty = tmp_path / "empty.json"
    big.write_text('{"infinity_x": 0, "points": [[1, %d, 1]]}' % 10**400)
    empty.write_text('{"infinity_x": 0, "points": []}')
    code, out, _ = run(capsys, ["dist", str(big), str(empty), "--witness"])
    assert code == 0
    data = json.loads(out)
    assert number_from_json(data["value"]) == Fraction(10**400 - 1, 2)
    assert number_from_json(data["witness"]["cost"]) == Fraction(10**400 - 1, 2)
    code, out, err = run(capsys, ["dist", str(big), str(empty), "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dist_rejects_point_below_diagonal(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"infinity_x": 0.0, "points": [[3.0, 1.0, 1]]}')
    code, _, err = run(capsys, ["dist", str(bad), files["d2"]])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("mult", ["0", "-1", "1.5", "true"])
def test_dist_rejects_bad_multiplicity(files, capsys, tmp_path, mult):
    bad = tmp_path / "bad.json"
    bad.write_text('{"infinity_x": 0.0, "points": [[1.0, 2.0, %s]]}' % mult)
    code, out, err = run(capsys, ["dist", str(bad), files["d2"]])
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}: diagram JSON: multiplicity must be a positive integer, "
                   f"got {json.loads(mult)!r}\n")


def test_dist_csv_witness_projects_diagonal(files, capsys):
    code, out, _ = run(
        capsys, ["dist", files["d1"], files["d2"], "--witness", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# value 1.5"
    assert lines[1] == "kind,left_x,left_y,right_x,right_y,cost"
    rows = [line.split(",") for line in lines[2:]]
    kinds = sorted(row[0] for row in rows)
    assert kinds == ["inf", "left", "left"]
    for row in rows:
        if row[0] == "left":
            # the diagonal target is the point's projection (m, m)
            assert row[3] == row[4]


def test_dist_csv_witness_pair_and_right_rows(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"infinity_x": 0, "points": [[0, 4, 1]]}')
    b.write_text('{"infinity_x": 0, "points": [[0, 4.5, 1], [1, 1.5, 1]]}')
    code, out, _ = run(capsys, ["dist", str(a), str(b), "--witness", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "# value 0.5",
        "kind,left_x,left_y,right_x,right_y,cost",
        "inf,0.0,inf,0.0,inf,0.0",
        "pair,0.0,4.0,0.0,4.5,0.5",
        # the unmatched right point faces its projection (5/4, 5/4)
        "right,1.25,1.25,1.0,1.5,0.25",
    ]


def test_dist_reads_rational_literals(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"infinity_x": "-1/3", "points": [["1/3", 1, 1]]}')
    b.write_text('{"infinity_x": 0, "points": []}')
    code, out, _ = run(capsys, ["dist", str(a), str(b)])
    assert code == 0
    assert number_from_json(json.loads(out)["value"]) == Fraction(1, 3)


def test_dist_rejects_a_malformed_rational_literal(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"infinity_x": 0, "points": [["1/0", 1, 1]]}')
    code, out, err = run(capsys, ["dist", str(bad), files["d2"]])
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: diagram JSON: malformed rational literal '1/0'\n"


def test_dist_names_a_long_malformed_rational_literal_by_its_start(files, capsys, tmp_path):
    bad = tmp_path / "long.json"
    bad.write_text('{"infinity_x": 0, "points": [[0, "1/%s", 1]]}' % ("2x" * 500000))
    code, out, err = run(capsys, ["dist", str(bad), files["d2"]])
    assert (code, out) == (2, "")
    assert err == (f"error: {bad}: diagram JSON: malformed rational literal of 1000002 "
                   "characters, starting '1/2x2x2x2x2x2x2x2x2x'\n")
    assert len(err.encode()) < 300


LONG = "x" * 10**6
EMPTY_DIAGRAM = '{"infinity_x": 0, "points": []}'
# each input quotes a token of 10^6 characters in its error: (command, file texts, exit code)
LONG_INPUTS = {
    "point row": ("dist", ['{"infinity_x": 0, "points": [["%s", 1]]}' % LONG, EMPTY_DIAGRAM], 2),
    "multiplicity": ("dist", ['{"infinity_x": 0, "points": [[0, 1, "%s"]]}' % LONG,
                              EMPTY_DIAGRAM], 2),
    "vertex line": ("diagram", [f"a,0\n{LONG}\n", "a,b\n"], 2),
    "value": ("diagram", [f"a,0\nb,{LONG}\n", "a,b\n"], 2),
    "duplicate id": ("diagram", [f"{LONG},0\n{LONG},1\n", "a,b\n"], 3),
    "unknown end": ("diagram", ["a,0\nb,1\n", f"a,{LONG}\n"], 3),
}


@pytest.mark.parametrize("case", sorted(LONG_INPUTS))
def test_an_error_quotes_a_long_input_by_its_length_and_start(capsys, tmp_path, case):
    command, texts, expected = LONG_INPUTS[case]
    paths = []
    for k, text in enumerate(texts):
        paths.append(tmp_path / f"in{k}.{'json' if command == 'dist' else 'csv'}")
        paths[-1].write_text(text)
    code, out, err = run(capsys, [command, *map(str, paths)])
    assert (code, out) == (expected, "")
    assert err.count("\n") == 1 and len(err.encode()) < 300, err[:300]
    assert "characters, starting " in err


def test_output_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["dist", files["d1"], files["d2"], "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == 1.5


@pytest.mark.parametrize("case", ["bad_json", "disconnected"])
def test_output_file_is_kept_when_the_command_fails(files, capsys, tmp_path, case):
    target = tmp_path / "out.json"
    target.write_bytes(b"earlier report\n")
    if case == "bad_json":
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv, code_expected = ["dist", files["d1"], str(bad)], 2
    else:
        (tmp_path / "v.csv").write_text("a,0\nb,1\nc,2\n")
        (tmp_path / "e.csv").write_text("a,b\n")
        argv, code_expected = ["diagram", str(tmp_path / "v.csv"), str(tmp_path / "e.csv")], 3
    expected = run(capsys, argv)
    assert expected[0] == code_expected
    assert run(capsys, argv + ["--output", str(target)]) == expected
    assert target.read_bytes() == b"earlier report\n"


def test_a_command_that_raises_after_printing_writes_nothing(capsys, monkeypatch, tmp_path):
    # the first result prints; the second one's seconds cannot be formatted with ".2f"
    results = [SuiteResult("first", "pass", 1, 0.25), SuiteResult("second", "pass", 1, "soon")]
    monkeypatch.setattr(cli_module, "run_selftest", lambda **kwargs: (results, True))
    target = tmp_path / "out.txt"
    for extra in ([], ["--output", str(target)]):
        code, out, err = run(capsys, ["selftest", *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_output_may_name_the_commands_own_input(files, capsys):
    code, expected, _ = run(capsys, ["diagram", files["v1"], files["e1"]])
    code, out, err = run(capsys, ["diagram", files["v1"], files["e1"], "--output", files["v1"]])
    assert (code, out, err) == (0, "", "")
    with open(files["v1"], encoding="utf-8") as fh:
        assert fh.read() == expected


# ------------------------------------------------------------------ bound


def test_bound_json(files, capsys):
    code, out, _ = run(
        capsys, ["bound", files["v1"], files["e1"], files["v1"], files["e1"]]
    )
    assert code == 0
    data = json.loads(out)
    assert data["d_match"] == 0.0
    assert data["earlier_bound"] == 0.0
    assert data["exact_pseudo_distance"] == 0.0
    assert data["chain_ok"] is True


def test_bound_csv_with_note(files, capsys):
    code, out, _ = run(
        capsys,
        ["bound", files["v1"], files["e1"], files["v2"], files["e2"], "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,value"
    names = [line.split(",")[0] for line in lines[1:4]]
    assert names == ["earlier_bound", "d_match", "exact_pseudo_distance"]
    assert lines[3] == "exact_pseudo_distance,"  # not isomorphic: empty value
    assert lines[4].startswith("# note:")


def test_bound_cap_flag(files, capsys):
    code, out, _ = run(
        capsys,
        ["bound", files["v1"], files["e1"], files["v1"], files["e1"], "--cap", "1"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact_pseudo_distance"] is None
    assert "cap" in data["note"]


def test_bound_builds_no_id_view(capsys, tmp_path, monkeypatch):
    # a 9-vertex tree and a relabelled copy with moved values: ids 2..10, whose
    # str order differs from input order, so the exact search must run on positions
    edges = [(2, 3), (3, 4), (3, 5), (5, 6), (2, 7), (7, 8), (7, 9), (9, 10)]
    values = {v: 37 * v % 11 / 4 for v in range(2, 11)}
    relabel = {v: 12 - v for v in range(2, 11)}
    texts = [
        "".join(f"{v},{x}\n" for v, x in values.items()),
        "".join(f"{u},{v}\n" for u, v in edges),
        "".join(f"{relabel[v]},{x + (v % 3) / 8}\n" for v, x in values.items()),
        "".join(f"{relabel[u]},{relabel[v]}\n" for u, v in edges),
    ]
    paths = []
    for k, text in enumerate(texts):
        paths.append(str(tmp_path / f"{k}.csv"))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    code, expected, _ = run(capsys, ["bound", *paths])
    assert code == 0 and json.loads(expected)["exact_pseudo_distance"] == 0.25

    def refuse(*args):
        raise AssertionError("bound read an id view")

    for name in ("_build_views", "degree", "value"):
        monkeypatch.setattr(sizematch.SizePair, name, refuse)
    assert run(capsys, ["bound", *paths]) == (0, expected, "")


def test_bound_beyond_the_float_range(capsys, tmp_path):
    # distances of 1.7e308 and 3.4e308 between values that are valid floats
    big = Fraction(1.7e308)
    edges = tmp_path / "e.csv"
    edges.write_text("a,b\nb,c\n")
    valley = tmp_path / "valley.csv"
    valley.write_text("a,-1.7e308\nb,1.7e308\nc,-1.7e308\n")
    peak = tmp_path / "peak.csv"
    peak.write_text("a,1.7e308\nb,-1.7e308\nc,1.7e308\n")
    argv = ["bound", str(valley), str(edges), str(peak), str(edges)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert number_from_json(data["earlier_bound"]) == big
    assert number_from_json(data["d_match"]) == big
    assert number_from_json(data["exact_pseudo_distance"]) == 2 * big
    witness = data["witnesses"]["earlier"]
    assert 0 < number_from_json(witness["achieved"]) <= big
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------- realize


def test_realize_json(files, capsys, tmp_path):
    code, out, _ = run(capsys, ["diagram", files["v1"], files["e1"]])
    (tmp_path / "d1.json").write_text(out)
    code, out, _ = run(capsys, ["diagram", files["v2"], files["e2"]])
    (tmp_path / "d2.json").write_text(out)
    code, out, _ = run(
        capsys,
        ["realize", str(tmp_path / "d1.json"), str(tmp_path / "d2.json"), "--refine", "2"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["gap_equals_distance"] is True
    assert data["round_trip"] == {"refine": 2, "phi": True, "psi": True}
    assert data["max_gap"] == data["d_match"] == 1.5
    assert data["phi"]["x_breaks"] == data["psi"]["x_breaks"]


def test_realize_csv(files, capsys, tmp_path):
    _, out, _ = run(capsys, ["diagram", files["v1"], files["e1"]])
    (tmp_path / "d1.json").write_text(out)
    (tmp_path / "d2.json").write_text('{"infinity_x": 0.0, "points": []}')
    code, out, _ = run(
        capsys,
        ["realize", str(tmp_path / "d1.json"), str(tmp_path / "d2.json"),
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# d_match ")
    assert lines[1] == "column_x,y,phi,psi"
    assert all(len(line.split(",")) == 4 for line in lines[2:])


def test_realize_csv_beyond_the_float_range(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text('{"infinity_x": 0, "points": [[0, "%d/1", 1]]}' % 10**400)
    code, out, err = run(capsys, ["realize", str(big), str(big), "--format", "csv"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_realize_self_check_failure_exits_1(files, capsys, monkeypatch):
    # at the default refine 1 the command reports realize()'s own check; the
    # package attribute sizematch.realize is the function, so fetch the module
    realize_module = importlib.import_module("sizematch.realize")
    monkeypatch.setattr(realize_module, "_ratio_diagram", lambda keys, adj: Diagram(7, []))
    code, out, err = run(capsys, ["realize", files["d1"], files["d2"]])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_realize_refined_round_trip_failure_exits_1(files, capsys, monkeypatch):
    # refine > 1 runs the command's own round trips
    monkeypatch.setattr("sizematch.cli._field_diagrams", lambda fields, refine: [Diagram(7, [])] * 2)
    code, out, err = run(capsys, ["realize", files["d1"], files["d2"], "--refine", "2"])
    assert code == 1
    data = json.loads(out)
    assert data["round_trip"] == {"refine": 2, "phi": False, "psi": False}
    assert data["gap_equals_distance"] is True
    assert err.startswith("error: ") and err.count("\n") == 1


def test_realize_gap_that_differs_from_d_match_exits_1(files, capsys, monkeypatch):
    # the command measures the gap on the fields realize() hands it: a psi whose base
    # column is moved d_match + 1 down is caught there, with its report still written
    realize = cli_module.realize

    def moved(d1, d2):
        phi, psi, params = realize(d1, d2)
        columns = list(psi.values_per_column)
        columns[0] = [v - params.d_match - 1 for v in columns[0]]
        return phi, sizematch.RectField(psi.x_breaks, psi.y_breaks, columns), params

    monkeypatch.setattr(cli_module, "realize", moved)
    code, out, err = run(capsys, ["realize", files["d1"], files["d2"]])
    assert code == 1
    data = json.loads(out)
    assert data["gap_equals_distance"] is False
    assert number_from_json(data["max_gap"]) == number_from_json(data["d_match"]) + 1
    assert data["round_trip"] == {"refine": 1, "phi": True, "psi": True}
    assert err == (f"error: realized field gap {number_from_json(data['max_gap'])} differs from "
                   f"the matching distance {number_from_json(data['d_match'])}\n")


def test_realize_rejects_bad_json(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = tmp_path / "good.json"
    good.write_text('{"infinity_x": 0.0, "points": []}')
    code, _, err = run(capsys, ["realize", str(bad), str(good)])
    assert code == 2
    assert "JSON" in err


def test_realize_rejects_bad_schema(files, capsys, tmp_path):
    bad = tmp_path / "schema.json"
    bad.write_text('{"points": []}')
    good = tmp_path / "good.json"
    good.write_text('{"infinity_x": 0.0, "points": []}')
    code, _, err = run(capsys, ["realize", str(bad), str(good)])
    assert code == 2
    assert "schema.json" in err


def test_realize_mislocalized_is_model_violation(files, capsys, tmp_path):
    bad = tmp_path / "mis.json"
    bad.write_text('{"infinity_x": 1.0, "points": [[0.0, 2.0, 1]]}')
    good = tmp_path / "good.json"
    good.write_text('{"infinity_x": 0.0, "points": []}')
    code, _, err = run(capsys, ["realize", str(bad), str(good)])
    assert code == 3
    assert "infinity_x" in err


def test_realize_half_width_underflow_exits_2(capsys, tmp_path):
    # persistence 10^-13: the structure half-width 10^-13 / 8 is below the minimum 10^-12
    thin = tmp_path / "thin.json"
    thin.write_text('{"infinity_x": 0, "points": [[0, "1/%d", 1]]}' % 10**13)
    empty = tmp_path / "empty.json"
    empty.write_text('{"infinity_x": 0, "points": []}')
    code, out, err = run(capsys, ["realize", str(thin), str(empty)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: structure half-width") and err.count("\n") == 1
    assert "underflows" in err


# -------------------------------------------------------------- stability


def test_stability_holds(files, capsys):
    code, out, _ = run(
        capsys,
        ["stability", files["v1"], files["e1"], "--epsilon", "1/4",
         "--trials", "10", "--seed", "5"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["max_d_match"] <= 0.25
    assert data["trials"] == 10


def test_stability_writes_epsilon_exactly(files, capsys):
    code, out, _ = run(
        capsys,
        ["stability", files["v1"], files["e1"], "--epsilon", "1/3",
         "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    data = json.loads(out)
    assert number_from_json(data["epsilon"]) == Fraction(1, 3)
    assert number_from_json(data["max_d_match"]) <= Fraction(1, 3)


def test_stability_violation_exits_1_with_the_perturbation(files, capsys, monkeypatch):
    monkeypatch.setattr(
        "sizematch.cli.stability_probe", lambda sp, moved, epsilon: (Fraction(5), False)
    )
    code, out, err = run(
        capsys, ["stability", files["v1"], files["e1"], "--epsilon", "1/4", "--seed", "3"]
    )
    assert code == 1
    assert out == ""
    message, dump = err.splitlines()
    assert message == "error: trial 0: d_match 5.0 exceeds epsilon 0.25"
    moved = json.loads(dump)
    values = {"a": 0, "b": 2, "c": 1, "d": 3, "e": 0}
    assert list(moved) == sorted(values)
    for v, value in moved.items():
        assert abs(number_from_json(value) - values[v]) <= Fraction(1, 4)


def test_stability_rejects_bad_epsilon(files, capsys):
    code, _, err = run(
        capsys, ["stability", files["v1"], files["e1"], "--epsilon", "wide"]
    )
    assert code == 2
    assert "epsilon" in err


def test_stability_deterministic_given_seed(files, capsys):
    args = ["stability", files["v1"], files["e1"], "--epsilon", "0.5", "--seed", "9"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


# --------------------------------------------------------------- selftest


def test_selftest_runs_and_reports(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "selftest: ok"
    names = [line.split(":")[0] for line in lines[:-1]]
    assert names == [
        "representation_round_trips",
        "metric_axioms",
        "stability_fuzz",
        "oracle_equivalence",
        "bound_chain",
        "realization_round_trips",
    ]
    assert all("pass" in line for line in lines[:-1])


def test_selftest_cap_zero_skips_search_suites(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "2", "--cap", "0"])
    assert code == 0
    assert "oracle_equivalence: skip" in out
    assert "bound_chain: skip" in out
    assert out.strip().endswith("selftest: ok")


def test_selftest_failure_exits_1_with_the_shrunk_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(
        "sizematch.selftest.brute_force_matching_distance", lambda d1, d2, cap: Fraction(-1)
    )
    code, out, err = run(capsys, ["selftest", "--seed", "0"])
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[-1] == "selftest: FAILED"
    failed = [line for line in lines if ": fail " in line]
    assert len(failed) == 1
    assert failed[0].startswith("oracle_equivalence: fail (case 1): solver ")
    assert failed[0].endswith(" != brute force -1")
    # every point was dropped: the wrong oracle fails on empty diagrams too
    counterexample = json.loads(err)
    assert counterexample["d1"]["points"] == [] == counterexample["d2"]["points"]


def test_selftest_env_seed(files, capsys, monkeypatch):
    import re

    def strip_timing(text):
        return re.sub(r"\d+\.\d+ s", "_ s", text)

    monkeypatch.setenv("SIZEMATCH_SEED", "4")
    code1, out1, _ = run(capsys, ["selftest"])
    code2, out2, _ = run(capsys, ["selftest", "--seed", "4"])
    assert code1 == code2 == 0
    assert strip_timing(out1) == strip_timing(out2)


def test_selftest_rejects_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SIZEMATCH_SEED", "pi")
    code, _, err = run(capsys, ["selftest"])
    assert code == 2
    assert "SIZEMATCH_SEED" in err


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv, option",
    [
        (["stability", "{v1}", "{e1}", "--epsilon", "0.5", "--trials", "0"], "--trials"),
        (["stability", "{v1}", "{e1}", "--epsilon", "0.5", "--trials", "-3"], "--trials"),
        (["selftest", "--scale", "0"], "--scale"),
        (["selftest", "--scale", "-1"], "--scale"),
        (["selftest", "--cap", "-2"], "--cap"),
        (["bound", "{v1}", "{e1}", "{v1}", "{e1}", "--cap", "-1"], "--cap"),
        (["realize", "{d1}", "{d2}", "--refine", "0"], "--refine"),
        (["realize", "{d1}", "{d2}", "--refine", "-1"], "--refine"),
    ],
    ids=["trials-0", "trials-negative", "scale-0", "scale-negative", "selftest-cap", "bound-cap",
         "refine-0", "refine-negative"],
)
def test_count_argument_out_of_range_exit_2(files, capsys, argv, option):
    code, out, err = run(capsys, [arg.format(**files) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} must be at least ")
    assert err.count("\n") == 1


def test_parse_error_exit_2_names_file_and_line(files, capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,1\nb,oops\n")
    code, _, err = run(capsys, ["diagram", str(bad), files["e1"]])
    assert code == 2
    assert "bad.csv" in err
    assert "line 2" in err


@pytest.mark.parametrize("command", ["dist", "realize"])
def test_truncated_diagram_json_names_the_file(files, capsys, tmp_path, command):
    cut = tmp_path / "cut.json"
    cut.write_text('{"infinity_x": 0.0, "points": [[0.0, 3.0, 1] [1.0')
    code, out, err = run(capsys, [command, files["d1"], str(cut)])
    assert (code, out) == (2, "")
    assert err == (f"error: {cut}: invalid JSON: Expecting ',' delimiter: "
                   "line 1 column 46 (char 45)\n")


@pytest.mark.parametrize("command, which", [("dist", 1), ("diagram", 0), ("diagram", 1)])
def test_file_that_is_not_utf8_names_the_file(files, capsys, tmp_path, command, which):
    binary = tmp_path / "latin1.dat"
    binary.write_bytes(b"\xff\xfe,0\n")
    argv = [command, files["d1"], files["d2"]] if command == "dist" else [
        command, files["v1"], files["e1"]]
    argv[1 + which] = str(binary)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {binary}: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


@pytest.mark.parametrize("command", ["dist", "realize"])
def test_deeply_nested_diagram_json_is_invalid_input(files, capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, [command, str(deep), files["d2"]])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {deep}: invalid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_vertex_file_with_a_byte_order_mark(files, capsys, tmp_path):
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + PATH_V.encode())
    plain = run(capsys, ["diagram", files["v1"], files["e1"]])
    assert run(capsys, ["diagram", str(marked), files["e1"]]) == plain
    assert plain[0] == 0


def test_diagram_file_with_a_byte_order_mark(files, capsys, tmp_path):
    marked = tmp_path / "bom.json"
    with open(files["d1"], "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    plain = run(capsys, ["dist", files["d1"], files["d2"], "--witness"])
    assert run(capsys, ["dist", str(marked), files["d2"], "--witness"]) == plain
    assert plain[0] == 0


def test_disconnected_exit_3_with_component_count(capsys, tmp_path):
    v = tmp_path / "v.csv"
    e = tmp_path / "e.csv"
    v.write_text("a,0\nb,1\nc,2\n")
    e.write_text("a,b\n")
    code, _, err = run(capsys, ["diagram", str(v), str(e)])
    assert code == 3
    assert "2 components" in err


def test_missing_file_exit_2(files, capsys):
    code, _, err = run(capsys, ["diagram", "/nonexistent/v.csv", files["e1"]])
    assert code == 2
    assert "error" in err


def test_determinism_of_dist(files, capsys):
    args = ["dist", files["d1"], files["d2"], "--witness"]
    _, out1, _ = run(capsys, args)
    _, out2, _ = run(capsys, args)
    assert out1 == out2


def test_one_process_runs_many_commands_like_separate_ones(files, capsys):
    # main() builds its parser once per process; reusing it must not leak
    # state from one call, or from a parse error, into the next
    commands = [
        ["dist", files["d1"], files["d2"], "--witness", "--format", "csv"],
        ["diagram", files["v1"], files["e1"]],
        ["realize", files["d1"], files["d2"]],
    ]
    in_process = [run(capsys, commands[0]), run(capsys, commands[1])]
    with pytest.raises(SystemExit) as exc:
        main(["dist", files["d1"], files["d2"], "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    in_process.append(run(capsys, commands[2]))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sizematch.__file__)))
    for argv, (code, out, err) in zip(commands, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "sizematch", *argv], capture_output=True, text=True, env=env
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)
    assert [code for code, _, _ in in_process] == [0, 0, 0]


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import sizematch, sizematch.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_the_package_and_its_cli_import_only_the_standard_library():
    # the diff, not the whole of sys.modules: site hooks may load third-party
    # modules before any import here
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sizematch.__file__)))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    loaded = done.stdout.split()
    assert {"sizematch", "sizematch.cli", "sizematch.realize"} <= set(loaded)
    outside = [name for name in loaded if name.partition(".")[0] != "sizematch"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# ------------------------------------------------------------ JSON writer


_CHARS = 'aZ09 "\\/\b\f\n\r\t\x00\x1f\x7f\x80é\u2028\ufeff\ud800€😀𝄞'
_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, -2.5, 1e16, 1e-7,
           math.nan, math.inf, -math.inf]


def _random_json(rng, depth):
    kind = rng.randrange(9 if depth < 5 else 6)
    if kind == 0:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))
    if kind == 1:
        return rng.choice([0, -1, 7, 2**63, -(10**300), rng.randint(-(2**70), 2**70)])
    if kind == 2:
        drawn = [rng.uniform(-1e9, 1e9), rng.random() * 10.0 ** rng.randint(-300, 300)]
        return rng.choice(_FLOATS + drawn)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:  # mostly scalars, as the number rows of the outputs
        return [_random_json(rng, 5) for _ in range(rng.randint(0, 5))]
    if kind == 5:
        return rng.choice([[], (), {}])
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 7:
        return tuple(_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4)))
    return {
        "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 4))): _random_json(rng, depth + 1)
        for _ in range(rng.randint(0, 4))
    }


def test_dumps_writes_the_bytes_of_json_dumps_indent_2():
    rng = random.Random(17)
    for _ in range(1500):
        data = _random_json(rng, 0)
        assert _dumps(data) == json.dumps(data, indent=2)
    nested = {"a": [[], {}, [[]], [{}], {"b": []}, ()], "": {"c": {"d": [(), [1.5, "x"]]}}}
    assert _dumps(nested) == json.dumps(nested, indent=2)

    class Text(str):
        pass

    class Count(int):
        pass

    class Real(float):
        pass

    subclassed = {"s": [Text('q"'), Count(-3), Real("nan"), Real(2.5)], "t": (Count(7),)}
    assert _dumps(subclassed) == json.dumps(subclassed, indent=2)
    with pytest.raises(TypeError, match=r"^Object of type object is not JSON serializable$"):
        _dumps({"a": [object()]})


def test_dumps_of_rows_that_share_objects_writes_the_bytes_of_json_dumps_seeded():
    # the writer reuses a row's text when the row holds the very objects of the
    # row before it; rows that are only equal must still be written on their own
    rng = random.Random(23)
    nan = float("nan")
    look_alike = [1, 1.0, True, 0.0, -0.0, nan, float("nan"), 0, False, None, "1"]
    for trial in range(400):
        base = [rng.choice(look_alike) for _ in range(rng.randint(1, 5))]
        rows = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.randrange(7)
            last = rows[-1] if rows and isinstance(rows[-1], (list, tuple)) else base
            if kind == 0:  # the same list object again
                rows.append(last)
            elif kind == 1:  # a shallow copy of one row
                rows.append(list(last))
            elif kind == 2:  # a prefix of the same objects, then others
                cut = rng.randint(0, len(base))
                rows.append(base[:cut] + [rng.choice(look_alike) for _ in range(len(base) - cut)])
            elif kind == 3:  # equal values in distinct objects
                rows.append([float(v) if type(v) is float else v for v in base]
                            + [rng.choice((1, 1.0, True))])
            elif kind == 4:  # empty rows and tuples
                rows.append(rng.choice(([], (), tuple(base), [[]])))
            elif kind == 5:  # nested lists and scalars between the rows
                rows.append(rng.choice(([base, list(base)], [base[:1], {"k": base}], 7, "r")))
            else:
                rows.append([rng.choice(look_alike) for _ in range(len(base))])
        data = rng.choice((rows, {"rows": rows}, [rows, rows], tuple(rows)))
        assert _dumps(data) == json.dumps(data, indent=2), f"trial {trial}"
    row = [0.5, "1/3", 2]
    assert _dumps([row, row.copy(), row]) == json.dumps([row, row, row], indent=2)
    assert _dumps([[1], [1.0], [True]]) == "[\n  [\n    1\n  ],\n  [\n    1.0\n  ],\n  [\n    true\n  ]\n]"


@pytest.mark.parametrize("data", [{1: 2}, {"a": {None: 1}}, [{1.5: 0}], {(1, 2): 3}, {True: 1}])
def test_dumps_rejects_a_key_that_is_not_a_str(data):
    with pytest.raises(TypeError, match=r"^keys must be str, not "):
        _dumps(data)


def test_every_json_command_prints_json_dumps_indent_2(files, capsys, tmp_path):
    (tmp_path / "r.json").write_text(
        '{"infinity_x": "-1/3", "points": [[0.5, 3, 2], ["1/3", "7/3", 1]]}'
    )
    commands = [
        ["diagram", files["v1"], files["e1"]],
        ["dist", files["d1"], str(tmp_path / "r.json"), "--witness"],
        ["bound", files["v1"], files["e1"], files["v1"], files["e1"]],
        ["realize", files["d1"], str(tmp_path / "r.json")],
        ["stability", files["v1"], files["e1"], "--epsilon", "1/3", "--trials", "3"],
    ]
    for argv in commands:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_realize_refine_too_large_is_refused_at_once(files, capsys, fmt):
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["realize", files["d1"], files["d2"], "--refine", "1000000000", "--format", fmt]
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: refine 1000000000 would sample 48000000008 grid nodes, more than 10000000\n"


@pytest.mark.parametrize("command", ["dist", "realize"])
@pytest.mark.parametrize("which", [0, 1])
def test_huge_multiplicity_is_refused_at_once(files, capsys, tmp_path, command, which):
    huge = tmp_path / "huge.json"
    huge.write_text('{"infinity_x": 0, "points": [[1, 2, 10000000000000000000000]]}')
    argv = [command, files["d1"], files["d1"]]
    argv[1 + which] = str(huge)
    start = time.perf_counter()
    code, out, err = run(capsys, argv + (["--witness"] if command == "dist" else []))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    name = ("first", "second")[which]
    assert err == (
        f"error: the {name} diagram has 10000000000000000000000 points counted with "
        "multiplicity; matching takes at most 1000000\n"
    )


@pytest.mark.parametrize("which", [0, 1])
def test_realize_refuses_the_grid_its_multiplicities_make_too_large_before_matching(
        files, capsys, tmp_path, which):
    # 666,667 copies are at least 666,667 structures: 2000003 columns of at least 5 rows
    many = tmp_path / "many.json"
    many.write_text('{"infinity_x": 0, "points": [[0, 1, 666667]]}')
    argv = ["realize", files["d2"], files["d2"]]
    argv[1 + which] = str(many)
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: refine 1 would sample at least 10000015 grid nodes, more than 10000000\n"


@pytest.fixture
def digit_limit():
    """Python's default limit of 4300 digits for converting between an int and text, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes ints of any length as text")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def _too_many_digits(limit):
    return (f"error: an exact number holds an integer of more than {limit} digits, more than "
            f"this interpreter writes as text (sys.get_int_max_str_digits() is {limit})\n")


@pytest.mark.parametrize("epsilon", ["1e-5000", "1e5000"])
def test_stability_refuses_an_epsilon_too_long_to_write(files, capsys, digit_limit, epsilon):
    code, out, err = run(capsys, ["stability", files["v1"], files["e1"], "--epsilon", epsilon,
                                  "--trials", "2"])
    assert (code, out, err) == (2, "", _too_many_digits(digit_limit))


@pytest.mark.parametrize("epsilon, code, message", [
    ("1e20000000", 2, None), ("-1e20000000", 2, "error: --epsilon must be nonnegative\n"),
    ("0e20000000", 0, ""), ("1e-20000000", 2, None), ("\uff11e20000000", 2, None)])
def test_stability_reads_an_exponent_literal_without_building_its_power(files, capsys, digit_limit,
                                                                        epsilon, code, message):
    # Fraction builds 10^20000000 first, which takes tens of seconds; \uff11 is a full-width 1
    start = time.perf_counter()
    got, out, err = run(capsys, ["stability", files["v1"], files["e1"], f"--epsilon={epsilon}",
                                 "--trials", "1"])
    assert time.perf_counter() - start < 2
    assert (got, err) == (code, _too_many_digits(digit_limit) if message is None else message)
    assert (json.loads(out)["epsilon"] if code == 0 else out) == (0 if code == 0 else "")


@pytest.mark.parametrize("command", ["dist", "realize"])
def test_an_answer_too_long_to_write_is_refused_in_one_line(capsys, tmp_path, digit_limit, command):
    # 1/P and 1/Q, each of 4001 digits, are read; d_match = 1/P - 1/Q has a denominator of 8001
    paths = []
    for name, den in (("p", 10**4000 + 7), ("q", 10**4000 + 9)):
        path = tmp_path / f"{name}.json"
        path.write_text('{"infinity_x": 0, "points": [["1/%d", 2, 1]]}' % den)
        paths.append(str(path))
    code, out, err = run(capsys, [command, *paths])
    assert (code, out, err) == (2, "", _too_many_digits(digit_limit))


@pytest.mark.parametrize("number, prefix", [("1" + "0" * 4400, ""),
                                            ('"1/1%s"' % ("0" * 4400), "diagram JSON: ")],
                         ids=["int", "ratio"])
def test_a_diagram_number_too_long_to_read_is_refused_in_one_line(capsys, tmp_path, digit_limit,
                                                                  number, prefix):
    # 10^4400 has 4401 digits: the one line names the file and the limit, and not the literal
    long = tmp_path / "long.json"
    long.write_text('{"infinity_x": 0, "points": [[0, %s, 1]]}' % number)
    empty = tmp_path / "empty.json"
    empty.write_text('{"infinity_x": 0, "points": []}')
    code, out, err = run(capsys, ["dist", str(long), str(empty)])
    assert (code, out) == (2, "")
    assert err == (f"error: {long}: {prefix}an exact number holds an integer of more than "
                   f"{digit_limit} digits, more than this interpreter reads from text "
                   f"(sys.get_int_max_str_digits() is {digit_limit})\n")


def test_realize_half_width_too_long_to_write_exits_2_in_one_line(capsys, tmp_path, digit_limit):
    # P = 10^4000 + 7: the half-width, below 1/P^2, has a denominator of about 8000 digits
    p = 10**4000 + 7
    thin = tmp_path / "thin.json"
    thin.write_text('{"infinity_x": 0, "points": [["1/%d", "1/%d", 1]]}' % (p, p - 2))
    empty = tmp_path / "empty.json"
    empty.write_text('{"infinity_x": 0, "points": []}')
    code, out, err = run(capsys, ["realize", str(thin), str(empty)])
    assert (code, out, err) == (
        2, "", "error: structure half-width underflows the minimum 1/1000000000000\n")
