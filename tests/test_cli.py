"""End-to-end command-line behavior, run in-process via cli.main(argv)."""

import importlib
import json
from fractions import Fraction

import pytest

from sizematch import Diagram
from sizematch._rational import number_from_json
from sizematch.cli import main


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


def test_dist_rejects_bad_multiplicity(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"infinity_x": 0.0, "points": [[1.0, 2.0, 0]]}')
    code, _, err = run(capsys, ["dist", str(bad), files["d2"]])
    assert code == 2


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


def test_output_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["dist", files["d1"], files["d2"], "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["value"] == 1.5


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
    monkeypatch.setattr(realize_module, "extract_diagram", lambda sp: Diagram(7, []))
    code, out, err = run(capsys, ["realize", files["d1"], files["d2"]])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_realize_refined_round_trip_failure_exits_1(files, capsys, monkeypatch):
    # refine > 1 runs the command's own round trips
    monkeypatch.setattr("sizematch.cli.extract_diagram", lambda sp: Diagram(7, []))
    code, out, err = run(capsys, ["realize", files["d1"], files["d2"], "--refine", "2"])
    assert code == 1
    data = json.loads(out)
    assert data["round_trip"] == {"refine": 2, "phi": False, "psi": False}
    assert data["gap_equals_distance"] is True
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_parse_error_exit_2_names_file_and_line(files, capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,1\nb,oops\n")
    code, _, err = run(capsys, ["diagram", str(bad), files["e1"]])
    assert code == 2
    assert "bad.csv" in err
    assert "line 2" in err


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
