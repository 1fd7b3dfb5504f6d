"""Tests of the benchmark itself: python3 -m pytest benchmarks/tests -q"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_modules  # noqa: E402
from sizematch import cli  # noqa: E402
from sizematch.diagram import Diagram  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    jobs_a = gen.write_workload(workload, 7, str(tmp_path / "a"))
    jobs_b = gen.write_workload(workload, 7, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [job["key"] for job in jobs_a] == [job["key"] for job in jobs_b]
    gen.write_workload(workload, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _run_job(job, outputs, path):
    outputs[job["key"]] = str(path)
    argv = [outputs[a[1:]] if a.startswith("@") else a for a in job["args"]]
    assert cli.main(argv + ["--output", str(path)]) == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def dist_case(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dist")
    job = gen.write_workload("diagram-dist", 0, str(directory / "in"))[0]
    outputs = {}
    return job, _run_job(job, outputs, directory / "out.json"), outputs


def test_checker_accepts_a_correct_witness(dist_case):
    job, data, outputs = dist_case
    assert check.check(job, data, outputs) is None


def test_checker_rejects_a_tampered_witness(dist_case):
    job, data, outputs = dist_case
    tampered = json.loads(json.dumps(data))
    pair = next(p for p in tampered["witness"]["pairs"] if isinstance(p["left"], list))
    pair["left"] = [pair["left"][0] - 1.0, pair["left"][1]]
    assert "witness does not verify" in check.check(job, tampered, outputs)


def test_checker_rejects_a_wrong_value(dist_case):
    job, data, outputs = dist_case
    wrong = dict(data, value=data["value"] + 0.25)
    assert check.check(job, wrong, outputs) == "reported value differs from the witness cost"
    assert not check.same_answer(check.answer("dist", wrong), check.answer("dist", data))


def test_checker_rejects_a_wrong_diagram(tmp_path):
    job = gen.write_workload("graph-compare", 0, str(tmp_path / "in"))[0]
    data = _run_job(job, {}, tmp_path / "out.json")
    assert check.check(job, data, {}) is None
    data["points"][0][2] += 1
    assert check.check(job, data, {}) is not None


def _small_bound_job(tmp_path):
    jobs = gen.write_workload("bound-chain", 0, str(tmp_path / "in"))
    return next(job for job in jobs if job["vertices"] <= job["cap"])


def test_checker_rejects_a_broken_bound_chain(tmp_path):
    job = _small_bound_job(tmp_path)
    data = _run_job(job, {}, tmp_path / "out.json")
    assert check.check(job, data, {}) is None
    assert check.check(job, dict(data, earlier_bound=data["d_match"] + 1), {}) is not None
    assert check.check(job, dict(data, exact_pseudo_distance=None), {}) is not None


def test_same_answer_is_exact():
    assert check.same_answer([0.5, None], ["1/2", None])
    assert not check.same_answer([0.5, None], [0.5, 0.5])
    assert not check.same_answer(0.1, math.nextafter(0.1, 1.0))


def test_tail_percentile_keeps_ten_samples_above():
    p, value = run.tail_percentile([float(i) for i in range(1, 101)])
    assert (p, value) == (90, 90.0)
    assert run.tail_percentile([1.0] * 5) == (100, 1.0)


def _attributes():
    owners = layer_modules() + [Diagram]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_traced_run_restores_every_attribute_and_nests_spans(tmp_path):
    before = _attributes()
    job = _small_bound_job(tmp_path)
    plain = _run_job(job, {}, tmp_path / "plain.json")
    original_main = cli.main
    tracer = Tracer()
    tracer.job = 0
    with tracer.installed():
        assert cli.main is not original_main
        traced = _run_job(job, {}, tmp_path / "traced.json")
    for owner, attributes in before:
        now = vars(owner)
        assert now.keys() == attributes.keys()
        assert all(now[key] is value for key, value in attributes.items())
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    assert plain == traced
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main"
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["bounds.bound_report"] == "cli.main"
    assert parents["bounds.earlier_bound"] == "bounds.bound_report"
    assert parents["core.parse_size_pair"] == "core.load_size_pair"
    assert tracer.consistent()
    metrics = tracer.layer_metrics()
    assert metrics["bounds.exact_graph_pseudo_distance.solved_frac"] == 1.0
    assert metrics["core.vertices"] == 2 * job["vertices"]
