"""Output checks for benchmark jobs, run outside the timed region.

- ``diagram``: equals the diagram that the benchmark's own elder-rule
  sweep (``gen.cornerpoints``) computes from the same input files.
- ``dist``: the witness verifies against both diagrams and its cost equals
  the reported value.
- ``bound``: earlier <= d_match <= exact, and d_match and exact stay within
  the largest value change the generator applied along its isomorphism.
- ``realize``: ``gap_equals_distance``, both ``round_trip`` flags, and
  ``max_gap == d_match``.

``answer`` reduces an output to the values compared exactly against the
expected-answer file of the default seed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from sizematch._rational import number_from_json
from sizematch.diagram import Diagram
from sizematch.matching import Matching

from gen import cornerpoints


def _read_graph(vertex_path: str, edge_path: str) -> Tuple[List[float], List[Tuple[int, int]]]:
    index: Dict[str, int] = {}
    values: List[float] = []
    with open(vertex_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                vid, _, value = line.strip().rpartition(",")
                index[vid.strip()] = len(values)
                values.append(float(value))
    edges = []
    with open(edge_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                a, b = line.split(",")
                edges.append((index[a.strip()], index[b.strip()]))
    return values, edges


def _diagram_file(path: str) -> Diagram:
    with open(path, encoding="utf-8") as fh:
        return Diagram.from_json_dict(json.load(fh))


def check(job: dict, data: dict, outputs: Dict[str, str]) -> Optional[str]:
    """Return why the output ``data`` of ``job`` is wrong, or None when it passes."""
    kind = job["kind"]
    if kind == "diagram":
        if data != cornerpoints(*_read_graph(*job["inputs"])):
            return "diagram differs from the independent elder-rule sweep"
    elif kind == "dist":
        paths = job["inputs"] or [outputs[arg[1:]] for arg in job["args"] if arg.startswith("@")]
        d1, d2 = (_diagram_file(path) for path in paths)
        witness = Matching.from_json_dict(data["witness"], d1.infinity_x, d2.infinity_x)
        try:
            witness.verify(d1, d2)
        except ValueError as exc:
            return f"witness does not verify: {exc}"
        if number_from_json(data["value"]) != witness.cost:
            return "reported value differs from the witness cost"
    elif kind == "bound":
        earlier = number_from_json(data["earlier_bound"])
        d_match = number_from_json(data["d_match"])
        if not earlier <= d_match <= job["max_change"]:
            return "earlier_bound <= d_match <= value change along the isomorphism fails"
        if data["exact_pseudo_distance"] is None:
            if job["vertices"] <= job["cap"]:
                return "exact search declined a pair within the cap"
        elif not d_match <= number_from_json(data["exact_pseudo_distance"]) <= job["max_change"]:
            return "d_match <= exact <= value change along the isomorphism fails"
    elif kind == "realize":
        if not (data["gap_equals_distance"] and data["round_trip"]["phi"] and data["round_trip"]["psi"]):
            return "realization failed its gap or round-trip check"
        if number_from_json(data["max_gap"]) != number_from_json(data["d_match"]):
            return "max_gap differs from d_match"
    else:
        return f"unknown job kind {kind!r}"
    return None


def answer(kind: str, data: dict):
    """The part of an output that must equal the expected answer exactly."""
    if kind == "diagram":
        return data
    if kind == "dist":
        return data["value"]
    if kind == "bound":
        return [data["earlier_bound"], data["d_match"], data["exact_pseudo_distance"]]
    return [data["d_match"], data["max_gap"]]


def same_answer(got, expected) -> bool:
    """Exact comparison; numbers compare as rationals, so 0.5 and "1/2" agree."""
    if isinstance(expected, list):
        return isinstance(got, list) and len(got) == len(expected) and all(
            same_answer(a, b) for a, b in zip(got, expected)
        )
    if isinstance(expected, dict):
        return isinstance(got, dict) and got.keys() == expected.keys() and all(
            same_answer(got[k], expected[k]) for k in expected
        )
    if expected is None or isinstance(expected, bool):
        return got is expected
    if isinstance(got, bool) or got is None:
        return False
    return number_from_json(got) == number_from_json(expected)
