"""Command-line interface.

Exit codes: 0 success, 1 a checked property failed, 2 malformed input
(file syntax, JSON, bad argument values, a number too large for float
output), 3 model violation (disconnected graph, invalid vertex data,
mislocalized diagram).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from fractions import Fraction
from typing import List, Optional

from ._rational import number_to_json
from .core import ModelViolationError, ParseError, SizePair, load_size_pair
from .diagram import Diagram, extract_diagram
from .matching import DIAGONAL, matching_distance, pseudo_distance_d, stability_probe
from .bounds import bound_report
from .realize import discretize, realize
from .selftest import perturbed_values, run_selftest

__all__ = ["main"]


def _load_pair(vertex_path: str, edge_path: str) -> SizePair:
    try:
        return load_size_pair(vertex_path, edge_path)
    except ParseError as exc:
        path = vertex_path if str(exc).startswith("vertex") else edge_path
        raise ParseError(f"{path}: {exc}", exc.line) from None


def _load_diagram(path: str) -> Diagram:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return Diagram.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("SIZEMATCH_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"SIZEMATCH_SEED must be an integer, got {env!r}") from None


def _print_json(data: dict) -> None:
    print(json.dumps(data, indent=2))


# ----------------------------------------------------------------- commands


def _cmd_diagram(args) -> int:
    sp = _load_pair(args.vertices, args.edges)
    diagram = extract_diagram(sp)
    if args.format == "json":
        print(diagram.dumps(indent=2))
    else:
        print(f"# infinity_x {float(diagram.infinity_x)}")
        print("x,y,multiplicity")
        for point, mult in diagram.points:
            print(f"{float(point.x)},{float(point.y)},{mult}")
    return 0


def _matching_rows(matching):
    """Rows kind,left_x,left_y,right_x,right_y,cost; diagonal side projected."""
    rows = []
    for left, right in matching.pairs:
        if left is DIAGONAL:
            mid = (right.x + right.y) / 2
            rows.append(("right", float(mid), float(mid), float(right.x), float(right.y),
                         float(right.persistence / 2)))
        elif right is DIAGONAL:
            mid = (left.x + left.y) / 2
            rows.append(("left", float(left.x), float(left.y), float(mid), float(mid),
                         float(left.persistence / 2)))
        elif left.is_at_infinity:
            rows.append(("inf", float(left.x), "inf", float(right.x), "inf",
                         float(abs(left.x - right.x))))
        else:
            rows.append(("pair", float(left.x), float(left.y), float(right.x), float(right.y),
                         float(pseudo_distance_d(left, right))))
    return rows


def _cmd_dist(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    value, matching = matching_distance(d1, d2)
    if args.format == "json":
        report = {"value": number_to_json(value)}
        if args.witness:
            report["witness"] = matching.to_json_dict()
        _print_json(report)
    else:
        rows = _matching_rows(matching) if args.witness else []  # an overflow prints nothing
        print(f"# value {float(value)}")
        if args.witness:
            print("kind,left_x,left_y,right_x,right_y,cost")
            for row in rows:
                print(",".join(str(cell) for cell in row))
    return 0


def _cmd_bound(args) -> int:
    sp1 = _load_pair(args.vertices1, args.edges1)
    sp2 = _load_pair(args.vertices2, args.edges2)
    report = bound_report(sp1, sp2, cap=args.cap)
    if args.format == "json":
        print(report.dumps(indent=2))
    else:
        earlier, d_match = float(report.earlier), float(report.d_match)  # an overflow prints nothing
        exact = "" if report.exact is None else float(report.exact)
        print("name,value")
        print(f"earlier_bound,{earlier}")
        print(f"d_match,{d_match}")
        print(f"exact_pseudo_distance,{exact}")
        if report.note:
            print(f"# note: {report.note}")
    return 0


def _cmd_realize(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    # realize() raises RuntimeError (exit 1) unless extract(discretize(field, 1))
    # gives back each diagram and max_field_gap(phi, psi) == d_match
    phi, psi, params = realize(d1, d2)
    gap = params.d_match
    if args.refine == 1:
        round_phi = round_psi = True
    else:
        round_phi = extract_diagram(discretize(phi, args.refine)) == d1
        round_psi = extract_diagram(discretize(psi, args.refine)) == d2
    ok = round_phi and round_psi
    if args.format == "json":
        _print_json(
            {
                "phi": phi.to_json_dict(),
                "psi": psi.to_json_dict(),
                "params": params.to_json_dict(),
                "max_gap": number_to_json(gap),
                "d_match": number_to_json(params.d_match),
                "gap_equals_distance": gap == params.d_match,
                "round_trip": {"refine": args.refine, "phi": round_phi, "psi": round_psi},
            }
        )
    else:
        # every number is converted first: an overflow prints nothing
        ys = [float(y) for y in phi.y_breaks]
        lines = [f"# d_match {float(params.d_match)} max_gap {float(gap)}", "column_x,y,phi,psi"]
        for x, vs_phi, vs_psi in zip(phi.x_breaks, phi.values_per_column, psi.values_per_column):
            x = float(x)
            lines.extend(f"{x},{y},{float(a)},{float(b)}" for y, a, b in zip(ys, vs_phi, vs_psi))
        print("\n".join(lines))
    if not ok:
        print(f"error: realization failed its round-trip check at refine {args.refine}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_stability(args) -> int:
    sp = _load_pair(args.vertices, args.edges)
    try:
        epsilon = Fraction(args.epsilon)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--epsilon: expected a number, got {args.epsilon!r}") from None
    if epsilon < 0:
        raise ValueError("--epsilon must be nonnegative")
    rng = random.Random(f"{_resolve_seed(args.seed)}:stability-cli")
    worst = Fraction(0)
    for trial in range(args.trials):
        moved = perturbed_values(rng, sp, epsilon)
        value, holds = stability_probe(sp, moved, epsilon)
        if not holds:
            print(
                f"error: trial {trial}: d_match {float(value)} exceeds epsilon {float(epsilon)}",
                file=sys.stderr,
            )
            print(
                json.dumps({str(v): number_to_json(moved[v]) for v in sp.vertex_ids}),
                file=sys.stderr,
            )
            return 1
        worst = max(worst, value)
    _print_json(
        {
            "trials": args.trials,
            "epsilon": number_to_json(epsilon),
            "max_d_match": number_to_json(worst),
            "holds": True,
        }
    )
    return 0


def _cmd_selftest(args) -> int:
    seed = _resolve_seed(args.seed)
    results, ok = run_selftest(seed=seed, cap=args.cap, scale=args.scale)
    for result in results:
        if result.status == "pass":
            print(f"{result.name}: pass ({result.cases} cases, {result.seconds:.2f} s)")
        elif result.status == "skip":
            print(f"{result.name}: skip ({result.message})")
        else:
            print(f"{result.name}: fail (case {result.cases}): {result.message}")
            if result.counterexample is not None:
                print(json.dumps(result.counterexample), file=sys.stderr)
    print("selftest: ok" if ok else "selftest: FAILED")
    return 0 if ok else 1


# ------------------------------------------------------------------- parser


def _add_format(parser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def _add_output(parser) -> None:
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write the report here instead of stdout"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sizematch",
        description="Size functions of measuring functions on graphs: "
        "diagrams, matching distance, bounds, realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagram", help="extract the cornerpoint diagram of a size pair")
    p.add_argument("vertices", help="vertex file: one 'id,value' per line")
    p.add_argument("edges", help="edge file: one 'u,v' per line")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("dist", help="matching distance between two diagrams")
    p.add_argument("diagram1", help="diagram JSON file")
    p.add_argument("diagram2", help="diagram JSON file")
    p.add_argument("--witness", action="store_true", help="include an optimal matching")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("bound", help="earlier_bound <= d_match <= exact chain")
    p.add_argument("vertices1")
    p.add_argument("edges1")
    p.add_argument("vertices2")
    p.add_argument("edges2")
    p.add_argument("--cap", type=int, default=9, help="vertex cap for the exact search")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("realize", help="build fields realizing two diagrams at distance d_match")
    p.add_argument("diagram1", help="diagram JSON file")
    p.add_argument("diagram2", help="diagram JSON file")
    p.add_argument("--refine", type=int, default=1, help="grid refinement for the round-trip check")
    _add_format(p)
    _add_output(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("stability", help="probe d_match <= sup-norm perturbation size")
    p.add_argument("vertices")
    p.add_argument("edges")
    p.add_argument("--epsilon", required=True, help="perturbation bound (e.g. 0.25 or 1/4)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    _add_output(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("selftest", help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cap", type=int, default=8, help="0 skips the exhaustive-search suites")
    p.add_argument("--scale", type=int, default=1, help="case-count multiplier")
    _add_output(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                with contextlib.redirect_stdout(fh):
                    return args.func(args)
        return args.func(args)
    # JSONDecodeError and ModelViolationError (DisconnectedGraphError is one)
    # subclass ValueError, so they are caught first; ParseError, also a
    # ValueError, exits 2 through the ValueError branch
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except ModelViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a number is outside the float range of this output format: {exc}",
              file=sys.stderr)
        return 2
