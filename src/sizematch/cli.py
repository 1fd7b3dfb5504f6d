"""Command-line interface.

Exit codes: 0 success, 1 a checked property failed, 2 malformed input
(file syntax, JSON, bad argument values, a number too large for float
output), 3 model violation (disconnected graph, invalid vertex data,
mislocalized diagram).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, Optional

from ._rational import _digit_limit, _too_long, number_to_json, quoted
from .core import ModelViolationError, ParseError, SizePair, load_size_pair
from .diagram import Diagram, extract_diagram
from .matching import DIAGONAL, matching_distance, pseudo_distance_d, stability_probe
from .bounds import bound_report
from .realize import _field_diagrams, max_field_gap, realize
from .selftest import perturbed_values, run_selftest

__all__ = ["main"]

# a decimal literal with an exponent, in a form that Fraction reads
_EXPONENT_LITERAL = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*")


def _load_pair(vertex_path: str, edge_path: str) -> SizePair:
    try:
        return load_size_pair(vertex_path, edge_path)
    except ParseError as exc:
        path = vertex_path if str(exc).startswith("vertex") else edge_path
        raise ParseError(f"{path}: {exc}", exc.line) from None


def _load_diagram(path: str) -> Diagram:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is skipped
            return Diagram.loads(fh.read())
    # the decoder raises RecursionError, a RuntimeError, on deep nesting
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or not a diagram
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
        raise ValueError(f"SIZEMATCH_SEED must be an integer, got {quoted(env)}") from None


def _check_at_least(option: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{option} must be at least {least}, got {value}")


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# json's scalar encoders by exact type; a subclass is looked up by isinstance
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value, out: List[str], pad: str) -> None:
    """Append the indented JSON of ``value`` to ``out``; ``pad`` is the newline and indent."""
    encode = _SCALAR_JSON.get(type(value))
    if encode is not None:
        out.append(encode(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        try:  # the common case, a list of scalars, in one join
            out += ("[", inner, comma.join([_SCALAR_JSON[type(v)](v) for v in value]))
        except KeyError:  # a list that holds rows or objects: each item on its own
            sep = "[" + inner
            for item in value:
                out.append(sep)
                sep = comma
                _write_json(item, out, inner)
        out.append(pad + "]")
    else:  # a subclass of a scalar type is written as json writes its base
        for kind, encode in _SCALAR_JSON.items():
            if isinstance(value, kind):
                out.append(encode(value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dumps(data) -> str:
    """``json.dumps(data, indent=2)`` byte for byte, without json's pure-Python encoder.

    Any ``indent`` makes json fall back to a generator chain per value; this
    writer appends to one list instead.  Keys must be str.
    """
    out: List[str] = []
    _write_json(data, out, "\n")
    return "".join(out)


# ----------------------------------------------------------------- commands


def _cmd_diagram(args) -> int:
    sp = _load_pair(args.vertices, args.edges)
    diagram = extract_diagram(sp)
    if args.format == "json":
        print(_dumps(diagram.to_json_dict()))
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
        cost = float(pseudo_distance_d(left, right))
        if left is DIAGONAL:
            mid = float((right.x + right.y) / 2)
            rows.append(("right", mid, mid, float(right.x), float(right.y), cost))
        elif right is DIAGONAL:
            mid = float((left.x + left.y) / 2)
            rows.append(("left", float(left.x), float(left.y), mid, mid, cost))
        elif left.is_at_infinity:
            rows.append(("inf", float(left.x), "inf", float(right.x), "inf", cost))
        else:
            rows.append(("pair", float(left.x), float(left.y), float(right.x), float(right.y),
                         cost))
    return rows


def _cmd_dist(args) -> int:
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    value, matching = matching_distance(d1, d2)
    if args.format == "json":
        report = {"value": number_to_json(value)}
        if args.witness:
            report["witness"] = matching.to_json_dict()
        print(_dumps(report))
    else:
        print(f"# value {float(value)}")
        if args.witness:
            print("kind,left_x,left_y,right_x,right_y,cost")
            for row in _matching_rows(matching):
                print(",".join(str(cell) for cell in row))
    return 0


def _cmd_bound(args) -> int:
    _check_at_least("--cap", args.cap, 0)
    sp1 = _load_pair(args.vertices1, args.edges1)
    sp2 = _load_pair(args.vertices2, args.edges2)
    report = bound_report(sp1, sp2, cap=args.cap)
    if args.format == "json":
        print(_dumps(report.to_json_dict()))
    else:
        print("name,value")
        print(f"earlier_bound,{float(report.earlier)}")
        print(f"d_match,{float(report.d_match)}")
        print(f"exact_pseudo_distance,{'' if report.exact is None else float(report.exact)}")
        if report.note:
            print(f"# note: {report.note}")
    return 0


def _cmd_realize(args) -> int:
    _check_at_least("--refine", args.refine, 1)
    d1 = _load_diagram(args.diagram1)
    d2 = _load_diagram(args.diagram2)
    # realize() checks refine 1 and the gap itself (RuntimeError: exit 1); both are checked
    # again here on the fields it returns, and a finer grid only here
    phi, psi, params = realize(d1, d2)
    gap = max_field_gap(phi, psi)
    got = _field_diagrams((phi, psi), args.refine) if args.refine > 1 else (d1, d2)
    round_phi, round_psi = got[0] == d1, got[1] == d2
    if args.format == "json":
        print(_dumps({
            "phi": phi.to_json_dict(),
            "psi": psi.to_json_dict(),
            "params": params.to_json_dict(),
            "max_gap": number_to_json(gap),
            "d_match": number_to_json(params.d_match),
            "gap_equals_distance": gap == params.d_match,
            "round_trip": {"refine": args.refine, "phi": round_phi, "psi": round_psi},
        }))
    else:
        print(f"# d_match {float(params.d_match)} max_gap {float(gap)}")
        print("column_x,y,phi,psi")
        ys = [float(y) for y in phi.y_breaks]
        for x, vs_phi, vs_psi in zip(phi.x_breaks, phi.values_per_column, psi.values_per_column):
            x = float(x)
            print("\n".join(f"{x},{y},{float(a)},{float(b)}" for y, a, b in zip(ys, vs_phi, vs_psi)))
    if gap != params.d_match:
        print(f"error: realized field gap {quoted(gap)} differs from the matching distance "
              f"{quoted(params.d_match)}", file=sys.stderr)
        return 1
    if not (round_phi and round_psi):
        print(f"error: realization failed its round-trip check at refine {args.refine}",
              file=sys.stderr)
        return 1
    return 0


def _read_epsilon(literal: str) -> Fraction:
    """The nonnegative Fraction that ``--epsilon`` names.

    A decimal literal with an exponent is first read by its mantissa digits
    and its exponent net of the digits after the point, so that no power of
    ten is built only to be refused: a zero mantissa is 0, a negative one is
    refused, and so is one whose exponent alone makes the reduced numerator
    or denominator longer than the interpreter writes as text (the answer
    would be refused at output).  Any other literal is read by Fraction.
    """
    match = _EXPONENT_LITERAL.fullmatch(literal)
    try:
        if match:  # the reads Fraction makes before its power, which refuse a part too long
            sign, whole, fraction, exp = match.groups(default="")
            places = len(fraction.replace("_", ""))  # the mantissa is high·10^places + low
            high, low, shift = int(whole or "0"), int(fraction or "0"), int(exp) - places
        else:
            epsilon = Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--epsilon: expected a number, got {quoted(literal)}") from None
    if not match:
        if epsilon < 0:
            raise ValueError("--epsilon must be nonnegative")
        return epsilon
    if not (high or low):
        return Fraction(0)
    if sign == "-":
        raise ValueError("--epsilon must be nonnegative")
    digits = len(str(high)) + places if high else len(str(low))  # of the mantissa
    limit = _digit_limit()
    if limit and (shift >= limit or -shift - digits >= limit):
        raise _too_long(limit, "writes as")
    return Fraction(literal)


def _cmd_stability(args) -> int:
    _check_at_least("--trials", args.trials, 1)
    sp = _load_pair(args.vertices, args.edges)
    epsilon = _read_epsilon(args.epsilon)
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
    print(_dumps({
        "trials": args.trials,
        "epsilon": number_to_json(epsilon),
        "max_d_match": number_to_json(worst),
        "holds": True,
    }))
    return 0


def _cmd_selftest(args) -> int:
    _check_at_least("--cap", args.cap, 0)
    _check_at_least("--scale", args.scale, 1)
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
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="output format")


def _add_output(parser) -> None:
    parser.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call and reused after."""
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
        # the report is written out only once the command has returned: a failing
        # command writes nothing anywhere, and --output may name the command's own input
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = args.func(args)
        if args.output is None:
            sys.stdout.write(report.getvalue())
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report.getvalue())
        return code
    # ModelViolationError (DisconnectedGraphError is one) subclasses
    # ValueError, so it is caught first; ParseError, also a ValueError,
    # exits 2 through the ValueError branch
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
