"""Cornerpoint diagrams of reduced size functions.

A diagram is the abscissa of the cornerpoint at infinity (the minimum
vertex value; the graph is connected, so there is exactly one) plus a
finite multiset of proper cornerpoints strictly above the diagonal.  The
diagram represents the whole reduced size function:

    l(x, y)  ==  [infinity_x <= x]  +  sum of multiplicities over
                 proper cornerpoints with  px <= x  and  py > y.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from ._rational import as_fraction, int_from_text, number_from_json, number_to_json, quoted
from ._rational import ratio_to_json
from .core import SizePair, _min_gap, reduced_size_function, size_function_on_grid

__all__ = [
    "ExtendedPoint",
    "Diagram",
    "extract_diagram",
    "evaluate_diagram",
    "evaluate_diagram_on_grid",
    "multiplicity",
    "multiplicity_at_infinity",
    "multiplicity_grid",
    "count_in_square",
]


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the extended half-plane x < y (y may be +infinity)."""

    x: Fraction
    y: object

    def __post_init__(self):
        object.__setattr__(self, "x", as_fraction(self.x))
        if not (isinstance(self.y, float) and math.isinf(self.y) and self.y > 0):
            object.__setattr__(self, "y", as_fraction(self.y))
        if not self.y > self.x:
            raise ValueError("point must lie strictly above the diagonal, "
                             f"got ({quoted(self.x)}, {quoted(self.y)})")

    @classmethod
    def _exact(cls, x: Fraction, y: Fraction) -> "ExtendedPoint":
        """The proper point (x, y) of two Fractions known to satisfy x < y, unchecked."""
        point = object.__new__(cls)
        object.__setattr__(point, "x", x)  # as a frozen dataclass sets its fields
        object.__setattr__(point, "y", y)
        return point

    @classmethod
    def at_infinity(cls, x) -> "ExtendedPoint":
        return cls(as_fraction(x), math.inf)

    @property
    def is_at_infinity(self) -> bool:
        return isinstance(self.y, float) and math.isinf(self.y)

    @property
    def persistence(self):
        """y - x (infinite for points at infinity)."""
        return math.inf if self.is_at_infinity else self.y - self.x

    def __repr__(self):
        y = "inf" if self.is_at_infinity else str(self.y)
        return f"ExtendedPoint({self.x}, {y})"


def _ratio(value) -> Tuple[int, int]:
    """``value`` as (numerator, denominator) in lowest terms, with the errors of as_fraction."""
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is Fraction or kind is float and math.isfinite(value):
        return value.as_integer_ratio()
    return as_fraction(value).as_integer_ratio()


def _read_entry(entry):
    """(x's ratio, y's ratio, multiplicity) of one entry, each ratio an int pair.

    An entry is ``((x, y), m)``, ``(ExtendedPoint, m)`` or a bare ``(x, y)``
    of multiplicity 1.  The checks and their order are those of building an
    ExtendedPoint: the multiplicity, then x, then y, then x < y.
    """
    try:
        raw, mult = entry
    except (TypeError, ValueError):
        raise ValueError(f"cannot interpret diagram point entry {quoted(entry)}") from None
    if not isinstance(raw, (ExtendedPoint, tuple, list)):
        raw, mult = (raw, mult), 1
    elif isinstance(mult, bool) or not isinstance(mult, int) or mult <= 0:
        raise ValueError(f"multiplicity must be a positive integer, got {quoted(mult)}")
    x, y = (raw.x, raw.y) if isinstance(raw, ExtendedPoint) else (raw[0], raw[1])
    x_ratio = _ratio(x)
    if isinstance(y, float) and y == math.inf:
        raise ValueError("the cornerpoint at infinity is given by infinity_x, not a point")
    y_ratio = _ratio(y)
    if y_ratio[0] * x_ratio[1] <= x_ratio[0] * y_ratio[1]:  # denominators are positive
        x, y = Fraction(*x_ratio), Fraction(*y_ratio)
        raise ValueError(
            f"point must lie strictly above the diagonal, got ({quoted(x)}, {quoted(y)})")
    return x_ratio, y_ratio, mult


def _json_number(value):
    """A JSON int or finite float as it is; anything else through number_from_json."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return value
    return number_from_json(value)


class Diagram:
    """Multiset of proper cornerpoints plus the cornerpoint at infinity.

    ``_scale`` is the lcm of the denominators of infinity_x and of every
    coordinate, and ``_rows`` holds (x*_scale, y*_scale, m) per distinct
    point, sorted: the one stored form, read by ``_on_one_unit``, ``==``
    and ``hash``.  Coordinates are read as int ratios (a float by
    ``as_integer_ratio``), and ``points`` is built from the rows when first read.
    """

    __slots__ = ("_infinity_x", "_points", "_scale", "_rows")

    def __init__(self, infinity_x, points: Iterable = ()):
        self._infinity_x = as_fraction(infinity_x)
        merged: Dict[tuple, int] = {}  # (x ratio, y ratio) -> multiplicity
        for entry in points:
            x_ratio, y_ratio, mult = _read_entry(entry)
            key = (x_ratio, y_ratio)
            merged[key] = merged.get(key, 0) + mult
        scale = self._scale = math.lcm(
            self._infinity_x.denominator, *(ratio[1] for key in merged for ratio in key)
        )
        self._rows = tuple(sorted(  # by (X, Y), which no two points share
            (xn * (scale // xd), yn * (scale // yd), m)
            for ((xn, xd), (yn, yd)), m in merged.items()
        ))
        self._points = None

    @property
    def infinity_x(self) -> Fraction:
        return self._infinity_x

    @property
    def points(self) -> Tuple[Tuple[ExtendedPoint, int], ...]:
        """Proper cornerpoints with multiplicities, sorted by (x, y)."""
        if self._points is None:
            scale = self._scale
            self._points = tuple(
                (ExtendedPoint._exact(Fraction(x, scale), Fraction(y, scale)), m)
                for x, y, m in self._rows
            )
        return self._points

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self._rows)

    def expanded(self) -> Tuple[ExtendedPoint, ...]:
        """Proper cornerpoints repeated according to multiplicity."""
        return tuple(point for point, mult in self.points for _ in range(mult))

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        # rows alone would not tell (1, 3) on scale 1 from (1/2, 3/2) on scale 2
        key = (other._infinity_x, other._scale, other._rows)
        return (self._infinity_x, self._scale, self._rows) == key

    def __hash__(self):
        return hash((self._infinity_x, self._scale, self._rows))

    def __repr__(self):
        pts = ", ".join(f"({p.x}, {p.y})x{m}" for p, m in self.points)
        return f"Diagram(infinity_x={self._infinity_x}, points=[{pts}])"

    def to_json_dict(self) -> dict:
        scale = self._scale
        return {
            "infinity_x": number_to_json(self._infinity_x),
            "points": [[ratio_to_json(x, scale), ratio_to_json(y, scale), m]
                       for x, y, m in self._rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Diagram":
        if not isinstance(data, dict):
            raise ValueError("diagram JSON: expected an object")
        if "infinity_x" not in data:
            raise ValueError("diagram JSON: missing 'infinity_x'")
        raw_points = data.get("points", [])
        if not isinstance(raw_points, list):
            raise ValueError("diagram JSON: 'points' must be a list")
        for row in raw_points:
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise ValueError(
                    f"diagram JSON: bad point row {quoted(row)}, expected [x, y, mult]")
        try:
            # every number is checked before any multiplicity or diagonal test;
            # ints and finite floats go on as they are, to be read as int ratios
            return cls(
                number_from_json(data["infinity_x"]),
                [((_json_number(x), _json_number(y)), m) for x, y, m in raw_points],
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"diagram JSON: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "Diagram":
        return cls.from_json_dict(json.loads(text, parse_int=int_from_text))


def _on_one_unit(d1: Diagram, d2: Diagram) -> Tuple[int, List[tuple], List[tuple]]:
    """Both diagrams' rows on one int unit: ``(unit, rows1, rows2)``.

    ``unit`` is twice the lcm of the two integer scales, and each row
    (X, Y, m) holds (x*unit, y*unit, m), in the diagram's (x, y) order.
    Every coordinate is even, so a half persistence (Y - X) // 2 is exact.
    """
    unit = 2 * math.lcm(d1._scale, d2._scale)
    rows1, rows2 = ([(x * f, y * f, m) for x, y, m in d._rows]
                    for d, f in ((d1, unit // d1._scale), (d2, unit // d2._scale)))
    return unit, rows1, rows2


def extract_diagram(sp: SizePair) -> Diagram:
    """Cornerpoint diagram of a size pair, by one elder-rule sweep.

    Int and float values go to :func:`_sweep` as they are, since Python
    compares them exactly.  A list that holds a Fraction is swept on int
    ranks of its ``as_integer_ratio()`` pairs (so no Fraction is hashed),
    which become values again only for the pairs emitted.
    """
    values, adj = sp._values, sp._adj
    if not set(map(type, values)) <= {int, float}:
        return _ratio_diagram([value.as_integer_ratio() for value in values], adj)
    return Diagram(min(values), _sweep(values, adj).items())


def _ratio_diagram(keys: Sequence[Tuple[int, int]], adj) -> Diagram:
    """The diagram of the graph ``adj`` whose vertex p has the value keys[p],
    given as (numerator, denominator) in lowest terms with denominator > 0."""
    levels = _ratio_levels(keys)
    rank_of = {key: r for r, key in enumerate(levels)}
    pairs = _sweep([rank_of[key] for key in keys], adj)
    value = lambda r: Fraction(*levels[r])
    return Diagram(value(0), [((value(b), value(d)), m) for (b, d), m in pairs.items()])


def _ratio_levels(keys: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The distinct reduced (numerator, denominator) pairs of ``keys``, by value:
    floor(value·2^64) orders them but those closer than 2^-64, and if two
    share it, the keys are sorted again exactly."""
    floor = {key: (key[0] << 64) // key[1] for key in dict.fromkeys(keys)}
    levels = sorted(floor, key=floor.__getitem__)
    if len(set(floor.values())) < len(levels):
        levels.sort(key=lambda key: Fraction(*key))
    return levels


def _sweep(level: Sequence, adj) -> Dict[tuple, int]:
    """The (birth, death) -> multiplicity pairs of the graph ``adj`` whose
    vertex p has the value level[p]; the class of the least value lives on.

    The values need only be totally ordered: ints and floats, or int ranks.
    The positions are visited stable-sorted by value.  An edge appears at
    the later of its endpoints.  The root of a class is its earliest
    vertex.  When vertex p joins, the classes of its earlier neighbours
    merge: every one of their roots but the oldest dies at p's level and
    contributes the pair (its birth, p's level), whatever order the
    neighbours are visited in.  The order among vertices of equal value
    only decides which pairs have zero persistence, and those are
    discarded, so the multiset of pairs does not depend on it.
    """
    n = len(level)
    order = sorted(range(n), key=level.__getitem__)
    swept = [0] * n  # swept[v]: the index at which the sweep visits vertex v
    for p, v in enumerate(order):
        swept[v] = p
    levels = list(map(level.__getitem__, order))
    parent = list(range(n))  # union-find on sweep indices, each class rooted at its least
    pairs: Dict[tuple, int] = {}
    for p, v in enumerate(order):
        here = levels[p]
        root = p  # the root of p's class
        for u in adj[v]:
            q = swept[u]
            if q < p:
                while parent[q] != q:
                    parent[q] = q = parent[parent[q]]  # path halving
                if q == root:
                    continue
                if q < root:
                    root, q = q, root
                parent[q] = root  # q, the younger root, dies here
                if levels[q] < here:
                    key = (levels[q], here)
                    pairs[key] = pairs.get(key, 0) + 1
    return pairs


def evaluate_diagram(diagram: Diagram, x, y) -> int:
    """Value of the represented size function at (x, y), x < y."""
    if not x < y:
        raise ValueError(f"evaluation requires x < y, got x={x!r}, y={y!r}")
    total = 1 if diagram.infinity_x <= x else 0
    for point, mult in diagram.points:
        if point.x <= x and point.y > y:
            total += mult
    return total


def evaluate_diagram_on_grid(diagram: Diagram, xs: Sequence, ys: Sequence) -> Dict[Tuple, int]:
    """Representation sums on a grid: ``{(x, y): value}`` for x < y.

    Same values as :func:`evaluate_diagram`, computed with one descending
    sweep over y.
    """
    xs_sorted = sorted({as_fraction(x) for x in xs})
    ys_sorted = sorted({as_fraction(y) for y in ys})
    expanded = sorted(diagram.expanded(), key=lambda p: p.y, reverse=True)
    result: Dict[Tuple, int] = {}
    alive_xs: List[Fraction] = []
    index = 0
    for y in reversed(ys_sorted):
        while index < len(expanded) and expanded[index].y > y:
            insort(alive_xs, expanded[index].x)
            index += 1
        for x in xs_sorted:
            if x < y:
                base = 1 if diagram.infinity_x <= x else 0
                result[(x, y)] = base + bisect_right(alive_xs, x)
    return result


def multiplicity(sp: SizePair, x, y) -> int:
    """Multiplicity of (x, y) as a proper cornerpoint, by the four-point formula.

    mu(x, y) = l(x+e, y-e) - l(x-e, y-e) - l(x+e, y+e) + l(x-e, y+e)
    for any e > 0 small enough that the step function is constant on the
    probed windows; e is half the minimal gap of the critical values
    extended with {x, y}, capped at (y - x)/4.  That is
    :func:`count_in_square` at (x, y) with eta = e; the cap keeps its
    square inside the half-plane.
    """
    x, y = as_fraction(x), as_fraction(y)
    if not x < y:
        raise ValueError(f"multiplicity requires x < y, got x={x}, y={y}")
    extended = sorted({as_fraction(v) for v in sp.critical_values} | {x, y})
    eps = min(_min_gap(extended) / 2, (y - x) / 4)
    return count_in_square(sp, (x, y), eps)


def multiplicity_at_infinity(sp: SizePair, k) -> int:
    """Multiplicity of the vertical line at abscissa k as a cornerpoint at infinity.

    Computed as l(k+e, Y) - l(k-e, Y) with Y above every vertex value; the
    graph is connected, so the result is 1 exactly at the global minimum
    and 0 elsewhere.
    """
    k = as_fraction(k)
    extended = sorted({as_fraction(v) for v in sp.critical_values} | {k})
    eps = _min_gap(extended) / 2
    top = max(as_fraction(sp.max_value), k + eps) + 1
    return reduced_size_function(sp, k + eps, top) - reduced_size_function(sp, k - eps, top)


def multiplicity_grid(sp: SizePair, coords: Sequence) -> Dict[Tuple, int]:
    """Four-point multiplicities for every coordinate pair x < y from ``coords``.

    One shared probe offset (a quarter of the minimal gap of the critical
    values extended with all coordinates) is below every local constancy
    scale, so the values agree with :func:`multiplicity` pointwise while
    reading one grid sweep over the coordinates ± the offset instead of
    four evaluations per pair.
    """
    coords = sorted({as_fraction(c) for c in coords})
    if len(coords) < 2:
        return {}
    extended = sorted(set(coords) | {as_fraction(v) for v in sp.critical_values})
    eps = _min_gap(extended) / 4
    probes = [c + sign * eps for c in coords for sign in (-1, 1)]
    table = size_function_on_grid(sp, probes, probes)
    at = lambda x, y: table[x, y]
    return {(x, y): _four_point(at, x, y, eps)
            for i, x in enumerate(coords) for y in coords[i + 1 :]}


def _four_point(l, x, y, e) -> int:
    """l(x+e, y-e) - l(x-e, y-e) - l(x+e, y+e) + l(x-e, y+e): the multiplicity of the
    size function ``l`` in the half-open square of half-side e centred at (x, y)."""
    return l(x + e, y - e) - l(x - e, y - e) - l(x + e, y + e) + l(x - e, y + e)


def count_in_square(sp: SizePair, center, eta) -> int:
    """Total multiplicity inside the half-open square of half-side eta at center.

    ``center`` is a proper :class:`ExtendedPoint` or an (x, y) pair.  Uses
    the four-point formula of :func:`multiplicity` with e = eta.  The square
    must sit inside the half-plane: eta > 0 and x + eta < y - eta, otherwise
    ValueError.
    """
    if isinstance(center, ExtendedPoint):
        if center.is_at_infinity:
            raise ValueError("center must be a proper point, not one at infinity")
        center_x, center_y = center.x, center.y
    else:
        try:
            center_x, center_y = center
        except (TypeError, ValueError):
            raise ValueError(
                f"center must be an ExtendedPoint or an (x, y) pair, got {center!r}"
            ) from None
    cx, cy, eta = as_fraction(center_x), as_fraction(center_y), as_fraction(eta)
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not cx + eta < cy - eta:
        raise ValueError(
            f"degenerate square: need center_x + eta < center_y - eta, got ({cx}, {cy}), eta={eta}"
        )
    return _four_point(lambda x, y: reduced_size_function(sp, x, y), cx, cy, eta)
