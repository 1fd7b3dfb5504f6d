"""Joint realization of two prescribed cornerpoint diagrams.

Given diagrams d1 and d2 (every proper abscissa at or above its own
infinity_x), build two piecewise-linear vertex-value fields phi and psi on
a shared rectangular grid over [0, 1] x [min_value, S] such that

    extract(phi) == d1,   extract(psi) == d2,
    max |phi - psi| over the grid  ==  matching_distance(d1, d2),

all exactly, in rational arithmetic.  One matched pair of the optimal
matching witness becomes one narrow "pit" structure (a V-shaped dip to the
point's abscissa, rimmed at its ordinate, flanked by plateau columns);
points matched to the diagonal become a pit on one field facing a plateau
at the pit's center height on the other.  Both fields share their column
abscissas and row ordinates, so the difference is piecewise linear on the
grid and its node maximum is the true maximum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._rational import as_fraction, common_denominator, number_from_json, number_to_json
from ._rational import _SAFE_BITS, _ratio, int_from_text, on_scale, quoted, ratio_to_json
from .core import ModelViolationError, SizePair
from .diagram import Diagram, ExtendedPoint, _on_one_unit, _ratio_diagram
from .matching import Matching, _check_matching_size, _expand, _solve

__all__ = [
    "RectField",
    "StructureParams",
    "RealizationParams",
    "realize",
    "discretize",
    "max_field_gap",
]

# smallest structure half-width realize() accepts
MIN_EPSILON = Fraction(1, 10**12)

# most grid nodes a field is sampled on; as discretize()'s size pair, ~700 bytes a node, ~7 GB
_MAX_GRID_NODES = 10**7


class RectField:
    """Piecewise-linear field on the grid x_breaks x y_breaks.

    ``values_per_column[c][r]`` is the value at ``(x_breaks[c], y_breaks[r])``.
    Within a column the value is linear between consecutive y breaks;
    between columns the field interpolates linearly (nothing in the
    package ever needs values off the columns, but the model is the full
    rectangle [x_breaks[0], x_breaks[-1]] x [y_breaks[0], y_breaks[-1]]).

    A column is held as its knots ``(row, (numerator, denominator))``, its value in lowest
    terms at ``y_breaks[row]``: one at each end of the grid and one at each break where the
    slope changes, so equal columns have equal knots.  Each distinct column is held once in
    ``_distinct``, and ``_layout[c]`` is the index there of column c, so equal columns are
    equal layout entries.  ``values_per_column`` samples the knots when first read.
    """

    __slots__ = ("x_breaks", "y_breaks", "_distinct", "_layout", "_values")

    def __new__(cls, x_breaks, y_breaks, values_per_column):
        index = {}  # each distinct column, by value, to its position in the columns
        layout = [index.setdefault(tuple(_ratio(v) for v in vs), len(index))
                  for vs in values_per_column]
        return cls._from_knots(x_breaks, y_breaks, [enumerate(vs) for vs in index], layout)

    @classmethod
    def _from_knots(cls, x_breaks, y_breaks, columns, layout) -> "RectField":
        """The field whose column c is ``columns[layout[c]]``, each column given by its knots
        (row, (n, d)), the value n/d (d > 0) at ``y_breaks[row]``, at ascending rows from the
        first y break to the last; a knot collinear with its neighbours is dropped."""
        field = object.__new__(cls)
        for name, given in (("x_breaks", x_breaks), ("y_breaks", y_breaks)):
            breaks = tuple(as_fraction(b) for b in given)
            unit = common_denominator(breaks)
            ys = [on_scale(b, unit) for b in breaks]  # on one int scale; the y breaks come last
            if len(ys) < 2 or any(b <= a for a, b in zip(ys, ys[1:])):
                raise ValueError(f"{name} must be two or more strictly increasing numbers")
            object.__setattr__(field, name, breaks)
        distinct, fault = [], "the knots of each column must ascend from the first y break to the last"
        for knots in columns:
            kept = []
            for r, (n, d) in knots:
                common = math.gcd(n, d)
                n, d = n // common, d // common
                if kept and r <= kept[-1][0] or r >= len(ys):
                    raise ValueError(fault)
                if len(kept) > 1:  # is (n1/d1 - n0/d0)·(y - y0) == (n/d - n0/d0)·(y1 - y0)?
                    (r0, (n0, d0)), (r1, (n1, d1)) = kept[-2:]
                    if ((n1 * d0 - n0 * d1) * d * (ys[r] - ys[r0])
                            == (n * d0 - n0 * d) * d1 * (ys[r1] - ys[r0])):
                        kept.pop()
                kept.append((r, (n, d)))
            if [r for r, _ in kept[:1] + kept[-1:]] != [0, len(ys) - 1]:
                raise ValueError(fault)
            distinct.append(tuple(kept))
        layout = tuple(layout)
        if len(layout) != len(field.x_breaks) or any(
                type(i) is not int or not 0 <= i < len(distinct) for i in layout):
            raise ValueError(f"the layout {quoted(list(layout))} does not give one of the "
                             f"{len(distinct)} columns for each of {len(field.x_breaks)} x breaks")
        for name, value in (("_distinct", tuple(distinct)), ("_layout", layout), ("_values", None)):
            object.__setattr__(field, name, value)
        return field

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RectField")

    def __reduce__(self):  # pickle and copy build the field again, not by setattr
        return RectField._from_knots, (self.x_breaks, self.y_breaks, self._distinct, self._layout)

    @property
    def values_per_column(self) -> Tuple[Tuple[Fraction, ...], ...]:
        if self._values is None:
            distinct = [tuple(Fraction(n, d) for n, d in vs) for vs in _grid_values(self, 1)[1]]
            object.__setattr__(self, "_values", tuple(distinct[i] for i in self._layout))
        return self._values

    def _key(self) -> tuple:
        # realize() may hold equal columns at two indices, so fields compare column by column
        return self.x_breaks, self.y_breaks, tuple(self._distinct[i] for i in self._layout)

    def __eq__(self, other):
        if not isinstance(other, RectField):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"RectField(x_breaks={self.x_breaks!r}, y_breaks={self.y_breaks!r}, "
                f"values_per_column={self.values_per_column!r})")

    @property
    def n_columns(self) -> int:
        return len(self.x_breaks)

    def value_at(self, column: int, y) -> Fraction:
        """Exact value on a column 0 <= column < n_columns at height y (linear between breaks)."""
        if not 0 <= column < self.n_columns:
            raise IndexError(f"column {column} is outside 0 <= column < n_columns = {self.n_columns}")
        columns = [self._distinct[self._layout[column]]]
        scale, ys, (knots,) = _on_scale((*self.y_breaks, as_fraction(y)), columns)  # y is ys[-1]
        return Fraction(*_sample(*zip(*knots), ys[-1:], scale)[0])

    def to_json_dict(self) -> dict:
        # equal columns are written once, in the order the layout first uses them
        index = {}
        layout = [index.setdefault(self._distinct[i], len(index)) for i in self._layout]
        ys = [number_to_json(y) for y in self.y_breaks]
        return {
            "x_breaks": [number_to_json(x) for x in self.x_breaks],
            "y_breaks": ys,
            "layout": layout,
            "columns": [[[ys[r], ratio_to_json(n, d)] for r, (n, d) in knots] for knots in index],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RectField":
        if not isinstance(data, dict):
            raise ValueError("field JSON: expected an object")
        try:
            xs, ys, layout, columns = (data[k] for k in ("x_breaks", "y_breaks", "layout", "columns"))
        except KeyError as exc:
            raise ValueError(f"field JSON: missing key {exc}") from exc
        try:
            y_breaks = [number_from_json(y) for y in ys]
            row = {y: r for r, y in enumerate(y_breaks)}  # a knot's y that is not a break: KeyError
            columns = [[(row[number_from_json(y)], number_from_json(value).as_integer_ratio())
                        for y, value in knots] for knots in columns]
            return cls._from_knots(map(number_from_json, xs), y_breaks, columns, layout)
        except KeyError as exc:
            raise ValueError(f"field JSON: knot y {quoted(exc.args[0])} is not a y break") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field JSON: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "RectField":
        return cls.from_json_dict(json.loads(text, parse_int=int_from_text))


@dataclass(frozen=True)
class StructureParams:
    """One matched pair turned into a column structure."""

    kind: str  # "direct" | "left" | "right"
    left: Optional[ExtendedPoint]
    right: Optional[ExtendedPoint]
    center: Fraction
    epsilon: Fraction

    def to_json_dict(self) -> dict:
        def point(p):
            return None if p is None else [number_to_json(p.x), number_to_json(p.y)]

        return {
            "kind": self.kind,
            "left": point(self.left),
            "right": point(self.right),
            "center": number_to_json(self.center),
            "epsilon": number_to_json(self.epsilon),
        }


@dataclass(frozen=True)
class RealizationParams:
    """Construction record of a realization."""

    S: Fraction
    min_phi: Fraction
    min_psi: Fraction
    swapped: bool
    d_match: Fraction
    structures: Tuple[StructureParams, ...]
    matching: Matching

    @property
    def epsilons(self) -> Tuple[Fraction, ...]:
        return tuple(st.epsilon for st in self.structures)

    def to_json_dict(self) -> dict:
        return {
            "S": number_to_json(self.S),
            "min_phi": number_to_json(self.min_phi),
            "min_psi": number_to_json(self.min_psi),
            "swapped": self.swapped,
            "d_match": number_to_json(self.d_match),
            "structures": [st.to_json_dict() for st in self.structures],
            "matching": self.matching.to_json_dict(),
        }


def _sample(
    ys: Sequence[int], vs: Sequence[int], grid: Sequence[int], scale: int
) -> List[Tuple[int, int]]:
    """Values at the ascending, non-empty heights ``grid`` of the column that
    is linear between the points (ys[i], vs[i]), in one walk.

    Heights and values are ints on one ``scale``: the int y stands for the
    rational y / scale.  A height in [ys[i], ys[i + 1]) gets the value
    (vs[i]·Δy + Δv·(y − ys[i])) / (scale·Δy), with Δy and Δv the rises of
    that piece, as its (numerator, denominator) in lowest terms; the top
    height is read on the last piece.  ``ys`` is strictly increasing; a
    height outside [ys[0], ys[-1]] raises ValueError.
    """
    for y in (grid[0], grid[-1]):
        if not ys[0] <= y <= ys[-1]:
            low, high = Fraction(ys[0], scale), Fraction(ys[-1], scale)
            raise ValueError(f"y={Fraction(y, scale)} outside the field range [{low}, {high}]")
    last = len(ys) - 2  # the index of the last piece
    i, out = 0, []
    for y in grid:
        while i < last and ys[i + 1] <= y:
            i += 1
        span = ys[i + 1] - ys[i]
        num, den = vs[i] * span + (vs[i + 1] - vs[i]) * (y - ys[i]), scale * span
        common = math.gcd(num, den)
        out.append((num // common, den // common))
    return out


def _on_scale(y_breaks, columns, refine: int = 1):
    """(scale, y breaks, columns) on one int scale, the lcm of every knot value's denominator
    and of ``refine`` times every break's: each of the ``columns`` of knots (row, (n, d))
    becomes its knots (y_breaks[row], n/d) as ints on that scale."""
    unit = common_denominator(y_breaks) * refine
    scale = math.lcm(unit, *(d for knots in columns for _, (_, d) in knots))
    ys = [on_scale(y, scale) for y in y_breaks]
    return scale, ys, [[(ys[r], n * (scale // d)) for r, (n, d) in knots] for knots in columns]


def realize(d1: Diagram, d2: Diagram) -> Tuple[RectField, RectField, RealizationParams]:
    """Build fields (phi, psi) with extract(phi) == d1, extract(psi) == d2 and
    max node gap == matching_distance(d1, d2), exactly.

    Both diagrams must be localized: every proper abscissa at or above the
    diagram's own infinity_x.  Structure half-widths below ``MIN_EPSILON``
    are refused.  The construction anchors the shared base at the smaller
    infinity_x, so internally the roles may be swapped; the returned pair
    is always (field for d1, field for d2) and ``params.swapped`` records
    the orientation.
    """
    unit, rows1, rows2, infinity1, infinity2 = _on_one_unit(d1, d2)
    for name, diagram, rows, infinity in (("d1", d1, rows1, infinity1), ("d2", d2, rows2, infinity2)):
        # the rows are sorted by X: if any lies below infinity_x, the first one does
        if rows and rows[0][0] < infinity:
            raise ModelViolationError(
                f"{name}: cornerpoint abscissa {quoted(Fraction(rows[0][0], unit))} lies below "
                f"infinity_x {quoted(diagram.infinity_x)}")
    _check_matching_size(d1, d2)  # before the swap, so that it names the diagram as given
    # each copy is in one witness pair: 3k + 2 columns or more, rows min_phi < c - e < c < c + e < S
    k = max(d1.total_multiplicity, d2.total_multiplicity)
    _check_grid(3 * k + 2, 5 if k else 2, 1, "at least ")  # before the matching is solved
    swapped = infinity2 < infinity1  # low, rows1 and infinity1 are then those of d2
    sides = [(d1, rows1, infinity1), (d2, rows2, infinity2)]
    (low, rows1, infinity1), (high, rows2, infinity2) = sides[::-1] if swapped else sides
    d_match, links = _solve(unit, rows1, rows2, infinity1, infinity2)
    matching, owners = _expand(low, high, d_match, links)

    # every height and value below is an int on U = 4·unit.  A coordinate, base value or S is a
    # multiple of 8 there, so a center c = (X + Y)/2 is a multiple of 4, each of (Y - X)/4,
    # c - b_phi and S - c is even, and so the half-width e, c - e and c + e are ints
    scale = 4 * unit
    b_phi, b_psi = 4 * infinity1, 4 * infinity2
    top = 4 * max(infinity1, infinity2, *(y for _, y, _ in rows1 + rows2)) + scale  # S

    structures: List[StructureParams] = []
    shapes = []  # shapes[i]: (c, e, (phi's point, psi's point)) of structure i, ints on scale
    heights = {b_phi, top}
    for (left, right), (i, j) in zip(matching.pairs[1:], owners[1:]):  # after the pair at infinity
        kind = "right" if i is None else "left" if j is None else "direct"
        points = [None if r is None else (4 * rows[r][0], 4 * rows[r][1])
                  for r, rows in ((i, rows1), (j, rows2))]
        x, y = points[0] or points[1]  # the anchor: left, or right if left is the diagonal
        c = (x + y) // 2
        e = min((y - x) // 4, c - b_phi, top - c) // 2
        epsilon = Fraction(e, scale)
        if epsilon < MIN_EPSILON:  # a half-width that may be too long to write as text is left out
            shown = f" {epsilon}" if epsilon.denominator.bit_length() <= _SAFE_BITS else ""
            raise ValueError(f"structure half-width{shown} underflows the minimum {MIN_EPSILON}")
        structures.append(StructureParams(kind, None if i is None else left,
                                          None if j is None else right, Fraction(c, scale), epsilon))
        shapes.append((c, e, points))
        heights.update((c - e, c, c + e))
    grid = sorted(heights)
    row = {h: r for r, h in enumerate(grid)}
    y_grid = [Fraction(h, scale) for h in grid]

    # column layout: the base at x = 0 and x = 1; structure i (1-based) owns
    # 1/(3i+1) < 1/(3i) < 1/(3i-1), where a field that holds the structure's
    # point has a pit between two equal flanks and the other a plateau triple.
    x_breaks = [Fraction(0)]
    for i in range(len(structures), 0, -1):
        x_breaks += (Fraction(1, 3 * i + 1), Fraction(1, 3 * i), Fraction(1, 3 * i - 1))
    x_breaks.append(Fraction(1))

    def column(base_start, *knots):
        """One column's knots: base_start at min_phi, knots, S at S (heights and values on scale)."""
        return [(row[h], (v, scale)) for h, v in ((b_phi, base_start), *knots, (top, top))]

    fields = []
    for b, side in ((b_phi, 0), (b_psi, 1)):
        distinct, layout = [column(b)], [0]  # the base, at x = 0 and again at x = 1
        for c, e, points in reversed(shapes):
            n = len(distinct)
            if points[side] is not None:
                px, py = points[side]
                flank = column(b, (c - e, py), (c + e, py))
                distinct += (flank, column(b, (c - e, py), (c, px), (c + e, py)))
                layout += (n, n + 1, n)  # flank, pit, flank
            else:  # a plateau triple at the center, or at the base if the center is not above it
                distinct.append(column(b, (c + e, b)) if c <= b else column(b, (c - e, c), (c + e, c)))
                layout += (n, n, n)
        fields.append(RectField._from_knots(x_breaks, y_grid, distinct, (*layout, 0)))
    field_low, field_high = fields

    for extracted, diagram, which in zip(_field_diagrams(fields, 1), (low, high), ("first", "second")):
        if extracted != diagram:
            raise RuntimeError(f"internal error: realization does not reproduce the {which} diagram")
    gap = max_field_gap(field_low, field_high)
    if gap != d_match:
        raise RuntimeError(
            f"internal error: realized field gap {gap} differs from the matching distance {d_match}")

    params = RealizationParams(S=Fraction(top, scale), min_phi=low.infinity_x,
                               min_psi=high.infinity_x, swapped=swapped, d_match=d_match,
                               structures=tuple(structures), matching=matching)
    if swapped:
        return field_high, field_low, params
    return field_low, field_high, params


def _grid_adjacency(n_columns: int, rows: int) -> List[List[int]]:
    """Adjacency of the 4-connected grid whose position p = ci·rows + ri is column ci,
    row ri (rows >= 2): adj[p] lists p - 1, p + 1, p - rows, p + rows, those that exist."""
    nodes = n_columns * rows
    adj = [[p - 1, p + 1] for p in range(nodes)]
    for p in range(0, nodes, rows):  # a column's bottom and top nodes
        del adj[p][0]
        adj[p + rows - 1].pop()
    for p in range(rows, nodes):
        adj[p].append(p - rows)
    for p in range(nodes - rows):
        adj[p].append(p + rows)
    return adj


def _check_grid(n_columns: int, rows: int, refine: int, least: str = "") -> None:
    """Refuse a grid of ``n_columns`` x ``rows`` nodes, ``refine`` per break gap, above the cap;
    ``least`` is "at least " when the grid is only known to have at least that many nodes."""
    nodes = n_columns * rows
    if nodes > _MAX_GRID_NODES:
        raise ValueError(
            f"refine {refine} would sample {least}{nodes} grid nodes, more than {_MAX_GRID_NODES}")


def _grid_values(field: RectField, refine: int) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """(rows, each distinct column's reduced value pairs on them) of ``discretize(field, refine)``:
    the rows are a + (b - a)·k/refine for each break a, the next break b and 0 <= k < refine,
    then the top break."""
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine!r}")
    rows = (len(field.y_breaks) - 1) * refine + 1
    _check_grid(field.n_columns, rows, refine)
    scale, ys, columns = _on_scale(field.y_breaks, field._distinct, refine)
    heights = [a + (b - a) // refine * k for a, b in zip(ys, ys[1:]) for k in range(refine)]
    heights.append(ys[-1])
    return rows, [_sample(*zip(*knots), heights, scale) for knots in columns]


def _field_diagrams(fields: Sequence[RectField], refine: int) -> List[Diagram]:
    """``extract_diagram(discretize(field, refine))`` of each field; the fields share one grid."""
    diagrams, adj = [], None
    for field in fields:  # one field's values at a time
        rows, columns = _grid_values(field, refine)
        adj = adj or _grid_adjacency(field.n_columns, rows)
        diagrams.append(_ratio_diagram([key for i in field._layout for key in columns[i]], adj))
    return diagrams


def discretize(field: RectField, refine: int = 1) -> SizePair:
    """Sample a field onto a 4-connected grid graph.

    Columns sit at the field's x breaks; each consecutive y gap is split
    into ``refine`` equal parts (refine=1 keeps the break rows only).
    Values are sampled exactly.  A grid of more than 10^7 nodes is refused
    with ValueError before anything is sampled.
    """
    rows, columns = _grid_values(field, refine)
    # ids[p] names position p = ci·rows + ri
    names = [f"r{ri}" for ri in range(rows)]
    ids = [column + name for column in (f"c{ci}" for ci in range(field.n_columns)) for name in names]
    # edge i joins a[i] and b[i], column edges first: a vertex lists below, above, left, right
    a, b = ids[:], ids[:]
    del a[rows - 1::rows], b[::rows]
    a, b = a + ids[:-rows], b + ids[rows:]
    ends = [None] * (2 * len(a))
    ends[::2], ends[1::2] = a, b
    fraction = {key: Fraction(*key) for column in columns for key in column}
    sp = SizePair.__new__(SizePair)
    sp._build(ids, [fraction[key] for i in field._layout for key in columns[i]], ends)
    return sp


def max_field_gap(field_a: RectField, field_b: RectField) -> Fraction:
    """Exact max of |a - b| over the shared grid nodes.

    The fields must share their x and y breaks.  Between the knot rows of
    two columns their difference is linear, so its maximum over the nodes,
    and over the whole column, is its maximum on those rows.
    """
    if field_a.x_breaks != field_b.x_breaks or field_a.y_breaks != field_b.y_breaks:
        raise ValueError("fields do not share their grid")
    # each distinct pair of layout entries, a column of each field, is scanned once: at a knot
    # (y, v) of one column on the other's piece (y0, v0)-(y1, v1), scale·|a - b| is
    # |(v - v0)·(y1 - y0) - (v1 - v0)·(y - y0)| / (y1 - y0), compared by cross-multiplying
    scale, _, columns = _on_scale(field_a.y_breaks, field_a._distinct + field_b._distinct)
    shift = len(field_a._distinct)
    best_num, best_den = 0, 1
    for ia, ib in dict.fromkeys(zip(field_a._layout, field_b._layout)):
        a, b = columns[ia], columns[shift + ib]
        for knots, other in ((a, b), (b, a)):
            j = 0
            for y, v in knots:
                while other[j + 1][0] < y:
                    j += 1
                (y0, v0), (y1, v1) = other[j], other[j + 1]
                num, den = abs((v - v0) * (y1 - y0) - (v1 - v0) * (y - y0)), y1 - y0
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    return Fraction(best_num, best_den * scale)
