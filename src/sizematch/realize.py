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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._rational import as_fraction, common_denominator, number_from_json, number_to_json
from ._rational import _SAFE_BITS, int_from_text, on_scale, quoted, ratio_to_json
from .core import ModelViolationError, SizePair
from .diagram import Diagram, ExtendedPoint, _on_one_unit, _ratio, _ratio_diagram
from .matching import DIAGONAL, Matching, _check_matching_size, matching_distance

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

    Each value is held as its (numerator, denominator) in lowest terms, the form the package
    reads; ``values_per_column`` builds Fractions from these pairs when first read.  Each
    distinct column is held once in ``_distinct``, and ``_layout[c]`` is the index there of
    column c, so equal columns are equal layout entries.
    """

    __slots__ = ("x_breaks", "y_breaks", "_distinct", "_layout", "_values")

    def __init__(self, x_breaks, y_breaks, values_per_column):
        for name, given in (("x_breaks", x_breaks), ("y_breaks", y_breaks)):
            breaks = tuple(as_fraction(b) for b in given)
            if len(breaks) < 2:
                raise ValueError(f"{name} needs at least two entries")
            if any(b <= a for a, b in zip(breaks, breaks[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, breaks)
        index = {}  # each distinct column, by value, to its position in _distinct
        layout = tuple(index.setdefault(tuple(_ratio(v) for v in vs), len(index))
                       for vs in values_per_column)
        if len(layout) != len(self.x_breaks) or any(len(vs) != len(self.y_breaks) for vs in index):
            raise ValueError("a field needs one column per x break and one value per y break")
        object.__setattr__(self, "_distinct", tuple(index))
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_values", None)

    @classmethod
    def _exact(cls, x_breaks, y_breaks, distinct, layout) -> "RectField":
        """The field of Fraction breaks, distinct reduced int pair columns and a layout, unchecked."""
        field = object.__new__(cls)
        for name, value in zip(cls.__slots__, (x_breaks, y_breaks, distinct, layout, None)):
            object.__setattr__(field, name, value)
        return field

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RectField")

    def __reduce__(self):  # pickle and copy build the field again, not by setattr
        return RectField._exact, (self.x_breaks, self.y_breaks, self._distinct, self._layout)

    @property
    def values_per_column(self) -> Tuple[Tuple[Fraction, ...], ...]:
        if self._values is None:
            distinct = [tuple(Fraction(n, d) for n, d in vs) for vs in self._distinct]
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
        y = as_fraction(y)
        unit = common_denominator((*self.y_breaks, y))
        vs = self._distinct[self._layout[column]]
        return Fraction(*_resample(self.y_breaks, vs, [on_scale(y, unit)], unit)[0])

    def to_json_dict(self) -> dict:
        # the grid is encoded once and written per column, its ends as S and min_phi; each
        # distinct value is encoded once, each distinct column once and copied for its repeats
        ys = [number_to_json(y) for y in self.y_breaks]
        codes = {key: ratio_to_json(*key) for key in set().union(*self._distinct)}
        encoded = [[codes[key] for key in vs] for vs in self._distinct]
        return {
            "x_breaks": [number_to_json(x) for x in self.x_breaks],
            "y_breaks_per_column": [ys.copy() for _ in self.x_breaks],
            "values_per_column": [encoded[i].copy() for i in self._layout],
            "S": ys[-1],
            "min_phi": ys[0],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RectField":
        if not isinstance(data, dict):
            raise ValueError("field JSON: expected an object")
        try:
            x_breaks = tuple(number_from_json(x) for x in data["x_breaks"])
            grids = [tuple(number_from_json(y) for y in ys) for ys in data["y_breaks_per_column"]]
            values = tuple(
                tuple(number_from_json(v) for v in vs) for vs in data["values_per_column"]
            )
            ends = (number_from_json(data["min_phi"]), number_from_json(data["S"]))
            if len(grids) != len(x_breaks):
                raise ValueError(f"{len(grids)} y grids for {len(x_breaks)} columns")
            if any(ys != grids[0] for ys in grids):
                raise ValueError("the columns do not share one y grid")
            field = cls(x_breaks, grids[0] if grids else (), values)
            if ends != (field.y_breaks[0], field.y_breaks[-1]):
                raise ValueError("min_phi and S must be the ends of the y grid")
            return field
        except KeyError as exc:
            raise ValueError(f"field JSON: missing key {exc}") from exc
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
    rational y / scale.  A height between ys[i] and ys[i + 1] gets the value
    (vs[i]·Δy + Δv·(y − ys[i])) / (scale·Δy), with Δy and Δv the rises of
    that piece, as its (numerator, denominator) in lowest terms.  ``ys`` is
    strictly increasing; a height outside [ys[0], ys[-1]] raises ValueError.
    """
    for y in (grid[0], grid[-1]):
        if not ys[0] <= y <= ys[-1]:
            low, high = Fraction(ys[0], scale), Fraction(ys[-1], scale)
            raise ValueError(f"y={Fraction(y, scale)} outside the field range [{low}, {high}]")
    last = len(ys) - 1
    i = bisect_right(ys, grid[0], 0, last) - 1
    out = []
    for y in grid:
        while i < last and ys[i + 1] <= y:
            i += 1
        rise = y - ys[i]
        if rise:
            span = ys[i + 1] - ys[i]
            num, den = vs[i] * span + (vs[i + 1] - vs[i]) * rise, scale * span
        else:
            num, den = vs[i], scale
        common = math.gcd(num, den)
        out.append((num // common, den // common))
    return out


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
    for name, diagram in (("d1", d1), ("d2", d2)):
        # the points are sorted by x: if any lies below infinity_x, the first one does
        x = diagram.points[0][0].x if diagram.points else diagram.infinity_x
        if x < diagram.infinity_x:
            raise ModelViolationError(
                f"{name}: cornerpoint abscissa {quoted(x)} lies below infinity_x "
                f"{quoted(diagram.infinity_x)}"
            )
    _check_matching_size(d1, d2)  # before the swap, so that it names the diagram as given
    # each copy is in one witness pair: 3k + 2 columns or more, rows min_phi < c - e < c < c + e < S
    k = max(d1.total_multiplicity, d2.total_multiplicity)
    _check_grid(3 * k + 2, 5 if k else 2, 1, "at least ")  # before the matching is solved
    swapped = d2.infinity_x < d1.infinity_x
    low, high = (d2, d1) if swapped else (d1, d2)
    d_match, matching = matching_distance(low, high)
    min_phi, min_psi = low.infinity_x, high.infinity_x

    S = max(low.infinity_x, high.infinity_x, *(p.y for d in (low, high) for p, _ in d.points)) + 1

    structures: List[StructureParams] = []
    y_breaks = {min_phi, S}
    for left, right in matching.pairs:
        if left is DIAGONAL:
            kind, anchor, left = "right", right, None
        elif right is DIAGONAL:
            kind, anchor, right = "left", left, None
        elif left.is_at_infinity:
            continue
        else:
            kind, anchor = "direct", left
        center = (anchor.x + anchor.y) / 2
        epsilon = min(anchor.persistence / 4, center - min_phi, S - center) / 2
        if epsilon < MIN_EPSILON:  # a half-width that may be too long to write as text is left out
            shown = f" {epsilon}" if epsilon.denominator.bit_length() <= _SAFE_BITS else ""
            raise ValueError(f"structure half-width{shown} underflows the minimum {MIN_EPSILON}")
        structures.append(
            StructureParams(kind=kind, left=left, right=right, center=center, epsilon=epsilon))
        y_breaks.update((center - epsilon, center, center + epsilon))
    y_grid = tuple(sorted(y_breaks))

    # column layout: the base at x = 0 and x = 1; structure i (1-based) owns
    # 1/(3i+1) < 1/(3i) < 1/(3i-1), where a field that holds the structure's
    # point has a pit between two equal flanks and the other a plateau triple.
    x_breaks = [Fraction(0)]
    for i in range(len(structures), 0, -1):
        x_breaks += (Fraction(1, 3 * i + 1), Fraction(1, 3 * i), Fraction(1, 3 * i - 1))
    x_breaks.append(Fraction(1))
    _check_grid(len(x_breaks), len(y_grid), 1)  # the self-check's grid, before a field is sampled

    # every knot height and value below is min_phi, min_psi, S, a diagram
    # coordinate or c, c ± e of y_grid, so all of them are ints on one scale
    scale = math.lcm(_on_one_unit(low, high)[0], common_denominator(y_grid))
    grid = [on_scale(y, scale) for y in y_grid]
    bottom, top = grid[0], grid[-1]

    def column(base_start, *knots):
        """One column sampled on y_grid: base_start at min_phi, knots, S at S (ints on scale)."""
        ys, vs = zip((bottom, base_start), *knots, (top, top))
        return tuple(_sample(ys, vs, grid, scale))

    fields = []
    for base_start, side in ((min_phi, "left"), (min_psi, "right")):
        b = on_scale(base_start, scale)
        distinct, layout = [column(b)], [0]  # the base, at x = 0 and again at x = 1
        for st in reversed(structures):
            c, e = on_scale(st.center, scale), on_scale(st.epsilon, scale)
            point = getattr(st, side)
            n = len(distinct)
            if point is not None:
                px, py = on_scale(point.x, scale), on_scale(point.y, scale)
                flank = column(b, (c - e, py), (c + e, py))
                distinct += (flank, column(b, (c - e, py), (c, px), (c + e, py)))
                layout += (n, n + 1, n)  # flank, pit, flank
            else:  # a plateau triple at the center, or at the base if the center is not above it
                distinct.append(column(b, (c + e, b)) if c <= b else column(b, (c - e, c), (c + e, c)))
                layout += (n, n, n)
        fields.append(RectField._exact(tuple(x_breaks), y_grid, tuple(distinct), (*layout, 0)))
    field_low, field_high = fields

    for extracted, diagram, which in zip(_field_diagrams(fields, 1), (low, high), ("first", "second")):
        if extracted != diagram:
            raise RuntimeError(f"internal error: realization does not reproduce the {which} diagram")
    gap = max_field_gap(field_low, field_high)
    if gap != d_match:
        raise RuntimeError(
            f"internal error: realized field gap {gap} differs from the matching distance {d_match}")

    params = RealizationParams(S=S, min_phi=min_phi, min_psi=min_psi, swapped=swapped,
                               d_match=d_match, structures=tuple(structures), matching=matching)
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


def _resample(y_breaks, pairs, heights, unit: int) -> List[Tuple[int, int]]:
    """The reduced value pairs at the ascending ``heights`` (ints on ``unit``, a multiple of every
    break's denominator) of the column that is ``pairs[i]`` at ``y_breaks[i]`` and linear between."""
    scale = math.lcm(unit, *(d for _, d in pairs))
    ys = [on_scale(b, scale) for b in y_breaks]
    values = [n * (scale // d) for n, d in pairs]
    return _sample(ys, values, [h * (scale // unit) for h in heights], scale)


def _check_grid(n_columns: int, rows: int, refine: int, least: str = "") -> None:
    """Refuse a grid of ``n_columns`` x ``rows`` nodes, ``refine`` per break gap, above the cap;
    ``least`` is "at least " when the grid is only known to have at least that many nodes."""
    nodes = n_columns * rows
    if nodes > _MAX_GRID_NODES:
        raise ValueError(
            f"refine {refine} would sample {least}{nodes} grid nodes, more than {_MAX_GRID_NODES}")


def _grid_values(field: RectField, refine: int) -> Tuple[int, List[Tuple[int, int]]]:
    """(rows, node value pairs by position p = ci·rows + ri) of ``discretize(field, refine)``."""
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine!r}")
    rows = (len(field.y_breaks) - 1) * refine + 1
    _check_grid(field.n_columns, rows, refine)
    columns = field._distinct
    if refine > 1:
        # the rows a + (b - a)·k/refine are ints on unit·refine; each distinct column is sampled once
        unit = common_denominator(field.y_breaks) * refine
        breaks = [on_scale(y, unit) for y in field.y_breaks]
        heights = [a + (b - a) // refine * k for a, b in zip(breaks, breaks[1:]) for k in range(refine)]
        heights.append(breaks[-1])
        columns = [_resample(field.y_breaks, vs, heights, unit) for vs in columns]
    return rows, [key for i in field._layout for key in columns[i]]


def _field_diagrams(fields: Sequence[RectField], refine: int) -> List[Diagram]:
    """``extract_diagram(discretize(field, refine))`` of each field; the fields share one grid."""
    diagrams, adj = [], None
    for field in fields:  # one field's values at a time
        rows, values = _grid_values(field, refine)
        adj = adj or _grid_adjacency(field.n_columns, rows)
        diagrams.append(_ratio_diagram(values, adj))
    return diagrams


def discretize(field: RectField, refine: int = 1) -> SizePair:
    """Sample a field onto a 4-connected grid graph.

    Columns sit at the field's x breaks; each consecutive y gap is split
    into ``refine`` equal parts (refine=1 keeps the break rows only).
    Values are sampled exactly.  A grid of more than 10^7 nodes is refused
    with ValueError before anything is sampled.
    """
    rows, values = _grid_values(field, refine)
    # ids[p] names position p = ci·rows + ri
    names = [f"r{ri}" for ri in range(rows)]
    ids = [column + name for column in (f"c{ci}" for ci in range(field.n_columns)) for name in names]
    # edge i joins a[i] and b[i], column edges first: a vertex lists below, above, left, right
    a, b = ids[:], ids[:]
    del a[rows - 1::rows], b[::rows]
    a, b = a + ids[:-rows], b + ids[rows:]
    ends = [None] * (2 * len(a))
    ends[::2], ends[1::2] = a, b
    fraction = {key: Fraction(*key) for key in set(values)}
    sp = SizePair.__new__(SizePair)
    sp._build(ids, list(map(fraction.__getitem__, values)), ends)
    return sp


def max_field_gap(field_a: RectField, field_b: RectField) -> Fraction:
    """Exact max of |a - b| over the shared grid nodes.

    The fields must share their x and y breaks.  Both are linear between
    the nodes of a column, so the node maximum is the maximum over the
    whole column.
    """
    if field_a.x_breaks != field_b.x_breaks or field_a.y_breaks != field_b.y_breaks:
        raise ValueError("fields do not share their grid")
    # |a - b| = |an·bd - bn·ad| / (ad·bd) is compared with the best so far by
    # cross-multiplying, so no Fraction is formed per node; each distinct pair of
    # layout entries, a column of each field, is scanned once
    best_num, best_den = 0, 1
    for ia, ib in dict.fromkeys(zip(field_a._layout, field_b._layout)):
        for (an, ad), (bn, bd) in zip(field_a._distinct[ia], field_b._distinct[ib]):
            num, den = abs(an * bd - bn * ad), ad * bd
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num, best_den)
