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
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._rational import as_fraction, number_from_json, number_to_json
from .core import ModelViolationError, SizePair
from .diagram import Diagram, ExtendedPoint, extract_diagram
from .matching import DIAGONAL, Matching, matching_distance

__all__ = [
    "RectField",
    "RealizationParams",
    "realize",
    "discretize",
    "max_field_gap",
]

# smallest structure half-width realize() accepts
MIN_EPSILON = Fraction(1, 10**12)


@dataclass(frozen=True)
class RectField:
    """Piecewise-linear field on the grid x_breaks x y_breaks.

    ``values_per_column[c][r]`` is the value at ``(x_breaks[c], y_breaks[r])``.
    Within a column the value is linear between consecutive y breaks;
    between columns the field interpolates linearly (nothing in the
    package ever needs values off the columns, but the model is the full
    rectangle [x_breaks[0], x_breaks[-1]] x [y_breaks[0], y_breaks[-1]]).
    """

    x_breaks: Tuple[Fraction, ...]
    y_breaks: Tuple[Fraction, ...]
    values_per_column: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        for name in ("x_breaks", "y_breaks"):
            breaks = tuple(as_fraction(b) for b in getattr(self, name))
            if len(breaks) < 2:
                raise ValueError(f"{name} needs at least two entries")
            if any(b <= a for a, b in zip(breaks, breaks[1:])):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, breaks)
        values = tuple(tuple(as_fraction(v) for v in column) for column in self.values_per_column)
        if len(values) != len(self.x_breaks) or any(len(vs) != len(self.y_breaks) for vs in values):
            raise ValueError("a field needs one column per x break and one value per y break")
        object.__setattr__(self, "values_per_column", values)

    @property
    def n_columns(self) -> int:
        return len(self.x_breaks)

    def value_at(self, column: int, y) -> Fraction:
        """Exact field value on a column at height y (linear between breaks)."""
        return _sample(self.y_breaks, self.values_per_column[column], (as_fraction(y),))[0]

    def to_json_dict(self) -> dict:
        # the grid is encoded once and written per column, its ends as S and min_phi
        ys = [number_to_json(y) for y in self.y_breaks]
        return {
            "x_breaks": [number_to_json(x) for x in self.x_breaks],
            "y_breaks_per_column": [ys.copy() for _ in self.x_breaks],
            "values_per_column": [
                [number_to_json(v) for v in vs] for vs in self.values_per_column
            ],
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

    def dumps(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def loads(cls, text: str) -> "RectField":
        return cls.from_json_dict(json.loads(text))


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
    ys: Sequence[Fraction], vs: Sequence[Fraction], grid: Sequence[Fraction]
) -> List[Fraction]:
    """Values at the ascending, non-empty heights ``grid`` of the column that
    is linear between the points (ys[i], vs[i]), in one walk.

    ``ys`` is strictly increasing; a height outside [ys[0], ys[-1]] raises
    ValueError.
    """
    for y in (grid[0], grid[-1]):
        if not ys[0] <= y <= ys[-1]:
            raise ValueError(f"y={y} outside the field range [{ys[0]}, {ys[-1]}]")
    last = len(ys) - 1
    i = bisect_right(ys, grid[0], 0, last) - 1
    slope = None
    out = []
    for y in grid:
        while i < last and ys[i + 1] <= y:
            i += 1
            slope = None
        if y == ys[i]:
            out.append(vs[i])
        else:
            if slope is None:
                slope = (vs[i + 1] - vs[i]) / (ys[i + 1] - ys[i])
            out.append(vs[i] + slope * (y - ys[i]))
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
        for point, _ in diagram.points:
            if point.x < diagram.infinity_x:
                raise ModelViolationError(
                    f"{name}: cornerpoint abscissa {point.x} lies below infinity_x "
                    f"{diagram.infinity_x}"
                )
    swapped = d2.infinity_x < d1.infinity_x
    low, high = (d2, d1) if swapped else (d1, d2)
    d_match, matching = matching_distance(low, high)
    min_phi = low.infinity_x
    min_psi = high.infinity_x

    coords = [low.infinity_x, high.infinity_x]
    for diagram in (low, high):
        for point, _ in diagram.points:
            coords.extend((point.x, point.y))
    S = max(coords) + 1

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
        if epsilon < MIN_EPSILON:
            raise ValueError(f"structure half-width {epsilon} underflows the minimum {MIN_EPSILON}")
        structures.append(
            StructureParams(kind=kind, left=left, right=right, center=center, epsilon=epsilon)
        )
        y_breaks.update((center - epsilon, center, center + epsilon))
    y_grid = tuple(sorted(y_breaks))

    # column layout: the base at x = 0 and x = 1; structure i (1-based) owns
    # 1/(3i+1) < 1/(3i) < 1/(3i-1), where a field that holds the structure's
    # point has a pit between two equal flanks and the other a plateau triple.
    x_breaks = [Fraction(0)]
    for i in range(len(structures), 0, -1):
        x_breaks += (Fraction(1, 3 * i + 1), Fraction(1, 3 * i), Fraction(1, 3 * i - 1))
    x_breaks.append(Fraction(1))

    def column(base_start, *knots):
        """One column sampled on y_grid: base_start at min_phi, knots, S at S."""
        ys, vs = zip((min_phi, base_start), *knots, (S, S))
        return tuple(_sample(ys, vs, y_grid))

    fields = []
    for base_start, side in ((min_phi, "left"), (min_psi, "right")):
        base = column(base_start)
        columns = [base]
        for st in reversed(structures):
            c, e, point = st.center, st.epsilon, getattr(st, side)
            if point is not None:
                flank = column(base_start, (c - e, point.y), (c + e, point.y))
                pit = column(base_start, (c - e, point.y), (c, point.x), (c + e, point.y))
                columns += (flank, pit, flank)
            elif c <= base_start:  # the center is not above the base: hold the base
                columns += (column(base_start, (c + e, base_start)),) * 3
            else:
                columns += (column(base_start, (c - e, c), (c + e, c)),) * 3
        columns.append(base)
        fields.append(RectField(x_breaks, y_grid, columns))
    field_low, field_high = fields

    if extract_diagram(discretize(field_low, 1)) != low:
        raise RuntimeError("internal error: realization does not reproduce the first diagram")
    if extract_diagram(discretize(field_high, 1)) != high:
        raise RuntimeError("internal error: realization does not reproduce the second diagram")
    gap = max_field_gap(field_low, field_high)
    if gap != d_match:
        raise RuntimeError(
            f"internal error: realized field gap {gap} differs from the matching distance {d_match}"
        )

    params = RealizationParams(
        S=S,
        min_phi=min_phi,
        min_psi=min_psi,
        swapped=swapped,
        d_match=d_match,
        structures=tuple(structures),
        matching=matching,
    )
    if swapped:
        return field_high, field_low, params
    return field_low, field_high, params


def discretize(field: RectField, refine: int = 1) -> SizePair:
    """Sample a field onto a 4-connected grid graph.

    Columns sit at the field's x breaks; each consecutive y gap is split
    into ``refine`` equal parts (refine=1 keeps the break rows only).
    Values are sampled exactly.
    """
    if isinstance(refine, bool) or not isinstance(refine, int) or refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine!r}")
    # value_at at a + (b - a) * k / refine is va + (vb - va) * k / refine, exactly
    vertices = []
    for ci, vs in enumerate(field.values_per_column):
        column = []
        for va, vb in zip(vs, vs[1:]):
            column.append(va)
            if refine > 1:
                step = (vb - va) / refine
                column.extend(va + step * k for k in range(1, refine))
        column.append(vs[-1])
        vertices.extend((f"c{ci}r{ri}", value) for ri, value in enumerate(column))
    edges = []
    rows = (len(field.y_breaks) - 1) * refine + 1
    for ci in range(field.n_columns):
        for ri in range(rows - 1):
            edges.append((f"c{ci}r{ri}", f"c{ci}r{ri + 1}"))
    for ci in range(field.n_columns - 1):
        for ri in range(rows):
            edges.append((f"c{ci}r{ri}", f"c{ci + 1}r{ri}"))
    return SizePair(vertices, edges)


def max_field_gap(field_a: RectField, field_b: RectField) -> Fraction:
    """Exact max of |a - b| over the shared grid nodes.

    The fields must share their x and y breaks.  Both are linear between
    the nodes of a column, so the node maximum is the maximum over the
    whole column.
    """
    if field_a.x_breaks != field_b.x_breaks or field_a.y_breaks != field_b.y_breaks:
        raise ValueError("fields do not share their grid")
    return max(
        abs(a - b)
        for va, vb in zip(field_a.values_per_column, field_b.values_per_column)
        for a, b in zip(va, vb)
    )
