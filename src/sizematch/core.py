"""Finite vertex-weighted graphs and their reduced size functions.

The measuring object is a *size pair*: a finite connected graph together
with a real value attached to every vertex.  The reduced size function
counts, for ``x < y``, the connected components of the sublevel graph at
``y`` (vertices with value <= y, edges whose endpoints both qualify) that
contain at least one vertex with value <= x.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import contains
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ._rational import as_fraction, quoted

__all__ = [
    "ParseError",
    "ModelViolationError",
    "DisconnectedGraphError",
    "SizePair",
    "SublevelPartition",
    "parse_size_pair",
    "load_size_pair",
    "sublevel_components",
    "reduced_size_function",
    "size_function_on_grid",
    "shifted_inequality_check",
]


class ParseError(ValueError):
    """A vertex or edge line could not be parsed.

    ``line`` carries the 1-based number of the offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class ModelViolationError(ValueError):
    """The input is well-formed but breaks a model invariant."""


class DisconnectedGraphError(ModelViolationError):
    """The measuring graph must be connected."""

    def __init__(self, component_count: int):
        super().__init__(f"graph is disconnected ({component_count} components)")
        self.component_count = component_count


def _check_value(value, owner) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ModelViolationError(
            f"value of vertex {quoted(owner)} must be a real number, got {type(value).__name__}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ModelViolationError(f"value of vertex {quoted(owner)} must be finite, got {value!r}")


def _vertex_fault(ids, values) -> None:
    """Raise the first fault of the vertex columns in input order, if there is one.

    Per vertex: a duplicate id, then a value that is not a finite real.
    """
    seen = set()
    for vid, value in zip(ids, values):
        if vid in seen:
            raise ModelViolationError(f"duplicate vertex id {quoted(vid)}")
        _check_value(value, vid)
        seen.add(vid)


def _vertex_position(ids, values) -> Dict[Hashable, int]:
    """The map from each id to its position, once the vertex columns pass their checks.

    Empty input, then per vertex a duplicate id or a value that is not a
    finite real, raises ModelViolationError.
    """
    n = len(ids)
    if not n:
        raise ModelViolationError("a size pair needs at least one vertex")
    try:
        position = dict(zip(ids, range(n)))
    except TypeError:  # an unhashable id
        position = {}
    kinds = set(map(type, values))
    if len(position) != n or not (
        kinds <= {int, Fraction} or kinds == {float} and all(map(math.isfinite, values))
    ):
        # raises, unless the values are finite reals of mixed or derived types
        _vertex_fault(ids, values)
    return position


def _edge_fault(position: Dict[Hashable, int], edges) -> None:
    """Raise the first fault of ``edges`` in input order, if there is one.

    Per edge: not a pair, an unknown first end, an unknown second end, a
    self-loop, then a duplicate of an earlier edge.
    """
    n = len(position)
    seen = set()
    for edge in edges:
        u, v = edge
        p = position.get(u)
        if p is None:
            raise ModelViolationError(
                f"edge ({quoted(u)}, {quoted(v)}) references unknown vertex {quoted(u)}")
        q = position.get(v)
        if q is None:
            raise ModelViolationError(
                f"edge ({quoted(u)}, {quoted(v)}) references unknown vertex {quoted(v)}")
        if p == q:
            raise ModelViolationError(f"self-loop at vertex {quoted(u)}")
        key = p * n + q if p < q else q * n + p
        if key in seen:
            raise ModelViolationError(f"duplicate edge ({quoted(u)}, {quoted(v)})")
        seen.add(key)


def _component_count(adj: Sequence[Sequence[int]]) -> int:
    """Number of connected components of a graph given by int adjacency lists."""
    seen = bytearray(len(adj))
    count = 0
    for start in range(len(adj)):
        if seen[start]:
            continue
        count += 1
        seen[start] = 1
        stack = [start]
        while stack:
            for q in adj[stack.pop()]:
                if not seen[q]:
                    seen[q] = 1
                    stack.append(q)
    return count


class SizePair:
    """A finite connected graph with a real value on every vertex.

    ``vertices`` is a mapping (or iterable of pairs) from vertex id to value;
    ``edges`` is an iterable of unordered id pairs.  Ids may be any hashable
    objects (files use strings).  Construction validates the model:
    non-empty, finite real values, no self-loops, no duplicate edges, every
    edge endpoint known, and the graph connected.

    The graph is held on vertex positions: ids and values are lists in
    input order, the adjacency lists hold positions, and one dict maps an id
    to its position.  The id-level views ``vertex_ids``, ``edges`` and
    ``neighbors`` are built together on the first use of any of them and
    then cached.  They order ids by ``str`` and break ties between ids with
    equal ``str`` (such as ``1`` and ``"1"``) by input position, so they
    never depend on hashing.
    """

    __slots__ = ("_ids", "_values", "_position", "_adj", "_n_edges",
                 "_vertex_ids", "_edges", "_neighbors")

    def __init__(self, vertices, edges=()):
        if isinstance(vertices, Mapping):
            vertices = vertices.items()
        items = [(vid, value) for vid, value in vertices]
        edge_list = list(edges)
        try:
            ends = [end for u, v in edge_list for end in (u, v)]
        except (TypeError, ValueError):
            ends = None  # some edge is not a pair
        self._build([vid for vid, _ in items], [value for _, value in items], ends, edge_list)

    def _build(self, ids, values, ends, edges=None) -> None:
        """Validate and store a graph given as columns.

        ``ids`` and ``values`` list the vertices in input order; ``ends`` lists
        the ends of every edge in input order, two per edge (u1, v1, u2, v2,
        ...), or is None when ``edges``, the edges as given, are not all
        pairs.  Each check runs on a whole column at once.  Only when one
        fails does the ordered walk run, to raise the first fault in input
        order: empty input; per vertex, duplicate id then value; per edge,
        unknown first end, unknown second end, self-loop, duplicate edge;
        then connectivity.
        """
        position = _vertex_position(ids, values)
        try:
            at = list(map(position.get, ends))  # the position of every edge end
        except TypeError:  # ends is None, or holds an unhashable end
            at = [None]
        known = None not in at
        adj: List[List[int]] = [[] for _ in ids]
        if known:
            ats = iter(at)
            for p, q in zip(ats, ats):
                adj[p].append(q)
                adj[q].append(p)
        m = len(at) // 2
        # a self-loop or a second edge between two vertices repeats a neighbour
        if not known or sum(map(len, map(set, adj))) != 2 * m:
            _edge_fault(position, edges if ends is None else zip(ends[0::2], ends[1::2]))
        self._ids, self._values, self._position = ids, values, position
        self._adj, self._n_edges = adj, m
        self._vertex_ids = self._edges = self._neighbors = None
        count = _component_count(adj)
        if count != 1:
            raise DisconnectedGraphError(count)

    def _build_views(self) -> None:
        ids, adj = self._ids, self._adj
        order = sorted(range(len(ids)), key=lambda p: str(ids[p]))
        rank = [0] * len(ids)
        for r, p in enumerate(order):
            rank[p] = r
        neighbors = {}
        edges = []
        for p in order:
            ns = sorted(adj[p], key=rank.__getitem__)
            neighbors[ids[p]] = tuple(ids[q] for q in ns)
            edges.extend((ids[p], ids[q]) for q in ns if rank[q] > rank[p])
        self._vertex_ids = tuple(ids[p] for p in order)
        self._edges = tuple(edges)
        self._neighbors = neighbors

    @property
    def vertex_ids(self) -> Tuple[Hashable, ...]:
        if self._vertex_ids is None:
            self._build_views()
        return self._vertex_ids

    @property
    def edges(self) -> Tuple[Tuple[Hashable, Hashable], ...]:
        """Each edge once, ends in id order, edges in id order of (first, second)."""
        if self._edges is None:
            self._build_views()
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self._ids)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def value(self, vid):
        return self._values[self._position[vid]]

    @property
    def vertex_values(self) -> Dict[Hashable, object]:
        return dict(zip(self._ids, self._values))

    def neighbors(self, vid) -> Tuple[Hashable, ...]:
        if self._neighbors is None:
            self._build_views()
        return self._neighbors[vid]

    def degree(self, vid) -> int:
        return len(self._adj[self._position[vid]])

    @property
    def min_value(self):
        return min(self._values)

    @property
    def max_value(self):
        return max(self._values)

    @property
    def critical_values(self) -> Tuple:
        """Sorted distinct vertex values."""
        return tuple(sorted(set(self._values)))

    def __eq__(self, other):
        if not isinstance(other, SizePair):
            return NotImplemented
        if len(self._ids) != len(other._ids) or self._n_edges != other._n_edges:
            return False
        # moved[q] is the position in self of other's vertex q
        moved = []
        for vid, value in zip(other._ids, other._values):
            p = self._position.get(vid)
            if p is None or self._values[p] != value:
                return False
            moved.append(p)
        return all(
            set(self._adj[moved[q]]) == {moved[r] for r in ns} for q, ns in enumerate(other._adj)
        )

    def __repr__(self):
        return f"SizePair({self.n_vertices} vertices, {self.n_edges} edges)"


def _stripped_lines(text) -> List[str]:
    """Every line of ``text`` stripped, blank ones included: line k is at index k - 1.

    A ``str`` is split at ``\\n``, ``\\r\\n`` and ``\\r`` only, the line breaks that a
    file opened in text mode translates; any other iterable yields one line
    per item.
    """
    if isinstance(text, str):
        text = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return list(map(str.strip, text))


def _content_lines(text) -> Tuple[List[str], bool]:
    """``(lines, bare)``: the non-blank stripped lines of ``text``, and whether
    ``text`` is a ``str`` that holds no white space but line breaks.

    Bare text is split by one ``text.split()``, and neither its lines nor
    the fields between their commas need stripping.
    """
    # a space or a tab, as in padded files, rules out the split() below before it is made
    if isinstance(text, str) and " " not in text and "\t" not in text:
        lines = text.split()
        # split() drops every white space character: here, only the line breaks
        if sum(map(len, lines)) == len(text) - text.count("\n") - text.count("\r"):
            return lines, True
    return list(filter(None, _stripped_lines(text))), False


def _vertex_line_fault(lines: List[str]) -> None:
    """Raise the ParseError of the first malformed vertex line, if there is one."""
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        _, sep, value_text = line.rpartition(",")
        if not sep:
            raise ParseError(
                f"vertex line {number}: expected 'id,value', got {quoted(line)}", number)
        try:
            float(value_text)
        except ValueError:
            raise ParseError(
                f"vertex line {number}: could not parse value {quoted(value_text.strip())}", number
            ) from None


def _edge_line_fault(lines: List[str]) -> None:
    """Raise the ParseError of the first edge line without exactly one comma, if there is one."""
    for number, line in enumerate(lines, start=1):
        if line and line.count(",") != 1:
            raise ParseError(f"edge line {number}: expected 'u,v', got {quoted(line)}", number)


def _one_comma_each(lines: List[str]) -> Optional[List[str]]:
    """The fields of ``lines``, two per line in order, if every line holds exactly one comma."""
    fields = ",".join(lines).split(",") if lines else []
    # as many commas as lines, and one in every line: exactly one in each
    if len(fields) == 2 * len(lines) and all(map(contains, lines, repeat(","))):
        return fields
    return None


def _vertex_columns(text) -> Tuple[List[str], List[float]]:
    """The ids and values of the vertex lines of ``text``."""
    if not isinstance(text, str):
        text = _stripped_lines(text)  # an iterable is read once; the fault walk reads this again
    lines, bare = _content_lines(text)
    fields = _one_comma_each(lines)
    if fields is not None:
        ids, value_texts = fields[0::2], fields[1::2]
    else:  # a line without a comma, or an id that holds one
        ids, seps, value_texts = zip(*map(str.rpartition, lines, repeat(",")))
        if "" in seps:
            _vertex_line_fault(_stripped_lines(text))
        ids = list(ids)
    del lines, fields
    try:
        values = list(map(float, value_texts))
    except ValueError:
        _vertex_line_fault(_stripped_lines(text))
        raise
    return ids if bare else list(map(str.strip, ids)), values


def _edge_ends(text) -> List[str]:
    """The ends of the edge lines of ``text``, two per line, in order."""
    if not isinstance(text, str):
        text = _stripped_lines(text)  # an iterable is read once; the fault walk reads this again
    lines, bare = _content_lines(text)
    ends = _one_comma_each(lines)
    if ends is None:
        _edge_line_fault(_stripped_lines(text))
    del lines
    return ends if bare else list(map(str.strip, ends))


def parse_size_pair(vertex_text, edge_text) -> SizePair:
    """Parse the two-file format.

    Vertex lines read ``id,value`` (the split is on the last comma, so ids
    may contain commas; values are parsed as 64-bit floats).  Edge lines
    read ``u,v``.  A ``str`` breaks into lines only at ``\\n``, ``\\r\\n`` and
    ``\\r``; an iterable gives one line per item.  Lines are stripped and
    blank ones ignored.  Malformed lines raise :class:`ParseError` with the
    1-based number of the first of them; vertex lines are checked before
    edge lines, and both before the graph itself.
    """
    ids, values = _vertex_columns(vertex_text)
    sp = SizePair.__new__(SizePair)
    sp._build(ids, values, _edge_ends(edge_text))
    return sp


def load_size_pair(vertex_path, edge_path) -> SizePair:
    """Read a size pair from a vertex file and an edge file.

    A file that is not UTF-8 text raises ValueError naming its path.  A
    leading UTF-8 byte-order mark is skipped.
    """
    texts = []
    for path in (vertex_path, edge_path):
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                texts.append(fh.read())
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
    return parse_size_pair(*texts)


@dataclass(frozen=True)
class SublevelPartition:
    """The connected components of a sublevel graph at threshold ``y``."""

    y: object
    components: Tuple[frozenset, ...]

    @property
    def count(self) -> int:
        return len(self.components)

    def component_of(self, vid) -> Optional[frozenset]:
        for component in self.components:
            if vid in component:
                return component
        return None


def sublevel_components(sp: SizePair, y) -> SublevelPartition:
    """Components of the subgraph induced by vertices with value <= y.

    An edge belongs to the sublevel graph iff both endpoints do.  For y
    below the minimum value the partition is empty.  Components are listed
    in ``vertex_ids`` order of their first id.
    """
    active = {v for v in sp.vertex_ids if sp.value(v) <= y}
    components = []
    seen = set()
    for start in sp.vertex_ids:
        if start not in active or start in seen:
            continue
        seen.add(start)
        component = [start]
        stack = [start]
        while stack:
            for u in sp.neighbors(stack.pop()):
                if u in active and u not in seen:
                    seen.add(u)
                    component.append(u)
                    stack.append(u)
        components.append(frozenset(component))
    return SublevelPartition(y=y, components=tuple(components))


def reduced_size_function(sp: SizePair, x, y) -> int:
    """Number of components of the sublevel graph at ``y`` that reach value <= x.

    Defined for ``x < y`` only; 0 when x is below the minimum value, 1 once
    both arguments clear the maximum value (the graph is connected).
    """
    if not x < y:
        raise ValueError(f"reduced size function requires x < y, got x={x!r}, y={y!r}")
    partition = sublevel_components(sp, y)
    count = 0
    for component in partition.components:
        if any(sp.value(v) <= x for v in component):
            count += 1
    return count


class _UnionFind:
    """Union-find over the positions 0..n-1; each class is rooted at its smallest position.

    :func:`size_function_on_grid` numbers vertices in the order it sweeps
    them, so the root of a class is its oldest vertex.  Extraction keeps its
    own inlined copy, so this oracle shares no code with the sweep it checks.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, p: int) -> int:
        parent = self.parent
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]  # path halving
        return p

    def union(self, p: int, q: int) -> Optional[int]:
        """Merge the classes of p and q; return the root that stopped being one.

        Returns None when p and q already share a class.
        """
        p, q = self.find(p), self.find(q)
        if p == q:
            return None
        if q < p:
            p, q = q, p
        self.parent[q] = p
        return q


def size_function_on_grid(sp: SizePair, xs: Sequence, ys: Sequence) -> Dict[Tuple, int]:
    """Reduced size function on a grid, in one ascending sweep.

    Returns ``{(x, y): value}`` for every pair with ``x < y``.  Equals
    :func:`reduced_size_function` pointwise; it just avoids recomputing the
    sublevel partition per query.
    """
    xs_sorted = sorted(set(xs))
    ys_sorted = sorted(set(ys))
    order = sorted(sp.vertex_ids, key=sp.value)  # stable: ties keep vertex_ids order
    position = {v: p for p, v in enumerate(order)}
    uf = _UnionFind(len(order))
    roots = set()
    result: Dict[Tuple, int] = {}
    index = 0
    n = len(order)
    for y in ys_sorted:
        while index < n and sp.value(order[index]) <= y:
            roots.add(index)
            for u in sp.neighbors(order[index]):
                q = position[u]
                if q < index:
                    dead = uf.union(index, q)
                    if dead is not None:
                        roots.remove(dead)
            index += 1
        births = sorted(sp.value(order[root]) for root in roots)
        for x in xs_sorted:
            if x < y:
                result[(x, y)] = bisect_right(births, x)
    return result


def _min_gap(values: Sequence[Fraction]) -> Fraction:
    """Least positive gap between neighbours of sorted ``values``; 1 if there is none."""
    gaps = [b - a for a, b in zip(values, values[1:])]
    positive = [g for g in gaps if g > 0]
    if not positive:
        return Fraction(1)
    return min(positive)


def _quarter_gap_grid(values: Iterable) -> Tuple[Fraction, ...]:
    """Distinct values plus offsets of a quarter of the minimal gap."""
    base = sorted({as_fraction(v) for v in values})
    if not base:
        return ()
    step = _min_gap(base) / 4
    grid = set(base)
    for v in base:
        grid.add(v - step)
        grid.add(v + step)
    return tuple(sorted(grid))


def shifted_inequality_check(sp1: SizePair, sp2: SizePair, f: Mapping, h, grid=None) -> bool:
    """Check the shifted comparison of two size functions along an isomorphism.

    ``f`` must be a graph isomorphism from ``sp1`` onto ``sp2`` and ``h`` an
    upper bound for ``max |value1(v) - value2(f(v))|`` (both are validated;
    violations raise ``ValueError``).  The check itself evaluates
    ``l1(x - h, y + h) <= l2(x, y)`` at every grid point and returns whether
    all of them hold.  ``grid`` is an iterable of ``(x, y)`` pairs with
    ``x < y``; when omitted it defaults to all such pairs drawn from the
    critical values of both graphs plus/minus a quarter of the minimal gap.
    """
    ids1, ids2 = set(sp1.vertex_ids), set(sp2.vertex_ids)
    if set(f.keys()) != ids1 or set(f.values()) != ids2 or len(f) != len(ids2):
        raise ValueError("f is not a bijection between the vertex sets")
    if sp1.n_edges != sp2.n_edges:
        raise ValueError("f is not an isomorphism: edge counts differ")
    edges2 = {frozenset(e) for e in sp2.edges}
    for u, v in sp1.edges:
        if frozenset((f[u], f[v])) not in edges2:
            raise ValueError(f"f is not an isomorphism: edge ({u!r}, {v!r}) is not preserved")
    h = as_fraction(h)
    if h < 0:
        raise ValueError(f"h must be non-negative, got {h}")
    actual = max(abs(as_fraction(sp1.value(v)) - as_fraction(sp2.value(f[v]))) for v in ids1)
    if h < actual:
        raise ValueError(f"h={h} is below the sup-norm value distance {actual} along f")
    if grid is None:
        coords = _quarter_gap_grid(list(sp1.critical_values) + list(sp2.critical_values))
        pairs = [(x, y) for x in coords for y in coords if x < y]
    else:
        pairs = []
        for point in grid:
            try:
                x, y = point
            except (TypeError, ValueError):
                raise ValueError(f"grid entries must be (x, y) pairs, got {point!r}") from None
            x, y = as_fraction(x), as_fraction(y)
            if not x < y:
                raise ValueError(f"grid point ({x}, {y}) is outside the domain x < y")
            pairs.append((x, y))
    if not pairs:
        return True
    left = size_function_on_grid(sp1, [x - h for x, _ in pairs], [y + h for _, y in pairs])
    right = size_function_on_grid(sp2, [x for x, _ in pairs], [y for _, y in pairs])
    return all(left[(x - h, y + h)] <= right[(x, y)] for x, y in pairs)
