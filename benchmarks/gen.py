"""Seeded input generators for the benchmark workloads.

Every file is a function of (workload, seed) alone: the same seed gives
byte-identical files.  Sizes follow a fixed schedule per workload (see
``WORKLOADS``); the seed only moves structure and values, so run-to-run
figures compare like with like.  The program under test sees nothing but
the files written here.

A job is one ``sizematch.cli.main(argv)`` call.  ``write_workload`` returns
the jobs of one pass in order; a later job may read an earlier job's output
(``graph-compare`` feeds the two ``diagram`` outputs into ``dist``).
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

RESOLUTION = 1024  # graph values are multiples of 2**-10, so many tie
GRID = 64  # diagram coordinates are multiples of 1/64

# Generator parameters, one entry per workload.  They are written into every
# result so a figure can always be traced back to its inputs.  Sizes are
# spread evenly, so that per-job times form a smooth distribution whose
# median and tail move little from seed to seed, and small enough that every
# job runs several times in one run.
WORKLOADS: Dict[str, dict] = {
    "graph-compare": {
        "why": "core parse/build and diagram extraction do almost all of the work; "
        "matching of the <=~25-point diagrams is negligible",
        "loop": "closed, 1 client",
        # (graph kind, vertices) of each pair: diagram, diagram, then dist
        "pairs": [("grid", 12000), ("tree", 16000), ("grid", 16000), ("tree", 20000)],
        "wells": 24,
        "extra_edge_share": 0.01,
        "value_resolution": "2^-10",
    },
    "diagram-dist": {
        "why": "matching does ~all of the work and nothing is extracted; "
        "the share with multiplicities >=2 exposes a change that hurts ties",
        "loop": "closed, 1 client",
        "points": list(range(30, 45)) * 2,
        "multiplicity_every": 3,  # every third pair carries multiplicities 2-3
        "coordinate_grid": "1/64",
    },
    "bound-chain": {
        "why": "bounds.earlier_bound does most of the work; matching and extraction do a little; "
        "every sixth pair is small enough for the exact search",
        "loop": "closed, 1 client",
        # (vertices, cornerpoints of the first graph); the count is drawn to order
        # because earlier_bound's cost follows it steeply
        "pairs": [pair for low in range(50, 100, 10)
                  for pair in [(n, n // 3) for n in range(low, low + 10, 2)] + [(9, None)]],
        "exact_cap": 9,
        "jitter": "<=1/16",
        "value_resolution": "2^-10",
    },
    "realize-cli": {
        "why": "realize construction, discretize, max_field_gap and four extractions per job "
        "on Fraction-valued plateau-heavy grids",
        "loop": "closed, 1 client",
        # the second diagram of a pair is the first with every coordinate moved
        # by at most 4/64, as a small perturbation of a shape moves it
        "points": list(range(8, 14)) * 2,
        "min_persistence_steps": 16,  # of 1/64; above twice the perturbation, so
        "perturbation_steps": 4,  # every point is matched to its own copy
        "coordinate_grid": "1/64",
    },
}


# ------------------------------------------------------------------ graphs


def _quantize(value: float) -> float:
    return round(value * RESOLUTION) / RESOLUTION


def _write_graph(directory: str, stem: str, values: List[float], edges) -> Tuple[str, str]:
    vertex_path = os.path.join(directory, f"{stem}.v.csv")
    edge_path = os.path.join(directory, f"{stem}.e.csv")
    with open(vertex_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"v{i},{value!r}\n" for i, value in enumerate(values)))
    with open(edge_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"v{a},v{b}\n" for a, b in edges))
    return vertex_path, edge_path


def _well_field(rng: random.Random, width: int, height: int, wells: int) -> List[float]:
    """Multi-well height field on a width x height lattice, capped at 4, on 2**-10 steps.

    Each well is a paraboloid ``depth + r**2 / spread**2``; the field is their
    pointwise minimum, so every well that is not covered by another one
    becomes a basin of its own.
    """
    centers = [
        (
            rng.uniform(0, width),
            rng.uniform(0, height),
            rng.uniform(0.0, 1.0),
            rng.uniform(0.08, 0.2) * max(width, height),
        )
        for _ in range(wells)
    ]
    cols = range(width)
    cap = [4.0] * width
    values: List[float] = []
    for row in range(height):
        rows = [cap]
        for cx, cy, depth, spread in centers:
            inv = 1.0 / (spread * spread)
            base = depth + (row - cy) ** 2 * inv
            if base < 4.0:  # wells whose whole row lies above the cap change nothing
                rows.append([base + (col - cx) ** 2 * inv for col in cols])
        values.extend(_quantize(v) for v in (map(min, *rows) if len(rows) > 1 else cap))
    return values


def _grid_edges(width: int, height: int) -> List[Tuple[int, int]]:
    edges = []
    for row in range(height):
        base = row * width
        for col in range(width):
            v = base + col
            if col + 1 < width:
                edges.append((v, v + 1))
            if row + 1 < height:
                edges.append((v, v + width))
    return edges


def _tree_edges(rng, values, grid_edges, extra_share) -> List[Tuple[int, int]]:
    """Sparse spanning tree of the lattice that keeps the height field's basins.

    Each vertex links to its lowest lattice neighbour below it (in (value,
    index) order), the basins are joined across their lowest saddles, and a
    small share of the remaining lattice edges is added back.
    """
    n = len(values)
    rank = [0] * n
    for position, v in enumerate(sorted(range(n), key=values.__getitem__)):
        rank[v] = position  # the sort is stable, so ties fall back to the index
    lowest = list(range(n))
    for a, b in grid_edges:
        if rank[b] < rank[lowest[a]]:
            lowest[a] = b
        if rank[a] < rank[lowest[b]]:
            lowest[b] = a
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for v in range(n):
        if lowest[v] != v:
            tree.append((lowest[v], v))
            parent[find(v)] = find(lowest[v])
    rest = []
    for a, b in sorted(grid_edges, key=lambda e: max(rank[e[0]], rank[e[1]])):
        if lowest[a] == b or lowest[b] == a:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
        else:
            rest.append((a, b))
    tree.extend(rng.sample(rest, int(extra_share * n)))
    return tree


def _well_graph(rng, kind: str, vertices: int, params: dict):
    width = int(vertices ** 0.5)
    height = vertices // width
    values = _well_field(rng, width, height, params["wells"])
    edges = _grid_edges(width, height)
    if kind == "tree":
        edges = _tree_edges(rng, values, edges, params["extra_edge_share"])
    return values, edges


def _sparse_graph(rng: random.Random, n: int):
    """Random recursive tree plus n/10 extra edges, values on 2**-10 steps in [0, 2)."""
    values = [rng.randrange(2 * RESOLUTION) / RESOLUTION for _ in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    for _ in range(n // 10):
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            edges.append((a, b))
    return values, edges


def _isomorphic_copy(rng: random.Random, values, edges):
    """Relabelled copy with every value moved by at most 1/16 (64 steps of 2**-10)."""
    n = len(values)
    image = list(range(n))
    rng.shuffle(image)
    moved = [0.0] * n
    largest = 0
    for v in range(n):
        step = rng.randint(-64, 64)
        largest = max(largest, abs(step))
        moved[image[v]] = values[v] + step / RESOLUTION
    return moved, [(image[a], image[b]) for a, b in edges], largest / RESOLUTION


def cornerpoints(values: List[float], edges) -> dict:
    """Diagram JSON of a graph by a plain float elder-rule union-find sweep.

    Independent of sizematch: the benchmark uses it to draw graphs with a
    given number of cornerpoints and to check ``diagram`` outputs.  The
    multiset of pairs does not depend on how ties are ordered.
    """
    adjacency: List[List[int]] = [[] for _ in values]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    order = sorted(range(len(values)), key=values.__getitem__)
    position = [0] * len(values)
    for rank, v in enumerate(order):
        position[v] = rank
    parent = list(range(len(values)))
    birth = list(values)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pairs: Dict[Tuple[float, float], int] = {}
    for v in order:
        for u in adjacency[v]:
            if position[u] > position[v]:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            young, old = (ru, rv) if birth[ru] >= birth[rv] else (rv, ru)
            if values[v] > birth[young]:
                key = (birth[young], values[v])
                pairs[key] = pairs.get(key, 0) + 1
            parent[young] = old
    return {
        "infinity_x": values[order[0]],
        "points": [[x, y, m] for (x, y), m in sorted(pairs.items())],
    }


# ---------------------------------------------------------------- diagrams


def _diagram(rng: random.Random, points: int, with_multiplicity: bool, min_steps: int = 1) -> dict:
    """Localized diagram JSON with ``points`` points counted with multiplicity.

    Persistences are at least ``min_steps``/64 and at most 4.
    """
    rows = []
    total = 0
    while total < points:
        mult = min(rng.randint(2, 3), points - total) if with_multiplicity and rng.random() < 0.3 else 1
        x = rng.randint(0, 10 * GRID) / GRID
        y = x + rng.randint(min_steps, 4 * GRID) / GRID
        rows.append([x, y, mult])
        total += mult
    infinity_x = min(row[0] for row in rows) - rng.randint(0, GRID) / GRID
    return {"infinity_x": infinity_x, "points": rows}


def _nearby(rng: random.Random, diagram: dict, steps: int) -> dict:
    """Copy of a diagram with every coordinate moved by at most ``steps``/64, kept localized."""
    rows = []
    for x, y, mult in diagram["points"]:
        moved_x = max(x + rng.randint(-steps, steps) / GRID, diagram["infinity_x"])
        rows.append([moved_x, y + rng.randint(-steps, steps) / GRID, mult])
    return {"infinity_x": diagram["infinity_x"], "points": rows}


def _write_diagram(directory: str, stem: str, data: dict) -> str:
    path = os.path.join(directory, f"{stem}.json")
    rows = ", ".join(f"[{x!r}, {y!r}, {m}]" for x, y, m in data["points"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"infinity_x": {data["infinity_x"]!r}, "points": [{rows}]}}\n')
    return path


# -------------------------------------------------------------------- jobs


def write_workload(name: str, seed: int, directory: str) -> List[dict]:
    """Write the input files of one pass into ``directory`` and return its jobs.

    A job is ``{"key", "kind", "args", "inputs", ...}``: ``args`` is the CLI
    argument list without ``--output``, where ``@key`` stands for the output
    of the earlier job ``key`` of the same pass; ``inputs`` lists the files
    read; ``bound`` jobs also carry the facts their check needs.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    params = WORKLOADS[name]
    rng = random.Random(f"sizematch-bench:{name}:{seed}")
    os.makedirs(directory, exist_ok=True)
    jobs: List[dict] = []

    def job(key, kind, args, inputs, **facts):
        jobs.append({"key": key, "kind": kind, "args": args, "inputs": inputs, **facts})

    if name == "graph-compare":
        for kind, size in params["pairs"]:
            stem = f"{kind}{size}"
            files = []
            for side in "ab":
                values, edges = _well_graph(rng, kind, size, params)
                files.append(_write_graph(directory, f"{stem}{side}", values, edges))
            job(f"{stem}a", "diagram", ["diagram", *files[0]], list(files[0]))
            job(f"{stem}b", "diagram", ["diagram", *files[1]], list(files[1]))
            job(stem, "dist", ["dist", f"@{stem}a", f"@{stem}b", "--witness"], [])
    elif name == "diagram-dist":
        for index, points in enumerate(params["points"]):
            ties = index % params["multiplicity_every"] == params["multiplicity_every"] - 1
            stem = f"d{index}p{points}" + ("m" if ties else "")
            files = [
                _write_diagram(directory, f"{stem}{side}", _diagram(rng, points, ties))
                for side in "ab"
            ]
            job(stem, "dist", ["dist", *files, "--witness"], files)
    elif name == "bound-chain":
        cap = params["exact_cap"]
        for index, (size, points) in enumerate(params["pairs"]):
            stem = f"b{index}n{size}"
            while True:
                values, edges = _sparse_graph(rng, size)
                found = sum(m for _, _, m in cornerpoints(values, edges)["points"])
                if points is None or found == points:
                    break
            first = _write_graph(directory, f"{stem}a", values, edges)
            moved, moved_edges, max_change = _isomorphic_copy(rng, values, edges)
            second = _write_graph(directory, f"{stem}b", moved, moved_edges)
            args = ["bound", *first, *second, "--cap", str(cap)]
            job(stem, "bound", args, [*first, *second], vertices=size, cap=cap, max_change=max_change)
    else:
        for index, points in enumerate(params["points"]):
            stem = f"r{index}p{points}"
            first = _diagram(rng, points, False, min_steps=params["min_persistence_steps"])
            files = [
                _write_diagram(directory, f"{stem}a", first),
                _write_diagram(directory, f"{stem}b", _nearby(rng, first, params["perturbation_steps"])),
            ]
            job(stem, "realize", ["realize", *files], files)
    return jobs
