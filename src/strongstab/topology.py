"""System graphs with local neighbor numbering, roots and Byzantine subsets.

Processes are anonymous: the integer ids used here are simulator bookkeeping
only and are never exposed to protocol guards or actions (those see a
``LocalView`` built by the engine). Each process orders its neighbors in a
seeded-random local order; position ``k`` (1-based) in that order is the only
way a protocol can refer to a neighbor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Optional, Sequence


class InputError(ValueError):
    """Malformed input from outside the program: the CLI reports it as one
    `error:` line and exits 2."""


class TopologyError(InputError):
    """Raised for malformed graphs or graphs invalid for a protocol mode."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable system graph.

    ``neighbor_order[v]`` is a permutation of v's adjacency set; its k-th
    entry (1-based k) is the neighbor a protocol sees at position k.
    Register slots index the flat tuple of directed link registers kept in
    every Configuration: slot of (v, u) holds the register written by v and
    read by u. Each process's out-registers occupy consecutive slots, in
    its neighbor order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbor_order: tuple[tuple[int, ...], ...]
    root: Optional[int]
    byzantine: frozenset[int]
    # derived lookup tables, filled in by build_topology
    neighbor_pos: tuple[dict[int, int], ...] = field(repr=False, default=())
    out_slot: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    in_slot: tuple[tuple[int, ...], ...] = field(repr=False, default=())
    num_registers: int = 0

    def degree(self, v: int) -> int:
        return len(self.neighbor_order[v])

    @property
    def max_degree(self) -> int:
        return max(len(order) for order in self.neighbor_order)

    @cached_property
    def correct(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.byzantine

    @cached_property
    def register_access(self) -> tuple[tuple[int, Callable, slice], ...]:
        """Per process: its degree, a function that reads its in-registers
        from a configuration's register tuple, and the slice that holds its
        out-registers, both in neighbor order. Built on first use, so
        topologies that never run pay nothing."""
        return tuple(
            (len(slots), _in_getter(self.in_slot[v]), slice(slots[0], slots[-1] + 1))
            for v, slots in enumerate(self.out_slot)
        )

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


def _in_getter(slots: tuple[int, ...]) -> Callable:
    # itemgetter returns a bare item for one index; a one-wide slice keeps a tuple
    return itemgetter(*slots) if len(slots) > 1 else itemgetter(slice(slots[0], slots[0] + 1))


def build_topology(
    edge_list: Iterable[tuple[int, int]],
    root: Optional[int] = None,
    byzantine: Iterable[int] = (),
    neighbor_seed: int = 0,
    mode: Optional[str] = None,
    neighbor_order: Optional[Sequence[Sequence[int]]] = None,
) -> Topology:
    """Validate a graph and derive per-process neighbor orders.

    ``mode`` is None, ``"ss-st"`` (rooted, general graph, correct subgraph
    must stay connected) or ``"ss-to"`` (tree, no root). Neighbor orders are
    seeded-random permutations so nothing downstream can rely on a canonical
    adjacency order; a given ``neighbor_order`` (one permutation of each
    process's neighbors, as stored in a trace file) replaces the draw.
    """
    edges = []
    seen = set()
    for u, v in edge_list:
        if u == v:
            raise TopologyError(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise TopologyError(f"duplicate edge {key}")
        seen.add(key)
        edges.append(key)
    if not edges:
        raise TopologyError("empty edge list")

    ids = {w for e in edges for w in e}
    n = max(ids) + 1
    if min(ids) != 0 or len(ids) != n:  # dense without building range(n): ids come from files
        raise TopologyError("process ids must be dense in 0..n-1")

    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    if len(_bfs_dist(adjacency, [0])) != n:
        raise TopologyError("graph is disconnected")

    byz = frozenset(byzantine)
    for b in byz:
        if not 0 <= b < n:
            raise TopologyError(f"byzantine id {b} out of range")
    if root is not None and not 0 <= root < n:
        raise TopologyError(f"root id {root} out of range")

    if neighbor_order is None:
        rng = random.Random(neighbor_seed)
        order = []
        for v in range(n):
            local = sorted(adjacency[v])
            rng.shuffle(local)
            order.append(tuple(local))
    else:
        order = [tuple(o) for o in neighbor_order]
        if len(order) != n or any(sorted(order[v]) != sorted(adjacency[v]) for v in range(n)):
            raise TopologyError("neighbor order is not a permutation of each process's neighbors")

    neighbor_pos = tuple({u: k + 1 for k, u in enumerate(order[v])} for v in range(n))

    slot_of: dict[tuple[int, int], int] = {}
    for v in range(n):
        for u in order[v]:
            slot_of[(v, u)] = len(slot_of)
    out_slot = tuple(tuple(slot_of[(v, u)] for u in order[v]) for v in range(n))
    in_slot = tuple(tuple(slot_of[(u, v)] for u in order[v]) for v in range(n))

    topo = Topology(
        n=n,
        edges=tuple(sorted(edges)),
        neighbor_order=tuple(order),
        root=root,
        byzantine=byz,
        neighbor_pos=neighbor_pos,
        out_slot=out_slot,
        in_slot=in_slot,
        num_registers=len(slot_of),
    )
    if mode is not None:
        validate_mode(topo, mode)
    return topo


def validate_mode(t: Topology, mode: str) -> None:
    """Check the mode-specific structural requirements."""
    if mode == "ss-st":
        if t.root is None:
            raise TopologyError("ss-st requires a root process")
        if t.root in t.byzantine:
            raise TopologyError("root must not be Byzantine in ss-st mode")
        if len(_bfs_dist(_correct_adjacency(t), [t.root])) != len(t.correct):
            raise TopologyError("correct subgraph is disconnected in ss-st mode")
    elif mode == "ss-to":
        if not t.is_tree():
            raise TopologyError("ss-to requires a tree")
        if t.root is not None:
            raise TopologyError("ss-to is rootless")
    else:
        raise TopologyError(f"unknown mode {mode!r}")


def correct_diameter(t: Topology) -> Optional[int]:
    """BFS diameter of the correct-process subgraph; None when it is disconnected or empty."""
    correct = sorted(t.correct)
    if not correct:
        return None
    adjacency = _correct_adjacency(t)
    diameter = 0
    for v in correct:
        dist = _bfs_dist(adjacency, [v])
        if len(dist) != len(correct):
            return None
        diameter = max(diameter, max(dist.values()))
    return diameter


def _correct_adjacency(t: Topology) -> dict[int, list[int]]:
    """Each correct process's correct neighbors."""
    return {v: [u for u in t.neighbor_order[v] if u not in t.byzantine] for v in t.correct}


def distance_to_byzantine(t: Topology) -> dict[int, float]:
    """Multi-source BFS hop distance from the Byzantine set; inf when none."""
    if not t.byzantine:
        return {v: math.inf for v in range(t.n)}
    adjacency = {v: list(t.neighbor_order[v]) for v in range(t.n)}
    dist = _bfs_dist(adjacency, sorted(t.byzantine))
    return {v: dist.get(v, math.inf) for v in range(t.n)}


def _bfs_dist(adjacency: Sequence[Iterable[int]] | dict[int, list[int]], sources: list[int]) -> dict[int, int]:
    """Hop distance from the nearest source to every process it reaches;
    ``adjacency`` needs an entry for each of them."""
    dist = {s: 0 for s in sources}
    frontier = list(sources)
    while frontier:
        nxt = []
        for v in frontier:
            for u in adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# the line format shared by topology, scenario, sweep and init files:
# `key arg...` per line, '#' starts a comment, blank lines are skipped

class Line(NamedTuple):
    """One `key arg...` line of an input file of the given kind."""

    kind: str
    number: int
    key: str
    args: list[str]
    error: type

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.kind} line {self.number}: {message}")

    def integers(self) -> list[int]:
        """Every argument as an integer."""
        out = []
        for arg in self.args:
            try:
                out.append(int(arg))
            except ValueError:
                self.fail(f"{self.key!r} needs an integer, got {arg!r}")
        return out


def parse_lines(text: str, kind: str, arity: dict, error: type, repeatable: Iterable[str] = ()) -> list[Line]:
    """Split input text into its `key arg...` lines, in file order.

    ``arity`` maps each key the file kind knows to the fewest and the most
    arguments it takes (None: no upper limit). A key outside ``arity``, a
    second line with a key not in ``repeatable``, and a wrong argument count
    raise ``error`` naming the line.
    """
    lines: list[Line] = []
    first: dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        line = Line(kind, number, words[0], words[1:], error)
        if line.key not in arity:
            line.fail(f"unknown directive {line.key!r}")
        if line.key in first and line.key not in repeatable:
            line.fail(f"duplicate {line.key!r} (first on line {first[line.key]})")
        low, high = arity[line.key]
        if len(line.args) < low or (high is not None and len(line.args) > high):
            takes = f"{low}" if high == low else f"at least {low}" if high is None else f"{low} to {high}"
            line.fail(f"wrong argument count for {line.key!r}: takes {takes}, got {len(line.args)}")
        first.setdefault(line.key, number)
        lines.append(line)
    return lines


def read_text(path: str | Path) -> str:
    """An input file's text; one that is not UTF-8 is an InputError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# topology files: `n <count>` header, optional `root <id>` / `byz <id> ...`,
# one `edge <u> <v>` per line

_TOPOLOGY_ARITY = {"n": (1, 1), "root": (1, 1), "byz": (0, None), "edge": (2, 2)}


def parse_topology_text(text: str) -> dict:
    parsed: dict = {"n": None, "root": None, "byzantine": [], "edges": []}
    for line in parse_lines(text, "topology", _TOPOLOGY_ARITY, TopologyError, repeatable=("byz", "edge")):
        ids = line.integers()
        if line.key == "byz":
            parsed["byzantine"].extend(ids)
        elif line.key == "edge":
            parsed["edges"].append(tuple(ids))
        else:
            parsed[line.key] = ids[0]
    if parsed["n"] is None:
        raise TopologyError("missing 'n' header")
    return parsed


def load_topology(path: str, neighbor_seed: int = 0, mode: Optional[str] = None) -> Topology:
    parsed = parse_topology_text(read_text(path))
    topo = build_topology(
        parsed["edges"],
        root=parsed["root"],
        byzantine=parsed["byzantine"],
        neighbor_seed=neighbor_seed,
        mode=mode,
    )
    if topo.n != parsed["n"]:
        raise TopologyError(f"header says n={parsed['n']} but edges span {topo.n} processes")
    return topo


# ---------------------------------------------------------------------------
# seeded generators used by sweeps and tests

def random_tree_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Uniform-ish random tree by random attachment over a shuffled order."""
    if n < 2:
        raise TopologyError("need at least 2 processes")
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = []
    for i in range(1, n):
        edges.append((nodes[i], nodes[rng.randrange(i)]))
    return edges


def random_connected_graph_edges(n: int, extra: int, seed: int) -> list[tuple[int, int]]:
    """Random tree plus `extra` distinct non-tree edges."""
    rng = random.Random(seed)
    edges = set(tuple(sorted(e)) for e in random_tree_edges(n, seed))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra])
    return sorted(edges)
