import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import keyed_text
from strongstab.topology import (
    InputError,
    TopologyError,
    build_topology,
    correct_diameter,
    distance_to_byzantine,
    load_topology,
    parse_topology_text,
    random_connected_graph_edges,
    random_tree_edges,
)


def test_smallest_path():
    t = build_topology([(0, 1), (1, 2)], root=0)
    assert t.n == 3
    assert t.max_degree == 2
    assert t.degree(1) == 2


def test_byzantine_leaf_keeps_correct_subgraph_connected():
    t = build_topology([(0, 1), (1, 2)], root=0, byzantine=[2], mode="ss-st")
    assert correct_diameter(t) == 1


@pytest.mark.parametrize(
    "edges, err",
    [
        ([(0, 1), (2, 3)], "disconnected"),
        ([(0, 0)], "self-loop"),
        ([(0, 1), (1, 0)], "duplicate"),
        ([(0, 2)], "dense"),
        ([], "empty"),
    ],
)
def test_rejects_malformed_graphs(edges, err):
    with pytest.raises(TopologyError, match=err):
        build_topology(edges)


def test_mode_validation():
    with pytest.raises(TopologyError, match="root must not be Byzantine"):
        build_topology([(0, 1)], root=0, byzantine=[0], mode="ss-st")
    with pytest.raises(TopologyError, match="disconnected in ss-st"):
        build_topology([(0, 1), (1, 2)], root=0, byzantine=[1], mode="ss-st")
    with pytest.raises(TopologyError, match="requires a tree"):
        build_topology([(0, 1), (1, 2), (0, 2)], mode="ss-to")
    with pytest.raises(TopologyError, match="rootless"):
        build_topology([(0, 1)], root=0, mode="ss-to")
    with pytest.raises(TopologyError, match="requires a root"):
        build_topology([(0, 1)], mode="ss-st")


def test_kth_neighbor_reads_stored_order():
    t = build_topology([(0, 1), (1, 2)], root=0, neighbor_seed=3)
    order = t.neighbor_order[1]
    assert sorted(order) == [0, 2]


def test_neighbor_orders_seeded_and_reproducible():
    a = build_topology(random_tree_edges(12, 4), neighbor_seed=1)
    b = build_topology(random_tree_edges(12, 4), neighbor_seed=1)
    c = build_topology(random_tree_edges(12, 4), neighbor_seed=2)
    assert a.neighbor_order == b.neighbor_order
    assert a.neighbor_order != c.neighbor_order  # overwhelmingly likely at n=12


def test_given_neighbor_order_rebuilds_the_same_slots():
    a = build_topology(random_tree_edges(12, 4), neighbor_seed=1)
    b = build_topology(random_tree_edges(12, 4), neighbor_seed=2, neighbor_order=a.neighbor_order)
    assert (b.neighbor_order, b.out_slot, b.in_slot) == (a.neighbor_order, a.out_slot, a.in_slot)
    bad = list(a.neighbor_order)
    bad[0] = bad[0] + bad[0][:1]
    with pytest.raises(TopologyError, match="neighbor order"):
        build_topology(random_tree_edges(12, 4), neighbor_order=bad)


def test_correct_diameter_examples():
    t = build_topology([(0, 1), (1, 2), (2, 3)], byzantine=[3])
    assert correct_diameter(t) == 2

    t = build_topology([(0, 1), (1, 2)], byzantine=[1])
    assert correct_diameter(t) is None

    t = build_topology([(0, 1)], byzantine=[0, 1])
    assert correct_diameter(t) is None

    star = build_topology([(0, i) for i in range(1, 5)])
    assert correct_diameter(star) == 2


def test_distance_to_byzantine_examples():
    path5 = [(i, i + 1) for i in range(4)]
    t = build_topology(path5, byzantine=[0])
    assert [distance_to_byzantine(t)[v] for v in range(5)] == [0, 1, 2, 3, 4]

    t = build_topology(path5)
    assert all(d == math.inf for d in distance_to_byzantine(t).values())

    t = build_topology([(0, 1), (1, 2)], byzantine=[0, 2])
    assert [distance_to_byzantine(t)[v] for v in range(3)] == [0, 1, 0]


def _all_pairs_diameter(t):
    # independent oracle: plain all-pairs BFS over the correct subgraph
    correct = sorted(t.correct)
    best = 0
    for src in correct:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for u in t.neighbor_order[v]:
                    if u in t.correct and u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        if len(dist) != len(correct):
            return None
        best = max(best, max(dist.values()))
    return best


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 10_000), extra=st.integers(0, 5))
def test_diameter_matches_all_pairs_bfs(n, seed, extra):
    t = build_topology(random_connected_graph_edges(n, extra, seed), neighbor_seed=seed)
    assert correct_diameter(t) == _all_pairs_diameter(t)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), seed=st.integers(0, 10_000), byz_seed=st.integers(0, 5))
def test_kth_neighbor_bijection_and_byz_distance(n, seed, byz_seed):
    import random as _r

    edges = random_tree_edges(n, seed)
    byz = _r.Random(byz_seed).sample(range(n), min(byz_seed, n - 1))
    t = build_topology(edges, byzantine=byz, neighbor_seed=seed)
    for v in range(t.n):
        hits = set(t.neighbor_order[v])
        assert hits == {a + b - v for a, b in edges if v in (a, b)}
        assert len(hits) == t.degree(v)
    dist = distance_to_byzantine(t)
    for v in range(t.n):
        assert (dist[v] == 0) == (v in t.byzantine)


def test_topology_file_parsing(tmp_path):
    text = """
# a commented path
n 4
root 0
byz 3
edge 0 1
edge 1 2
edge 2 3
"""
    parsed = parse_topology_text(text)
    assert parsed == {"n": 4, "root": 0, "byzantine": [3], "edges": [(0, 1), (1, 2), (2, 3)]}
    p = tmp_path / "path4.topo"
    p.write_text(text)
    t = load_topology(str(p), neighbor_seed=5, mode="ss-st")
    assert t.n == 4 and t.root == 0 and t.byzantine == {3}

    with pytest.raises(TopologyError, match="missing 'n'"):
        parse_topology_text("edge 0 1")
    with pytest.raises(TopologyError, match="unknown directive"):
        parse_topology_text("n 2\nfoo 1")
    (tmp_path / "bad.topo").write_text("n 5\nedge 0 1\n")
    with pytest.raises(TopologyError, match="header says n=5"):
        load_topology(str(tmp_path / "bad.topo"))
    with pytest.raises(TopologyError, match="topology line 3: duplicate 'n' \\(first on line 1\\)"):
        parse_topology_text("n 4\nedge 0 1\nn 3")
    with pytest.raises(TopologyError, match="topology line 2: wrong argument count for 'edge': takes 2, got 3"):
        parse_topology_text("n 2\nedge 0 1 7")
    with pytest.raises(TopologyError, match="topology line 2: 'root' needs an integer, got 'a'"):
        parse_topology_text("# header\nroot a\nn 2")
    with pytest.raises(TopologyError, match="process ids must be dense"):
        build_topology([(0, 10**12)])  # rejected without building the id range


def _render(t):
    lines = [f"n {t.n}"] + ([f"root {t.root}"] if t.root is not None else [])
    lines += [f"byz {' '.join(map(str, sorted(t.byzantine)))}"] + [f"edge {u} {v}" for u, v in t.edges]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), extra=st.integers(0, 4), seed=st.integers(0, 10_000), data=st.data())
def test_rendered_topology_parses_back(n, extra, seed, data):
    root = data.draw(st.none() | st.integers(0, n - 1))
    byz = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    t = build_topology(random_connected_graph_edges(n, extra, seed), root=root, byzantine=byz)
    parsed = parse_topology_text(_render(t))
    assert parsed == {"n": t.n, "root": root, "byzantine": sorted(byz), "edges": list(t.edges)}
    again = build_topology(parsed["edges"], root=parsed["root"], byzantine=parsed["byzantine"])
    assert (again.n, again.edges, again.root, again.byzantine) == (t.n, t.edges, t.root, t.byzantine)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    head=st.sampled_from(["", "n 3\nedge 0 1\nedge 1 2\n"]),
    text=keyed_text({"n": (1, 1), "root": (1, 1), "byz": (0, None), "edge": (2, 2)}),
)
def test_topology_reader_parses_or_raises_input_error(tmp_path, head, text):
    path = tmp_path / "fuzz.topo"
    path.write_text(head + text, encoding="utf-8")
    try:
        load_topology(str(path), mode="ss-st")
    except InputError:
        pass
