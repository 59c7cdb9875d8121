import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_edges, quick_run, random_st_topology, st_topology, to_topology

from strongstab import analysis
from strongstab.analysis import (
    OracleCapError,
    Stability,
    StabilityChecker,
    brute_force_verify,
    c_correct_set,
    count_o_changes,
    find_disruptions,
    is_c_legitimate,
    is_c_stable,
    render_report,
    verify_containment,
)
from strongstab.engine import ByzWrite, Configuration, ProcessState, RegisterValue, apply_effects, consistent_registers
from strongstab.spanning_tree import SS_ST, spec_st
from strongstab.spanning_tree import legitimate_configuration as st_legit
from strongstab.tree_orientation import SS_TO, spec_to
from strongstab.tree_orientation import legitimate_configuration as to_legit
from strongstab.topology import build_topology


def test_c_correct_set_examples():
    path5 = build_topology(path_edges(5), byzantine=[0])
    assert c_correct_set(path5, 1) == {2, 3, 4}
    assert c_correct_set(path5, 0) == {1, 2, 3, 4}
    fault_free = build_topology(path_edges(5))
    assert c_correct_set(fault_free, 3) == set(range(5))


def test_all_byzantine_makes_legitimacy_vacuous():
    t = build_topology(path_edges(3), root=0, byzantine=[0, 1, 2])
    cfg = Configuration(
        tuple(ProcessState(0, i) for i in range(3)),
        tuple(RegisterValue(False, 0) for _ in range(t.num_registers)),
    )
    assert is_c_legitimate(cfg, t, 0, spec_st)


def test_unoriented_pair_is_illegitimate():
    t = to_topology(2)
    states = [ProcessState(1, 4), ProcessState(1, 4)]
    # both claim the other as parent -> legitimate; flip one register story:
    cfg = Configuration(tuple(states), consistent_registers(t, states))
    assert is_c_legitimate(cfg, t, 0, spec_to)
    # now neither points at the other (impossible on a 2-path, so use 3)
    t3 = to_topology(3, seed=1)
    pos = t3.neighbor_pos
    bad = [ProcessState(pos[0][1], 4), ProcessState(pos[1][0], 4), ProcessState(pos[2][1], 4)]
    bad[1] = ProcessState(pos[1][0], 4)
    cfg = Configuration(tuple(bad), consistent_registers(t3, bad))
    assert not spec_to(2, cfg, t3) or is_c_legitimate(cfg, t3, 0, spec_to)


def test_stability_fast_path_and_one_step_search():
    t = st_topology(4, byz=(3,), edges=path_edges(4), seed=2)
    cfg = st_legit(t, 3)
    assert is_c_stable(cfg, t, 0, SS_ST) is Stability.STABLE

    t0 = to_topology(4, seed=1)
    cfg = to_legit(t0, 2, kind="lc0")
    assert is_c_stable(cfg, t0, 0, SS_TO) is Stability.STABLE

    # a pending tie-break move is an O-variable change one step away
    pos = t0.neighbor_pos
    states = [
        ProcessState(pos[0][1], 4),
        ProcessState(pos[1][0], 4),
        ProcessState(pos[2][1], 4),
        ProcessState(pos[3][2], 4),
    ]
    states[2] = ProcessState(pos[2][3], 4)  # edge 1-2 unoriented
    cfg = Configuration(tuple(states), consistent_registers(t0, states))
    assert is_c_stable(cfg, t0, 0, SS_TO) is Stability.UNSTABLE


def test_stability_budget_exhaustion_reports_unknown():
    t = st_topology(6, byz=(5,), edges=path_edges(6), seed=2)
    from strongstab.engine import arbitrary_configuration

    cfg = arbitrary_configuration(t, SS_ST, 3)
    checker = StabilityChecker(t, SS_ST, 0, budget=0)
    verdict = checker.check(cfg)
    assert verdict in (Stability.UNKNOWN, Stability.UNSTABLE)


def test_trace_that_never_leaves_legitimacy_has_no_disruptions():
    t = st_topology(4, edges=path_edges(4), seed=1)
    trace, _ = quick_run(t, SS_ST, init=st_legit(t, 2))
    scan = find_disruptions(trace, t, 0, SS_ST)
    assert scan.records == [] and not scan.never_stabilized


def test_single_flip_yields_one_record_with_counts():
    t = st_topology(3, byz=(2,), seed=1)
    oracle = brute_force_verify(t, SS_ST, "worst-disruptions", level_bound=3)
    from strongstab.adversary import make_adversary
    from strongstab.engine import Daemon, StopCondition, run

    adv = make_adversary("max-damage", {"level_bound": 3}, 0, t, SS_ST)
    daemon = Daemon(kind="central", fairness_bound=100_000, rng_seed=1, hostile=True)
    trace = run(t, SS_ST, adv, daemon, oracle.best_anchor, StopCondition(max_steps=100))
    scan = find_disruptions(trace, t, 0, SS_ST)
    assert len(scan.records) == oracle.worst_disruptions == 1
    rec = scan.records[0]
    assert rec.start_index < rec.end_index
    assert sum(rec.o_var_changes.values()) >= 1


def test_windows_do_not_overlap_and_each_contains_a_change():
    t = random_st_topology(6, 1, 31, extra=1)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 6},
        init=st_legit(t, 1), daemon_seed=3, adversary_seed=4, max_steps=1500,
    )
    scan = find_disruptions(trace, t, 0, SS_ST)
    prev_end = -1
    for rec in scan.records:
        assert rec.start_index >= prev_end
        assert rec.end_index > rec.start_index
        assert sum(rec.o_var_changes.values()) >= 1
        prev_end = rec.end_index


def test_radius_monotonicity():
    t = build_topology(path_edges(6), root=0, byzantine=[5], neighbor_seed=2, mode="ss-st")
    assert c_correct_set(t, 2) <= c_correct_set(t, 1) <= c_correct_set(t, 0)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 4},
        init=st_legit(t, 4), daemon_seed=5, adversary_seed=6, max_steps=900,
    )
    spec = SS_ST.spec
    check0 = StabilityChecker(t, SS_ST, 0)
    check2 = StabilityChecker(t, SS_ST, 2)
    for cfg in trace.configs[:: max(1, len(trace.configs) // 40)]:
        anchored0 = is_c_legitimate(cfg, t, 0, spec) and check0.check(cfg) is Stability.STABLE
        anchored2 = is_c_legitimate(cfg, t, 2, spec) and check2.check(cfg) is Stability.STABLE
        if anchored0:
            assert anchored2  # wider radius watches fewer processes


def test_report_checks_total_against_n_times_per_process():
    t = st_topology(3, byz=(2,), seed=1)
    trace, _ = quick_run(
        t, SS_ST, "oscillate", {"period": 1, "cycles": 3},
        init=st_legit(t, 1), daemon_seed=2, adversary_seed=3, max_steps=400,
    )
    report = verify_containment(trace, t, SS_ST, 0, {"st_disruptions": (2, "max")})
    prop = report.bounds_checked["prop_total_le_n_times_k"]
    assert prop.passed and report.t_observed <= t.n * report.k_observed + 0
    text = render_report(report)
    assert text == render_report(report)  # stable rendering
    assert "prop_total_le_n_times_k" in text


def test_never_stabilized_flag():
    # byzantine parent keeps the whole 1-node 'correct side' forever deceived?
    # simplest: run an orientation pair from garbage with zero budget so no
    # anchor is ever certified
    t = to_topology(2)
    from strongstab.engine import arbitrary_configuration

    trace, _ = quick_run(t, SS_TO, init_seed=9, max_steps=5)
    scan = find_disruptions(trace, t, 0, SS_TO, budget=0)
    # with no certified stability the scan reports never_stabilized rather
    # than inventing windows
    if scan.never_stabilized:
        assert scan.records == []


def test_oracle_two_node_orientation_converges_everywhere():
    t = to_topology(2)
    result = brute_force_verify(t, SS_TO, "converges-to", level_bound=4)
    assert result.converges is True
    assert not result.diverged_by_cycle
    assert result.states_explored == 2500  # 25 state pairs x 100 register pairs


def test_oracle_worst_disruptions_three_node_construction():
    # golden values minted by this oracle: one deception is the exact worst
    # case on the 3-path with a Byzantine leaf, within bounds f*D^d=2, D^d=2
    t = st_topology(3, byz=(2,), seed=1)
    result = brute_force_verify(t, SS_ST, "worst-disruptions", level_bound=3)
    assert not result.unbounded
    assert result.worst_disruptions == 1 <= 2
    assert result.worst_per_process == 1 <= 2


def test_oracle_worst_disruptions_three_node_orientation():
    t = to_topology(3, byz=(2,), seed=1)
    result = brute_force_verify(t, SS_TO, "worst-disruptions", level_bound=3)
    assert not result.unbounded
    assert result.worst_disruptions <= t.degree(2) == 1
    assert result.worst_per_process <= 1


def test_oracle_caps():
    big = build_topology(path_edges(10), root=0, mode="ss-st")
    with pytest.raises(OracleCapError, match="cap"):
        brute_force_verify(big, SS_ST, "worst-disruptions", level_bound=2)
    t = st_topology(3)
    with pytest.raises(OracleCapError):
        brute_force_verify(t, SS_ST, "converges-to", level_bound=6, state_cap=100)


# --- fast paths against the exhaustive ones, on small instances --------------

def _small_instances():
    """Paths and stars with n <= 5 for both protocols: fault-free, and with
    one Byzantine process at a leaf, and (ss-to) at an inner process."""
    paths = [(f"path{n}", path_edges(n), 1) for n in (3, 4, 5)]
    stars = [(f"star{n}", [(0, i) for i in range(1, n)], 0) for n in (4, 5)]
    for name, edges, inner in paths + stars:
        n = len(edges) + 1
        yield pytest.param(SS_ST, st_topology(edges=edges, seed=n), id=f"ss-st-{name}")
        yield pytest.param(SS_ST, st_topology(byz=(n - 1,), edges=edges, seed=n), id=f"ss-st-{name}-byz-leaf")
        yield pytest.param(SS_TO, to_topology(edges=edges, seed=n), id=f"ss-to-{name}")
        yield pytest.param(SS_TO, to_topology(byz=(n - 1,), edges=edges, seed=n), id=f"ss-to-{name}-byz-leaf")
        yield pytest.param(SS_TO, to_topology(byz=(inner,), edges=edges, seed=n), id=f"ss-to-{name}-byz-inner")


@pytest.mark.parametrize("protocol,topo", _small_instances())
def test_fast_stable_implies_exhaustive_search_stable(protocol, topo):
    kinds = ["lc1", "lc2"] if protocol is SS_TO and topo.byzantine else [None]
    adversary = "level-inflation" if protocol is SS_TO else "oscillate"
    configs = {}
    for seed in range(4):
        for kind in kinds:
            init = protocol.legitimate_configuration(topo, seed, kind)
            trace, _ = quick_run(topo, protocol, adversary, init=init, daemon_seed=seed, adversary_seed=seed, max_steps=40)
            configs.update(dict.fromkeys(trace.configs))
        trace, _ = quick_run(topo, protocol, adversary, init_seed=seed, daemon_seed=seed, adversary_seed=seed, max_steps=60)
        configs.update(dict.fromkeys(trace.configs))
    checker = StabilityChecker(topo, protocol, 0)
    fast = [cfg for cfg in configs if protocol.fast_stable(cfg, topo)]
    assert fast
    for cfg in fast:
        assert checker._search(cfg) is Stability.STABLE


@pytest.mark.parametrize("protocol,topo", _small_instances())
def test_lc_anchors_are_the_legitimate_configurations_of_the_domain(protocol, topo):
    # ss-to with a Byzantine process keeps level bound 1: every register value
    # of the Byzantine writer multiplies the widened domain below
    level_bound = 1 if protocol is SS_TO and topo.byzantine else 2
    anchors = list(analysis._enumerate_lc_anchors(topo, protocol, level_bound))
    for cfg in anchors:
        assert protocol.in_legitimate_set(cfg, topo)
        assert is_c_legitimate(cfg, topo, 0, protocol.spec)
    # widen every correct process from its anchor states to its whole state
    # domain: the legitimate configurations found must be the anchors
    choices = [
        protocol.state_domain(topo.degree(v), level_bound) if v in topo.correct else protocol.anchor_states(topo, v, level_bound)
        for v in range(topo.n)
    ]
    byz_slots = [slot for b in sorted(topo.byzantine) for slot in topo.out_slot[b]]
    byz_values = protocol.register_domain(level_bound, RegisterValue(False, 0))
    members = []
    for states in itertools.product(*choices):
        registers = list(consistent_registers(topo, states))
        for combo in itertools.product(byz_values, repeat=len(byz_slots)):
            for slot, value in zip(byz_slots, combo):
                registers[slot] = value
            cfg = Configuration(states, tuple(registers))
            if protocol.in_legitimate_set(cfg, topo):
                members.append(cfg)
    assert set(members) == set(anchors)


# --- the compact game graph against the move-storing one ---------------------
#
# The reference below is the earlier game: every edge keeps its move and a
# frozenset of changed processes, every Byzantine write goes through
# `apply_effects`, nodes are keyed by (configuration, dirty) tuples, and the
# longest paths scan every edge per weight function.

def _ref_byz_write_options(topo, protocol, cfg, b, level_bound):
    per_edge = [protocol.register_domain(level_bound, cfg.registers[slot]) for slot in topo.out_slot[b]]
    for combo in itertools.product(*per_edge):
        yield ByzWrite(state=cfg.states[b], out_regs=tuple(combo))


class _RefGame:
    def __init__(self, topo, protocol, level_bound, radius, state_cap):
        self.topo, self.protocol, self.level_bound, self.state_cap = topo, protocol, level_bound, state_cap
        self.watch = c_correct_set(topo, radius)
        self.radius = radius
        self.checker = StabilityChecker(topo, protocol, radius)
        self.level_cap = level_bound + 2 * topo.n + 2
        self._anchor_cache = {}
        self.index = {}
        self.nodes = []
        self.edges = []

    def is_anchor(self, cfg):
        hit = self._anchor_cache.get(cfg)
        if hit is None:
            hit = is_c_legitimate(cfg, self.topo, self.radius, self.protocol.spec) and (
                self.checker.check(cfg) is Stability.STABLE
            )
            self._anchor_cache[cfg] = hit
        return hit

    def node_id(self, node):
        nid = self.index.get(node)
        if nid is None:
            nid = len(self.nodes)
            if nid > self.state_cap:
                raise OracleCapError("game graph too large")
            self.index[node] = nid
            self.nodes.append(node)
            self.edges.append(None)
        return nid

    def expand(self, starts):
        start_ids = [self.node_id(s) for s in starts]
        stack = list(start_ids)
        while stack:
            nid = stack.pop()
            if self.edges[nid] is not None:
                continue
            cfg, dirty = self.nodes[nid]
            out = []
            for move, nxt, changed in self._successors(cfg):
                d2 = dirty or bool(changed & self.watch)
                weight = 0
                if self.is_anchor(nxt):
                    weight = 1 if d2 else 0
                    d2 = False
                tid = self.node_id((nxt, d2))
                out.append((tid, weight, changed & self.watch, move))
                if self.edges[tid] is None:
                    stack.append(tid)
            self.edges[nid] = out
        return start_ids

    def _successors(self, cfg):
        for v, nxt in analysis._singleton_moves(self.topo, self.protocol, cfg):
            if any(s.level > self.level_cap for s in nxt.states):
                raise OracleCapError("level escaped the bounded domain")
            changed = frozenset([v] if self.protocol.o_changed(cfg.states[v], nxt.states[v]) else [])
            yield (v, None), nxt, changed
        for b in sorted(self.topo.byzantine):
            for write in _ref_byz_write_options(self.topo, self.protocol, cfg, b, self.level_bound):
                nxt = apply_effects(cfg, self.topo, [(b, write)])
                if nxt != cfg:
                    yield (b, write), nxt, frozenset()

    def sccs(self):
        # iterative Tarjan with an explicit on-stack flag and edge cursors
        n = len(self.nodes)
        comp, low, num, on_stack = [-1] * n, [0] * n, [-1] * n, [False] * n
        counter = comp_count = 0
        stack_s = []
        for root in range(n):
            if num[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    num[v] = low[v] = counter
                    counter += 1
                    stack_s.append(v)
                    on_stack[v] = True
                advanced = False
                out = self.edges[v] or []
                while pi < len(out):
                    w = out[pi][0]
                    pi += 1
                    if num[w] == -1:
                        work[-1] = (v, pi)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], num[w])
                if advanced:
                    continue
                if low[v] == num[v]:
                    while True:
                        w = stack_s.pop()
                        on_stack[w] = False
                        comp[w] = comp_count
                        if w == v:
                            break
                    comp_count += 1
                work.pop()
                if work:
                    u, _ = work[-1]
                    low[u] = min(low[u], low[v])
        return comp, comp_count

    def longest(self, comp, comp_count, weight_of):
        for nid in range(len(self.nodes)):
            for tid, w, changed, _ in self.edges[nid]:
                if comp[nid] == comp[tid] and weight_of(w, changed) > 0:
                    return None, True
        value = [0] * comp_count
        for nid in sorted(range(len(self.nodes)), key=lambda nid: comp[nid]):
            for tid, w, changed, _ in self.edges[nid]:
                if comp[tid] != comp[nid]:
                    value[comp[nid]] = max(value[comp[nid]], weight_of(w, changed) + value[comp[tid]])
        return value, False


def _ref_extract_play(game, comp, value, start):
    play = []
    nid = start
    remaining = value[comp[start]]
    while remaining > 0:
        prev = {nid: None}
        queue = [nid]
        hop = None
        while queue and hop is None:
            cur = queue.pop(0)
            for tid, w, _, move in game.edges[cur]:
                if w == 1 and value[comp[tid]] == remaining - 1:
                    hop = (cur, tid, move)
                    break
                if w == 0 and value[comp[tid]] == remaining and tid not in prev:
                    prev[tid] = (cur, move)
                    queue.append(tid)
        cur, tid, move = hop
        path = []
        node = cur
        while prev[node] is not None:
            node, pmove = prev[node]
            path.append(pmove)
        play.extend(reversed(path))
        play.append(move)
        nid = tid
        remaining -= 1
    return play


def _ref_oracle_worst(topo, protocol, level_bound, state_cap=500_000):
    game = _RefGame(topo, protocol, level_bound, 0, state_cap)
    anchors = [c for c in analysis._enumerate_lc_anchors(topo, protocol, level_bound) if game.is_anchor(c)]
    result = analysis.OracleResult(prop="worst-disruptions", anchors=len(anchors))
    start_ids = game.expand([(c, False) for c in anchors])
    comp, comp_count = game.sccs()
    result.states_explored = len(game.nodes)
    value, unbounded = game.longest(comp, comp_count, lambda w, ch: w)
    if unbounded:
        result.unbounded = True
        return result
    best = max(value[comp[s]] for s in start_ids)
    result.worst_disruptions = best
    best_start = next(s for s in start_ids if value[comp[s]] == best)
    result.best_anchor = game.nodes[best_start][0]
    result.best_play = _ref_extract_play(game, comp, value, best_start)
    worst_k = 0
    for p in sorted(game.watch):
        val_p, unb = game.longest(comp, comp_count, lambda w, ch, p=p: 1 if p in ch else 0)
        if unb:
            result.unbounded = True
            return result
        worst_k = max(worst_k, max(val_p[comp[s]] for s in start_ids))
    result.worst_per_process = worst_k
    return result


def _assert_same_graph(topo, protocol, level_bound, check_moves):
    # the same nodes and edges in the same order, and every recovered move is
    # the one the earlier game stored on the first edge with that (target, weight)
    game = analysis._Game(topo, protocol, level_bound, 0, 500_000)
    ref = _RefGame(topo, protocol, level_bound, 0, 500_000)
    anchors = [c for c in analysis._enumerate_lc_anchors(topo, protocol, level_bound) if game.entry(c)[0]]
    assert anchors == [c for c in analysis._enumerate_lc_anchors(topo, protocol, level_bound) if ref.is_anchor(c)]
    assert game.expand(anchors) == ref.expand([(c, False) for c in anchors])
    assert game.nodes == ref.nodes
    assert game.edges == [[(t, w, min(ch, default=None)) for t, w, ch, _ in out] for out in ref.edges]
    for nid, out in enumerate(ref.edges if check_moves else ()):
        first = {}
        for t, w, _, move in out:
            first.setdefault((t, w), move)
        assert [game.move(nid, t, w) for t, w in first] == list(first.values())


def _every_neighbor_order(edges, **kwargs):
    base = build_topology(edges, **kwargs)
    for order in itertools.product(*(itertools.permutations(o) for o in base.neighbor_order)):
        yield build_topology(edges, neighbor_order=order, **kwargs)


_GAME_CASES = [
    pytest.param(SS_ST, dict(root=0, byzantine=[2], mode="ss-st"), [(0, 1), (1, 2), (2, 3), (0, 3)], 2, id="ss-st-cycle4-lb2"),
    pytest.param(SS_ST, dict(root=0, byzantine=[2], mode="ss-st"), [(0, 1), (1, 2), (2, 3), (0, 3)], 3, id="ss-st-cycle4-lb3"),
    pytest.param(SS_TO, dict(byzantine=[1], mode="ss-to"), path_edges(4), 2, id="ss-to-path4-byz-inner-lb2"),
]
_GAME_FIELDS = (
    "worst_disruptions", "worst_per_process", "unbounded", "anchors", "states_explored", "best_anchor", "best_play",
)


@pytest.mark.parametrize("protocol,kwargs,edges,level_bound", _GAME_CASES)
def test_compact_game_matches_move_storing_game(protocol, kwargs, edges, level_bound):
    orders = 0
    for topo in _every_neighbor_order(edges, **kwargs):
        _assert_same_graph(topo, protocol, level_bound, check_moves=orders == 0)
        orders += 1
        got = brute_force_verify(topo, protocol, "worst-disruptions", level_bound)
        want = _ref_oracle_worst(topo, protocol, level_bound)
        for name in _GAME_FIELDS:
            assert getattr(got, name) == getattr(want, name), (name, topo.neighbor_order)
    assert orders == math.prod(math.factorial(len(edges_of)) for edges_of in topo.neighbor_order)


def test_compact_game_state_cap():
    topo = build_topology([(0, 1), (1, 2), (2, 3), (0, 3)], root=0, byzantine=[2], mode="ss-st")
    with pytest.raises(OracleCapError, match="exceeds 20 nodes"):
        brute_force_verify(topo, SS_ST, "worst-disruptions", 3, state_cap=20)


_edge_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1), st.sampled_from([None, 0, 1])), max_size=4),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(adjacency=_edge_lists)
def test_condensed_longest_matches_edge_scan(adjacency):
    # random graphs, positive cycles included, on the SCC and longest-path steps alone
    n = len(adjacency)
    edges = [[(t % n, w, ch) for t, w, ch in out] for out in adjacency]
    game = analysis._Game.__new__(analysis._Game)
    game.nodes, game.edges = [None] * n, edges
    comp = game.condense()
    ref = _RefGame.__new__(_RefGame)
    ref.nodes = game.nodes
    ref.edges = [[(t, w, frozenset() if ch is None else frozenset([ch]), None) for t, w, ch in out] for out in edges]
    assert (comp, game.comp_count) == ref.sccs()
    assert game.longest(lambda w, ch: w) == ref.longest(comp, game.comp_count, lambda w, ch: w)
    for p in (0, 1):
        assert game.longest(lambda w, ch: int(ch == p)) == ref.longest(
            comp, game.comp_count, lambda w, ch: 1 if p in ch else 0
        )
