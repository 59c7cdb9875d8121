import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import keyed_text
from strongstab import analysis
from strongstab.cli import (
    SCENARIO_KEYS,
    SWEEP_KEYS,
    Scenario,
    ScenarioError,
    _players,
    _summarize,
    _sweep_topology,
    _topology,
    bound_limits,
    load_scenario,
    main,
    parse_scenario_text,
    parse_sweep_text,
    read_config_file,
    resolve_named_init,
    write_config_file,
)
from strongstab.engine import arbitrary_configuration, read_trace
from strongstab.spanning_tree import SS_ST, legitimate_configuration
from strongstab.tree_orientation import SS_TO
from strongstab.topology import InputError, build_topology, load_topology, random_tree_edges

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _basic_scenario(tmp_path, **over):
    topo = _write(tmp_path, "p3.topo", "n 3\nroot 0\nedge 0 1\nedge 1 2\n")
    fields = {
        "topology": topo.name,
        "protocol": "ss-st",
        "adversary": "silent",
        "seed": "1",
        "max_steps": "500",
        "bounds": "st_disruptions st_changes",
    }
    fields.update(over)
    text = "\n".join(f"{k} {v}" for k, v in fields.items() if v is not None)
    return _write(tmp_path, "case.scn", text)


def test_scenario_parsing_defaults_and_params(tmp_path):
    p = _basic_scenario(tmp_path, adversary="oscillate period=3 cycles=2")
    sc = load_scenario(str(p))
    assert sc.protocol == "ss-st"
    assert sc.daemon == "distributed"
    assert sc.adversary == ("oscillate", {"period": "3", "cycles": "2"})
    assert sc.bounds == ["st_disruptions", "st_changes"]
    seeds = sc.resolved_seeds()
    assert seeds == {"daemon": 1001, "init": 1002, "adversary": 1003, "neighbor": 1004}


def test_scenario_errors():
    with pytest.raises(ScenarioError, match="missing required"):
        parse_scenario_text("protocol ss-st", Path("."))
    with pytest.raises(ScenarioError, match="unknown protocol"):
        parse_scenario_text("topology t\nprotocol nope", Path("."))
    with pytest.raises(ScenarioError, match="key=value"):
        parse_scenario_text("topology t\nprotocol ss-st\nadversary oscillate period", Path("."))
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario_text("topology a\ntopology b\nprotocol ss-st", Path("."))


def test_bound_limit_formulas():
    t = build_topology([(0, 1), (1, 2), (2, 3)], root=0, byzantine=[3], mode="ss-st")
    sc = Scenario(topology_path="-", protocol="ss-st")
    limits = bound_limits(["st_disruptions", "st_changes", "st_rounds"], t, sc)
    # delta=2, correct diameter d=2, f=1, n=4
    assert limits["st_disruptions"] == (1 * 2**2, "max")
    assert limits["st_changes"] == (2**2, "max")
    assert limits["st_rounds"] == (4 * 3 * 2**2, "max")
    tz = build_topology([(0, 1), (1, 2)], byzantine=[1], mode="ss-to")
    limits = bound_limits(["to_disruptions", "to_changes"], tz, Scenario(topology_path="-", protocol="ss-to"))
    assert limits["to_disruptions"] == (2, "max")
    assert limits["to_changes"] == (1, "max")
    with pytest.raises(ScenarioError, match="not ss-st bounds: nope to_changes"):
        bound_limits(["to_changes", "nope", "st_changes"], t, sc)


def test_config_file_roundtrip(tmp_path):
    t = build_topology([(0, 1), (1, 2)], root=0, byzantine=[2], neighbor_seed=3, mode="ss-st")
    cfg = legitimate_configuration(t, 4)
    path = tmp_path / "c.init"
    write_config_file(str(path), t, cfg, header="roundtrip fixture")
    assert read_config_file(str(path), t, SS_ST) == cfg
    (tmp_path / "short.init").write_text("state 0 0 0\n")
    with pytest.raises(ScenarioError, match="every process"):
        read_config_file(str(tmp_path / "short.init"), t, SS_ST)
    text = path.read_text()
    (tmp_path / "dup.init").write_text(text + "reg 1 0 1 3\n")
    with pytest.raises(ScenarioError, match=r"init file line \d+: second reg for link 1 -> 0"):
        read_config_file(str(tmp_path / "dup.init"), t, SS_ST)
    (tmp_path / "bit.init").write_text(text + "reg 0 2 1 3\n")
    with pytest.raises(ScenarioError, match=r"no other pair: \[\(0, 2\)\]"):
        read_config_file(str(tmp_path / "bit.init"), t, SS_ST)
    (tmp_path / "bit.init").write_text("# two\nreg 0 1 2 3\n")
    with pytest.raises(ScenarioError, match="init file line 2: reg parent bit must be 0 or 1, got 2"):
        read_config_file(str(tmp_path / "bit.init"), t, SS_ST)
    (tmp_path / "missing.init").write_text("".join(line for line in text.splitlines(True) if not line.startswith("reg 0 ")))
    with pytest.raises(ScenarioError, match=r"no other pair: \[\(0, 1\)\]"):
        read_config_file(str(tmp_path / "missing.init"), t, SS_ST)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(2, 9), seed=st.integers(0, 10_000))
def test_written_config_reads_back(tmp_path, n, seed):
    t = build_topology(random_tree_edges(n, seed), root=0, neighbor_seed=seed, mode="ss-st")
    cfg = arbitrary_configuration(t, SS_ST, seed)
    path = tmp_path / "c.init"
    write_config_file(str(path), t, cfg, header=f"seed {seed}\nsecond line")
    assert read_config_file(str(path), t, SS_ST) == cfg


_WORDS = ("ss-st", "ss-to", "true", "false", "central", "legitimate", "arbitrary", "silent", "period=2", "chain")


@settings(max_examples=200, deadline=None)
@given(head=st.sampled_from(["", "topology t.topo\nprotocol ss-st\n"]), text=keyed_text(SCENARIO_KEYS, _WORDS))
def test_scenario_reader_parses_or_raises_input_error(head, text):
    try:
        parse_scenario_text(head + text, Path("."))
    except InputError:
        pass


@settings(max_examples=200, deadline=None)
@given(text=keyed_text(SWEEP_KEYS, _WORDS))
def test_sweep_reader_parses_or_raises_input_error(text):
    try:
        parse_sweep_text(text)
    except InputError:
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=keyed_text({"state": (3, 3), "reg": (4, 4)}))
def test_init_file_reader_parses_or_raises_input_error(tmp_path, text):
    t = build_topology([(0, 1), (1, 2)], root=0, byzantine=[2], mode="ss-st")
    path = tmp_path / "fuzz.init"
    path.write_text(text, encoding="utf-8")
    try:
        read_config_file(str(path), t, SS_ST)
    except InputError:
        pass


def test_every_checked_in_input_parses():
    named = set()
    for path in sorted((REPO / "scenarios").glob("*.scn")):
        sc = load_scenario(str(path))
        _players(sc, _topology(sc))  # loads the scenario's topology and named init file
        if sc.init[0] == "named":
            named.add(resolve_named_init(sc.init[1], sc.base_dir).name)
    assert named == {p.name for p in (REPO / "src" / "strongstab" / "corpus").glob("*.init")}
    for path in sorted((REPO / "sweeps").glob("*.sweep")):
        assert parse_sweep_text(path.read_text(encoding="utf-8"))["n"]
    for path in sorted((REPO / "topologies").glob("*.topo")):
        load_topology(str(path))


def test_named_init_resolution(tmp_path):
    assert resolve_named_init("deceived_path3", tmp_path).name == "deceived_path3.init"
    local = tmp_path / "mine.init"
    local.write_text("")
    assert resolve_named_init("mine.init", tmp_path) == local
    with pytest.raises(ScenarioError, match="not found"):
        resolve_named_init("missing", tmp_path)


def test_run_subcommand_deterministic_outputs(tmp_path):
    scn = _basic_scenario(tmp_path, adversary="fake-root", init="arbitrary")
    # replace topology with a byzantine one so fake-root has someone to play
    _write(tmp_path, "p3.topo", "n 3\nroot 0\nbyz 2\nedge 0 1\nedge 1 2\n")
    outs = []
    for name in ("o1", "o2"):
        rc = main(["run", "--scenario", str(scn), "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append(
            (
                (tmp_path / name / "report.txt").read_bytes(),
                (tmp_path / name / "trace.jsonl").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_run_exit_one_on_violated_bound(tmp_path):
    scn = _basic_scenario(
        tmp_path,
        adversary="chain-replay",
        bounds="min_disruptions",
        protocol="ss-to",
        max_steps="1500",
    )
    _write(tmp_path, "p3.topo", "n 3\nbyz 0 2\nedge 0 1\nedge 1 2\n")
    scn.write_text(scn.read_text() + "\nexpect_min_disruptions 100000\n")
    rc = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 1  # requires an absurd number of disruptions: fails


def test_expect_unbounded_demo_passes(tmp_path):
    rc = main(
        [
            "run",
            "--scenario",
            str(REPO / "scenarios" / "to_chain5_replay.scn"),
            "--out",
            str(tmp_path / "demo"),
        ]
    )
    assert rc == 0
    report = (tmp_path / "demo" / "report.txt").read_text()
    assert "bound min_disruptions" in report


@pytest.mark.parametrize("path", sorted((REPO / "scenarios").glob("*.scn")), ids=lambda p: p.stem)
def test_checked_in_scenario_passes_and_replays(tmp_path, capsys, path):
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    assert main(["replay", str(tmp_path / "o" / "trace.jsonl")]) == 0
    assert "replay ok" in capsys.readouterr().out


def test_named_init_scenario_runs(tmp_path):
    rc = main(
        [
            "run",
            "--scenario",
            str(REPO / "scenarios" / "st_deceived_path3.scn"),
            "--out",
            str(tmp_path / "named"),
        ]
    )
    assert rc == 0


def test_usage_and_parse_errors_exit_two(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "missing.scn"), "--out", str(tmp_path)]) == 2
    bad = _write(tmp_path, "bad.scn", "topology nowhere.topo\nprotocol ss-st")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # argparse: missing --scenario
    assert exc.value.code == 2


_TO_SCENARIO = {"protocol": "ss-to", "topology": "p3_to.topo", "bounds": "to_disruptions to_changes"}


# adversary parameters outside their domain, each with the adversary and parameter its error names
_BAD_ADVERSARY_PARAMETERS = [
    ("level-inflation step=-3", "level-inflation parameter step"),
    ("level-inflation step=0", "level-inflation parameter step"),
    ("level-inflation step=x", "level-inflation parameter step"),
    ("chain-replay step=0", "chain-replay parameter step"),
    ("oscillate period=0", "oscillate parameter period"),
    ("oscillate period=-5", "oscillate parameter period"),
    ("oscillate cycles=-1", "oscillate parameter cycles"),
    ("chain-replay reversals=-1", "chain-replay parameter reversals"),
]

# the setting under which max-damage plays its game: a central daemon from a legitimate start
_MAX_DAMAGE = {"daemon": "central", "fairness_bound": "100", "init": "legitimate"}

# input files a scenario below can name; each holds one error on the named line
_BAD_INPUTS = {
    "dup_n.topo": "n 3\nroot 0\nn 2\nedge 0 1\nedge 1 2\n",
    "edge3.topo": "n 3\nroot 0\nedge 0 1 7\nedge 1 2\n",
    "dup_state.init": "state 0 0 0\nstate 1 0 0\nstate 1 0 1\nstate 2 0 0\n",
    "latin1.topo": "n 3\n# caf\xe9\nroot 0\nedge 0 1\nedge 1 2\n",
    "latin1.init": "# caf\xe9\n",
    "prnt0.init": "state 0 1 0\nstate 1 0 0\n",
    "neg_state.init": "state 0 0 0\nstate 1 1 -4\nstate 2 1 2\nreg 0 1 0 0\nreg 1 0 1 1\nreg 1 2 0 1\nreg 2 1 0 2\n",
    "neg_reg.init": "state 0 0 0\nstate 1 1 1\nstate 2 1 2\nreg 0 1 0 0\nreg 1 0 1 -4\nreg 1 2 0 1\nreg 2 1 0 2\n",
}


@pytest.mark.parametrize(
    "over, where",
    [
        pytest.param({"seed": "abc"}, None, id="non-integer-seed"),
        pytest.param({"max_steps": "many"}, None, id="non-integer-max-steps"),
        pytest.param({"fairness_bound": "x"}, None, id="non-integer-fairness-bound"),
        pytest.param({"radius": "-1"}, None, id="negative-radius"),
        pytest.param({"max_steps": "-1"}, "scenario line 5", id="negative-max-steps"),
        pytest.param({"expect_min_disruptions": "-1"}, "scenario line 7", id="negative-expect-min-disruptions"),
        pytest.param({"daemon": "centrl"}, None, id="unknown-daemon"),
        pytest.param({"fairness_bound": "0"}, None, id="zero-fairness-bound"),
        pytest.param({"adversary": "nobody"}, None, id="unknown-adversary"),
        pytest.param({"adversary": "oscillate period=fast"}, "adversary oscillate parameter period", id="non-integer-adversary-parameter"),
        pytest.param({"max_step": "10"}, None, id="unknown-key"),
        pytest.param({"init": "legitimate lc2"}, None, id="ss-st-takes-no-legitimate-kind"),
        pytest.param({**_TO_SCENARIO, "init": "legitimate lc9"}, None, id="ss-to-unknown-legitimate-kind"),
        pytest.param({**_TO_SCENARIO, "bounds": "st_rounds"}, None, id="ss-st-bound-on-ss-to"),
        pytest.param({"bounds": "to_changes"}, None, id="ss-to-bound-on-ss-st"),
        pytest.param({"daemon": "central", "fairness_bound": "1"}, None, id="unsatisfiable-fairness-bound"),
        pytest.param({"topology": "dup_n.topo"}, "topology line 3", id="repeated-topology-n"),
        pytest.param({"topology": "edge3.topo"}, "topology line 3", id="edge-with-three-ids"),
        pytest.param({"init": "named dup_state.init"}, "init file line 3", id="duplicate-state-line"),
        pytest.param({**_TO_SCENARIO, "init": "named prnt0.init"}, "init file line 2", id="init-prnt-outside-domain"),
        pytest.param({"init": "named neg_state.init"}, "init file line 2", id="init-negative-state-level"),
        pytest.param({"init": "named neg_reg.init"}, "init file line 5", id="init-negative-reg-level"),
        pytest.param({"adversary": "level-inflation stpe=2"}, None, id="unknown-adversary-parameter"),
        pytest.param({"init": "legitimate\ninit arbitrary"}, "scenario line 8", id="repeated-init"),
        pytest.param({"topology": "latin1.topo"}, "{tmp}/latin1.topo", id="topology-file-not-utf8"),
        pytest.param({"init": "named latin1.init"}, "{tmp}/latin1.init", id="init-file-not-utf8"),
        pytest.param({**_MAX_DAMAGE, "adversary": "max-damage radius=-1"}, None, id="max-damage-negative-radius"),
        pytest.param({**_MAX_DAMAGE, "adversary": "max-damage level_bound=-1"}, None, id="max-damage-negative-level-bound"),
        pytest.param({**_MAX_DAMAGE, "daemon": "distributed", "adversary": "max-damage"}, None, id="max-damage-distributed"),
        pytest.param(
            {**_MAX_DAMAGE, "init": "arbitrary", "adversary": "max-damage", "topology": str(REPO / "topologies" / "path3_st.topo")},
            None,
            id="max-damage-start-not-legitimate-and-stable",
        ),
    ]
    + [pytest.param({"adversary": spec}, f"adversary {names}", id=spec) for spec, names in _BAD_ADVERSARY_PARAMETERS],
)
def test_scenario_input_errors_exit_two(tmp_path, capsys, over, where):
    _write(tmp_path, "p3_to.topo", "n 3\nbyz 2\nedge 0 1\nedge 1 2\n")
    for name, text in _BAD_INPUTS.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
    scn = _basic_scenario(tmp_path, **over)
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert where is None or f"error: {where.format(tmp=tmp_path)}: " in err, err


def test_max_damage_plays_the_oracle_worst_case_under_a_central_daemon(tmp_path):
    # seed 4 draws a legitimate start from which one disruption can be forced
    topo = str(REPO / "topologies" / "path3_st.topo")
    scn = _basic_scenario(tmp_path, **_MAX_DAMAGE, adversary="max-damage", topology=topo, seed="4")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0
    trace, topo, _ = read_trace(str(tmp_path / "o" / "trace.jsonl"))
    worst, _ = analysis.best_disruption_play(topo, SS_ST, trace.configs[0], 3)
    assert worst == 1
    assert f"disruptions {worst}\n" in (tmp_path / "o" / "report.txt").read_text(encoding="utf-8")


def test_legitimate_kinds_accepted_per_protocol(tmp_path):
    _write(tmp_path, "p3_to.topo", "n 3\nbyz 2\nedge 0 1\nedge 1 2\n")
    for over in [{"init": "legitimate"}] + [{**_TO_SCENARIO, "init": f"legitimate {k}"} for k in ("auto", "lc1", "lc2")]:
        scn = _basic_scenario(tmp_path, **over)
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0, over


def test_empty_sweep_grid(tmp_path):
    spec = _write(tmp_path, "empty.sweep", "protocol ss-to\nn\nreplications 3\n")
    rc = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")])
    assert rc == 0
    assert (tmp_path / "sw" / "sweep.csv").read_text().strip() == ""


def test_small_sweep_runs_and_writes_csv(tmp_path):
    spec = _write(
        tmp_path,
        "small.sweep",
        "protocol ss-to\ntopology_kind random-tree\nn 4 6\nf 0\nadversary silent\nreplications 2\nseed 5\nmax_steps 2000\n",
    )
    rc = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")])
    assert rc == 0
    rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 4
    assert rows[0].startswith("protocol,n,f,adversary,seed,delta,d,rounds")


def test_oracle_subcommand(capsys, monkeypatch):
    rc = main(
        [
            "oracle",
            "--topology",
            str(REPO / "topologies" / "path3_st.topo"),
            "--protocol",
            "ss-st",
            "--property",
            "worst-disruptions",
            "--level-bound",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst disruptions: 1" in out
    # the 8-tree has more than 500 000 LC1 configurations at level bound 3, but its
    # branches, each queried alone, have a few hundred at most
    rc = main(["oracle", "--topology", str(REPO / "topologies" / "tree8_to.topo"), "--protocol", "ss-to"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "anchors: 1744896\nworst disruptions: 2\nworst per-process changes: 1\n" in out
    # each branch of the 5-path has 112 legitimate configurations at level bound 3
    monkeypatch.setattr(analysis, "STATE_CAP", 100)
    rc = main(["oracle", "--topology", str(REPO / "topologies" / "path5_to.topo"), "--protocol", "ss-to"])
    assert rc == 2
    assert capsys.readouterr().err == "error: legitimate configurations exceed cap 100\n"


@pytest.mark.parametrize(
    "topology, level_bound, message",
    [
        pytest.param("path3_st", -1, "--level-bound must be non-negative", id="negative-level-bound"),
        pytest.param("path3_st", 0, "within level bound 0", id="path3-no-anchor-at-0"),
        pytest.param("star6_st", 0, "within level bound 0", id="star6-no-anchor-at-0"),
        pytest.param("path6_st", 0, "within level bound 0", id="path6-no-anchor-at-0"),
        pytest.param("path6_st", 1, "within level bound 1", id="path6-no-anchor-at-1"),
    ],
)
def test_oracle_refuses_a_query_without_anchors(capsys, topology, level_bound, message):
    topo = str(REPO / "topologies" / f"{topology}.topo")
    assert main(["oracle", "--topology", topo, "--protocol", "ss-st", "--level-bound", str(level_bound)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and message in captured.err, captured.err


def test_replay_subcommand(tmp_path, capsys):
    scn = _basic_scenario(tmp_path)
    rc = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 0
    rc = main(["replay", str(tmp_path / "o" / "trace.jsonl")])
    assert rc == 0
    assert "replay ok" in capsys.readouterr().out


_SWEEP = {
    "protocol": "ss-to",
    "topology_kind": "random-tree",
    "n": "4",
    "f": "0",
    "adversary": "silent",
    "replications": "1",
    "seed": "5",
    "max_steps": "200",
}


@pytest.mark.parametrize(
    "over, where",
    [pytest.param({key: "x"}, None, id=f"non-integer-{key}") for key in ("n", "f", "replications", "seed", "max_steps", "radius", "extra_edges")]
    + [
        pytest.param({"n": "4 six"}, None, id="non-integer-in-n-list"),
        pytest.param({"adversary": "nobody"}, None, id="unknown-adversary"),
        pytest.param({"adversary": "level-inflation rate"}, None, id="adversary-parameter-without-equals"),
        pytest.param({"daemon": "centrl"}, None, id="unknown-daemon"),
        pytest.param({"topology_kid": "chain"}, "sweep spec line 9", id="unknown-key"),
        pytest.param({"n": "4\nn 6"}, "sweep spec line 4", id="repeated-n"),
        pytest.param({"init": "legitimat"}, "sweep spec line 9", id="misspelt-init"),
        pytest.param({"protocol": "ss-xx"}, "sweep spec line 1", id="unknown-protocol"),
        pytest.param({"radius": "-1"}, "sweep spec line 9", id="negative-radius"),
        pytest.param({"f": "-1"}, "sweep spec line 4", id="negative-f"),
        pytest.param({"n": "4 -2"}, "sweep spec line 3", id="negative-n"),
        pytest.param({"replications": "-2"}, "sweep spec line 6", id="negative-replications"),
        pytest.param({"max_steps": "-1"}, "sweep spec line 8", id="negative-max-steps"),
        pytest.param({"extra_edges": "-1"}, "sweep spec line 9", id="negative-extra-edges"),
        pytest.param({"f": "5"}, None, id="f-above-n"),
        pytest.param({"protocol": "ss-st", "f": "4"}, None, id="f-above-non-root-processes"),
        pytest.param({"n": "", "topology_kind": "bogus"}, "sweep spec line 2", id="unknown-topology-kind-empty-grid"),
        pytest.param({"n": "", "daemon": "nobody"}, "sweep spec line 9", id="unknown-daemon-empty-grid"),
        pytest.param({"adversary": "max-damage"}, None, id="max-damage-without-a-hostile-daemon"),
    ]
    + [pytest.param({"adversary": spec}, f"adversary {names}", id=spec) for spec, names in _BAD_ADVERSARY_PARAMETERS],
)
def test_sweep_spec_errors_exit_two(tmp_path, capsys, over, where):
    spec = _write(tmp_path, "bad.sweep", "\n".join(f"{k} {v}" for k, v in {**_SWEEP, **over}.items()))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert where is None or f"error: {where}: " in err, err


def test_sweep_spec_base_runs(tmp_path):
    spec = _write(tmp_path, "ok.sweep", "\n".join(f"{k} {v}" for k, v in _SWEEP.items()))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")]) == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exit_two(tmp_path, capsys, jobs):
    spec = _write(tmp_path, "ok.sweep", "\n".join(f"{k} {v}" for k, v in _SWEEP.items()))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw"), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --jobs must be at least 1, got {jobs}\n", err
    assert not (tmp_path / "sw").exists()


def test_budget_exhausted_run_is_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "STABILITY_BUDGET", 0)  # each search gives up before its first expansion
    rc = main(["run", "--scenario", str(REPO / "scenarios" / "to_ff_tree7.scn"), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert "stability_unknown_seen true\n" in out and out.endswith("result inconclusive\n"), out
    assert rc == 3
    assert (tmp_path / "o" / "report.txt").read_text(encoding="utf-8") == out


def test_budget_exhausted_sweep_is_inconclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "STABILITY_BUDGET", 0)  # each search gives up before its first expansion
    over = {**_SWEEP, "n": "7", "replications": "2"}
    spec = _write(tmp_path, "ff.sweep", "\n".join(f"{k} {v}" for k, v in over.items()))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sw")]) == 3
    rows = (tmp_path / "sw" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows] == ["pass", "inconclusive", "inconclusive"]
    summary = capsys.readouterr().out.splitlines()[1]
    assert summary.startswith("ss-to 7 0 silent 2 ") and summary.endswith(" inconclusive"), summary


def test_run_and_sweep_fail_a_run_that_never_stabilizes(tmp_path, capsys):
    """A sweep row is the run of the scenario its grid point makes, so `run`
    of that scenario gives the row's verdict. Three steps from this arbitrary
    start never reach a legitimate stable configuration, so no bound was
    tested and both fail."""
    spec = {
        "protocol": "ss-to", "topology_kind": "chain", "n": "6", "f": "1", "adversary": "level-inflation",
        "replications": "1", "seed": "2", "max_steps": "3", "init": "arbitrary",
    }
    sweep = _write(tmp_path, "never.sweep", "\n".join(f"{k} {v}" for k, v in spec.items()))
    assert main(["sweep", "--spec", str(sweep), "--out", str(tmp_path / "sw")]) == 1
    header, row = (tmp_path / "sw" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["rounds"] == "" and values["pass"] == "False", values

    seed = 3  # the spec's seed plus the job's 1-based index
    topo = _sweep_topology("chain", 6, 1, SS_TO, seed, 1)
    edges = "".join(f"edge {u} {v}\n" for u, v in topo.edges)
    _write(tmp_path, "chain6.topo", f"n 6\nbyz {' '.join(map(str, topo.byzantine))}\n{edges}")
    scenario = {
        "topology": "chain6.topo", "protocol": "ss-to", "init": "arbitrary", "adversary": "level-inflation",
        "seed": seed, "seed_neighbor": seed, "max_steps": 3,
        "bounds": " ".join(b.name for b in SS_TO.bounds if b.swept(1)),
    }
    scn = _write(tmp_path, "never.scn", "\n".join(f"{k} {v}" for k, v in scenario.items()))
    capsys.readouterr()
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "never_stabilized true\n" in out and out.endswith("result FAIL\n"), out
    assert f"disruptions {values['disruptions']}\n" in out and f"max_process_changes {values['max_changes']}\n" in out


def test_run_fails_a_round_bound_when_the_run_never_stabilizes(tmp_path, capsys):
    # one step from an arbitrary start leaves the fault-free 4-path unoriented; to_rounds is 2d+2 = 8
    topo = _write(tmp_path, "p4.topo", "n 4\nedge 0 1\nedge 1 2\nedge 2 3\n")
    scn = _basic_scenario(tmp_path, topology=topo.name, protocol="ss-to", max_steps="1", bounds="to_rounds")
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "bound to_rounds observed -1 <= limit 8 FAIL\n" in out and out.endswith("result FAIL\n"), out


def test_sweep_summary_ranks_fail_over_inconclusive_over_pass():
    row = dict(protocol="ss-to", n=4, f=0, adversary="silent", rounds=1, disruptions=0, max_changes=0)
    for passes, verdict in [
        ((True, True), "pass"),
        ((True, "inconclusive"), "inconclusive"),
        (("inconclusive", False, True), "FAIL"),
    ]:
        assert _summarize([{**row, "pass": p} for p in passes])[1].endswith(f" {verdict}"), passes


_FAKEROOT = (REPO / "results" / "fakeroot" / "trace.jsonl").read_text(encoding="utf-8").splitlines()
_INFLATION = (REPO / "results" / "inflation" / "trace.jsonl").read_text(encoding="utf-8").splitlines()


def _edited(lines, i, edit):
    """The trace text of `lines` with record `i` changed in place by `edit`."""
    rec = json.loads(lines[i])
    edit(rec)
    return "\n".join(lines[:i] + [json.dumps(rec)] + lines[i + 1 :]) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("not json\n", id="not-json-lines"),
        pytest.param("", id="empty"),
        pytest.param("5\n", id="record-not-an-object"),
        pytest.param('{"type": "init", "states": [], "registers": []}\n', id="no-meta-record"),
        pytest.param('{"type": "meta", "protocol": "ss-st"}\n', id="meta-without-topology"),
        pytest.param("[" * 100_000 + "\n", id="nested-too-deep"),
        pytest.param('{"type": "meta", "protocol": "caf\xe9"}\n', id="not-utf8"),
        pytest.param(
            '{"type": "meta", "protocol": "ss-st", "edges": [[0, 0]], "root": 0, "byz": [], "neighbor_order": [[]]}\n',
            id="topology-error-in-meta",
        ),
        pytest.param("\n".join(_FAKEROOT[:-1]) + "\n", id="no-end-record"),
        pytest.param("\n".join(_FAKEROOT[:-2] + [_FAKEROOT[-1], _FAKEROOT[-2]]) + "\n", id="end-not-last"),
        pytest.param("\n".join(_FAKEROOT + [_FAKEROOT[-1]]) + "\n", id="end-repeated"),
        # a negative id would index from the end of a list: step 2 writes the last register
        # slot, step 5 activates the last process, and step 2's Byzantine writer is the last one
        pytest.param(
            _edited(_FAKEROOT, 3, lambda rec: rec["reg_diff"].update({"-1": rec["reg_diff"].pop("9")})),
            id="negative-register-slot",
        ),
        pytest.param(
            _edited(_INFLATION, 6, lambda rec: rec.update(activated=[-1 if v == 7 else v for v in rec["activated"]])),
            id="negative-activated-id",
        ),
        pytest.param(
            _edited(_FAKEROOT, 3, lambda rec: rec.update(byz={"-1": rec["byz"]["5"]})),
            id="negative-byz-id",
        ),
        # step 1 activates 1 and 4; a step must record exactly its activated processes' actions and writes
        pytest.param(
            _edited(_FAKEROOT, 2, lambda rec: rec["actions"].update({"3": "GA1", "-7": "XX"})),
            id="actions-of-non-activated-processes",
        ),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec["byz"].update({"5": None})), id="byz-write-of-non-activated-process"),
        pytest.param(_edited(_INFLATION, 0, lambda rec: rec.update(root=3)), id="topology-unfit-for-protocol"),
        pytest.param(_edited(_FAKEROOT, 0, lambda rec: rec.update(n=99)), id="meta-n-not-the-edges-processes"),
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["states"].pop()), id="init-states-short"),
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["registers"].append([0, 1])), id="init-registers-long"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec["states"].pop()), id="step-states-short"),
        pytest.param(_edited(_FAKEROOT, len(_FAKEROOT) - 1, lambda rec: rec.update(stop_reason="banana")), id="unknown-stop-reason"),
        # a register is [0|1, int], a state [int, int], and step record k says "i": k
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["registers"][0].append(7)), id="init-register-of-three"),
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["registers"][0].__setitem__(0, "yes")), id="init-register-bit-not-an-int"),
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["registers"][0].__setitem__(0, 2)), id="init-register-bit-not-0-or-1"),
        pytest.param(_edited(_FAKEROOT, 1, lambda rec: rec["states"][1].__setitem__(1, 9.5)), id="init-state-level-not-an-int"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec["reg_diff"]["1"].append(99)), id="reg-diff-register-of-three"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec["states"][0].pop()), id="step-state-of-one"),
        pytest.param(_edited(_FAKEROOT, 3, lambda rec: rec["byz"]["5"]["out"][0].__setitem__(1, True)), id="byz-register-level-a-bool"),
        pytest.param(_edited(_FAKEROOT, 3, lambda rec: rec["byz"]["5"].update(state=[0])), id="byz-state-of-one"),
        pytest.param(_edited(_FAKEROOT, 3, lambda rec: rec["byz"]["5"].update(out=[[0, 0], [0, 0]])), id="byz-write-of-too-many-registers"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec.update(activated=[], actions={})), id="step-activates-no-process"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec.update(i=99)), id="step-i-not-its-position"),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec.pop("i")), id="step-without-i"),
        # ids, slots, round ends and the meta topology are plain ints, and a slot key is canonical decimal
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec.update(activated=[True, 4])), id="activated-id-a-bool"),
        pytest.param(
            _edited(_FAKEROOT, len(_FAKEROOT) - 1, lambda rec: rec.update(round_ends=[float(r) for r in rec["round_ends"]])),
            id="round-ends-floats",
        ),
        pytest.param(_edited(_FAKEROOT, 2, lambda rec: rec["reg_diff"].update({" 1": rec["reg_diff"].pop("1")})), id="register-slot-key-padded"),
        pytest.param(_edited(_FAKEROOT, 0, lambda rec: rec.update(root=0.0)), id="meta-root-a-float"),
    ],
)
def test_replay_input_errors_exit_two(tmp_path, capsys, text):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(text.encode("latin-1"))
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.count(str(trace)) == 1, err


def test_replay_recomputes_the_recorded_round_ends(tmp_path, capsys):
    lines = _FAKEROOT
    end = json.loads(lines[-1])
    assert end["type"] == "end" and len(end["round_ends"]) == 3
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines[:-1] + [json.dumps({**end, "round_ends": list(range(1, 13))})]) + "\n")
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out == "replay FAILED: recorded round_ends differ from the 3 rounds the steps complete\n"


def test_replay_rechecks_a_quiescent_stop(tmp_path, capsys):
    # the level-inflation run stops at its step budget with correct processes still enabled
    path = tmp_path / "trace.jsonl"
    path.write_text(_edited(_INFLATION, len(_INFLATION) - 1, lambda rec: rec.update(stop_reason="quiescent")))
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out == (
        "replay FAILED: trace stops quiescent, but a correct process is enabled in its last configuration\n"
    )


def test_replay_numbers_steps_as_the_trace_file_does(tmp_path, capsys):
    # line 3 is step record i=2, in which process 2 fires GA1 and Byzantine process 5 writes one register
    path = tmp_path / "trace.jsonl"
    path.write_text(_edited(_FAKEROOT, 3, lambda rec: rec["actions"].update({"2": "GA2"})))
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out == "replay FAILED: step 2: step records action 'GA2' for process 2, but 'GA1' is enabled\n"
    path.write_text(_edited(_FAKEROOT, 3, lambda rec: rec["byz"]["5"].update(out=[[0, 0], [0, 0]])))
    assert main(["replay", str(path)]) == 2
    assert "step 2: Byzantine process 5 writes 2 registers, not 1" in capsys.readouterr().err


def test_replay_of_unknown_protocol_exits_two(tmp_path, capsys):
    scn = _basic_scenario(tmp_path)
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 0
    path = tmp_path / "o" / "trace.jsonl"
    path.write_text(path.read_text().replace('"protocol": "ss-st"', '"protocol": "ss-xx"', 1))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ss-xx" in err and err.count("\n") == 1, err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    _write(out, "p3.topo", "n 3\nroot 0\nbyz 2\nedge 0 1\nedge 1 2\n")
    scn = _write(out, "case.scn", "topology p3.topo\nprotocol ss-st\nadversary fake-root\nseed 4\nmax_steps 40\n")
    assert main(["run", "--scenario", str(scn), "--out", str(out / "o")]) == 0
    return (out / "o" / "trace.jsonl").read_text(encoding="utf-8")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(garbage=st.booleans(), data=st.data())
def test_replay_of_garbage_exits_one_or_two(tmp_path, small_trace, garbage, data):
    """Random JSON records, or a real trace with values replaced or keys
    dropped; a mutation may leave the trace valid (it may drop a step's
    unread `i`, say), so a mutated trace may also replay with 0."""
    records = data.draw(st.lists(_JSON, max_size=4)) if garbage else [json.loads(line) for line in small_trace.splitlines()]
    for _ in range(0 if garbage else data.draw(st.integers(1, 3))):
        *parent, key = data.draw(st.sampled_from(list(_json_paths(records))))
        node = records
        for step in parent:
            node = node[step]
        if data.draw(st.booleans()):
            node[key] = data.draw(_JSON)
        else:
            del node[key]
            if not records:
                break
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    if data.draw(st.integers(0, 3)) == 0:  # now and then cut the file short or end it with junk
        text = text[: data.draw(st.integers(0, len(text)))] + data.draw(st.sampled_from(["", "{", "[1]\n", "x"]))
    path = tmp_path / "fuzz.jsonl"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["replay", str(path)])
    assert rc in ((1, 2) if garbage else (0, 1, 2)), (rc, out.getvalue(), err.getvalue())
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
