from pathlib import Path

import pytest

from strongstab.cli import (
    Scenario,
    ScenarioError,
    bound_limits,
    load_scenario,
    main,
    parse_scenario_text,
    read_config_file,
    resolve_named_init,
    write_config_file,
)
from strongstab.spanning_tree import legitimate_configuration
from strongstab.topology import build_topology

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
    assert sc.daemon_kind == "distributed" and not sc.hostile
    assert sc.adversary == "oscillate"
    assert sc.adversary_params == {"period": "3", "cycles": "2"}
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


def test_env_seed_overrides_master(tmp_path, monkeypatch):
    p = _basic_scenario(tmp_path)
    sc = load_scenario(str(p))
    monkeypatch.setenv("STRONGSTAB_SEED", "77")
    assert sc.resolved_seeds()["daemon"] == 77001
    monkeypatch.delenv("STRONGSTAB_SEED")
    assert sc.resolved_seeds()["daemon"] == 1001


def test_bound_limit_formulas():
    t = build_topology([(0, 1), (1, 2), (2, 3)], root=0, byzantine=[3], mode="ss-st")
    sc = Scenario(topology_path="-", protocol="ss-st")
    limits = bound_limits(["st_disruptions", "st_changes", "st_rounds"], t, sc)
    # delta=2, correct diameter d=2, f=1, n=4
    assert limits["st_disruptions"] == (1 * 2**2, "max")
    assert limits["st_changes"] == (2**2, "max")
    assert limits["st_rounds"] == (4 * 3 * 2**2, "max")
    tz = build_topology([(0, 1), (1, 2)], byzantine=[1], mode="ss-to")
    limits = bound_limits(["to_disruptions", "to_changes"], tz, sc)
    assert limits["to_disruptions"] == (2, "max")
    assert limits["to_changes"] == (1, "max")
    with pytest.raises(ScenarioError, match="unknown bound"):
        bound_limits(["nope"], t, sc)


def test_config_file_roundtrip(tmp_path):
    t = build_topology([(0, 1), (1, 2)], root=0, byzantine=[2], neighbor_seed=3, mode="ss-st")
    cfg = legitimate_configuration(t, 4)
    path = tmp_path / "c.init"
    write_config_file(str(path), t, cfg, header="roundtrip fixture")
    assert read_config_file(str(path), t) == cfg
    (tmp_path / "short.init").write_text("state 0 0 0\n")
    with pytest.raises(ScenarioError, match="every process"):
        read_config_file(str(tmp_path / "short.init"), t)


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
        bounds=None,
        protocol="ss-to",
        max_steps="1500",
    )
    _write(tmp_path, "p3.topo", "n 3\nbyz 0 2\nedge 0 1\nedge 1 2\n")
    scn.write_text(scn.read_text() + "\nexpect_min_disruptions 100000\n")
    rc = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o"), "--expect-unbounded"])
    assert rc == 1  # requires an absurd number of disruptions: fails


def test_expect_unbounded_demo_passes(tmp_path):
    rc = main(
        [
            "run",
            "--scenario",
            str(REPO / "scenarios" / "to_chain5_replay.scn"),
            "--out",
            str(tmp_path / "demo"),
            "--expect-unbounded",
        ]
    )
    assert rc == 0
    report = (tmp_path / "demo" / "report.txt").read_text()
    assert "bound min_disruptions" in report


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


@pytest.mark.parametrize(
    "over",
    [
        pytest.param({"seed_init": "abc"}, id="non-integer-seed"),
        pytest.param({"max_steps": "many"}, id="non-integer-max-steps"),
        pytest.param({"fairness_bound": "x"}, id="non-integer-fairness-bound"),
        pytest.param({"radius": "-1"}, id="negative-radius"),
        pytest.param({"daemon": "centrl"}, id="unknown-daemon"),
        pytest.param({"fairness_bound": "0"}, id="zero-fairness-bound"),
        pytest.param({"adversary": "nobody"}, id="unknown-adversary"),
        pytest.param({"adversary": "oscillate period=fast"}, id="non-integer-adversary-parameter"),
        pytest.param({"max_step": "10"}, id="unknown-key"),
        pytest.param({"init": "legitimate lc2"}, id="ss-st-takes-no-legitimate-kind"),
        pytest.param({**_TO_SCENARIO, "init": "legitimate lc9"}, id="ss-to-unknown-legitimate-kind"),
        pytest.param({**_TO_SCENARIO, "bounds": "st_rounds"}, id="ss-st-bound-on-ss-to"),
        pytest.param({"bounds": "to_changes"}, id="ss-to-bound-on-ss-st"),
    ],
)
def test_scenario_input_errors_exit_two(tmp_path, capsys, over):
    _write(tmp_path, "p3_to.topo", "n 3\nbyz 2\nedge 0 1\nedge 1 2\n")
    scn = _basic_scenario(tmp_path, **over)
    assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


def test_oracle_subcommand(capsys):
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
    rc = main(
        [
            "oracle",
            "--topology",
            str(REPO / "topologies" / "path6_st.topo"),
            "--protocol",
            "ss-st",
        ]
    )
    assert rc == 2  # over the instance-size cap


def test_replay_subcommand(tmp_path, capsys):
    scn = _basic_scenario(tmp_path)
    rc = main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert rc == 0
    rc = main(["replay", str(tmp_path / "o" / "trace.jsonl")])
    assert rc == 0
    assert "replay ok" in capsys.readouterr().out
