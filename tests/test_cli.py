"""Command-line interface: subcommands, overrides, and exit codes."""

import textwrap

import pytest
import yaml

from greenlight import cli, harness
from greenlight import demand as demand_mod
from greenlight.config import parse_config
from greenlight.core import Approach, LaneId, Movement, Vehicle
from greenlight.neural import GradCheckResult
from test_demand import write_demand_csv


W_T = LaneId(0, Approach.W, Movement.T)


def write_yaml(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def tiny_config(tmp_path, controller="fixedtime"):
    return write_yaml(tmp_path, f"""\
        demand:
          rate_vph: 120.0
        controller:
          kind: {controller}
          agent:
            hidden_dims: [8]
            batch_size: 4
            replay_capacity: 64
            decision_interval_s: 10
            epsilon_decay_steps: 20
        run:
          horizon_s: 60
          episodes: 1
          seeds: [0]
          out_dir: {tmp_path}/out
        train:
          episodes: 2
          horizon_s: 60
    """)


# ---------------------------------------------------------------------------
# run


def test_run_prints_paths_and_row_count(tmp_path, capsys):
    code = cli.main(["run", "--config", tiny_config(tmp_path)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert f"{tmp_path}/out/results.csv" in out
    assert "1 result rows" in out
    assert (tmp_path / "out" / "results.csv").exists()


def test_run_controller_and_episode_overrides(tmp_path, capsys):
    code = cli.main([
        "run", "--config", tiny_config(tmp_path),
        "--controller", "webster", "--episodes", "2",
        "--seed", "5", "--seed", "6",
        "--out", str(tmp_path / "alt"),
    ])
    assert code == cli.EXIT_OK
    assert "4 result rows" in capsys.readouterr().out
    lines = (tmp_path / "alt" / "results.csv").read_text().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("webster,") for line in lines[1:])
    assert {line.split(",")[1] for line in lines[1:]} == {"5", "6"}


def test_run_check_flag_passes_on_clean_simulation(tmp_path):
    assert cli.main(["run", "--config", tiny_config(tmp_path), "--check"]) == cli.EXIT_OK


def test_run_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    def boom(cfg, check=False):
        raise AssertionError("identity violated: episode 0 residual 1")

    monkeypatch.setattr(harness, "run_experiment", boom)
    code = cli.main(["run", "--config", tiny_config(tmp_path), "--check"])
    assert code == cli.EXIT_CHECK
    assert "check failed" in capsys.readouterr().err


def test_run_config_error_exits_1(tmp_path, capsys):
    path = write_yaml(tmp_path, "controller:\n  kind: lqr\n")
    code = cli.main(["run", "--config", path])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_runtime_error_exits_2(tmp_path, capsys, monkeypatch):
    def boom(cfg, check=False):
        raise RuntimeError("disk full")

    monkeypatch.setattr(harness, "run_experiment", boom)
    code = cli.main(["run", "--config", tiny_config(tmp_path)])
    assert code == cli.EXIT_RUNTIME
    assert "RuntimeError: disk full" in capsys.readouterr().err


def test_run_requires_config_argument():
    with pytest.raises(SystemExit):
        cli.main(["run"])


@pytest.mark.parametrize("command,controller", [("run", "fixedtime"), ("train", "rl")])
@pytest.mark.parametrize("episodes", ["0", "-2"])
def test_episode_override_is_validated_before_any_output(tmp_path, capsys,
                                                          command, controller, episodes):
    code = cli.main([command, "--config", tiny_config(tmp_path, controller),
                     "--episodes", episodes])
    assert code == cli.EXIT_CONFIG
    assert f"{command}.episodes: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train


def test_train_rejects_classic_controller(tmp_path, capsys):
    code = cli.main(["train", "--config", tiny_config(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "must be 'rl'" in capsys.readouterr().err


def test_train_writes_curve_and_reports_stability(tmp_path, capsys):
    code = cli.main(["train", "--config", tiny_config(tmp_path, controller="rl")])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "curve_rl_0.csv" in out
    # two episodes cannot fill the stability window
    assert "did not stabilize" in out
    assert (tmp_path / "out" / "curve_rl_0.csv").exists()


def test_train_episode_override(tmp_path):
    code = cli.main([
        "train", "--config", tiny_config(tmp_path, controller="rl"),
        "--episodes", "1",
    ])
    assert code == cli.EXIT_OK
    lines = (tmp_path / "out" / "curve_rl_0.csv").read_text().splitlines()
    assert len(lines) == 2  # header + one training episode


# ---------------------------------------------------------------------------
# sweep


def test_sweep_sotl_grid(tmp_path, capsys):
    path = write_yaml(tmp_path, f"""\
        demand:
          rate_vph: 120.0
        run:
          horizon_s: 60
          episodes: 1
          seeds: [0]
          out_dir: {tmp_path}/out
        sweep:
          kind: sotl-grid
          theta_red: [4.0]
          theta_green: [2.0]
    """)
    code = cli.main(["sweep", "--config", path])
    assert code == cli.EXIT_OK
    assert "1 result rows" in capsys.readouterr().out
    text = (tmp_path / "out" / "results.csv").read_text()
    assert "sotl[r=4,g=2]" in text


@pytest.mark.parametrize("sweep, key", [
    ('{kind: sotl-grid, theta_red: ["2"]}', "sweep.theta_red: expected list[float]"),
    ('{kind: sotl-grid, theta_green: [1.0, "2"]}', "sweep.theta_green: expected list[float]"),
    ("{kind: sotl-grid, theta_red: 4}", "sweep.theta_red: expected list[float]"),
    ("[1, 2]", "sweep: expected a mapping, got list"),
    ("{kind: sotl-grid, theta_reds: [1.0]}", "sweep.theta_reds: unknown key"),
    ("{kind: sotl-grid, theta_red: []}", "sweep.theta_red: need at least one threshold"),
    ("{kind: sotl-grid, theta_red: [-1.0]}", "sweep.theta_red: thresholds must be >= 0"),
    ("{kind: sotl-grid, theta_green: [1.0, -0.5]}",
     "sweep.theta_green: thresholds must be >= 0"),
    ("{kind: bogus}", "sweep.kind: 'bogus' not in"),
])
def test_bad_sweep_section_exits_1(tmp_path, capsys, sweep, key):
    path = write_yaml(tmp_path, f"""\
        run:
          out_dir: {tmp_path}/out
        sweep: {sweep}
    """)
    for command in ("validate-config", "sweep"):
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert "config error" in captured.err and key in captured.err
    assert not (tmp_path / "out").exists()


def test_a_demand_file_is_read_once_per_command(tmp_path, capsys, monkeypatch):
    # `run` with three seeds and a 9-point sotl-grid `sweep` with three seeds
    # each resolve the config once, and every seed and point draws from that
    reads = []
    load = demand_mod.load_demand_csv

    def counted(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(demand_mod, "load_demand_csv", counted)
    demand_path = tmp_path / "demand.csv"
    write_demand_csv(demand_path, [Vehicle(i, 4.0 * i, (W_T,)) for i in range(10)])
    path = write_yaml(tmp_path, f"""\
        demand:
          kind: file
          path: {demand_path}
        run:
          horizon_s: 60
          seeds: [0, 1, 2]
          out_dir: {tmp_path}/out
        sweep:
          kind: sotl-grid
    """)
    for command, rows in (("validate-config", None), ("run", 3), ("sweep", 27)):
        reads.clear()
        assert cli.main([command, "--config", path]) == cli.EXIT_OK
        assert reads == [str(demand_path)], command
        if rows is not None:
            assert f"{rows} result rows" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(capsys):
    code = cli.main(["gradcheck", "--networks", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "2 networks" in out
    assert "gradient check passed" in out


def test_gradcheck_failure_exits_3(capsys, monkeypatch):
    bad = GradCheckResult(max_rel_error=0.5, checked=10, skipped_kinks=0,
                          worst_parameter=(0, 0))
    monkeypatch.setattr(harness, "gradcheck_qnetworks", lambda n, s: [bad])
    code = cli.main(["gradcheck"])
    assert code == cli.EXIT_CHECK
    assert "FAILED" in capsys.readouterr().err


def test_gradcheck_without_networks_exits_1(capsys):
    code = cli.main(["gradcheck", "--networks", "0"])
    assert code == cli.EXIT_CONFIG
    assert "gradcheck: --networks must be >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate-config / show-defaults


def test_validate_config_ok_line(tmp_path, capsys):
    path = tiny_config(tmp_path)
    code = cli.main(["validate-config", "--config", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert f"{path}: OK" in out
    assert "single intersection" in out


def test_validate_config_grid_shape_line(tmp_path, capsys):
    path = write_yaml(tmp_path, "network:\n  kind: grid\n  rows: 2\n  cols: 3\n")
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_OK
    assert "2x3 grid" in capsys.readouterr().out


def test_validate_config_bad_yaml_exits_1(tmp_path, capsys):
    path = write_yaml(tmp_path, "network: [1, 2\n")
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("run:\n  horizon_s: \"600\"\n", "run.horizon_s"),
    ("controller:\n  phase_duration_s: \"30\"\n", "controller.phase_duration_s"),
])
def test_validate_config_quoted_number_exits_1(tmp_path, capsys, text, key):
    path = write_yaml(tmp_path, text)
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
def test_validate_config_rate_mapping_off_the_entry_lanes_exits_1(tmp_path, capsys, section):
    path = write_yaml(tmp_path, f"""\
        network:
          kind: grid
          rows: 1
          cols: 2
        {section}:
          rate_vph: {{"1:WT": 400, "9:QQ": 3}}
    """)
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "config error" in captured.err and f"{section}.rate_vph" in captured.err


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
@pytest.mark.parametrize("text, key", [
    ('peak_lanes: ["9:ET"]', "peak_lanes"),
    ("peak_windows: [[0, 600], [300, 900]]", "peak_windows"),
    ("peak_windows: [[0, 6000]]", "peak_windows"),
])
def test_validate_config_bad_peaked_demand_exits_1(tmp_path, capsys, section, text, key):
    path = write_yaml(tmp_path, f"""\
        network:
          kind: grid
          rows: 1
          cols: 2
        run:
          horizon_s: 3600
        {section}:
          kind: peaked
          {text}
    """)
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "config error" in captured.err and f"{section}.{key}" in captured.err


def unroutable_demand_file(tmp_path):
    """A 1x3 grid demand file whose one route skips from 0:WT to 2:WT."""
    path = tmp_path / "demand.csv"
    path.write_text("vehicle_id,entry_time_s,intersection,approach,movement\n"
                    "0,1.0,0,W,T,2,W,T\n")
    return path


def file_demand_config(tmp_path, section, demand_path, controller="fixedtime"):
    return write_yaml(tmp_path, f"""\
        network:
          kind: grid
          rows: 1
          cols: 3
        controller:
          kind: {controller}
        run:
          horizon_s: 60
          episodes: 1
          seeds: [0]
          out_dir: {tmp_path}/out
        train:
          episodes: 1
        {section}:
          kind: file
          path: {demand_path}
    """)


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
@pytest.mark.parametrize("problem, message", [
    pytest.param("missing", "cannot read", id="missing"),
    pytest.param("unroutable", "demand_route", id="unroutable"),
    pytest.param("undecodable", "codec can't decode", id="undecodable"),  # a ValueError
])
def test_validate_config_bad_demand_file_exits_1(tmp_path, capsys, section, problem, message):
    if problem == "missing":
        demand_path = tmp_path / "absent.csv"
    elif problem == "unroutable":
        demand_path = unroutable_demand_file(tmp_path)
    else:
        demand_path = tmp_path / "binary.csv"
        demand_path.write_bytes(b"\xff\xfe\x00bad")
    path = file_demand_config(tmp_path, section, demand_path)
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "config error" in captured.err and f"{section}.path" in captured.err
    assert message in captured.err


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
@pytest.mark.parametrize("rows, message", [
    ("0,1.0,0,W,T\n0,2.0,0,E,T\n", "demand: vehicle id 0 is used by more than one vehicle"),
    ("0,1.0,0,W,L\n", "demand_route: vehicle 0 references missing lane 0:WL"),
])
def test_a_demand_file_that_parses_is_checked_by_validate_demand(tmp_path, capsys, section,
                                                                  rows, message):
    # the reader only parses; validate-config and run refuse the vehicles
    # through sim.validate_demand, before any out dir exists
    demand_path = tmp_path / "demand.csv"
    demand_path.write_text("vehicle_id,entry_time_s,intersection,approach,movement\n" + rows)
    assert demand_mod.load_demand_csv(demand_path)
    path = file_demand_config(tmp_path, section, demand_path)
    for command in ("validate-config", "run"):
        assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert f"config error: {section}.path: {message}" in captured.err
    assert not (tmp_path / "out").exists()


def test_a_peak_window_past_the_training_horizon_is_refused(tmp_path, capsys):
    with open(tiny_config(tmp_path, "rl")) as fh:
        doc = yaml.safe_load(fh)
    doc["run"]["horizon_s"] = 120
    doc["demand"] = {"kind": "peaked", "peak_windows": [[60, 120]]}
    path = tmp_path / "peaked.yaml"
    path.write_text(yaml.safe_dump(doc))
    for command in ("validate-config", "run"):
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert ("config error: demand.peak_windows: peak window [60, 120] outside the "
                "horizon [0, 60]") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    doc["controller"]["kind"] = "fixedtime"   # never trains: the run horizon alone counts
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate-config", "--config", str(path)]) == cli.EXIT_OK


def test_validate_config_accepts_a_routable_demand_file(tmp_path, capsys):
    demand_path = tmp_path / "demand.csv"
    demand_path.write_text("vehicle_id,entry_time_s,intersection,approach,movement\n"
                           "0,1.0,0,W,T,1,W,T,2,W,T\n")
    path = file_demand_config(tmp_path, "demand", demand_path)
    assert cli.main(["validate-config", "--config", path]) == cli.EXIT_OK
    assert "1x3 grid" in capsys.readouterr().out


def test_rl_run_with_unroutable_deploy_demand_fails_before_training(tmp_path, capsys,
                                                                     monkeypatch):
    trained = []
    monkeypatch.setattr(harness, "train", lambda *args, **kwargs: trained.append(args))
    path = file_demand_config(tmp_path, "deploy_demand", unroutable_demand_file(tmp_path),
                              controller="rl")
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "deploy_demand.path: demand_route" in capsys.readouterr().err
    assert trained == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("controller, section, override, key", [
    ("fixedtime", "network", {"road_length_m": -5}, "network: road_length"),
    ("fixedtime", "network", {"free_flow_speed_mps": 0}, "network: free_flow_speed"),
    ("fixedtime", "network", {"saturation_headway_s": 0}, "network: saturation_headway"),
    ("fixedtime", "network", {"yellow_s": -1}, "network: transition_time"),
    ("fixedtime", "network", {"min_green_s": 0}, "network: min_green"),
    ("fixedtime", "network", {"kind": "grid", "rows": 1, "cols": 2, "road_length_m": 1.0e-12},
     "network.road_length_m: a link time of 1e-13 s"),
    ("rl", "network", {"kind": "grid", "rows": 1, "cols": 2, "road_length_m": 1.0e-12},
     "network.road_length_m: a link time of 1e-13 s"),
    ("fixedtime", "controller", {"phase_duration_s": 0}, "controller.phase_duration_s"),
    ("webster", "controller", {"phase_duration_s": -1}, "controller.phase_duration_s"),
    ("rl", "agent", {"hidden_dims": []}, "controller.agent: agent_hidden_dims"),
    ("rl", "agent", {"hidden_dims": [0]}, "controller.agent: agent_hidden_dims"),
    ("rl", "agent", {"learning_rate": -1}, "controller.agent: agent_learning_rate"),
    ("rl", "agent", {"reward_mode": "bogus"}, "controller.agent: 'bogus'"),
    ("rl", "agent", {"state_mode": "bogus"}, "controller.agent: 'bogus'"),
])
def test_config_that_run_refuses_fails_validate_config_and_makes_no_out_dir(
        tmp_path, capsys, controller, section, override, key):
    with open(tiny_config(tmp_path, controller)) as fh:
        doc = yaml.safe_load(fh)
    target = doc["controller"]["agent"] if section == "agent" else doc.setdefault(section, {})
    target.update(override)
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert cli.main(["validate-config", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert f"config error: {key}" in captured.err
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_show_defaults_round_trips_through_parser(capsys):
    assert cli.main(["show-defaults"]) == cli.EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    cfg = parse_config(doc)
    assert cfg.run.horizon_s == 3600
