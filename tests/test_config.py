"""YAML experiment configuration: parsing, resolution, and object builders."""

import copy
import dataclasses
import os
import pickle
import re
import tempfile
import textwrap

import pytest
import yaml
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from greenlight import config as config_mod
from greenlight import harness
from greenlight.agent import AgentConfig
from greenlight.config import (
    SweepSection,
    build_demand_fn,
    build_network,
    build_webster_params,
    default_config_dict,
    load_config,
    parse_config,
    parse_lane_label,
    resolve,
)
from greenlight.core import Approach, ConfigError, LaneId, Movement
from greenlight.demand import generate_uniform, straight_route
from test_demand import write_demand_csv


def write_yaml(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


# ---------------------------------------------------------------------------
# lane labels


def test_parse_lane_label_defaults_intersection_zero():
    assert parse_lane_label("WT") == LaneId(0, Approach.W, Movement.T)


def test_parse_lane_label_with_explicit_intersection():
    assert parse_lane_label("2:ET") == LaneId(2, Approach.E, Movement.T)
    assert parse_lane_label("3:NT") == LaneId(3, Approach.N, Movement.T)


def test_parse_lane_label_tolerates_whitespace():
    assert parse_lane_label(" 1: ST ") == LaneId(1, Approach.S, Movement.T)


@pytest.mark.parametrize("label, fragment", [
    ("x:WT", "bad intersection index"),
    ("WTX", "approach"),
    ("W", "approach"),
    ("QT", "unknown"),
])
def test_parse_lane_label_rejects_malformed(label, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_lane_label(label)


# ---------------------------------------------------------------------------
# document parsing


def test_parse_config_empty_document_gives_defaults():
    cfg = parse_config({})
    assert cfg.network.kind == "single"
    assert cfg.network.phases == 2
    assert cfg.demand.kind == "uniform"
    assert cfg.demand.rate_vph == 550.0
    assert cfg.controller.kind == "fixedtime"
    assert cfg.run.horizon_s == 3600
    assert cfg.run.seeds == [0]
    assert cfg.train.episodes == 50
    assert cfg.deploy_demand is None
    assert cfg.sweep == SweepSection("ablation", [2.0, 4.0, 6.0], [1.0, 2.0, 3.0])


def test_parse_config_rejects_non_mapping_root():
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config(["network"])


def test_parse_config_rejects_unknown_top_level_section():
    with pytest.raises(ConfigError, match="signals: unknown top-level"):
        parse_config({"signals": {}})


def test_parse_config_rejects_unknown_nested_key_with_dotted_path():
    with pytest.raises(ConfigError, match=r"network\.bogus: unknown key"):
        parse_config({"network": {"bogus": 1}})


def test_parse_config_rejects_non_mapping_section():
    with pytest.raises(ConfigError, match="demand: expected a mapping, got list"):
        parse_config({"demand": [1, 2]})


def test_parse_config_reads_deploy_demand_and_sweep():
    cfg = parse_config({
        "demand": {"kind": "peaked", "peak_windows": [[0, 100]]},
        "deploy_demand": {"kind": "uniform", "rate_vph": 300.0},
        "sweep": {"kind": "sotl-grid"},
    })
    assert cfg.deploy_demand is not None
    assert cfg.deploy_demand.rate_vph == 300.0
    assert cfg.sweep.kind == "sotl-grid"


# ---------------------------------------------------------------------------
# file loading


def test_load_config_round_trip(tmp_path):
    path = write_yaml(tmp_path, """\
        network:
          kind: grid
          rows: 1
          cols: 2
        controller:
          kind: sotl
          theta_red: 3.0
        run:
          seeds: [0, 1]
    """)
    cfg = load_config(path)
    assert cfg.network.cols == 2
    assert cfg.controller.theta_red == 3.0
    assert cfg.run.seeds == [0, 1]
    assert cfg.source_path == path


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.yaml")


def test_load_config_reports_yaml_error_with_line(tmp_path):
    path = write_yaml(tmp_path, "network: [1, 2\n")
    with pytest.raises(ConfigError, match="invalid YAML") as err:
        load_config(path)
    assert path in str(err.value)


def test_load_config_empty_file_is_default_config(tmp_path):
    path = write_yaml(tmp_path, "")
    cfg = load_config(path)
    assert cfg.controller.kind == "fixedtime"


# ---------------------------------------------------------------------------
# document checks (parse_config) and resolution (resolve)


@pytest.mark.parametrize("doc, fragment", [
    ({"network": {"kind": "hex"}}, r"network\.kind"),
    ({"network": {"phases": 3}}, r"network\.phases"),
    ({"network": {"kind": "grid", "rows": 0}}, r"network\.rows"),
    ({"demand": {"kind": "banana"}}, r"demand\.kind"),
    ({"demand": {"kind": "file"}}, r"demand\.path"),
    ({"demand": {"process": "brownian"}}, r"demand\.process"),
    ({"deploy_demand": {"kind": "file"}}, r"deploy_demand\.path"),
    ({"controller": {"kind": "lqr"}}, r"controller\.kind"),
    ({"run": {"horizon_s": 0}}, r"run\.horizon_s"),
    ({"run": {"episodes": 0}}, r"run\.episodes"),
    ({"run": {"seeds": []}}, r"run\.seeds"),
    ({"train": {"episodes": 0}}, r"train\.episodes"),
    ({"train": {"horizon_s": 0}}, r"train\.horizon_s: must be >= 1"),
    ({"train": {"horizon_s": -5}}, r"train\.horizon_s: must be >= 1"),
    ({"controller": {"theta_red": -1}}, r"controller\.theta_red"),
    ({"controller": {"theta_green": -0.5}}, r"controller\.theta_green"),
    # quoted YAML numbers, floats where counts belong, and bools as numbers
    ({"run": {"horizon_s": "600"}}, r"run\.horizon_s: expected int, got '600'"),
    ({"run": {"horizon_s": 600.0}}, r"run\.horizon_s: expected int"),
    ({"run": {"seeds": [0, "1"]}}, r"run\.seeds: expected list\[int\]"),
    ({"controller": {"phase_duration_s": "30"}}, r"controller\.phase_duration_s"),
    ({"controller": {"theta_red": True}}, r"controller\.theta_red"),
    ({"network": {"min_green_s": "5"}}, r"network\.min_green_s"),
    ({"network": {"road_length_m": "300"}}, r"network\.road_length_m"),
    ({"train": {"horizon_s": "60"}}, r"train\.horizon_s: expected int \| None"),
    ({"demand": {"rate_vph": "550"}}, r"demand\.rate_vph"),
    ({"demand": {"rate_vph": {"WT": "300"}}}, r"demand\.rate_vph"),
    ({"demand": {"rate_vph": -5}}, r"demand\.rate_vph: rates must be >= 0"),
    ({"deploy_demand": {"rate_vph": {"WT": 300, "ET": -1}}},
     r"deploy_demand\.rate_vph: rates must be >= 0"),
    ({"demand": {"fresh_each_episode": "no"}}, r"demand\.fresh_each_episode"),
    ({"deploy_demand": {"peak_windows": [["0", 600]]}}, r"deploy_demand\.peak_windows"),
    ({"deploy_demand": {"peak_windows": [[0, 600, 900]]}}, r"deploy_demand\.peak_windows"),
    ({"demand": {"peak_windows": None}}, r"demand\.peak_windows"),
    ({"demand": {"peak_windows": 5}}, r"demand\.peak_windows"),
    ({"controller": {"agent": {"learning_rate": "1e-3"}}}, r"controller\.agent\.learning_rate"),
    ({"controller": {"agent": {"hidden_dims": [8, "8"]}}}, r"controller\.agent\.hidden_dims"),
    ({"controller": {"agent": {"reward_mode": "weighted", "reward_weights": {"queue": "1"}}}},
     r"controller\.agent\.reward_weights"),
    ({"controller": {"webster": {"measurement_window_s": 60.5}}},
     r"controller\.webster\.measurement_window_s"),
    ({"controller": {"webster": {"cycle_time": 60}}},
     r"controller\.webster\.cycle_time: unknown key"),
    ({"controller": {"agent": {"gama": 0.5}}}, r"controller\.agent\.gama: unknown key"),
    # the sweep section, checked like the others
    ({"sweep": [1, 2]}, r"sweep: expected a mapping, got list"),
    ({"sweep": {"theta_reds": [1.0]}}, r"sweep\.theta_reds: unknown key"),
    ({"sweep": {"theta_red": []}}, r"sweep\.theta_red: need at least one threshold"),
    ({"sweep": {"kind": "sotl-grid", "theta_green": []}}, r"sweep\.theta_green: need at least"),
    ({"sweep": {"kind": "bogus"}}, r"sweep\.kind: 'bogus' not in"),
    ({"sweep": {"theta_red": ["2"]}}, r"sweep\.theta_red: expected list\[float\]"),
    ({"sweep": {"theta_green": 4}}, r"sweep\.theta_green: expected list\[float\]"),
])
def test_parse_config_rejects_bad_sections(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc)


def test_parse_config_builds_nothing_and_reads_no_file(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_config built or read something")

    monkeypatch.setattr(config_mod, "build_network", refuse)
    monkeypatch.setattr(config_mod.demand_mod, "load_demand_csv", refuse)
    monkeypatch.setattr(config_mod.AgentConfig, "from_dict", refuse)
    cfg = parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2},
                        "demand": {"kind": "file", "path": "/nonexistent/demand.csv"},
                        "deploy_demand": {"rate_vph": {"1:WT": 400}},
                        "controller": {"kind": "rl", "agent": {"gamma": 2.0}}})
    assert cfg.demand.path == "/nonexistent/demand.csv"


def test_resolve_surfaces_nested_agent_errors():
    cfg = parse_config({"controller": {"kind": "rl", "agent": {"gamma": 2.0}}})
    with pytest.raises(ConfigError, match=r"controller\.agent"):
        resolve(cfg)


def test_resolve_surfaces_nested_webster_errors():
    cfg = parse_config({"controller": {"webster": {"saturation_headway_s": -1.0}}})
    with pytest.raises(ConfigError, match=r"controller\.webster"):
        resolve(cfg)


def test_resolve_repeats_the_document_checks():
    # callers such as the CLI change a parsed config before they resolve it
    cfg = parse_config({})
    cfg.run.episodes = 0
    with pytest.raises(ConfigError, match=r"run\.episodes: must be >= 1"):
        resolve(cfg)


def test_plan_holds_what_a_run_draws_from():
    cfg = parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2},
                        "demand": {"rate_vph": 360.0, "process": "poisson"},
                        "controller": {"kind": "rl", "agent": {"gamma": 0.5}},
                        "run": {"horizon_s": 60}})
    plan = resolve(cfg)
    assert plan.cfg is cfg
    assert plan.network == build_network(cfg)
    assert plan.agent == AgentConfig(gamma=0.5)
    assert plan.deploy_demand is plan.demand   # no deploy_demand section
    assert plan.demand.multi_hop
    assert plan.demand.spec.horizon_s == 60
    for seed, episode in ((0, 0), (3, 1), (3, 10_000)):
        assert plan.demand.draw(seed, episode) == build_demand_fn(
            cfg.demand, plan.network, seed, 60)(episode)


def test_plan_with_controller_resolves_only_that_section():
    plan = resolve(parse_config({"controller": {"kind": "rl"}}))
    point = plan.with_controller(dataclasses.replace(plan.cfg.controller,
                                                     agent={"forecast": False}))
    assert point.agent.gamma == 0.0 and plan.agent.gamma == 0.8
    assert point.network is plan.network and point.demand is plan.demand
    with pytest.raises(ConfigError, match=r"^controller\.theta_red: must be >= 0"):
        plan.with_controller(dataclasses.replace(plan.cfg.controller, theta_red=-1.0))


def test_plan_trains_on_the_demand_section_over_the_training_horizon(tmp_path):
    doc = {"demand": {"rate_vph": 360.0}, "controller": {"kind": "rl"},
           "run": {"horizon_s": 60}, "train": {"horizon_s": 600}}
    plan = resolve(parse_config(doc))
    # one per 10 s on four lanes, over each horizon
    assert (len(plan.demand.draw(0, 0)), len(plan.train_demand.draw(0, 0))) == (24, 240)
    path = tmp_path / "demand.csv"
    write_demand_csv(path, plan.demand.draw(0, 0))
    for same in ({"train": {"horizon_s": 60}}, {"controller": {"kind": "fixedtime"}},
                 {"demand": {"kind": "file", "path": str(path)}}):
        plan = resolve(parse_config({**doc, **same}))
        assert plan.train_demand is plan.demand, same
    # a sweep point that starts to train gets the training horizon's demand
    fixed = resolve(parse_config({**doc, "controller": {"kind": "fixedtime"}}))
    learner = fixed.with_controller(dataclasses.replace(fixed.cfg.controller, kind="rl"))
    assert len(learner.train_demand.draw(0, 0)) == 240


def test_resolve_checks_each_peaked_sections_windows_once(monkeypatch):
    calls = []
    spans = config_mod.demand_mod.peak_spans

    def counted(windows, horizon_s, key="demand_peak"):
        calls.append(key)
        return spans(windows, horizon_s, key)

    monkeypatch.setattr(config_mod.demand_mod, "peak_spans", counted)
    resolve(parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2},
                          "demand": PEAKED_1X2, "deploy_demand": PEAKED_1X2}))
    assert calls == ["demand.peak_windows", "deploy_demand.peak_windows"]


def test_a_deterministic_demand_is_realized_once_per_run(tmp_path, monkeypatch):
    cfg = parse_config({"network": {"kind": "grid", "rows": 2, "cols": 2},
                        "demand": {"rate_vph": 550.0},
                        "run": {"horizon_s": 120, "episodes": 2, "seeds": [0, 1, 2],
                                "out_dir": str(tmp_path)}})
    network = build_network(cfg)
    expected = generate_uniform(550.0, config_mod._entry_lanes(network), 120.0,
                                route_for_lane=lambda lane: straight_route(network, lane))
    calls = []
    realize = config_mod.demand_mod.realize

    def counted(spec, route_for_lane=None):
        calls.append(spec.process.value)
        return realize(spec, route_for_lane)

    monkeypatch.setattr(config_mod.demand_mod, "realize", counted)
    harness.run_experiment(cfg)
    assert calls == ["deterministic"]   # 6 episodes drew it
    plan = resolve(cfg)
    for seed, episode in ((0, 0), (3, 1), (3, 10_000)):
        assert plan.demand.draw(seed, episode) == expected
    assert len(calls) == 2


def test_a_pickled_plan_draws_the_same_vehicles(tmp_path):
    path = tmp_path / "deploy.csv"
    lanes = build_network(parse_config({})).intersections[0].lanes
    write_demand_csv(path, generate_uniform(360.0, lanes, 60.0))
    plan = resolve(parse_config({
        "network": {"kind": "grid", "rows": 2, "cols": 2},
        "demand": {"kind": "peaked", "process": "poisson", "peak_windows": [[10, 40]],
                   "peak_lanes": ["0:WT"], "seed": 5},
        "deploy_demand": {"kind": "file", "path": str(path)},
        "run": {"horizon_s": 60},
    }))
    restored = pickle.loads(pickle.dumps(plan))
    for seed, episode in ((0, 0), (7, 2), (7, 10_001)):
        assert restored.demand.draw(seed, episode) == plan.demand.draw(seed, episode)
        assert restored.deploy_demand.draw(seed, episode) == plan.deploy_demand.draw(seed, episode)
    assert restored.deploy_demand.draw(0, 0)


# ---------------------------------------------------------------------------
# builders


def test_build_network_single_with_overrides():
    cfg = parse_config({"network": {
        "road_length_m": 150.0, "saturation_headway_s": 2.5, "min_green_s": 7,
    }})
    net = build_network(cfg)
    assert net.intersection_count == 1
    base = net.intersections[0]
    assert base.road_length_m == 150.0
    assert base.saturation_headway_s == 2.5
    assert base.min_green_s == 7
    assert len(base.phases) == 2


def test_build_network_grid():
    cfg = parse_config({"network": {"kind": "grid", "rows": 2, "cols": 2, "phases": 4}})
    net = build_network(cfg)
    assert net.intersection_count == 4
    assert len(net.intersections[3].phases) == 4


def test_entry_lanes_exclude_linked_approaches():
    cfg = parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2}})
    net = build_network(cfg)
    entries = set(config_mod._entry_lanes(net))
    assert len(entries) == 6
    assert LaneId(0, Approach.E, Movement.T) not in entries  # fed by the link
    assert LaneId(1, Approach.W, Movement.T) not in entries
    assert LaneId(0, Approach.W, Movement.T) in entries


def test_build_demand_fn_uniform_scalar_is_episode_invariant():
    cfg = parse_config({"demand": {"rate_vph": 360.0}, "run": {"horizon_s": 60}})
    net = build_network(cfg)
    fn = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=60)
    vehicles = fn(0)
    assert len(vehicles) == 6 * 4  # one per 10 s on each of the four lanes
    assert all(len(v.route) == 1 for v in vehicles)
    assert [v.entry_time_s for v in fn(5)] == [v.entry_time_s for v in vehicles]


def test_build_demand_fn_partial_rate_mapping_silences_other_lanes():
    cfg = parse_config({"demand": {"rate_vph": {"WT": 360.0}}})
    net = build_network(cfg)
    fn = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=60)
    vehicles = fn(0)
    assert len(vehicles) == 6
    assert {v.route[0] for v in vehicles} == {LaneId(0, Approach.W, Movement.T)}


def test_build_demand_fn_rejects_non_entry_lane():
    # build_demand_fn resolves the mapping when it is built, before any
    # draw, and names the section's key
    cfg = parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2}})
    cfg.demand.rate_vph = {"1:WT": 100.0}
    net = build_network(cfg)
    with pytest.raises(ConfigError, match=r"^demand\.rate_vph: 1:WT is not an entry lane"):
        build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=60)


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
@pytest.mark.parametrize("rates, fragment", [
    ({"1:WT": 400, "9:QQ": 3}, "1:WT is not an entry lane"),
    ({"0:WT": 400, "9:QQ": 3}, "unknown approach or movement"),
    ({"0:WT": 400, "2:ET": 3}, "2:ET is not an entry lane"),
    ({"x:WT": 400}, "bad intersection index"),
])
def test_resolve_checks_rate_mapping_lanes(section, rates, fragment):
    doc = {"network": {"kind": "grid", "rows": 1, "cols": 2}}
    doc[section] = {"kind": "uniform", "rate_vph": rates}
    with pytest.raises(ConfigError, match=rf"^{section}\.rate_vph: .*{fragment}"):
        resolve(parse_config(doc))


def test_resolve_accepts_entry_lane_mappings():
    cfg = parse_config({
        "network": {"kind": "grid", "rows": 1, "cols": 2},
        "demand": {"rate_vph": {"0:WT": 400, "1:ET": 300, "1:NT": 5}},
        "deploy_demand": {"rate_vph": {"WT": 200}},
    })
    resolve(cfg)
    assert cfg.demand.rate_vph["1:ET"] == 300


PEAKED_1X2 = {"kind": "peaked", "base_vph": 100, "peak_vph": 1000, "peak_windows": [[0, 600]]}


@pytest.mark.parametrize("section", ["demand", "deploy_demand"])
@pytest.mark.parametrize("override, fragment", [
    ({"peak_lanes": ["1:WT"]}, r"peak_lanes: 1:WT is not an entry lane"),   # fed by a link
    ({"peak_lanes": ["0:WT", "9:ET"]}, r"peak_lanes: 9:ET is not an entry lane"),
    ({"peak_lanes": ["0:QQ"]}, r"peak_lanes: .*unknown approach or movement"),
    ({"peak_lanes": "0:WT"}, r"peak_lanes: expected a list of lane labels"),
    ({"peak_windows": [[0, 600], [300, 900]]}, r"peak_windows: peak windows overlap"),
    ({"peak_windows": [[0, 6000]]}, r"peak_windows: peak window \[0, 6000\] outside"),
    ({"peak_windows": [[-60, 300]]}, r"peak_windows: peak window \[-60, 300\] outside"),
    ({"peak_windows": [[600, 300]]}, r"peak_windows: peak window \[600, 300\] must end after"),
    ({"peak_windows": [[300, 300]]}, r"peak_windows: peak window \[300, 300\] must end after"),
    ({"peak_vph": -5}, r"peak_vph: must be >= 0"),
    ({"base_vph": -1.5}, r"base_vph: must be >= 0"),
])
def test_resolve_checks_peaked_demand(section, override, fragment):
    doc = {"network": {"kind": "grid", "rows": 1, "cols": 2}, "run": {"horizon_s": 3600}}
    doc[section] = {**PEAKED_1X2, **override}
    with pytest.raises(ConfigError, match=rf"^{section}\.{fragment}"):
        resolve(parse_config(doc))


def test_resolve_accepts_peaked_entry_lanes_and_touching_windows():
    cfg = parse_config({
        "network": {"kind": "grid", "rows": 1, "cols": 2},
        "demand": {**PEAKED_1X2, "peak_lanes": ["0:WT", "1:ET"],
                   "peak_windows": [[0, 600], [600, 900], [3000, 3600]]},
        "deploy_demand": {**PEAKED_1X2, "peak_lanes": None},
    })
    resolve(cfg)
    assert cfg.demand.peak_lanes == ["0:WT", "1:ET"]


def test_build_demand_fn_peaks_only_the_named_entry_lane():
    cfg = parse_config({"network": {"kind": "grid", "rows": 1, "cols": 2},
                        "run": {"horizon_s": 600},
                        "demand": {**PEAKED_1X2, "peak_lanes": ["0:WT"]}})
    vehicles = build_demand_fn(cfg.demand, build_network(cfg), run_seed=0, horizon_s=600)(0)
    assert len(vehicles) == 252  # 167 on 0:WT at 1000 veh/h, 17 on each other entry lane at 100


def test_build_demand_fn_grid_routes_straight_through():
    cfg = parse_config({
        "network": {"kind": "grid", "rows": 1, "cols": 2},
        "demand": {"rate_vph": 120.0},
    })
    net = build_network(cfg)
    vehicles = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=60)(0)
    west_entry = [v for v in vehicles
                  if v.route[0] == LaneId(0, Approach.W, Movement.T)]
    assert west_entry and all(
        v.route == (LaneId(0, Approach.W, Movement.T), LaneId(1, Approach.W, Movement.T))
        for v in west_entry
    )
    north_entry = [v for v in vehicles
                   if v.route[0] == LaneId(0, Approach.N, Movement.T)]
    assert north_entry and all(len(v.route) == 1 for v in north_entry)


def test_build_demand_fn_poisson_fresh_each_episode():
    cfg = parse_config({
        "demand": {"rate_vph": 720.0, "process": "poisson", "seed": 4},
        "run": {"horizon_s": 600},
    })
    net = build_network(cfg)
    fn = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=600)
    t0 = [v.entry_time_s for v in fn(0)]
    t1 = [v.entry_time_s for v in fn(1)]
    assert t0 != t1

    cfg.demand.fresh_each_episode = False
    frozen = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=600)
    assert [v.entry_time_s for v in frozen(0)] == [v.entry_time_s for v in frozen(1)]


def test_build_demand_fn_file_kind_replays_saved_demand(tmp_path):
    cfg = parse_config({"demand": {"rate_vph": 360.0}})
    net = build_network(cfg)
    saved = generate_uniform(360.0, net.intersections[0].lanes, 60.0)
    path = tmp_path / "demand.csv"
    write_demand_csv(path, saved)

    file_cfg = parse_config({"demand": {"kind": "file", "path": str(path)}})
    fn = build_demand_fn(file_cfg.demand, net, run_seed=9, horizon_s=60)
    assert fn(0) == fn(3)
    assert len(fn(0)) == len(saved)


def test_build_webster_params_defaults_come_from_geometry():
    cfg = parse_config({"network": {"saturation_headway_s": 2.4, "yellow_s": 4}})
    net = build_network(cfg)
    params = build_webster_params(cfg, net.intersections[0])
    assert params.saturation_headway_s == 2.4
    assert params.loss_time_per_phase_s == 6.0  # yellow 4 + all-red 2


def test_build_webster_params_overrides_win():
    cfg = parse_config({"controller": {"webster": {
        "cycle_bounds_s": [30, 120], "loss_time_per_phase_s": 4.0,
    }}})
    net = build_network(cfg)
    params = build_webster_params(cfg, net.intersections[0])
    assert params.cycle_bounds_s == (30, 120)
    assert params.loss_time_per_phase_s == 4.0
    assert params.saturation_headway_s == 2.0


def test_agent_config_from_controller_section_applies_overrides():
    cfg = parse_config({"controller": {"kind": "rl", "agent": {
        "gamma": 0.5, "hidden_dims": [16, 8],
    }}})
    agent_cfg = AgentConfig.from_dict(cfg.controller.agent)
    assert agent_cfg.gamma == 0.5
    assert agent_cfg.hidden_dims == (16, 8)


# ---------------------------------------------------------------------------
# defaults document


def test_default_config_dict_parses_and_resolves():
    cfg = parse_config(default_config_dict())
    resolve(cfg)
    assert cfg.controller.kind == "fixedtime"
    assert cfg.controller.agent["gamma"] == 0.8


def test_default_config_dict_survives_yaml_round_trip():
    doc = default_config_dict()
    assert yaml.safe_load(yaml.safe_dump(doc)) == doc


# ---------------------------------------------------------------------------
# resolve is the whole contract: what it accepts runs to the end, and what
# it rejects is named by a config key


AGENT_BASE = {"hidden_dims": [8], "batch_size": 4, "replay_capacity": 64,
              "decision_interval_s": 10}
LANE_LABELS = ["WT", "0:WT", "0:ET", "0:NT", "0:WL", "1:WT", "1:ET", "2:ET", "9:QQ", "x:WT"]
ROUTES = ["0,W,T", "0,W,L", "0,W,T,1,W,T", "1,E,T,0,E,T", "0,N,T,2,N,T", "0,W,T,2,W,T",
          "0,W,Q"]
FAULTS = [   # (section, key, value): one bad or quoted field
    ("network", "road_length_m", -5), ("network", "free_flow_speed_mps", 0),
    ("network", "saturation_headway_s", 0), ("network", "yellow_s", -1),
    ("network", "min_green_s", 0), ("network", "road_length_m", "300"),
    ("network", "road_length_m", 1.0e-12),
    ("demand", "rate_vph", "300"), ("demand", "peak_vph", -5),
    ("run", "horizon_s", "600"), ("run", "episodes", 0), ("train", "episodes", 0),
    ("train", "horizon_s", -5), ("train", "horizon_s", 0),
    ("controller", "phase_duration_s", 0), ("controller", "phase_duration_s", "30"),
    ("controller", "theta_red", -1),
    ("agent", "hidden_dims", []), ("agent", "hidden_dims", [0]),
    ("agent", "learning_rate", -1), ("agent", "learning_rate", "1e-3"),
    ("agent", "reward_mode", "bogus"), ("agent", "state_mode", "bogus"),
    ("agent", "gamma", 2.0),
    ("webster", "cycle_bounds_s", [30]), ("webster", "measurement_window_s", 1),
]
HEADER = "vehicle_id,entry_time_s,intersection,approach,movement\n"
KEY_PREFIX = r"^(network|demand|deploy_demand|controller|run|train)(\.\w+)*: "


def oracle_case(doc, files=None):
    """A config document, and the text of each ``kind: file`` section's
    demand file by section name (None: the file does not exist)."""
    return doc, files or {}


def mostly(valid, anything):
    """Values of `valid` three draws in four, of `anything` in the fourth."""
    return st.integers(0, 3).flatmap(lambda i: anything if i == 3 else valid)


@st.composite
def demand_sections(draw, name, files):
    kind = draw(st.sampled_from(["uniform", "peaked", "file"]))
    if kind == "file":
        rows = draw(st.lists(st.tuples(mostly(st.just("1.0"), st.just("-1")),
                                       mostly(st.just("0,W,T"), st.sampled_from(ROUTES))),
                             max_size=3))
        header = draw(mostly(st.just(HEADER), st.just("vehicle,time\n")))
        files[name] = draw(mostly(st.just(header + "".join(
            f"{vid},{t},{route}\n" for vid, (t, route) in enumerate(rows))), st.none()))
        return {"kind": "file", "path": f"@{name}"}
    section = {"kind": kind, "seed": draw(st.integers(0, 3)),
               "process": draw(st.sampled_from(["deterministic", "poisson"]))}
    labels = st.lists(st.sampled_from(LANE_LABELS), min_size=1, max_size=2)
    if kind == "uniform":
        section["rate_vph"] = draw(mostly(
            st.sampled_from([120.0, 400, {"WT": 300.0}, {"0:NT": 200, "0:ET": 0}]),
            labels.map(lambda names: {label: 200.0 for label in names})))
    else:
        bound = st.sampled_from([-60, 0, 60, 120, 200, 300, 400])
        section.update(base_vph=draw(st.sampled_from([100.0, 250])), peak_vph=600.0,
                       peak_windows=draw(mostly(
                           st.sampled_from([[], [[0, 60]], [[60, 120], [0, 60]]]),
                           st.lists(st.lists(bound, min_size=2, max_size=2), max_size=2))),
                       peak_lanes=draw(mostly(st.sampled_from([None, ["WT"]]), labels)))
    return section


@st.composite
def oracle_cases(draw):
    network = {"phases": draw(st.sampled_from([2, 4]))}
    if draw(st.booleans()):
        rows, cols = draw(st.sampled_from([(1, 2), (2, 1), (1, 3), (2, 2)]))
        network.update(kind="grid", rows=rows, cols=cols)
    files: dict = {}
    doc = {
        "network": network,
        "demand": draw(demand_sections("demand", files)),
        "controller": {"kind": draw(st.sampled_from(["fixedtime", "sotl", "webster", "rl"])),
                       "agent": {**AGENT_BASE, "state_mode": draw(st.sampled_from(
                           ["counts_phase", "counts_plus_occupancy", "waiting_phase"]))}},
        "run": {"horizon_s": draw(st.sampled_from([120, 300])), "episodes": 1, "seeds": [0]},
        "train": {"episodes": 1},
    }
    if draw(st.booleans()):
        doc["deploy_demand"] = draw(demand_sections("deploy_demand", files))
    if draw(st.integers(0, 3)) == 3:   # one draw in four gets a fault
        section, key, value = draw(st.sampled_from(FAULTS))
        if section in ("agent", "webster"):
            doc["controller"].setdefault(section, {})[key] = value
        else:
            doc[section][key] = value
    return oracle_case(doc, files)


GRID_1X2 = {"kind": "grid", "rows": 1, "cols": 2}
GRID_1X3 = {"kind": "grid", "rows": 1, "cols": 3}
FILE = {"kind": "file", "path": "@demand"}
DEPLOY_FILE = {"kind": "file", "path": "@deploy_demand"}
RL = {"kind": "rl", "agent": AGENT_BASE}
TINY_ROAD_M = 1.00001e-8    # a 1.00001e-9 s link: lost to rounding from step 64 on


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
# quoted numbers, rate-mapping labels, peaked lanes and windows, CLI-reachable
# episode counts and the training horizon: earlier holes in validation
@example(oracle_case({"run": {"horizon_s": "600"}}))
@example(oracle_case({"controller": {"phase_duration_s": "30"}}))
@example(oracle_case({"network": GRID_1X2, "demand": {"rate_vph": {"1:WT": 400, "9:QQ": 3}}}))
@example(oracle_case({"network": GRID_1X2, "run": {"horizon_s": 600},
                      "demand": {**PEAKED_1X2, "peak_lanes": ["1:WT"]}}))
@example(oracle_case({"network": GRID_1X2, "run": {"horizon_s": 600},
                      "demand": {**PEAKED_1X2, "peak_lanes": ["9:ET"]}}))
@example(oracle_case({"network": GRID_1X2, "run": {"horizon_s": 3600},
                      "demand": {**PEAKED_1X2, "peak_windows": [[0, 600], [300, 900]]}}))
@example(oracle_case({"network": GRID_1X2, "run": {"horizon_s": 3600},
                      "demand": {**PEAKED_1X2, "peak_windows": [[0, 6000]]}}))
@example(oracle_case({"controller": RL, "run": {"horizon_s": 120},   # past the training horizon
                      "train": {"episodes": 1, "horizon_s": 60},
                      "demand": {**PEAKED_1X2, "peak_windows": [[60, 120]]}}))
@example(oracle_case({"run": {"episodes": 0}}))
@example(oracle_case({"train": {"episodes": 0}}))
@example(oracle_case({"train": {"horizon_s": -5}}))
@example(oracle_case({"train": {"horizon_s": 0}}))
# demand files: missing, a bad header, a route that skips an intersection
@example(oracle_case({"network": GRID_1X3, "demand": FILE}, {"demand": None}))
@example(oracle_case({"network": GRID_1X3, "demand": FILE}, {"demand": "vehicle,time\n"}))
@example(oracle_case({"network": GRID_1X3, "controller": RL, "train": {"episodes": 1},
                      "run": {"horizon_s": 60}, "deploy_demand": DEPLOY_FILE},
                     {"deploy_demand": HEADER + "0,1.0,0,W,T,2,W,T\n"}))
# link times too short for a next hop: at every step; only past the evaluation
# horizon, which refuses a learner that trains longer but not a controller that
# never trains; within the evaluation horizon; midway but not at its last step;
# and with single-hop routes only, which cross no link
@example(oracle_case({"network": {**GRID_1X2, "road_length_m": 1.0e-12}}))
@example(oracle_case({"network": {**GRID_1X2, "road_length_m": TINY_ROAD_M},
                      "controller": RL, "run": {"horizon_s": 60}, "train": {"horizon_s": 300}}))
@example(oracle_case({"network": {**GRID_1X2, "road_length_m": TINY_ROAD_M},
                      "run": {"horizon_s": 300}, "train": {"horizon_s": 300}}))
@example(oracle_case({"network": {**GRID_1X2, "road_length_m": TINY_ROAD_M},
                      "run": {"horizon_s": 60}, "train": {"horizon_s": 300}}))
@example(oracle_case({"network": {**GRID_1X2, "road_length_m": 1.000001e-8},
                      "run": {"horizon_s": 60}}))   # lost at steps 16 to 31, not at 59
@example(oracle_case({"network": {**GRID_1X3, "road_length_m": 1.0e-12}, "demand": FILE},
                     {"demand": HEADER + "0,1.0,0,W,T\n1,2.0,1,N,T\n"}))
# geometry, controller and agent values the builders refuse
@example(oracle_case({"network": {"road_length_m": -5}}))
@example(oracle_case({"network": {"free_flow_speed_mps": 0}}))
@example(oracle_case({"network": {"saturation_headway_s": 0}}))
@example(oracle_case({"network": {"yellow_s": -1}}))
@example(oracle_case({"network": {"min_green_s": 0}}))
@example(oracle_case({"controller": {"phase_duration_s": 0}}))
@example(oracle_case({"controller": {"kind": "rl", "agent": {"hidden_dims": []}}}))
@example(oracle_case({"controller": {"kind": "rl", "agent": {"hidden_dims": [0]}}}))
@example(oracle_case({"controller": {"kind": "rl", "agent": {"learning_rate": -1}}}))
@example(oracle_case({"controller": {"kind": "rl", "agent": {"reward_mode": "bogus"}}}))
@example(oracle_case({"controller": {"kind": "rl", "agent": {"state_mode": "bogus"}}}))
def test_resolve_accepts_only_configs_that_run(case):
    doc, files = case
    with tempfile.TemporaryDirectory() as tmp:
        doc = copy.deepcopy(doc)
        for name in ("demand", "deploy_demand"):
            if name in doc and doc[name].get("path") == f"@{name}":
                doc[name]["path"] = path = os.path.join(tmp, f"{name}.csv")
                if files.get(name) is not None:
                    with open(path, "w") as fh:
                        fh.write(files[name])
        doc.setdefault("run", {})["out_dir"] = os.path.join(tmp, "out")
        try:
            cfg = parse_config(doc)
            resolve(cfg)
        except ConfigError as exc:
            key = re.match(KEY_PREFIX, str(exc))
            assert key, str(exc)
            event(f"rejected: {key.group(0)}")   # see --hypothesis-show-statistics
            return
        event(f"accepted: {cfg.controller.kind}")
        rows, paths = harness.run_experiment(cfg)
        assert rows and os.path.exists(paths[0])
