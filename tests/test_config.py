"""YAML experiment configuration: parsing, validation, and object builders."""

import textwrap

import pytest
import yaml

from greenlight import config as config_mod
from greenlight.agent import AgentConfig
from greenlight.config import (
    build_demand_fn,
    build_network,
    build_webster_params,
    default_config_dict,
    load_config,
    parse_config,
    parse_lane_label,
)
from greenlight.core import Approach, ConfigError, LaneId, Movement


def write_yaml(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


# ---------------------------------------------------------------------------
# lane labels


def test_parse_lane_label_defaults_intersection_zero():
    assert parse_lane_label("WT") == LaneId(0, Approach.W, Movement.T)


def test_parse_lane_label_uses_caller_default():
    assert parse_lane_label("NT", intersection=3) == LaneId(3, Approach.N, Movement.T)


def test_parse_lane_label_with_explicit_intersection():
    assert parse_lane_label("2:ET") == LaneId(2, Approach.E, Movement.T)


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
    assert cfg.sweep == {}


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
    assert cfg.sweep == {"kind": "sotl-grid"}


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
# validation


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
])
def test_validate_config_rejects_bad_sections(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc)


def test_validate_config_surfaces_nested_agent_errors():
    with pytest.raises(ConfigError, match=r"controller\.agent"):
        parse_config({"controller": {"kind": "rl", "agent": {"gamma": 2.0}}})


def test_validate_config_surfaces_nested_webster_errors():
    with pytest.raises(ConfigError, match=r"controller\.webster"):
        parse_config({"controller": {"webster": {"saturation_headway_s": -1.0}}})


def test_validate_config_rejects_unknown_webster_key():
    with pytest.raises(ConfigError, match=r"controller\.webster"):
        parse_config({"controller": {"webster": {"cycle_time": 60}}})


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
    cfg = parse_config({
        "network": {"kind": "grid", "rows": 1, "cols": 2},
        "demand": {"rate_vph": {"1:WT": 100.0}},
    })
    net = build_network(cfg)
    fn = build_demand_fn(cfg.demand, net, run_seed=0, horizon_s=60)
    with pytest.raises(ConfigError, match="not an entry lane"):
        fn(0)


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
    from greenlight.demand import generate_uniform, save_demand_csv

    cfg = parse_config({"demand": {"rate_vph": 360.0}})
    net = build_network(cfg)
    saved = generate_uniform(360.0, net.intersections[0].lanes, 60.0)
    path = tmp_path / "demand.csv"
    save_demand_csv(path, saved)

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


def test_default_config_dict_parses_and_validates():
    cfg = parse_config(default_config_dict())
    assert cfg.controller.kind == "fixedtime"
    assert cfg.controller.agent["gamma"] == 0.8


def test_default_config_dict_survives_yaml_round_trip():
    doc = default_config_dict()
    assert yaml.safe_load(yaml.safe_dump(doc)) == doc
