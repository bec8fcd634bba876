"""Experiment configuration: YAML schema, validation, and object builders.

A config document has four sections (plus two optional ones):

    network:     geometry — single intersection or a grid of copies
    demand:      arrival generator (uniform / peaked / file)
    controller:  which signal controller runs, with its parameters
    run:         horizon, evaluation episodes, seeds, output directory
    train:       (rl only) training schedule
    deploy_demand: (optional) demand used for evaluation when it should
                 differ from the training demand, e.g. distribution-shift
                 experiments

Errors raise ConfigError with a dotted key path (`demand.rate_vph: ...`);
YAML syntax errors carry the line reported by the parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import yaml

from .agent import AgentConfig
from .core import (
    Approach,
    ConfigError,
    IntersectionConfig,
    LaneId,
    Movement,
    NetworkConfig,
    Vehicle,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from .classic import WebsterParams
from . import demand as demand_mod

CONTROLLER_KINDS = ("fixedtime", "sotl", "webster", "rl")
DEMAND_KINDS = ("uniform", "peaked", "file")
NETWORK_KINDS = ("single", "grid")


def parse_lane_label(label: str, intersection: int = 0) -> LaneId:
    """Parse "0:WT" or "WT" (defaulting the intersection index)."""
    text = label.strip()
    if ":" in text:
        head, tail = text.split(":", 1)
        try:
            intersection = int(head)
        except ValueError:
            raise ConfigError(f"lane label {label!r}: bad intersection index") from None
        text = tail.strip()
    if len(text) != 2:
        raise ConfigError(f"lane label {label!r}: expected approach+movement like WT")
    try:
        return LaneId(intersection, Approach(text[0]), Movement(text[1]))
    except ValueError:
        raise ConfigError(f"lane label {label!r}: unknown approach or movement") from None


@dataclass
class NetworkSection:
    kind: str = "single"
    phases: int = 2
    rows: int = 1
    cols: int = 1
    road_length_m: float = 300.0
    free_flow_speed_mps: float = 10.0
    saturation_headway_s: float = 2.0
    yellow_s: int = 3
    all_red_s: int = 2
    min_green_s: int = 5


@dataclass
class DemandSection:
    kind: str = "uniform"
    rate_vph: Any = 550.0            # scalar or {lane label: rate}
    process: str = "deterministic"
    seed: int = 0
    base_vph: float = 200.0          # peaked
    peak_vph: float = 800.0
    peak_windows: list = field(default_factory=list)
    peak_lanes: list | None = None
    path: str | None = None          # file
    fresh_each_episode: bool = True  # vary poisson seed per episode


@dataclass
class ControllerSection:
    kind: str = "fixedtime"
    phase_duration_s: float = 30.0
    theta_red: float = 4.0
    theta_green: float = 2.0
    webster: dict = field(default_factory=dict)   # WebsterParams overrides
    agent: dict = field(default_factory=dict)     # AgentConfig overrides


@dataclass
class RunSection:
    horizon_s: int = 3600
    episodes: int = 1
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "results"


@dataclass
class TrainSection:
    episodes: int = 50
    horizon_s: int | None = None     # defaults to run.horizon_s


@dataclass
class ExperimentConfig:
    network: NetworkSection
    demand: DemandSection
    controller: ControllerSection
    run: RunSection
    train: TrainSection
    deploy_demand: DemandSection | None = None
    sweep: dict = field(default_factory=dict)
    source_path: str | None = None


def _fill(section_cls, data: Any, key: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: expected a mapping, got {type(data).__name__}")
    valid = {f.name for f in section_cls.__dataclass_fields__.values()}
    for k in data:
        if k not in valid:
            raise ConfigError(f"{key}.{k}: unknown key (expected one of {sorted(valid)})")
    try:
        return section_cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config(data: dict, source_path: str | None = None) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    known = {"network", "demand", "controller", "run", "train", "deploy_demand", "sweep"}
    for k in data:
        if k not in known:
            raise ConfigError(f"{k}: unknown top-level section (expected {sorted(known)})")
    cfg = ExperimentConfig(
        network=_fill(NetworkSection, data.get("network"), "network"),
        demand=_fill(DemandSection, data.get("demand"), "demand"),
        controller=_fill(ControllerSection, data.get("controller"), "controller"),
        run=_fill(RunSection, data.get("run"), "run"),
        train=_fill(TrainSection, data.get("train"), "train"),
        deploy_demand=(
            _fill(DemandSection, data["deploy_demand"], "deploy_demand")
            if data.get("deploy_demand") is not None else None
        ),
        sweep=data.get("sweep") or {},
        source_path=source_path,
    )
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ConfigError(f"{where}: invalid YAML: {exc}") from None
    if data is None:
        data = {}
    return parse_config(data, source_path=path)


def validate_config(cfg: ExperimentConfig) -> None:
    net, dem, ctrl, run = cfg.network, cfg.demand, cfg.controller, cfg.run
    if net.kind not in NETWORK_KINDS:
        raise ConfigError(f"network.kind: {net.kind!r} not in {NETWORK_KINDS}")
    if net.phases not in (2, 4):
        raise ConfigError(f"network.phases: {net.phases} (expected 2 or 4)")
    if net.kind == "grid" and (net.rows < 1 or net.cols < 1):
        raise ConfigError("network.rows/cols: must be >= 1")
    for section_name, section in [("demand", dem)] + (
        [("deploy_demand", cfg.deploy_demand)] if cfg.deploy_demand else []
    ):
        if section.kind not in DEMAND_KINDS:
            raise ConfigError(f"{section_name}.kind: {section.kind!r} not in {DEMAND_KINDS}")
        if section.kind == "file" and not section.path:
            raise ConfigError(f"{section_name}.path: required for kind 'file'")
        if section.process not in ("deterministic", "poisson"):
            raise ConfigError(
                f"{section_name}.process: {section.process!r} "
                "(expected deterministic or poisson)"
            )
    if ctrl.kind not in CONTROLLER_KINDS:
        raise ConfigError(f"controller.kind: {ctrl.kind!r} not in {CONTROLLER_KINDS}")
    if run.horizon_s < 1:
        raise ConfigError("run.horizon_s: must be >= 1")
    if run.episodes < 1:
        raise ConfigError("run.episodes: must be >= 1")
    if not run.seeds:
        raise ConfigError("run.seeds: need at least one seed")
    if cfg.train.episodes < 1:
        raise ConfigError("train.episodes: must be >= 1")
    # constructing these surfaces nested errors early, with their key prefix
    try:
        AgentConfig.from_dict(ctrl.agent)
    except (ConfigError, TypeError) as exc:
        raise ConfigError(f"controller.agent: {exc}") from None
    try:
        WebsterParams(**{
            k: tuple(v) if isinstance(v, list) else v for k, v in ctrl.webster.items()
        })
    except (ConfigError, TypeError) as exc:
        raise ConfigError(f"controller.webster: {exc}") from None


# ---------------------------------------------------------------------------
# builders


def build_network(cfg: ExperimentConfig) -> NetworkConfig:
    net = cfg.network
    base = build_standard_intersection(
        net.phases,
        road_length_m=net.road_length_m,
        free_flow_speed_mps=net.free_flow_speed_mps,
        saturation_headway_s=net.saturation_headway_s,
        yellow_s=net.yellow_s,
        all_red_s=net.all_red_s,
        min_green_s=net.min_green_s,
    )
    if net.kind == "single":
        return single_intersection_network(base)
    return build_grid_network(net.rows, net.cols, base)


def _entry_lanes(network: NetworkConfig) -> list[LaneId]:
    """Lanes fed from outside the grid (no upstream link on their approach)."""
    out = []
    for i, intersection in enumerate(network.intersections):
        for lane in intersection.lanes:
            feeds_from_outside = all(
                dst != (i, lane.approach) for dst in network.links.values()
            )
            if feeds_from_outside:
                out.append(lane)
    return out


def _mix_seed(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p)) % (2**63)
    return out


def build_demand_fn(
    section: DemandSection,
    network: NetworkConfig,
    run_seed: int,
    horizon_s: float,
) -> Callable[[int], list[Vehicle]]:
    """Episode-indexed demand source, deterministic per (section, run_seed).

    Multi-intersection networks route every vehicle straight through the
    grid from its entry lane.  A per-lane rate mapping covers only the lanes
    it names; the remaining entry lanes receive no traffic.
    """
    multi = network.intersection_count > 1
    route_fn = (lambda lane: demand_mod.straight_route(network, lane)) if multi else None
    entry_lanes = _entry_lanes(network) if multi else list(network.intersections[0].lanes)

    if section.kind == "file":
        vehicles = demand_mod.load_demand_csv(section.path, network)
        return lambda episode: vehicles

    def lane_rates() -> dict[LaneId, float]:
        if isinstance(section.rate_vph, dict):
            rates = {lane: 0.0 for lane in entry_lanes}
            for label, rate in section.rate_vph.items():
                lane = parse_lane_label(str(label))
                if lane not in entry_lanes:
                    raise ConfigError(f"demand.rate_vph: {label} is not an entry lane")
                rates[lane] = float(rate)
            return rates
        return {lane: float(section.rate_vph) for lane in entry_lanes}

    def make(episode: int) -> list[Vehicle]:
        vary = section.fresh_each_episode and section.process == "poisson"
        seed = _mix_seed(section.seed, run_seed, episode if vary else 0)
        process = demand_mod.ArrivalProcess(section.process)
        if section.kind == "uniform":
            spec = demand_mod.uniform_spec(
                lane_rates(), entry_lanes, float(horizon_s), process, seed,
            )
        else:  # peaked
            spec = demand_mod.peaked_spec(
                section.base_vph, section.peak_vph,
                [tuple(w) for w in section.peak_windows],
                entry_lanes, float(horizon_s), process, seed,
                peak_lanes=[parse_lane_label(str(l)) for l in section.peak_lanes]
                if section.peak_lanes else None,
            )
        return demand_mod.realize(spec, route_fn)

    return make


def build_webster_params(cfg: ExperimentConfig,
                         intersection: IntersectionConfig) -> WebsterParams:
    overrides = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in cfg.controller.webster.items()
    }
    defaults = dict(
        loss_time_per_phase_s=float(intersection.transition_time_s),
        saturation_headway_s=intersection.saturation_headway_s,
    )
    defaults.update(overrides)
    return WebsterParams(**defaults)


def default_config_dict() -> dict:
    """All defaults, as a plain dict suitable for YAML dumping."""
    cfg = ExperimentConfig(
        network=NetworkSection(), demand=DemandSection(),
        controller=ControllerSection(), run=RunSection(), train=TrainSection(),
    )
    return {
        "network": vars(cfg.network).copy(),
        "demand": vars(cfg.demand).copy(),
        "controller": {
            **{k: v for k, v in vars(cfg.controller).items() if k not in ("webster", "agent")},
            "webster": {
                "loss_time_per_phase_s": WebsterParams().loss_time_per_phase_s,
                "saturation_headway_s": WebsterParams().saturation_headway_s,
                "cycle_bounds_s": list(WebsterParams().cycle_bounds_s),
                "green_bounds_s": list(WebsterParams().green_bounds_s),
                "measurement_window_s": WebsterParams().measurement_window_s,
            },
            "agent": AgentConfig().to_dict(),
        },
        "run": vars(cfg.run).copy(),
        "train": vars(cfg.train).copy(),
    }
