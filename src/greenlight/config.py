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

A config is taken in two steps.  `parse_config` checks the document alone:
schema, types, ranges and kinds, with no builder call and no file read.
`resolve` checks it again (callers may have changed it since) and then builds
what a run needs, once, into a `Plan`: the network, each demand section
resolved against it, the agent settings, and the checks that need them.

Errors raise ConfigError with a dotted key path (`demand.rate_vph: ...`);
YAML syntax errors carry the line reported by the parser.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
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
from .sim import link_time_too_short, validate_demand

CONTROLLER_KINDS = ("fixedtime", "sotl", "webster", "rl")
DEMAND_KINDS = ("uniform", "peaked", "file")
NETWORK_KINDS = ("single", "grid")
SWEEP_KINDS = ("ablation", "sotl-grid")


def parse_lane_label(label: str) -> LaneId:
    """Parse "0:WT" or "WT" (intersection 0)."""
    text, intersection = label.strip(), 0
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
class SweepSection:
    kind: str = "ablation"
    theta_red: list[float] = field(default_factory=lambda: [2.0, 4.0, 6.0])     # sotl-grid
    theta_green: list[float] = field(default_factory=lambda: [1.0, 2.0, 3.0])


@dataclass
class ExperimentConfig:
    network: NetworkSection
    demand: DemandSection
    controller: ControllerSection
    run: RunSection
    train: TrainSection
    deploy_demand: DemandSection | None = None
    sweep: SweepSection = field(default_factory=SweepSection)
    source_path: str | None = None


def _check_keys(section_cls: type, data: dict, key: str) -> None:
    valid = {f.name for f in fields(section_cls)}
    for k in data:
        if k not in valid:
            raise ConfigError(f"{key}.{k}: unknown key (expected one of {sorted(valid)})")


def _fill(section_cls, data: Any, key: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{key}: expected a mapping, got {type(data).__name__}")
    _check_keys(section_cls, data, key)
    try:
        return section_cls(**data)
    except TypeError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def parse_config(data: dict, source_path: str | None = None) -> ExperimentConfig:
    """The config a document describes, after the document checks; nothing
    is built and no file is read (`resolve` does that)."""
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
        sweep=_fill(SweepSection, data.get("sweep"), "sweep"),
        source_path=source_path,
    )
    _check_document(cfg)
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


_NUMBER_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _admits(annotation: str, value: Any) -> bool:
    """Whether `value` has the numeric type a field annotation names.

    bool, a subclass of int, passes only where the annotation says bool;
    annotations naming no number (strings, enums, mappings) admit anything,
    since the code reading them checks them.
    """
    if annotation.endswith(" | None"):
        return value is None or _admits(annotation[:-len(" | None")], value)
    if annotation.startswith("dict["):
        item = annotation[:-1].split(", ")[-1]
        return isinstance(value, dict) and all(_admits(item, v) for v in value.values())
    if annotation.startswith(("tuple[", "list[")):
        item = annotation[annotation.index("[") + 1:].split(",")[0].rstrip("]")
        return isinstance(value, (list, tuple)) and all(_admits(item, v) for v in value)
    types = _NUMBER_TYPES.get(annotation)
    if types is None:
        return True
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _check_types(section_cls: type, values: dict, key: str) -> None:
    """Reject a value that is not of its field's annotated numeric type, such
    as a quoted YAML number, before any comparison reads it."""
    for f in fields(section_cls):
        if f.name in values and not _admits(f.type, values[f.name]):
            raise ConfigError(f"{key}.{f.name}: expected {f.type}, got {values[f.name]!r}")


def _check_demand_numbers(section: DemandSection, key: str) -> None:
    rates = section.rate_vph
    for rate in rates.values() if isinstance(rates, dict) else [rates]:
        if not _admits("float", rate):
            raise ConfigError(f"{key}.rate_vph: expected a number or a mapping "
                              f"of lane labels to numbers, got {rates!r}")
        if rate < 0:
            raise ConfigError(f"{key}.rate_vph: rates must be >= 0, got {rates!r}")
    for name in ("base_vph", "peak_vph"):
        if getattr(section, name) < 0:
            raise ConfigError(f"{key}.{name}: must be >= 0")
    if not isinstance(section.peak_windows, (list, tuple)):
        raise ConfigError(f"{key}.peak_windows: expected a list of [start, end] "
                          f"pairs, got {section.peak_windows!r}")
    for window in section.peak_windows:
        if not _admits("list[float]", window) or len(window) != 2:
            raise ConfigError(f"{key}.peak_windows: expected [start, end] pairs of "
                              f"numbers, got {window!r}")


def _check_document(cfg: ExperimentConfig) -> None:
    """The checks that need nothing but the config: types, ranges and kinds."""
    net, run, sweep = cfg.network, cfg.run, cfg.sweep
    demands = [("demand", cfg.demand)] + ([("deploy_demand", cfg.deploy_demand)]
                                          if cfg.deploy_demand else [])
    for key, section in [("network", net), ("run", run), ("train", cfg.train),
                         ("sweep", sweep)] + demands:
        _check_types(type(section), vars(section), key)
    for key, section in demands:
        _check_demand_numbers(section, key)
    if net.kind not in NETWORK_KINDS:
        raise ConfigError(f"network.kind: {net.kind!r} not in {NETWORK_KINDS}")
    if net.phases not in (2, 4):
        raise ConfigError(f"network.phases: {net.phases} (expected 2 or 4)")
    if net.kind == "grid" and (net.rows < 1 or net.cols < 1):
        raise ConfigError("network.rows/cols: must be >= 1")
    for section_name, section in demands:
        if section.kind not in DEMAND_KINDS:
            raise ConfigError(f"{section_name}.kind: {section.kind!r} not in {DEMAND_KINDS}")
        if section.kind == "file" and not section.path:
            raise ConfigError(f"{section_name}.path: required for kind 'file'")
        if section.process not in ("deterministic", "poisson"):
            raise ConfigError(
                f"{section_name}.process: {section.process!r} "
                "(expected deterministic or poisson)"
            )
    train_horizon = 1 if cfg.train.horizon_s is None else cfg.train.horizon_s
    for key, count in (("run.horizon_s", run.horizon_s), ("run.episodes", run.episodes),
                       ("train.episodes", cfg.train.episodes), ("train.horizon_s", train_horizon)):
        if count < 1:
            raise ConfigError(f"{key}: must be >= 1")
    if not run.seeds:
        raise ConfigError("run.seeds: need at least one seed")
    if sweep.kind not in SWEEP_KINDS:
        raise ConfigError(f"sweep.kind: {sweep.kind!r} not in {SWEEP_KINDS}")
    for key in ("theta_red", "theta_green"):
        values = getattr(sweep, key)
        if not values:
            raise ConfigError(f"sweep.{key}: need at least one threshold")
        if min(values) < 0:
            raise ConfigError(f"sweep.{key}: thresholds must be >= 0, got {values!r}")
    _check_controller(cfg.controller)


def _check_controller(ctrl: ControllerSection) -> None:
    _check_types(ControllerSection, vars(ctrl), "controller")
    if ctrl.kind not in CONTROLLER_KINDS:
        raise ConfigError(f"controller.kind: {ctrl.kind!r} not in {CONTROLLER_KINDS}")
    if ctrl.phase_duration_s <= 0:
        raise ConfigError("controller.phase_duration_s: must be > 0")
    for key in ("theta_red", "theta_green"):
        if getattr(ctrl, key) < 0:
            raise ConfigError(f"controller.{key}: must be >= 0")
    for key, section_cls, values in (("controller.agent", AgentConfig, ctrl.agent),
                                     ("controller.webster", WebsterParams, ctrl.webster)):
        if not isinstance(values, dict):
            raise ConfigError(f"{key}: expected a mapping, got {values!r}")
        _check_keys(section_cls, values, key)
        _check_types(section_cls, values, key)


# ---------------------------------------------------------------------------
# resolution


@dataclass(frozen=True)
class Plan:
    """A config resolved once, before any run: what every seed and every
    sweep point draws from.  `demand` and `deploy_demand` are resolved over
    `run.horizon_s`; `deploy_demand` is `demand` itself when the config has
    no such section.  `train_demand`, what an `rl` controller trains on, is
    the `demand` section resolved over `train.horizon_s`: `demand` itself
    when the two horizons match, when the section is a file (a file is read
    once) and for a controller that never trains.
    """
    cfg: ExperimentConfig
    network: NetworkConfig
    agent: AgentConfig
    demand: ResolvedDemand
    deploy_demand: ResolvedDemand
    train_demand: ResolvedDemand

    def with_controller(self, controller: ControllerSection) -> Plan:
        """This plan under another controller section, which alone is
        resolved; a plan that starts to train is resolved afresh, since its
        training demand may change."""
        _check_controller(controller)
        cfg = replace(self.cfg, controller=controller)
        if controller.kind == "rl" and self.cfg.controller.kind != "rl":
            return resolve(cfg)
        return replace(self, cfg=cfg, agent=_resolve_controller(
            cfg, self.network, self.demand, self.deploy_demand))


def resolve(cfg: ExperimentConfig) -> Plan:
    """Reject every config that `run` would fail on, before an episode
    starts, and build, once, what it runs from.  What a builder refuses is
    refused under its section's key."""
    _check_document(cfg)
    try:
        network = build_network(cfg)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from None
    horizon = cfg.run.horizon_s
    demand = resolve_demand(cfg.demand, network, horizon, key="demand")
    deploy = (resolve_demand(cfg.deploy_demand, network, horizon, key="deploy_demand")
              if cfg.deploy_demand is not None else demand)
    train_horizon = _train_horizon(cfg)
    train = (resolve_demand(cfg.demand, network, train_horizon, key="demand")
             if train_horizon != horizon and cfg.demand.kind != "file" else demand)
    return Plan(cfg, network, _resolve_controller(cfg, network, demand, deploy),
                demand, deploy, train)


def _train_horizon(cfg: ExperimentConfig) -> int:
    """The horizon an episode trains for: `train.horizon_s` (by default
    `run.horizon_s`) for `rl`, and `run.horizon_s` for a controller that
    never trains."""
    horizon = cfg.run.horizon_s
    return (cfg.train.horizon_s or horizon) if cfg.controller.kind == "rl" else horizon


def _resolve_controller(cfg: ExperimentConfig, network: NetworkConfig,
                        demand: ResolvedDemand, deploy: ResolvedDemand) -> AgentConfig:
    """The agent settings, after the other checks that build on the checked
    controller section: the Webster settings, and the link time at every
    horizon a multi-hop demand runs for, the training horizon only for `rl`."""
    ctrl = cfg.controller
    try:
        agent = AgentConfig.from_dict(ctrl.agent)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"controller.agent: {exc}") from None
    horizon = cfg.run.horizon_s
    for key, resolved, horizons in (("demand", demand, {horizon, _train_horizon(cfg)}),
                                    ("deploy_demand", deploy, {horizon})):
        if resolved.multi_hop:
            for horizon_s in sorted(horizons):
                if link_time_too_short(network.link_travel_time_s, horizon_s):
                    raise ConfigError(
                        f"network.road_length_m: a link time of "
                        f"{network.link_travel_time_s} s puts a vehicle's next hop in the "
                        f"step it departs at a horizon of {horizon_s} s; {key} has "
                        f"multi-hop routes, which need a longer link"
                    )
    try:
        build_webster_params(cfg, network.intersections[0])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"controller.webster: {exc}") from None
    return agent


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
    """Lanes fed from outside the grid (no upstream link on their approach),
    in intersection then lane order."""
    fed = set(network.links.values())
    return [lane for i, intersection in enumerate(network.intersections)
            for lane in intersection.lanes if (i, lane.approach) not in fed]


def _entry_lane(label: Any, entry_lanes: Sequence[LaneId], key: str) -> LaneId:
    """The entry lane a label names; an error under `key` for any other."""
    try:
        lane = parse_lane_label(str(label))
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if lane not in entry_lanes:
        raise ConfigError(f"{key}: {label} is not an entry lane")
    return lane


def _mapped_rates(rates: dict, entry_lanes: Sequence[LaneId], key: str
                  ) -> dict[LaneId, float]:
    """Every entry lane's rate under a per-lane `rate_vph` mapping; lanes it
    does not name get 0."""
    out = {lane: 0.0 for lane in entry_lanes}
    for label, rate in rates.items():
        out[_entry_lane(label, entry_lanes, f"{key}.rate_vph")] = float(rate)
    return out


def _peak_lanes(labels: Any, entry_lanes: Sequence[LaneId], key: str
                ) -> list[LaneId] | None:
    """The lanes a peaked section's windows apply to, or None (an absent or
    empty list) for every entry lane."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)):
        raise ConfigError(f"{key}.peak_lanes: expected a list of lane labels, got {labels!r}")
    return [_entry_lane(label, entry_lanes, f"{key}.peak_lanes") for label in labels] or None


def _mix_seed(*parts: int) -> int:
    out = 0
    for p in parts:
        out = (out * 1_000_003 + int(p)) % (2**63)
    return out


@dataclass(frozen=True)
class ResolvedDemand:
    """A demand section resolved against one network and one horizon: the
    vehicles of a file or of a deterministic schedule, which every draw
    replays, or a Poisson arrival schedule (`spec`: each entry lane's rate
    windows, peaks included) and one route per entry lane.  ``multi_hop``:
    whether any route crosses a link."""
    multi_hop: bool
    vehicles: tuple[Vehicle, ...] = ()
    spec: demand_mod.DemandSpec | None = None
    routes: dict[LaneId, tuple[LaneId, ...]] = field(default_factory=dict)
    seed: int = 0
    vary: bool = False   # a fresh Poisson draw each episode

    def draw(self, run_seed: int, episode: int) -> list[Vehicle]:
        """One episode's vehicles, deterministic per (section, run_seed, episode)."""
        if self.spec is None:
            return list(self.vehicles)
        seed = _mix_seed(self.seed, run_seed, episode if self.vary else 0)
        return demand_mod.realize(replace(self.spec, seed=seed), self.routes.__getitem__)


def resolve_demand(section: DemandSection, network: NetworkConfig, horizon_s: float,
                   *, key: str) -> ResolvedDemand:
    """Resolve a demand section once; what does not resolve raises a
    ConfigError prefixed with ``key``, the section's name in the config.
    Generated vehicles run straight through the grid from their entry lane;
    a per-lane rate mapping leaves the entry lanes it does not name empty.  A
    file or a deterministic schedule is realized here, once."""
    if section.kind == "file":
        try:
            vehicles = demand_mod.load_demand_csv(section.path)
            validate_demand(network, vehicles)
        except OSError as exc:
            raise ConfigError(f"{key}.path: cannot read {section.path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ConfigError(f"{key}.path: {exc}") from None
        return ResolvedDemand(any(len(veh.route) > 1 for veh in vehicles), tuple(vehicles))

    entry_lanes = _entry_lanes(network)
    routes = {lane: demand_mod.straight_route(network, lane) for lane in entry_lanes}
    process = demand_mod.ArrivalProcess(section.process)
    if section.kind == "uniform":
        rates = (_mapped_rates(section.rate_vph, entry_lanes, key)
                 if isinstance(section.rate_vph, dict) else float(section.rate_vph))
        spec = demand_mod.uniform_spec(rates, entry_lanes, float(horizon_s), process)
    else:  # peaked
        spec = demand_mod.peaked_spec(section.base_vph, section.peak_vph,
                                      [tuple(w) for w in section.peak_windows], entry_lanes,
                                      horizon_s, process,
                                      peak_lanes=_peak_lanes(section.peak_lanes, entry_lanes, key),
                                      key=f"{key}.peak_windows")
    multi_hop = any(len(route) > 1 for route in routes.values())
    if process is demand_mod.ArrivalProcess.DETERMINISTIC:
        # the schedule draws nothing, so every seed and episode gets these vehicles
        return ResolvedDemand(multi_hop, tuple(demand_mod.realize(spec, routes.__getitem__)))
    return ResolvedDemand(multi_hop, spec=spec, routes=routes, seed=section.seed,
                          vary=section.fresh_each_episode)


def build_demand_fn(section: DemandSection, network: NetworkConfig, run_seed: int,
                    horizon_s: float) -> Callable[[int], list[Vehicle]]:
    """The episode-indexed draws of one run seed from the resolved section."""
    return partial(resolve_demand(section, network, horizon_s, key="demand").draw, run_seed)


def build_webster_params(cfg: ExperimentConfig,
                         intersection: IntersectionConfig) -> WebsterParams:
    """The intersection's geometry, overridden by ``controller.webster``
    (YAML lists become the tuples WebsterParams holds)."""
    return WebsterParams(**{
        "loss_time_per_phase_s": float(intersection.transition_time_s),
        "saturation_headway_s": intersection.saturation_headway_s,
        **{k: tuple(v) if isinstance(v, list) else v for k, v in cfg.controller.webster.items()},
    })


def default_config_dict() -> dict:
    """All defaults, as a plain dict suitable for YAML dumping."""
    webster = {k: list(v) if isinstance(v, tuple) else v
               for k, v in asdict(WebsterParams()).items()}
    return {
        "network": asdict(NetworkSection()),
        "demand": asdict(DemandSection()),
        "controller": {**asdict(ControllerSection()), "webster": webster,
                       "agent": AgentConfig().to_dict()},
        "run": asdict(RunSection()),
        "train": asdict(TrainSection()),
    }
