"""Arrival generation, routing, and demand file round trips."""

import csv

import numpy as np
import pytest

from greenlight.core import (
    Approach,
    ConfigError,
    LaneId,
    Movement,
    build_grid_network,
    build_standard_intersection,
    single_intersection_network,
)
from greenlight.demand import (
    DEMAND_HEADER,
    ArrivalProcess,
    RateWindow,
    DemandSpec,
    generate_uniform,
    load_demand_csv,
    peaked_spec,
    realize,
    straight_route,
)
from greenlight.sim import validate_demand


def lane(label: str, intersection: int = 0) -> LaneId:
    return LaneId(intersection, Approach(label[0]), Movement(label[1]))


WT = lane("WT")


def write_demand_csv(path, vehicles) -> None:
    """Write `vehicles` in the demand-file format, entry times in round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEMAND_HEADER)
        for veh in vehicles:
            writer.writerow([veh.id, repr(float(veh.entry_time_s))] + [
                field for hop in veh.route
                for field in (hop.intersection, hop.approach.value, hop.movement.value)])


# -- uniform arrivals --------------------------------------------------------


def test_uniform_count_and_spacing():
    vehicles = generate_uniform(550.0, [WT], 3600.0)
    assert len(vehicles) == 550
    assert vehicles[0].entry_time_s == 0.0
    assert vehicles[1].entry_time_s == pytest.approx(3600.0 / 550.0)
    gaps = np.diff([v.entry_time_s for v in vehicles])
    assert np.allclose(gaps, 3600.0 / 550.0)


def test_uniform_short_horizon():
    vehicles = generate_uniform(300.0, [WT], 100.0)
    # arrivals at 0, 12, ..., 96
    assert [v.entry_time_s for v in vehicles] == pytest.approx(list(range(0, 97, 12)))


def test_uniform_zero_rate_is_empty():
    assert generate_uniform(0.0, [WT], 3600.0) == []


def test_uniform_rejects_negative_rate():
    with pytest.raises(ConfigError):
        generate_uniform(-1.0, [WT], 100.0)


def test_per_lane_rate_dict():
    et = lane("ET")
    vehicles = generate_uniform({WT: 300.0, et: 0.0}, [WT, et], 100.0)
    assert all(v.route[0] == WT for v in vehicles)
    assert len(vehicles) == 9


def test_ids_are_dense_and_sorted_by_entry_then_lane():
    cfg = build_standard_intersection(2)
    vehicles = generate_uniform(300.0, list(cfg.lanes), 100.0)
    assert [v.id for v in vehicles] == list(range(len(vehicles)))
    entries = [v.entry_time_s for v in vehicles]
    assert entries == sorted(entries)
    # simultaneous arrivals tie-break lexicographically by approach
    first_four = [v.route[0].approach.value for v in vehicles[:4]]
    assert first_four == sorted(first_four)


# -- poisson arrivals --------------------------------------------------------


def test_poisson_is_seed_reproducible():
    a = generate_uniform(400.0, [WT], 1800.0, ArrivalProcess.POISSON, seed=5)
    b = generate_uniform(400.0, [WT], 1800.0, ArrivalProcess.POISSON, seed=5)
    c = generate_uniform(400.0, [WT], 1800.0, ArrivalProcess.POISSON, seed=6)
    assert [v.entry_time_s for v in a] == [v.entry_time_s for v in b]
    assert [v.entry_time_s for v in a] != [v.entry_time_s for v in c]


def test_poisson_count_near_expectation():
    vehicles = generate_uniform(600.0, [WT], 3600.0, ArrivalProcess.POISSON, seed=0)
    # Poisson(600): 3 sigma ~ 73
    assert abs(len(vehicles) - 600) < 74


def test_poisson_lanes_get_independent_streams():
    cfg = build_standard_intersection(2)
    vehicles = generate_uniform(300.0, list(cfg.lanes), 3600.0,
                                ArrivalProcess.POISSON, seed=1)
    by_lane = {}
    for v in vehicles:
        by_lane.setdefault(v.route[0], []).append(v.entry_time_s)
    times = list(by_lane.values())
    assert len(times) == 4
    assert times[0] != times[1]


# -- windows and peaks -------------------------------------------------------


def test_rate_window_validation():
    with pytest.raises(ConfigError):
        RateWindow(10.0, 5.0, 100.0)
    with pytest.raises(ConfigError):
        RateWindow(0.0, 5.0, -1.0)


def test_demand_spec_requires_tiled_windows():
    with pytest.raises(ConfigError):
        DemandSpec(
            {WT: (RateWindow(0.0, 50.0, 100.0), RateWindow(60.0, 100.0, 100.0))},
            horizon_s=100.0,
            process=ArrivalProcess.DETERMINISTIC,
            seed=0,
        )


def test_peaked_window_counts():
    vehicles = realize(peaked_spec(200.0, 600.0, [(300.0, 600.0)], [WT], 900.0))
    times = np.array([v.entry_time_s for v in vehicles])
    # base gap 18s -> 17 arrivals in [0,300); peak gap 6s -> 50 in [300,600);
    # base again -> 17 in [600,900)
    assert ((times < 300.0).sum(), ((times >= 300.0) & (times < 600.0)).sum(),
            (times >= 600.0).sum()) == (17, 50, 17)


def test_peaked_only_selected_lanes_surge():
    et = lane("ET")
    vehicles = realize(peaked_spec(
        200.0, 600.0, [(300.0, 600.0)], [WT, et], 900.0, peak_lanes=[WT]
    ))
    wt_count = sum(1 for v in vehicles if v.route[0] == WT)
    et_count = sum(1 for v in vehicles if v.route[0] == et)
    assert wt_count == 84
    assert et_count == 50  # constant 200vph: gap 18 over 900s


def test_peaked_validation():
    with pytest.raises(ConfigError):
        peaked_spec(200.0, 600.0, [(100.0, 300.0), (200.0, 400.0)], [WT], 900.0)
    with pytest.raises(ConfigError):
        peaked_spec(200.0, 600.0, [(800.0, 1000.0)], [WT], 900.0)
    with pytest.raises(ConfigError, match=r"^demand\.peak_windows: peak windows overlap"):
        peaked_spec(200.0, 600.0, [(100.0, 300.0), (200.0, 400.0)], [WT], 900.0,
                    key="demand.peak_windows")


# -- routing -----------------------------------------------------------------


def test_straight_route_follows_links_east():
    net = build_grid_network(1, 2, build_standard_intersection(2))
    assert straight_route(net, lane("WT", 0)) == (lane("WT", 0), lane("WT", 1))
    # entering the east approach of intersection 1 heads west through 0
    assert straight_route(net, lane("ET", 1)) == (lane("ET", 1), lane("ET", 0))


def test_straight_route_single_intersection_is_one_hop():
    net = single_intersection_network(build_standard_intersection(2))
    assert straight_route(net, WT) == (WT,)


def test_straight_route_spans_full_grid_row():
    net = build_grid_network(1, 3, build_standard_intersection(2))
    assert straight_route(net, lane("WT", 0)) == (
        lane("WT", 0), lane("WT", 1), lane("WT", 2)
    )


# -- csv ---------------------------------------------------------------------


def test_demand_csv_round_trip(tmp_path):
    net = build_grid_network(1, 2, build_standard_intersection(2))
    vehicles = generate_uniform(
        120.0, [lane("WT", 0)], 300.0,
        route_for_lane=lambda l: straight_route(net, l),
    )
    assert vehicles and len(vehicles[0].route) == 2
    path = tmp_path / "demand.csv"
    write_demand_csv(path, vehicles)
    loaded = load_demand_csv(path)
    assert loaded == vehicles
    header = path.read_text().splitlines()[0]
    assert header == ",".join(DEMAND_HEADER)


def test_demand_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("id,when,where\n")
    with pytest.raises(ConfigError, match="expected header"):
        load_demand_csv(path)


def test_demand_csv_error_names_line(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        ",".join(DEMAND_HEADER) + "\n"
        "0,12.5,0,W,T\n"
        "1,Q,0,W,T\n"
    )
    with pytest.raises(ConfigError, match=r":3:"):
        load_demand_csv(path)


@pytest.mark.parametrize("rows, message", [
    ("0,1.0,0,W,T\n0,2.0,0,E,T\n", "vehicle id 0 is used by more than one vehicle"),
    ("0,1.0,0,W,L\n", "references missing lane 0:WL"),   # no left lanes on 2 phases
])
def test_demand_csv_leaves_ids_and_lanes_to_validate_demand(tmp_path, rows, message):
    net = single_intersection_network(build_standard_intersection(2))
    path = tmp_path / "demand.csv"
    path.write_text(",".join(DEMAND_HEADER) + "\n" + rows)
    vehicles = load_demand_csv(path)
    assert vehicles
    with pytest.raises(ConfigError, match=message):
        validate_demand(net, vehicles)


def test_demand_csv_sorts_by_entry_then_id(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        ",".join(DEMAND_HEADER) + "\n"
        "5,9.0,0,W,T\n"
        "2,3.0,0,E,T\n"
        "9,3.0,0,N,T\n"
    )
    loaded = load_demand_csv(path)
    assert [v.id for v in loaded] == [2, 9, 5]
