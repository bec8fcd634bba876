"""Lane/phase/network construction and validation."""

import pytest

from greenlight.core import (
    Approach,
    ConfigError,
    IntersectionConfig,
    LaneId,
    Movement,
    PhaseDefinition,
    build_grid_network,
    build_standard_intersection,
    exit_approach,
    single_intersection_network,
)


def test_lane_label_round_trip():
    lane = LaneId(0, Approach.W, Movement.T)
    assert lane.label == "WT"
    assert str(lane) == "0:WT"


def test_exit_approach_is_opposite_for_through():
    assert exit_approach(Approach.W, Movement.T) == Approach.E
    assert exit_approach(Approach.E, Movement.T) == Approach.W
    assert exit_approach(Approach.N, Movement.T) == Approach.S
    assert exit_approach(Approach.S, Movement.T) == Approach.N


def test_standard_two_phase_layout():
    cfg = build_standard_intersection(2)
    assert cfg.lane_count == 4
    assert cfg.phase_count == 2
    labels = [lane.label for lane in cfg.lanes]
    assert labels == ["WT", "ET", "NT", "ST"]
    # phase 0 serves the west/east through lanes, phase 1 north/south
    assert cfg.green_lane_indices(0) == (0, 1)
    assert cfg.green_lane_indices(1) == (2, 3)


def test_standard_four_phase_layout():
    cfg = build_standard_intersection(4)
    assert cfg.lane_count == 8
    assert cfg.phase_count == 4
    assert {lane.label for lane in cfg.lanes} >= {"WL", "EL", "NL", "SL"}
    for k in range(4):
        assert len(cfg.green_lane_indices(k)) == 2


def test_standard_intersection_rejects_other_phase_counts():
    with pytest.raises(ConfigError):
        build_standard_intersection(3)


def test_derived_quantities():
    cfg = build_standard_intersection(2)
    # 300 m at 10 m/s
    assert cfg.free_flow_time_s == 30.0
    # one vehicle per 2 s
    assert cfg.saturation_flow_vph == 1800.0
    # yellow 3 + all-red 2
    assert cfg.transition_time_s == 5.0


def test_validate_rejects_phase_with_foreign_lane():
    cfg = build_standard_intersection(2)
    foreign = LaneId(0, Approach.W, Movement.L)
    with pytest.raises(ConfigError):
        IntersectionConfig(
            lanes=cfg.lanes,
            phases=(
                PhaseDefinition(frozenset({foreign, cfg.lanes[0], cfg.lanes[1]}), "bad"),
                cfg.phases[1],
            ),
        )


def test_validate_rejects_unserved_lane():
    cfg = build_standard_intersection(2)
    with pytest.raises(ConfigError, match="lane_coverage"):
        IntersectionConfig(
            lanes=cfg.lanes,
            phases=(cfg.phases[0], PhaseDefinition(frozenset({cfg.lanes[0]}), "dup")),
        )


def test_validate_rejects_nonpositive_geometry():
    cfg = build_standard_intersection(2)
    with pytest.raises(ConfigError, match="road_length"):
        IntersectionConfig(lanes=cfg.lanes, phases=cfg.phases, road_length_m=0.0)


def test_single_intersection_network():
    net = single_intersection_network(build_standard_intersection(2))
    assert len(net.intersections) == 1
    assert net.links == {}


def test_grid_network_link_pairs():
    # 3x4 grid: horizontal neighbours 3*(4-1)=9, vertical (3-1)*4=8 -> 17 pairs,
    # each linked both ways
    net = build_grid_network(3, 4, build_standard_intersection(2))
    assert len(net.intersections) == 12
    assert len(net.links) == 34


def test_grid_network_link_endpoints():
    net = build_grid_network(1, 2, build_standard_intersection(2))
    # intersection 0's east exit feeds intersection 1's west approach
    assert net.links[(0, Approach.E)] == (1, Approach.W)
    assert net.links[(1, Approach.W)] == (0, Approach.E)
    assert net.link_travel_time_s == 30.0


def test_grid_lane_ids_are_reindexed():
    net = build_grid_network(2, 2, build_standard_intersection(2))
    for i, cfg in enumerate(net.intersections):
        assert cfg.intersection_index == i
        assert all(lane.intersection == i for lane in cfg.lanes)


def test_has_lane():
    net = build_grid_network(1, 2, build_standard_intersection(2))
    assert net.has_lane(LaneId(1, Approach.W, Movement.T))
    assert not net.has_lane(LaneId(2, Approach.W, Movement.T))
    assert not net.has_lane(LaneId(0, Approach.W, Movement.L))
