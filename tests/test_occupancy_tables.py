"""The table-driven occupancy grid against the vectorised numpy encoding it
replaced, kept here verbatim as the reference."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight.core import ConfigError, build_standard_intersection
from greenlight.sim import CHANGE, KEEP, VEHICLE_SPACING_M, IntersectionSim


def numpy_occupancy(self, cells_per_lane: int) -> np.ndarray:
    """The former `IntersectionSim.occupancy_vector` body, with `self` the sim."""
    if cells_per_lane < 1:
        raise ConfigError("occupancy_cells: cells_per_lane must be >= 1")
    cfg = self.config
    view = self.control_context()
    counts = np.array(view.counts)
    # every vehicle on a lane, in stop-line order; the first q_j are queued
    lane = np.arange(cfg.lane_count).repeat(counts)
    rank = np.arange(len(lane)) - (counts.cumsum() - counts)[lane]
    lanes = self.state.lanes
    ready = np.fromiter(chain.from_iterable(l.ready_steps[l.departed:] for l in lanes),
                        dtype=np.int64, count=len(lane))
    since_entry = self.state.clock_s - (ready - self._ff_steps)
    position = np.where(
        rank < np.array(view.queues)[lane],
        cfg.road_length_m - rank * VEHICLE_SPACING_M,
        np.minimum(cfg.free_flow_speed_mps * since_entry, cfg.road_length_m),
    )
    cell = (position // (cfg.road_length_m / cells_per_lane)).astype(np.int64)
    np.maximum(cell, 0, out=cell)
    np.minimum(cell, cells_per_lane - 1, out=cell)
    return np.bincount(lane * cells_per_lane + cell, minlength=cfg.lane_count * cells_per_lane)


def assert_same_occupancy(sim, cells_list):
    for cells in cells_list:
        got = sim.occupancy_vector(cells)
        expected = numpy_occupancy(sim, cells)
        assert got.dtype == np.int64
        assert got.tolist() == expected.tolist(), cells


@st.composite
def crowded_scenarios(draw):
    """A random geometry, up to 150 arrivals crowded onto a few lanes, and
    keep/change actions; with no changes the red lanes' queues outgrow the
    road (more than L / 7.5 vehicles)."""
    cfg = build_standard_intersection(
        draw(st.sampled_from([2, 4])),
        saturation_headway_s=draw(st.sampled_from([0.5, 2.0, 2.2, 10.0])),
        yellow_s=draw(st.integers(0, 3)),
        all_red_s=draw(st.integers(0, 2)),
        min_green_s=draw(st.integers(1, 8)),
        road_length_m=draw(st.sampled_from([60.0, 100.0, 180.0, 300.0])),
        free_flow_speed_mps=draw(st.sampled_from([7.0, 10.0, 13.3])),
    )
    horizon = draw(st.integers(1, 200))
    busy_lanes = draw(st.integers(1, cfg.lane_count))
    arrivals = draw(st.lists(
        st.tuples(st.integers(0, busy_lanes - 1), st.floats(0.0, horizon, allow_nan=False)),
        max_size=150,
    ))
    change_prob = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    actions = [CHANGE if rng.random() < change_prob else KEEP for _ in range(horizon)]
    return cfg, arrivals, actions


@settings(max_examples=80, deadline=None)
@given(crowded_scenarios(), st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_table_occupancy_equals_numpy_reference_every_step(scenario, cells_list):
    cfg, arrivals, actions = scenario
    sim = IntersectionSim(cfg)
    for vid, (j, entry) in enumerate(arrivals):
        sim._schedule(vid, j, IntersectionSim.entry_step(entry))
    assert_same_occupancy(sim, cells_list)
    for action in actions:
        sim.step(action)
        # several widths from one sim in one step, each with its own tables
        assert_same_occupancy(sim, cells_list)


@pytest.mark.parametrize("road_length_m, speed_mps, cells", [
    (180.0, 13.3, 7),    # L / cells = 25.714..., free-flow time 13.53 s
    (100.0, 7.0, 3),     # L / cells = 33.33...
    (300.0, 10.0, 12),
    (60.0, 13.3, 1),
])
def test_queue_longer_than_the_road_clips_to_cell_zero(road_length_m, speed_mps, cells):
    cfg = build_standard_intersection(2, road_length_m=road_length_m,
                                      free_flow_speed_mps=speed_mps)
    sim = IntersectionSim(cfg)
    red = next(j for j in range(cfg.lane_count) if j not in cfg.green_lane_indices(0))
    vehicles = int(road_length_m / VEHICLE_SPACING_M) + 12
    for vid in range(vehicles):
        sim._schedule(vid, red, IntersectionSim.entry_step(vid * 0.5))
    for _ in range(vehicles + 20):
        sim.step(KEEP)
        assert_same_occupancy(sim, [cells, 4, 7])
    # the whole queue has reached the line; ranks past the road sit in cell 0
    assert sim.control_context().queues[red] == vehicles
    occupancy = sim.occupancy_vector(cells)[red * cells:(red + 1) * cells]
    past_road = sum(1 for rank in range(vehicles) if road_length_m - rank * VEHICLE_SPACING_M < 0)
    assert occupancy[0] >= past_road > 0
    assert occupancy.sum() == vehicles


@pytest.mark.parametrize("cells", [0, -1])
def test_occupancy_needs_a_positive_cell_count(cells):
    sim = IntersectionSim(build_standard_intersection(2))
    with pytest.raises(ConfigError, match="cells_per_lane must be >= 1"):
        sim.occupancy_vector(cells)
