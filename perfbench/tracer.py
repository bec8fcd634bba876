"""Span tracer that wraps greenlight's public functions from the outside.

``install(gl, tracer)`` replaces each function or method named in ``SPANS``
with a timing wrapper.  A module-level function is replaced under every
name that is bound to it in any greenlight module, because callers look it
up where they imported it (``greenlight.agent.adam_step`` is the same
object as ``greenlight.neural.adam_step``).  A method is replaced on the
class whose instances the program creates, which covers calls through
``self`` and bound methods handed out before or after.

A span's self time is its duration minus the time covered by its child
spans.  Time with no span open is counted as outside, so the self times and
the outside time add up to the wall time of the traced region.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

# (span name, module, attribute path inside the module)
SPANS: list[tuple[str, str, str]] = [
    ("sim.run_episode", "sim", "run_episode"),
    ("sim.step", "sim", "IntersectionSim.step"),
    ("sim.control_context", "sim", "IntersectionSim.control_context"),
    ("sim.occupancy_vector", "sim", "IntersectionSim.occupancy_vector"),
    ("classic.decide", "classic", "FixedTimeController.decide"),
    ("classic.decide", "classic", "SotlController.decide"),
    ("classic.decide", "classic", "WebsterController.decide"),
    ("classic.after_step", "classic", "FixedTimeController.after_step"),
    ("classic.after_step", "classic", "SotlController.after_step"),
    ("classic.after_step", "classic", "WebsterController.after_step"),
    ("classic.estimate_flows", "classic", "estimate_flows"),
    ("agent.train", "agent", "train"),
    ("agent.DQNAgent.init", "agent", "DQNAgent.__init__"),
    ("agent.decide", "agent", "AgentController.decide"),
    ("agent.after_step", "agent", "AgentController.after_step"),
    ("agent.encode", "agent", "DQNAgent.encode"),
    ("agent.act", "agent", "DQNAgent.act"),
    ("agent.remember", "agent", "DQNAgent.remember"),
    ("agent.learn_step", "agent", "DQNAgent.learn_step"),
    ("agent.ReplayMemory.sample", "agent", "ReplayMemory.sample"),
    ("agent.bellman_targets", "agent", "bellman_targets"),
    ("agent.QNetwork.loss_and_grads", "agent", "QNetwork.loss_and_grads"),
    ("agent.QNetwork.q_values", "agent", "QNetwork.q_values"),
    ("agent.write_curve_csv", "agent", "write_curve_csv"),
    ("neural.adam_step", "neural", "adam_step"),
    ("neural.DenseNet.forward", "neural", "DenseNet.forward"),
    ("neural.DenseNet.backward", "neural", "DenseNet.backward"),
    ("neural.DenseNet.relu_pattern", "neural", "DenseNet.relu_pattern"),
    ("metrics.compute_metrics", "metrics", "compute_metrics"),
    ("metrics.censored_avg_travel_time", "metrics", "censored_avg_travel_time"),
    ("harness.aggregate_metrics", "harness", "aggregate_metrics"),
    ("harness.run_seed", "harness", "run_seed"),
    ("harness.evaluate", "harness", "evaluate"),
    ("harness.write_results_csv", "harness", "write_results_csv"),
    ("config.parse_config", "config", "parse_config"),
    ("config.build_network", "config", "build_network"),
    ("demand.realize", "demand", "realize"),
]


class Tracer:
    """Self time and call counts per span name, plus event counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()    # events counted at span boundaries
        self.open: Counter = Counter()      # span name -> depth currently open
        self.outside_s = 0.0
        self.wall_s = 0.0
        self._stack: list[list] = []        # [start, time covered by children]
        self._idle_since: float | None = None
        self._region_start = 0.0

    def start(self) -> None:
        self._region_start = self._idle_since = self.clock()

    def stop(self) -> None:
        now = self.clock()
        self.outside_s += now - self._idle_since
        self.wall_s += now - self._region_start
        self._idle_since = None

    def wrap(self, name: str, fn: Callable,
             on_call: Callable[["Tracer", tuple, dict], None] | None = None,
             on_return: Callable[["Tracer", Any], None] | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            start = tracer.clock()
            if not stack and tracer._idle_since is not None:
                tracer.outside_s += start - tracer._idle_since
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = [start, 0.0]
            stack.append(frame)
            tracer.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.open[name] -= 1
                stack.pop()
                end = tracer.clock()
                duration = end - frame[0]
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                elif tracer._idle_since is not None:
                    tracer._idle_since = end
            if on_return is not None:
                on_return(tracer, result)
            return result

        return traced


def _count_change_request(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    action = kwargs["action"] if "action" in kwargs else args[1]
    tracer.counts["sim.change_requests"] += int(action == 1)


def _count_forward(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    if tracer.open["agent.learn_step"]:
        tracer.counts["neural.forward_calls_in_learn_steps"] += 1


def _count_learn_step(tracer: Tracer, loss) -> None:
    tracer.counts["agent.learn_steps_done"] += loss is not None


def _count_episode(tracer: Tracer, result) -> None:
    tracer.counts["sim.ignored_actions"] += sum(result.ignored_actions)
    tracer.counts["sim.network_departures"] += result.network_departures


def _count_vehicles(tracer: Tracer, vehicles) -> None:
    tracer.counts["demand.vehicles"] += len(vehicles)


HOOKS = {
    "sim.step": (_count_change_request, None),
    "neural.DenseNet.forward": (_count_forward, None),
    "agent.learn_step": (None, _count_learn_step),
    "sim.run_episode": (None, _count_episode),
    "demand.realize": (None, _count_vehicles),
}


def rebind(gl, original: Callable, wrapped: Callable) -> list[tuple[object, str]]:
    """Replace a module-level function under every name bound to it in ``gl``;
    returns the (module, name) pairs replaced."""
    replaced = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == gl.__name__ or name.startswith(gl.__name__ + ".")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    replaced.append((module, key))
    return replaced


def install(gl, tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry of SPANS in the already imported package ``gl``;
    returns a function that puts the originals back."""
    undo: list[tuple[object, str, Any]] = []
    for span, module_name, path in SPANS:
        owner = getattr(gl, module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, *HOOKS.get(span, (None, None)))
        if owner_path:
            undo.append((owner, attr, vars(owner).get(attr)))  # None: inherited
            setattr(owner, attr, wrapped)
        else:
            undo += [(module, key, original) for module, key in rebind(gl, original, wrapped)]

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore
