"""Small dense networks with hand-written backprop.

Everything the value network needs and nothing more: affine layers with
relu/identity activations, exact reverse-mode gradients, an Adam optimizer
and a central-difference gradient checker.  All math is float64 numpy;
inputs may be single vectors or (batch, dim) matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ACTIVATIONS = ("relu", "identity")


class ShapeError(ValueError):
    """Input or gradient dimensions do not match the network."""


class TrainingError(RuntimeError):
    """Non-finite values encountered during optimization."""


@dataclass
class Layer:
    weight: np.ndarray        # (out_dim, in_dim)
    bias: np.ndarray          # (out_dim,)
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError("layer weight must be (out, in) with matching bias")


@dataclass
class ForwardCache:
    """Intermediate values of one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]          # input to each layer, (B, in_dim)
    pre_activations: list[np.ndarray]
    squeezed: bool                    # caller passed a 1-D vector


class DenseNet:
    """Feed-forward stack of affine + {relu, identity} layers."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        layers = list(layers)
        if not layers:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weight.shape[0] != b.weight.shape[1]:
                raise ShapeError(
                    f"layer dims do not chain: {a.weight.shape} -> {b.weight.shape}"
                )
        self.layers = layers

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, dims: Sequence[int], activations: Sequence[str],
               rng: np.random.Generator) -> "DenseNet":
        """He-style uniform init: scale sqrt(6/fan_in) for relu, sqrt(3/fan_in) else."""
        if len(activations) != len(dims) - 1:
            raise ShapeError("need one activation per layer")
        layers = []
        for fan_in, fan_out, act in zip(dims, dims[1:], activations):
            limit = np.sqrt((6.0 if act == "relu" else 3.0) / fan_in)
            w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            layers.append(Layer(w, np.zeros(fan_out), act))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def parameters(self) -> list[np.ndarray]:
        """Live references, interleaved (w0, b0, w1, b1, ...)."""
        out: list[np.ndarray] = []
        for l in self.layers:
            out.append(l.weight)
            out.append(l.bias)
        return out

    # -- forward / backward --------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        x = np.asarray(x, dtype=float)
        squeezed = x.ndim == 1
        if squeezed:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"expected input dim {self.input_dim}, got {x.shape}")
        inputs, pres = [], []
        for layer in self.layers:
            inputs.append(x)
            z = x @ layer.weight.T + layer.bias
            pres.append(z)
            x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        out = x[0] if squeezed else x
        return out, ForwardCache(inputs, pres, squeezed)

    def relu_pattern(self, cache: ForwardCache) -> tuple[bytes, ...]:
        """Sign pattern of relu pre-activations; a change marks a kink crossing."""
        return tuple(
            (z > 0).tobytes()
            for z, layer in zip(cache.pre_activations, self.layers)
            if layer.activation == "relu"
        )

    def backward(self, cache: ForwardCache, grad_output: np.ndarray
                 ) -> tuple[list[np.ndarray], np.ndarray]:
        """Exact gradients of the forward map.

        Returns (parameter gradients aligned with parameters(), gradient
        w.r.t. the input) so stacked networks can chain.
        """
        g = np.asarray(grad_output, dtype=float)
        if cache.squeezed and g.ndim == 1:
            g = g[None, :]
        if g.shape != cache.pre_activations[-1].shape:
            raise ShapeError(
                f"grad shape {g.shape} does not match forward output "
                f"{cache.pre_activations[-1].shape}"
            )
        grads: list[np.ndarray] = [np.empty(0)] * (2 * len(self.layers))
        for i in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == "relu":
                g = g * (cache.pre_activations[i] > 0)
            grads[2 * i] = g.T @ cache.inputs[i]
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ layer.weight
        return grads, (g[0] if cache.squeezed else g)


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """Adaptive-moment optimizer state for one flat parameter vector."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # two rows of working space and a row of zeros for adam_step, made on its first call
    scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_parameters(cls, parameters: np.ndarray,
                       learning_rate: float = 1e-3) -> "AdamState":
        return cls(learning_rate=learning_rate,
                   m=np.zeros_like(parameters), v=np.zeros_like(parameters))


def adam_step(state: AdamState, parameters: np.ndarray,
              gradients: np.ndarray) -> None:
    """One bias-corrected adaptive-moment update of a flat vector, in place.

    Computes m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    theta -= (lr*m_hat) / (sqrt(v_hat) + eps) with the same float
    operations in the same order as the out-of-place expressions, but into
    m, v and two preallocated scratch rows instead of fresh temporaries.
    """
    if parameters.shape != state.m.shape or gradients.shape != parameters.shape:
        raise ShapeError(
            f"gradient {gradients.shape} and optimizer state {state.m.shape} "
            f"must match parameters {parameters.shape}"
        )
    t = state.step_count + 1
    if state.scratch is None or state.scratch.shape[1:] != parameters.shape:
        state.scratch = np.zeros((3, *parameters.shape))
    step, denom, zeros = state.scratch
    # g . 0 is NaN exactly when g holds an inf or a NaN: one call, no temporary
    if math.isnan(np.vdot(gradients, zeros)):
        raise TrainingError(
            f"non-finite gradient (|g|_max={np.max(np.abs(gradients))}) at step {t}"
        )
    state.step_count = t
    m, v = state.m, state.v
    m *= state.beta1
    np.multiply(gradients, 1.0 - state.beta1, out=step)
    m += step
    v *= state.beta2
    np.multiply(gradients, 1.0 - state.beta2, out=step)
    step *= gradients
    v += step
    np.divide(m, 1.0 - state.beta1 ** t, out=step)
    step *= state.learning_rate
    np.divide(v, 1.0 - state.beta2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.epsilon
    step /= denom
    parameters -= step


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    skipped_kinks: int
    worst_parameter: tuple[int, int] | None  # (parameter array index, flat index)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < 1e-4


def gradient_check(
    parameters: Sequence[np.ndarray],
    loss_and_grads: Callable[[], tuple[float, Sequence[np.ndarray]]],
    *,
    epsilon: float = 1e-5,
    max_checks: int = 200,
    rng: np.random.Generator | None = None,
    relu_pattern: Callable[[], object] | None = None,
) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    Checks every coordinate, or a random subsample of ``max_checks`` when the
    model has more.  Coordinates whose +/- epsilon perturbations flip a relu
    sign (reported by ``relu_pattern``) sit on a kink where the two-sided
    difference is meaningless; they are skipped and counted.
    """
    _, analytic = loss_and_grads()
    flat_coords = [
        (pi, fi) for pi, p in enumerate(parameters) for fi in range(p.size)
    ]
    if len(flat_coords) > max_checks:
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen = rng.choice(len(flat_coords), size=max_checks, replace=False)
        flat_coords = [flat_coords[int(i)] for i in chosen]

    max_err, worst = 0.0, None
    skipped = checked = 0
    for pi, fi in flat_coords:
        p = parameters[pi].reshape(-1)
        saved = p[fi]
        p[fi] = saved + epsilon
        loss_plus = loss_and_grads()[0]
        pattern_plus = relu_pattern() if relu_pattern is not None else None
        p[fi] = saved - epsilon
        loss_minus = loss_and_grads()[0]
        pattern_minus = relu_pattern() if relu_pattern is not None else None
        p[fi] = saved
        if relu_pattern is not None and pattern_plus != pattern_minus:
            skipped += 1
            continue
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic_val = float(analytic[pi].reshape(-1)[fi])
        denom = max(abs(numeric), abs(analytic_val), 1e-8)
        err = abs(numeric - analytic_val) / denom
        checked += 1
        if err > max_err:
            max_err, worst = err, (pi, fi)
    return GradCheckResult(max_err, checked, skipped, worst)
