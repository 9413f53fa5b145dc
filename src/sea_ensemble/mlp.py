"""Minimal multilayer perceptron base learner.

Sigmoid hidden layers, linear output, explicit forward/backward in float64,
and a plain SGD update. The backward pass starts from a caller-supplied
output-space gradient, so any per-learner ensemble loss can drive training
without the network knowing about it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """An update produced a non-finite parameter."""

    def __init__(self, message: str, learner: int | None = None):
        super().__init__(message)
        self.learner = learner


@dataclass(frozen=True)
class MLP:
    """Layered affine maps; weights[l] is (fan_out, fan_in), biases[l] is (fan_out,)."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(np.asarray(w, dtype=np.float64) for w in self.weights))
        object.__setattr__(self, "biases", tuple(np.asarray(b, dtype=np.float64) for b in self.biases))
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching, nonempty weight and bias lists")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {l}: weight {w.shape} and bias {b.shape} mismatch")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: fan_in {w.shape[1]} does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class MLPGradients:
    """Per-layer parameter gradients, shape-congruent with an MLP."""

    d_weights: tuple[np.ndarray, ...]
    d_biases: tuple[np.ndarray, ...]


def init_mlp(d_in: int, hidden: list[int], d_out: int, seed: int) -> MLP:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    widths = [d_in, *hidden, d_out]
    if any(w < 1 for w in widths):
        raise ValueError(f"all layer widths must be >= 1, got {widths}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLP(tuple(weights), tuple(biases))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable both directions: exp of a nonpositive argument only.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(m: MLP, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward an (N, D) batch; returns (N, O) outputs and the activation trace.

    The trace is the list of layer inputs [a_0 .. a_{L-1}] plus the final
    output, i.e. acts[l] feeds layer l. Hidden activations are sigmoid, the
    output layer is linear.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.d_in:
        raise ValueError(f"expected (N, {m.d_in}) input, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    acts = [x]
    a = x
    last = m.n_layers - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = a @ w.T + b
        a = z if l == last else _sigmoid(z)
        acts.append(a)
    return a, acts


def forward(m: MLP, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward a single D-vector; returns (O-vector, trace)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D input vector, got shape {x.shape}")
    y, acts = forward_batch(m, x[None, :])
    return y[0], acts


def backward_batch(m: MLP, trace: list[np.ndarray], delta_out: np.ndarray) -> MLPGradients:
    """Backpropagate (N, O) output-space gradients; returns gradients summed over the batch.

    ``trace`` must come from :func:`forward_batch` on the same parameters;
    ``delta_out`` is d(loss)/d(output) per sample. The MLP is not mutated.
    """
    delta_out = np.asarray(delta_out, dtype=np.float64)
    n_layers = m.n_layers
    if len(trace) != n_layers + 1:
        raise ValueError(f"trace has {len(trace)} entries, expected {n_layers + 1}")
    if delta_out.shape != trace[-1].shape:
        raise ValueError(
            f"delta_out shape {delta_out.shape} does not match output {trace[-1].shape}"
        )
    d_weights: list[np.ndarray | None] = [None] * n_layers
    d_biases: list[np.ndarray | None] = [None] * n_layers
    g = delta_out
    for l in range(n_layers - 1, -1, -1):
        a_in = trace[l]
        d_weights[l] = g.T @ a_in
        d_biases[l] = g.sum(axis=0)
        if l > 0:
            a_prev = trace[l]  # sigmoid output feeding layer l
            g = (g @ m.weights[l]) * (a_prev * (1.0 - a_prev))
    return MLPGradients(tuple(d_weights), tuple(d_biases))


def backward(m: MLP, trace: list[np.ndarray], delta_out: np.ndarray) -> MLPGradients:
    """Single-sample backward from an O-vector output gradient."""
    delta_out = np.asarray(delta_out, dtype=np.float64)
    if delta_out.ndim != 1:
        raise ValueError(f"expected a 1-D output gradient, got shape {delta_out.shape}")
    return backward_batch(m, trace, delta_out[None, :])


def sgd_step(m: MLP, g: MLPGradients, alpha: float) -> MLP:
    """Return the MLP after one step theta <- theta - alpha * grad."""
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got {alpha}")
    weights = []
    biases = []
    # Overflow here is the designed divergence signal, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b, dw, db) in enumerate(zip(m.weights, m.biases, g.d_weights, g.d_biases)):
            if dw.shape != w.shape or db.shape != b.shape:
                raise ValueError(f"layer {l}: gradient shape mismatch")
            w2 = w - alpha * dw
            b2 = b - alpha * db
            if not (np.isfinite(w2).all() and np.isfinite(b2).all()):
                raise DivergenceError(f"non-finite parameter after update in layer {l}")
            weights.append(w2)
            biases.append(b2)
    return MLP(tuple(weights), tuple(biases))


def mlp_to_dict(m: MLP) -> dict:
    """Flat JSON-ready checkpoint: layer shapes plus row-major value arrays."""
    return {
        "format": "sea-mlp/1",
        "layers": [
            {
                "shape": list(w.shape),
                "weights": [float(v) for v in w.ravel()],
                "biases": [float(v) for v in b],
            }
            for w, b in zip(m.weights, m.biases)
        ],
    }


def mlp_from_dict(d: dict) -> MLP:
    if d.get("format") != "sea-mlp/1":
        raise ValueError(f"unsupported checkpoint format: {d.get('format')!r}")
    weights = []
    biases = []
    for layer in d["layers"]:
        shape = tuple(layer["shape"])
        weights.append(np.asarray(layer["weights"], dtype=np.float64).reshape(shape))
        biases.append(np.asarray(layer["biases"], dtype=np.float64))
    return MLP(tuple(weights), tuple(biases))
