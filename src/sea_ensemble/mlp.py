"""Minimal multilayer perceptron base learner, alone or as a stack of M.

Sigmoid hidden layers, linear output, explicit forward/backward in float64,
and a plain SGD update. The backward pass starts from a caller-supplied
output-space gradient, so any per-learner ensemble loss can drive training
without the network knowing about it.

Every kernel also takes M same-shape networks stacked on a leading learner
axis, so an ensemble trains with one batched matmul per layer, not M calls;
each learner's slice is bitwise what a single-network call computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """An update produced a non-finite parameter."""

    def __init__(self, message: str, learner: int | None = None):
        super().__init__(message)
        self.learner = learner


@dataclass
class MLP:
    """Layered affine maps; weights[l] is (fan_out, fan_in), biases[l] is (fan_out,).

    A stack of M networks is (M, fan_out, fan_in) and (M, fan_out) per layer.
    Construction checks the shapes and values; :func:`sgd_step` then replaces
    the layer tuples with new arrays and never writes into the old ones.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        self.biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need matching, nonempty weight and bias lists")
        stack = self.weights[0].shape[:-2]
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim not in (2, 3) or w.shape[:-2] != stack or b.shape != w.shape[:-1]:
                raise ValueError(f"layer {l}: weight {w.shape} and bias {b.shape} mismatch")
            if l > 0 and w.shape[-1] != self.weights[l - 1].shape[-2]:
                raise ValueError(f"layer {l}: fan_in {w.shape[-1]} does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameters")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[-2]


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
    # One pass and no mask: tanh saturates instead of overflowing. Within
    # 2.3e-16 absolute of 1/(1+exp(-z)); exactly 0 below z ~ -38.
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def forward_batch(m: MLP, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward an (N, D) batch; returns (N, O) outputs and the activation trace.

    The trace is the list of layer inputs [a_0 .. a_{L-1}] plus the final
    output, i.e. acts[l] feeds layer l. Hidden activations are sigmoid, the
    output layer is linear. A stack of M networks shares the input and
    returns (M, N, O) outputs; its trace entries past the input are (M, N, H).
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
        z = np.matmul(a, np.swapaxes(w, -1, -2)) + b[..., None, :]
        a = z if l == last else _sigmoid(z)
        acts.append(a)
    return a, acts


def backward_batch(
    m: MLP, trace: list[np.ndarray], delta_out: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Backpropagate (N, O) output-space gradients; returns (d_weights, d_biases) summed over the batch.

    ``trace`` must come from :func:`forward_batch` on the same parameters;
    ``delta_out`` is d(loss)/d(output) per sample, (M, N, O) for a stack.
    The MLP is not mutated.
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
        d_weights[l] = np.matmul(np.swapaxes(g, -1, -2), a_in)
        d_biases[l] = g.sum(axis=-2)
        if l > 0:
            a_prev = trace[l]  # sigmoid output feeding layer l
            g = np.matmul(g, m.weights[l]) * (a_prev * (1.0 - a_prev))
    return tuple(d_weights), tuple(d_biases)


def sgd_step(
    m: MLP, grads: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]], alpha: float
) -> None:
    """One step theta <- theta - alpha * grad on ``m``, from :func:`backward_batch`'s pair.

    Each layer gets a new array and ``m`` is rebound to them; the old arrays
    are not written into, so views and copies taken before the step keep
    their values. A non-finite result raises :class:`DivergenceError` and
    leaves ``m`` unchanged; on a stack its ``learner`` is the lowest learner
    index with a non-finite layer.
    """
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got {alpha}")
    weights = []
    biases = []
    # Overflow here is the designed divergence signal, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for l, (w, b, dw, db) in enumerate(zip(m.weights, m.biases, *grads, strict=True)):
            if dw.shape != w.shape or db.shape != b.shape:
                raise ValueError(f"layer {l}: gradient shape mismatch")
            weights.append(w - alpha * dw)
            biases.append(b - alpha * db)
    # finite[l] is one flag for a single network, one per learner for a stack
    finite = np.array([np.isfinite(w).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1)
                       for w, b in zip(weights, biases)])
    if not finite.all():
        learner = None if finite.ndim == 1 else int(np.argmin(finite.all(axis=0)))
        layer = int(np.argmin(finite if learner is None else finite[:, learner]))
        raise DivergenceError(f"non-finite parameter after update in layer {layer}", learner=learner)
    m.weights = tuple(weights)
    m.biases = tuple(biases)


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
