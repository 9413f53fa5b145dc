"""Minimal multilayer perceptron base learner, alone or as a stack of M.

Sigmoid hidden layers, linear output, explicit forward/backward in float64,
and a plain SGD update. The backward pass starts from a caller-supplied
output-space gradient, so any per-learner ensemble loss can drive training
without the network knowing about it.

Every kernel also takes M same-shape networks stacked on a leading learner
axis, so an ensemble trains with one batched matmul per layer, not M calls;
each learner's slice is bitwise what a single-network call computes.

Parameter layout: a network's parameters live in one flat array ``theta``,
(n_params,) for one network and (M, n_params) for a stack, laid out per
learner as W_0, b_0, W_1, b_1, ... with each W_l row-major (fan_out, fan_in).
``weights`` and ``biases`` are views into it, and :func:`backward_batch`
returns its gradient in the same layout, so :func:`sgd_step` updates every
layer of every learner in one pass. The MLP owns ``theta``: construction
copies the given layers into a new one, and each step makes a fresh one and
rebinds the views, so arrays taken from an MLP keep their values.
:meth:`MLP.from_theta` wraps an existing array without a copy, which is how
an ensemble's per-learner views and row copies are made.

Memory layout: activations are computed feature-major, (..., fan_out, N)
with the batch axis contiguous, as ``w @ a``; the bias add and the sigmoid
then run in place on the matmul's result. The public shapes are
sample-major: outputs and trace entries past the input are
``swapaxes`` views, (N, O) and (N, H), or (M, N, O) and (M, N, H) for a
stack, of the feature-major arrays.

Workspace: :func:`forward_batch` and :func:`backward_batch` write every
(..., width, N) array they make, the activations and the backward ``g`` and
``d``, into a ``work`` dict with one array per (kind, layer) key. An array is
reused while its shape holds and replaced when it changes, so a workspace
holds one step's arrays, of the last shape it saw. By default each call gets
a fresh dict and allocates as a plain numpy call would; a caller that passes
its own, as a training loop does, gets results that alias it and are
overwritten by its next call. Reuse keeps large arrays off the allocator:
past glibc's mmap threshold (128 KB), a fresh array is mapped and faulted in
again at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DivergenceError(RuntimeError):
    """An update produced a non-finite parameter; on a stack, ``mask`` flags each such learner."""

    def __init__(self, message: str, learner: int | None = None, mask: np.ndarray | None = None):
        super().__init__(message)
        self.learner = learner
        self.mask = mask


@dataclass
class MLP:
    """Layered affine maps; weights[l] is (fan_out, fan_in), biases[l] is (fan_out,).

    A stack of M networks is (M, fan_out, fan_in) and (M, fan_out) per layer.
    Construction checks the shapes and values and packs the layers into a new
    ``theta`` (see the module docstring), of which ``weights`` and ``biases``
    become views; :func:`sgd_step` then replaces ``theta`` and the views with
    new arrays and never writes into the old ones.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, nonempty weight and bias lists")
        stack = weights[0].shape[:-2]
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim not in (2, 3) or w.shape[:-2] != stack or b.shape != w.shape[:-1]:
                raise ValueError(f"layer {l}: weight {w.shape} and bias {b.shape} mismatch")
            if l > 0 and w.shape[-1] != weights[l - 1].shape[-2]:
                raise ValueError(f"layer {l}: fan_in {w.shape[-1]} does not chain")
        self.shapes = tuple(w.shape[-2:] for w in weights)  # each layer's (fan_out, fan_in)
        self.theta = _pack(weights, biases)
        self.weights, self.biases = _layer_views(self.theta, self.shapes)
        finite = np.isfinite(self.theta).reshape(-1, self.theta.shape[-1]).all(axis=0)
        if not finite.all():
            raise ValueError(f"layer {_first_bad_layer(finite, self.shapes)}: non-finite parameters")

    @classmethod
    def from_theta(cls, theta: np.ndarray, shapes: tuple[tuple[int, int], ...]) -> MLP:
        """The MLP over ``theta`` itself, with layers of (fan_out, fan_in) ``shapes``: no copy, no check."""
        m = object.__new__(cls)
        m.shapes, m.theta = shapes, theta
        m.weights, m.biases = _layer_views(theta, shapes)
        return m

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def d_in(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[-2]


def _pack(weights, biases) -> np.ndarray:
    """A new ``theta`` holding per-layer (weight, bias) arrays of matching stacks, in the module's layout."""
    parts = []
    for w, b in zip(weights, biases):
        w = np.asarray(w, dtype=np.float64)
        parts += [w.reshape(w.shape[:-2] + (w.shape[-2] * w.shape[-1],)), np.asarray(b, dtype=np.float64)]
    return np.concatenate(parts, axis=-1)


def _layer_views(theta: np.ndarray, shapes) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Each layer's weight and bias as views into ``theta`` (..., n_params)."""
    lead = theta.shape[:-1]
    weights, biases = [], []
    start = 0
    for fan_out, fan_in in shapes:
        stop = start + fan_out * fan_in
        weights.append(theta[..., start:stop].reshape(lead + (fan_out, fan_in)))
        biases.append(theta[..., stop : stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


def _first_bad_layer(finite: np.ndarray, shapes) -> int:
    """The layer holding the first False of one network's (n_params,) finiteness flags."""
    ends = np.cumsum([fan_out * (fan_in + 1) for fan_out, fan_in in shapes])
    return int(np.searchsorted(ends, np.argmin(finite), side="right"))


class Gradients(tuple):
    """:func:`backward_batch`'s (d_weights, d_biases): per-layer views into ``theta``, laid out as ``MLP.theta``."""

    def __new__(cls, theta: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        grads = super().__new__(cls, _layer_views(theta, shapes))
        grads.theta, grads.shapes = theta, shapes
        return grads


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


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # One pass and no mask: tanh saturates instead of overflowing. Within
    # 2.3e-16 absolute of 1/(1+exp(-z)); exactly 0 below z ~ -38. The four
    # steps of 0.5 * (1 + tanh(z/2)) run in ``out`` (which may be ``z``).
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _buffer(work: dict, key: tuple, shape: tuple) -> np.ndarray:
    """``work[key]`` when it has ``shape``, else a new array that replaces it."""
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        buf = work[key] = np.empty(shape)
    return buf


def forward_batch(m: MLP, x: np.ndarray, work: dict | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward an (N, D) batch; returns (N, O) outputs and the activation trace.

    The trace is the list of layer inputs [a_0 .. a_{L-1}] plus the final
    output, i.e. acts[l] feeds layer l. Hidden activations are sigmoid, the
    output layer is linear. A stack of M networks shares the input and
    returns (M, N, O) outputs; its trace entries past the input are (M, N, H).
    Outputs and trace past the input live in ``work`` (default: a fresh one).
    """
    work = {} if work is None else work
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.d_in:
        raise ValueError(f"expected (N, {m.d_in}) input, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    acts = [x]
    a = np.ascontiguousarray(x.T)
    last = m.n_layers - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        a = np.matmul(w, a, out=_buffer(work, ("a", l), w.shape[:-1] + a.shape[-1:]))  # (..., fan_out, N)
        a += b[..., None]
        if l < last:
            _sigmoid(a, out=a)
        acts.append(np.swapaxes(a, -1, -2))
    return acts[-1], acts


def backward_batch(m: MLP, trace: list[np.ndarray], delta_out: np.ndarray, work: dict | None = None) -> Gradients:
    """Backpropagate (N, O) output-space gradients; returns (d_weights, d_biases) summed over the batch.

    ``trace`` must come from :func:`forward_batch` on the same parameters;
    ``delta_out`` is d(loss)/d(output) per sample, (M, N, O) for a stack.
    Every dW and db is written straight into one new gradient array laid out
    as ``m.theta``, and the returned pair is per-layer views into it, which
    :func:`sgd_step` takes as one array. The propagated gradients live in
    ``work`` (default: a fresh one); the returned sums and the MLP do not.
    A layer with one output unit propagates by a broadcast product, which
    gives the bits of its inner-dimension-1 matmul without its overhead.
    """
    work = {} if work is None else work
    delta_out = np.asarray(delta_out, dtype=np.float64)
    n_layers = m.n_layers
    if len(trace) != n_layers + 1:
        raise ValueError(f"trace has {len(trace)} entries, expected {n_layers + 1}")
    if delta_out.shape != trace[-1].shape:
        raise ValueError(
            f"delta_out shape {delta_out.shape} does not match output {trace[-1].shape}"
        )
    grads = Gradients(np.empty(m.theta.shape), m.shapes)
    d_weights, d_biases = grads
    # feature-major (..., O, N), the same bits whatever the caller's layout
    g_out = delta_out.swapaxes(-1, -2)
    g = _buffer(work, ("g", n_layers - 1), g_out.shape)
    np.copyto(g, g_out)
    for l in range(n_layers - 1, -1, -1):
        np.matmul(g, trace[l], out=d_weights[l])
        np.add.reduce(g, axis=-1, out=d_biases[l])
        if l > 0:
            a = trace[l].swapaxes(-1, -2)  # sigmoid output feeding layer l
            w_t = m.weights[l].swapaxes(-1, -2)
            propagate = np.multiply if w_t.shape[-1] == 1 else np.matmul
            g = propagate(w_t, g, out=_buffer(work, ("g", l - 1), a.shape))
            d = np.subtract(1.0, a, out=_buffer(work, ("d", l), a.shape))
            d *= a
            g *= d
    return grads


def sgd_step(m: MLP, grads: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]], alpha: float) -> None:
    """One step theta <- theta - alpha * grad on ``m``, from :func:`backward_batch`'s pair or a hand-built one.

    The update is one pass over every parameter into a fresh ``theta``, and
    ``m`` is rebound to it and its views; the old arrays are not written
    into, so views and copies taken before the step keep their values. A
    hand-built (d_weights, d_biases) pair is packed into the layout first.
    A non-finite result raises :class:`DivergenceError` and leaves ``m``
    unchanged; on a stack its ``mask`` flags every learner with a non-finite
    parameter and its ``learner`` is the lowest of them.
    """
    if alpha <= 0:
        raise ValueError(f"learning rate must be positive, got {alpha}")
    if isinstance(grads, Gradients) and grads.shapes == m.shapes and grads.theta.shape == m.theta.shape:
        grad = grads.theta
    else:
        for l, (w, b, dw, db) in enumerate(zip(m.weights, m.biases, *grads, strict=True)):
            if dw.shape != w.shape or db.shape != b.shape:
                raise ValueError(f"layer {l}: gradient shape mismatch")
        grad = _pack(*grads)
    # Overflow here is the designed divergence signal, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.multiply(grad, alpha)
        np.subtract(m.theta, theta, out=theta)
    finite = np.isfinite(theta)
    if not finite.all():
        mask = None if theta.ndim == 1 else ~finite.all(axis=-1)
        learner = None if mask is None else int(np.argmax(mask))
        layer = _first_bad_layer(finite if learner is None else finite[learner], m.shapes)
        raise DivergenceError(f"non-finite parameter after update in layer {layer}", learner, mask)
    m.theta = theta
    m.weights, m.biases = _layer_views(theta, m.shapes)


def mlp_to_dict(m: MLP) -> dict:
    """Flat JSON-ready checkpoint of a network or a stack: layer shapes plus row-major value arrays."""
    return {
        "format": "sea-mlp/1",
        "layers": [
            {
                "shape": list(w.shape),
                "weights": [float(v) for v in w.ravel()],
                "biases": [float(v) for v in b.ravel()],
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
        biases.append(np.asarray(layer["biases"], dtype=np.float64).reshape(shape[:-1]))
    return MLP(tuple(weights), tuple(biases))
