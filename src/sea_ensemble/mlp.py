"""Minimal multilayer perceptron base learner, alone or as a stack of M.

Sigmoid hidden layers, linear output, explicit forward/backward in float64,
and a plain SGD update. The backward pass starts from a caller-supplied
output-space gradient, so any per-learner ensemble loss can drive training
without the network knowing about it.

Every kernel also takes M same-shape networks stacked on a leading learner
axis, so an ensemble trains with one batched matmul per layer, not M calls;
each learner's slice is bitwise what a single-network call computes.

Parameter layout: a network's parameters live in one flat array ``theta``,
(n_params,) for one network and (M, n_params) for a stack. Per learner it
holds one block per layer, ``[W_l | b_l]`` of shape (fan_out, fan_in + 1),
row-major, so each row is a unit's weights followed by its bias. ``blocks``
are views into ``theta``, and ``weights`` and ``biases`` are strided views
into the blocks. :func:`backward_batch` returns its gradient in the same
layout, so :func:`sgd_step` updates every layer of every learner in one
pass. The MLP owns ``theta``: construction copies the given layers into a
new one, and each step makes a fresh one and rebinds the views, so arrays
taken from an MLP keep their values. :meth:`MLP.from_theta` wraps an
existing array without a copy, which is how an ensemble's per-learner views
and row copies are made.

Activations: every array the kernels make is unit-major, (width, M, N) for a
stack and (width, N) for one network, so the elementwise passes (the
sigmoid, ``1 - a``, ``g *= d``) run on contiguous memory, and the matmuls
read and write the view ``buf.swapaxes(0, -2)``. A layer's input has a last
row of ones, written once when its buffer is made, so a layer is one matmul
with the bias inside the dot product, and ``g @ trace[l]`` is its dW and db
at once. Hidden layers multiply by ``0.5 * [W | b]``: scaling by a power of
two is exact, so that is ``0.5 * (W a + b)`` bit for bit, and the sigmoid
``0.5 * (1 + tanh(z/2))`` starts at its tanh. Outputs, (N, O) or (M, N, O),
and trace entries, (N, fan_in + 1) or (M, N, fan_in + 1) ending in the
column of ones, are sample-major views of these buffers.

Workspace: :func:`forward_batch` and :func:`backward_batch` write every
(width, ..., N) array they make, the activations and the backward ``g`` and
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
    ``theta`` (see the module docstring), whose per-layer ``[W | b]`` blocks
    are ``blocks``, of which ``weights`` and ``biases`` are strided views;
    :func:`sgd_step` then replaces ``theta`` and the views with new arrays
    and never writes into the old ones.
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
        self.blocks, self.weights, self.biases = _views(self.theta, self.shapes)
        finite = np.isfinite(self.theta).reshape(-1, self.theta.shape[-1]).all(axis=0)
        if not finite.all():
            raise ValueError(f"layer {_first_bad_layer(finite, self.shapes)}: non-finite parameters")

    @classmethod
    def from_theta(cls, theta: np.ndarray, shapes: tuple[tuple[int, int], ...]) -> MLP:
        """The MLP over ``theta`` itself, with layers of (fan_out, fan_in) ``shapes``: no copy, no check."""
        m = object.__new__(cls)
        m.shapes, m.theta = shapes, theta
        m.blocks, m.weights, m.biases = _views(theta, shapes)
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
    """A new ``theta`` holding per-layer (weight, bias) arrays of matching, checked stacks, in the module's layout."""
    shapes = tuple(np.shape(w)[-2:] for w in weights)
    theta = np.empty(np.shape(weights[0])[:-2] + (sum(o * (i + 1) for o, i in shapes),))
    for block, w, b in zip(_views(theta, shapes)[0], weights, biases):
        block[..., :-1] = w
        block[..., -1] = b
    return theta


def _views(theta: np.ndarray, shapes) -> tuple[tuple[np.ndarray, ...], ...]:
    """Each layer's [W | b] block (..., fan_out, fan_in + 1) as a view into ``theta``, and its W and b as views of that."""
    lead = theta.shape[:-1]
    blocks = []
    start = 0
    for fan_out, fan_in in shapes:
        stop = start + fan_out * (fan_in + 1)
        blocks.append(theta[..., start:stop].reshape(lead + (fan_out, fan_in + 1)))
        start = stop
    return tuple(blocks), tuple(b[..., :-1] for b in blocks), tuple(b[..., -1] for b in blocks)


def _first_bad_layer(finite: np.ndarray, shapes) -> int:
    """The layer holding the first False of one network's (n_params,) finiteness flags."""
    ends = np.cumsum([fan_out * (fan_in + 1) for fan_out, fan_in in shapes])
    return int(np.searchsorted(ends, np.argmin(finite), side="right"))


class Gradients(tuple):
    """:func:`backward_batch`'s (d_weights, d_biases): per-layer views into ``theta``, laid out as ``MLP.theta``."""

    def __new__(cls, theta: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        blocks, d_weights, d_biases = _views(theta, shapes)
        grads = super().__new__(cls, (d_weights, d_biases))
        grads.theta, grads.shapes, grads.blocks = theta, shapes, blocks
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
    return _sigmoid_of_half(np.multiply(z, 0.5, out=out))


def _sigmoid_of_half(h: np.ndarray) -> np.ndarray:
    """sigmoid(2 h) in place: the last three steps of :func:`_sigmoid`."""
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    return h


def _buffer(work: dict, key: tuple, shape: tuple, ones: bool = False) -> np.ndarray:
    """``work[key]`` when it has ``shape``, else a new array that replaces it, with a last row of ones if ``ones``."""
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        buf = work[key] = np.empty(shape)
        if ones:
            buf[-1] = 1.0
    return buf


def _sample_major(buf: np.ndarray) -> np.ndarray:
    """The (..., N, width) view of a unit-major (width, ..., N) buffer."""
    return buf.swapaxes(0, -2).swapaxes(-1, -2)


def forward_batch(m: MLP, x: np.ndarray, work: dict | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward an (N, D) batch; returns (N, O) outputs and the activation trace.

    The trace is the list of layer inputs [a_0 .. a_{L-1}] plus the final
    output, i.e. acts[l] feeds layer l; each layer input, the given batch
    included, carries a trailing column of ones, (N, fan_in + 1). Hidden
    activations are sigmoid, the output layer is linear. A stack of M
    networks shares the input and returns (M, N, O) outputs; its trace
    entries past the input are (M, N, fan_in + 1). Outputs and trace live in
    ``work`` (default: a fresh one), as views of its unit-major buffers.
    """
    work = {} if work is None else work
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.d_in:
        raise ValueError(f"expected (N, {m.d_in}) input, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    stack, n = m.theta.shape[:-1], x.shape[0]
    a = _buffer(work, ("a", 0), (m.d_in + 1, n), ones=True)
    np.copyto(a[:-1], x.T)
    acts = [_sample_major(a)]
    for l, block in enumerate(m.blocks[:-1], start=1):
        h = _buffer(work, ("a", l), (block.shape[-2] + 1,) + stack + (n,), ones=True)
        # 0.5 * [W | b] is exact, so the matmul gives z / 2 and the sigmoid skips its first step
        np.matmul(np.multiply(block, 0.5), a.swapaxes(0, -2), out=h[:-1].swapaxes(0, -2))
        _sigmoid_of_half(h[:-1])
        acts.append(_sample_major(h))
        a = h
    y = _buffer(work, ("a", m.n_layers), (m.d_out,) + stack + (n,))
    np.matmul(m.blocks[-1], a.swapaxes(0, -2), out=y.swapaxes(0, -2))
    acts.append(_sample_major(y))
    return acts[-1], acts


def backward_batch(m: MLP, trace: list[np.ndarray], delta_out: np.ndarray, work: dict | None = None) -> Gradients:
    """Backpropagate (N, O) output-space gradients; returns (d_weights, d_biases) summed over the batch.

    ``trace`` must come from :func:`forward_batch` on the same parameters;
    ``delta_out`` is d(loss)/d(output) per sample, (M, N, O) for a stack.
    Each layer's dW and db are one matmul, ``g @ trace[l]`` against the
    trace's ones column, written straight into that layer's block of one new
    gradient array laid out as ``m.theta``; the returned pair is per-layer
    views into it, which :func:`sgd_step` takes as one array. The propagated
    gradients live in ``work`` (default: a fresh one), unit-major like the
    activations; the returned sums and the MLP do not. A layer with one
    output unit propagates by a broadcast product, which gives the bits of
    its inner-dimension-1 matmul without its overhead.
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
    # unit-major (O, ..., N), the same bits whatever the caller's layout
    g_out = delta_out.swapaxes(-1, -2).swapaxes(0, -2)
    g = _buffer(work, ("g", n_layers - 1), g_out.shape)
    np.copyto(g, g_out)
    for l in range(n_layers - 1, -1, -1):
        np.matmul(g.swapaxes(0, -2), trace[l], out=grads.blocks[l])
        if l > 0:
            a = trace[l].swapaxes(-1, -2).swapaxes(0, -2)[:-1]  # the sigmoid output feeding layer l
            w_t = m.weights[l].swapaxes(-1, -2)
            g_in = _buffer(work, ("g", l - 1), a.shape)
            if w_t.shape[-1] == 1:
                np.multiply(w_t.swapaxes(0, -2), g, out=g_in)  # unit-major (fan_in, ..., 1) * (1, ..., N)
            else:
                np.matmul(w_t, g.swapaxes(0, -2), out=g_in.swapaxes(0, -2))
            d = np.subtract(1.0, a, out=_buffer(work, ("d", l), a.shape))
            d *= a
            g_in *= d
            g = g_in
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
    m.blocks, m.weights, m.biases = _views(theta, m.shapes)


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
