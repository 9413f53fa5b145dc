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
row-major, so each row is a unit's weights followed by its bias. ``theta``,
its layer ``shapes`` and the ``blocks`` viewing it are all an MLP holds;
``weights`` and ``biases`` are strided views of the blocks, made when read.
:func:`backward_batch` returns its gradient as one array in the same
layout, so :func:`sgd_step` updates every layer of every learner in one
pass. ``MLP(theta, shapes)`` is the one constructor: it wraps the given
array, with no copy and no check, so the caller decides what is copied:
:func:`init_mlp` fills a new ``theta``, an ensemble wraps its stack, a row
copy or a row view. The checkpoint reader in :mod:`sea_ensemble.ensemble` is
where parameters enter from outside the program, and is where they are
checked. :func:`sgd_step` updates ``theta`` in place, so an MLP's ``theta``
and ``blocks`` are bound once, and every view of them, a learner's row
included, sees the step; a non-finite update stays in ``theta`` for the
caller to read.

Activations: every array the kernels make is unit-major, (width, M, N) for a
stack and (width, N) for one network, so the elementwise passes (the
sigmoid, ``1 - a``, ``g *= d``) run on contiguous memory, and the matmuls
read and write the view ``buf.swapaxes(0, -2)``. A layer's input has a last
row of ones, written once when its buffer is made, so a layer is one matmul
with the bias inside the dot product, and ``g @ trace[l]`` is its dW and db
at once. Hidden layers multiply by ``-[W | b]``: negation is exact, so that
is ``-(W a + b)`` bit for bit, and the sigmoid ``1 / (1 + exp(-z))`` starts
at its exp. Outputs, (N, O) or (M, N, O), and trace entries, (N, fan_in + 1)
or (M, N, fan_in + 1) ending in the column of ones, are sample-major views of
these buffers.

Input: a stack's learners share one (N, D) batch, or each reads its own
rows from an (M, N, D) one, as bagging's learners read their drawn rows.
Both fill the layer-0 buffer, (D + 1, N) or (D + 1, M, N), and go through
the same layer-0 matmul.

Workspace: :func:`forward_batch` and :func:`backward_batch` write every
(width, ..., N) array they make, the activations and the backward ``g`` and
``d``, into a ``work`` dict with one array per (kind, layer) key. An array is
reused while its shape holds and replaced when it changes, so a workspace
holds one step's arrays, of the last shape it saw. By default each call gets
a fresh dict and allocates as a plain numpy call would; a caller that passes
its own gets results that alias it and are overwritten by its next call.
An ensemble owns one workspace, ``EnsembleModel.work``, and every stack
taken from it shares it: a column's chunks, the smaller stack left when a
point diverges, and the forward that scores them. That is safe because the
stacks step one at a time and each call writes a buffer before it reads it;
only the ones rows are not rewritten, as they are written once, when their
buffer is made. Reuse keeps large arrays off the allocator: past glibc's
mmap threshold (128 KB), a fresh array is mapped and faulted in again at
every step.
"""

from __future__ import annotations

import numpy as np


class MLP:
    """Layered affine maps over one flat ``theta`` (see the module docstring).

    ``MLP(theta, shapes)`` wraps ``theta`` itself, (n_params,) for one
    network or (M, n_params) for a stack, with layers of (fan_out, fan_in)
    ``shapes``: no copy, no check. Its per-layer ``[W | b]`` blocks are
    ``blocks``, views of ``theta`` that :func:`sgd_step` updates in place.
    """

    def __init__(self, theta: np.ndarray, shapes: tuple[tuple[int, int], ...]):
        self.shapes, self.theta, self.blocks = shapes, theta, _blocks(theta, shapes)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        """Each layer's W, (..., fan_out, fan_in), as a strided view of its block."""
        return tuple(b[..., :-1] for b in self.blocks)

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        """Each layer's b, (..., fan_out), as a strided view of its block."""
        return tuple(b[..., -1] for b in self.blocks)

    @property
    def n_layers(self) -> int:
        return len(self.shapes)

    @property
    def d_in(self) -> int:
        return self.shapes[0][1]

    @property
    def d_out(self) -> int:
        return self.shapes[-1][0]


def _blocks(theta: np.ndarray, shapes) -> tuple[np.ndarray, ...]:
    """Each layer's [W | b] block, (..., fan_out, fan_in + 1), as a view into ``theta``."""
    lead = theta.shape[:-1]
    blocks = []
    start = 0
    for fan_out, fan_in in shapes:
        stop = start + fan_out * (fan_in + 1)
        blocks.append(theta[..., start:stop].reshape(lead + (fan_out, fan_in + 1)))
        start = stop
    return tuple(blocks)


def init_mlp(d_in: int, hidden: list[int], d_out: int, seed: int) -> MLP:
    """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    widths = [d_in, *hidden, d_out]
    if any(w < 1 for w in widths):
        raise ValueError(f"all layer widths must be >= 1, got {widths}")
    rng = np.random.default_rng(seed)
    shapes = tuple(zip(widths[1:], widths[:-1]))
    m = MLP(np.zeros(sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes)), shapes)
    for w, (fan_out, fan_in) in zip(m.weights, shapes):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return m


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # One pass and no mask: exp overflows to inf far left, where 1 / (1 + inf)
    # is the right 0. Within about 5e-16 relative of the sigmoid everywhere.
    # The four steps of 1 / (1 + exp(-z)) run in ``out`` (which may be ``z``).
    with np.errstate(over="ignore"):
        return _sigmoid_of_negated(np.negative(z, out=out))


def _sigmoid_of_negated(h: np.ndarray) -> np.ndarray:
    """sigmoid(-h) in place: the last three steps of :func:`_sigmoid`; the caller ignores exp's overflow."""
    np.exp(h, out=h)
    h += 1.0
    np.divide(1.0, h, out=h)
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
    networks takes the (N, D) batch shared, or an (M, N, D) one whose slice
    i feeds learner i; it returns (M, N, O) outputs, and its trace entries
    past a shared input are (M, N, fan_in + 1). Outputs and trace live in
    ``work`` (default: a fresh one), as views of its unit-major buffers.
    The input's shape is checked, not its values: as with ``MLP(theta,
    shapes)``, a caller who passes a batch owns it. Data from outside is
    checked where it enters (:func:`sea_ensemble.data.parse_libsvm`); an
    +-inf input can saturate the sigmoids to finite outputs, not fail.
    """
    work = {} if work is None else work
    x = np.asarray(x, dtype=np.float64)
    stack = m.theta.shape[:-1]
    if x.ndim < 2 or x.shape[-1] != m.d_in or x.shape[:-2] not in ((), stack):
        per_learner = f" or ({stack[0]}, N, {m.d_in})" if stack else ""
        raise ValueError(f"expected (N, {m.d_in}){per_learner} input, got {x.shape}")
    n = x.shape[-2]
    a = _buffer(work, ("a", 0), (m.d_in + 1,) + x.shape[:-2] + (n,), ones=True)
    np.copyto(a[:-1], x.swapaxes(-1, -2).swapaxes(0, -2))
    acts = [_sample_major(a)]
    with np.errstate(over="ignore"):  # exp(-z) overflows to inf far left, where the sigmoid is 0
        for l, block in enumerate(m.blocks[:-1], start=1):
            h = _buffer(work, ("a", l), (block.shape[-2] + 1,) + stack + (n,), ones=True)
            # -[W | b] is exact, so the matmul gives -z and the sigmoid skips its first step
            np.matmul(np.negative(block), a.swapaxes(0, -2), out=h[:-1].swapaxes(0, -2))
            _sigmoid_of_negated(h[:-1])
            acts.append(_sample_major(h))
            a = h
    y = _buffer(work, ("a", m.n_layers), (m.d_out,) + stack + (n,))
    np.matmul(m.blocks[-1], a.swapaxes(0, -2), out=y.swapaxes(0, -2))
    acts.append(_sample_major(y))
    return acts[-1], acts


def backward_batch(m: MLP, trace: list[np.ndarray], delta_out: np.ndarray, work: dict | None = None) -> np.ndarray:
    """Backpropagate (N, O) output-space gradients; returns their sum over the batch, laid out as ``m.theta``.

    ``trace`` must come from :func:`forward_batch` on the same parameters;
    ``delta_out`` is d(loss)/d(output) per sample, (M, N, O) for a stack.
    Each layer's dW and db are one matmul, ``g @ trace[l]`` against the
    trace's ones column, written straight into that layer's block of one new
    gradient array, which :func:`sgd_step` takes whole;
    ``MLP(grad, m.shapes)`` reads it per layer. The propagated
    gradients live in ``work`` (default: a fresh one), unit-major like the
    activations; the returned array and the MLP do not. A layer with one
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
    grad = np.empty(m.theta.shape)
    grad_blocks = _blocks(grad, m.shapes)
    # unit-major (O, ..., N), the same bits whatever the caller's layout
    g_out = delta_out.swapaxes(-1, -2).swapaxes(0, -2)
    g = _buffer(work, ("g", n_layers - 1), g_out.shape)
    np.copyto(g, g_out)
    for l in range(n_layers - 1, -1, -1):
        np.matmul(g.swapaxes(0, -2), trace[l], out=grad_blocks[l])
        if l > 0:
            a = trace[l].swapaxes(-1, -2).swapaxes(0, -2)[:-1]  # the sigmoid output feeding layer l
            w_t = m.blocks[l][..., :-1].swapaxes(-1, -2)
            g_in = _buffer(work, ("g", l - 1), a.shape)
            if w_t.shape[-1] == 1:
                np.multiply(w_t.swapaxes(0, -2), g, out=g_in)  # unit-major (fan_in, ..., 1) * (1, ..., N)
            else:
                np.matmul(w_t, g.swapaxes(0, -2), out=g_in.swapaxes(0, -2))
            d = np.subtract(1.0, a, out=_buffer(work, ("d", l), a.shape))
            d *= a
            g_in *= d
            g = g_in
    return grad


def sgd_step(m: MLP, grad: np.ndarray, alpha: float) -> None:
    """One step theta <- theta - alpha * grad on ``m``, from a gradient laid out as ``m.theta``.

    The update is one pass over every parameter, written into ``m.theta``
    itself, so every view of it sees the step. A non-finite result is
    written like any other: the caller reads divergence from ``m.theta``.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"learning rate must be positive and finite, got {alpha}")
    if grad.shape != m.theta.shape:
        raise ValueError(f"gradient shape mismatch: {grad.shape} against theta {m.theta.shape}")
    # Overflow here is the designed divergence signal, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(m.theta, np.multiply(grad, alpha), out=m.theta)
