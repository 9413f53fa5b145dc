"""Isolated layer cases: one package call timed on fixed, seeded inputs.

Each case reports the median over REPEATS of the mean time per call, in
microseconds. Inputs match the workloads' learners: hidden (10,10), two
input features, one output, N=200 rows.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sea_ensemble import ensemble, mlp

REPEATS = 7
N, D_IN, HIDDEN, D_OUT = 200, 2, [10, 10], 1
ALPHA = 1e-3


def _per_call_us(fn, budget_s: float = 0.05) -> float:
    fn()
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - started >= budget_s / REPEATS or calls >= 1 << 16:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - started) / calls * 1e6)
    return statistics.median(samples)


def run_cases(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 200, 10])
    x = rng.uniform(-1.0, 1.0, (N, D_IN))
    t = rng.normal(0.0, 1.0, (N, D_OUT))
    net = mlp.init_mlp(D_IN, HIDDEN, D_OUT, seed)
    y, trace = mlp.forward_batch(net, x)
    delta = (y - t) / N
    grads = mlp.backward_batch(net, trace, delta)
    z = rng.normal(0.0, 3.0, (N, 10))
    preds = rng.normal(0.0, 1.0, (5, N, D_OUT))
    sea = ensemble.MethodConfig("sea", 0.5)

    out = {
        "case.sigmoid_us": _per_call_us(lambda: mlp._sigmoid(z)),
        "case.forward_batch_us": _per_call_us(lambda: mlp.forward_batch(net, x)),
        "case.backward_batch_us": _per_call_us(lambda: mlp.backward_batch(net, trace, delta)),
        "case.sgd_step_us": _per_call_us(lambda: mlp.sgd_step(net, grads, ALPHA)),
        "case.output_gradients_us": _per_call_us(lambda: ensemble.output_gradients(preds, t, sea)),
    }
    params = {"independent": 0.0, "sea": 0.5, "ncl": 0.5, "nclstar": 0.5, "bagging": 0.0}
    for method, param in params.items():
        for m in (5, 20):
            ens = ensemble.build_ensemble(
                D_IN, HIDDEN, D_OUT, m, ensemble.MethodConfig(method, param), seed=seed, n_train=N
            )
            out[f"case.train_epoch.{method}.m{m}_us"] = _per_call_us(
                lambda: ensemble.train_epoch(ens, x, t, ALPHA)
            )
    return out
