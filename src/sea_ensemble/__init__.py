"""Adjustable-loss MLP ensembles with closed-form boundary theory.

Modules:

* :mod:`sea_ensemble.data`      dataset parsing, standardization, folds, synthetic data
* :mod:`sea_ensemble.mlp`       the base learner (forward / backward / sgd)
* :mod:`sea_ensemble.ensemble`  losses, output-space gradients, the training step and what each step reads
* :mod:`sea_ensemble.theory`    bounds, parameter mappings, diversity predictions
* :mod:`sea_ensemble.harness`   the training loop (``train_stack``), cross-validated sweeps, metrics, persistence
* :mod:`sea_ensemble.gradcheck` finite-difference checks of every analytic gradient
* :mod:`sea_ensemble.seeds`     purpose-split seeds
* :mod:`sea_ensemble.cli`       command-line entry point
"""

__version__ = "0.1.0"
