"""Held-out accuracy, train/validation/test splits, and training reports."""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import _observed_and_predicted


@dataclass(frozen=True)
class SplitSpec:
    """Train : validation : test ratios plus the seed of the shuffle."""

    m_ratio: float
    n_ratio: float
    o_ratio: float
    seed: int = 0

    def __post_init__(self):
        ratios = (self.m_ratio, self.n_ratio, self.o_ratio)
        if not all(math.isfinite(r) for r in ratios):
            raise ValueError(f"split ratios must be finite, got {ratios}")
        total = sum(ratios)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {total}")
        if not self.m_ratio > 0:
            raise ValueError("training ratio must be positive")
        if self.n_ratio < 0 or self.o_ratio < 0:
            raise ValueError("split ratios must be nonnegative")


@dataclass
class EvalReport:
    """Per-epoch training diagnostics plus the held-out result.

    ``epochs`` rows are (epoch, training objective, validation MAE, max
    primal residual). ``skipped_entities`` counts, per mode, the entities
    with no training entries; these keep their initial factors and are
    the cold entities of any later test set. ``divergence`` holds the
    ``group`` and ``reason`` of a divergence, and :meth:`summary` reports it
    only for a run that diverged. When no epoch completed, ``best_val_mae``
    is infinite and :meth:`summary` reports it as ``None`` (JSON ``null``).
    """

    epochs: list
    best_epoch: int
    best_val_mae: float
    skipped_entities: dict = field(default_factory=dict)
    diverged: bool = False
    divergence: dict | None = None

    def summary(self):
        # no test set is scored during training, and the sweeps have one
        # update order ("single"), so both keys are constants
        out = {
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_val_mae": self.best_val_mae if math.isfinite(self.best_val_mae) else None,
            "test_mae": None,
            "skipped_entities": self.skipped_entities,
            "diverged": self.diverged,
            "partition": "single",
        }
        if self.divergence:
            out["divergence"] = self.divergence
        return out


def mae(model, entries):
    """Mean absolute error of the model over the given entries.

    Accepts a SparseTensor or any iterable of (i, j, k, y) entries; the
    entry set must be nonempty. Summation uses numpy's fixed pairwise
    reduction, so the result is deterministic for a given entry order.
    """
    yy, e = _observed_and_predicted(model, entries)
    if yy.size == 0:
        raise ValueError("cannot compute MAE over an empty entry set")
    # the pairwise sum over n, as .mean() computes it, without its overhead
    return float(np.abs(np.subtract(yy, e, out=e), out=e).sum() / yy.size)


def split_sizes(n_entries, spec):
    """Subset sizes: floor(m*n) train, floor(n*n) validation, remainder test.

    A 1e-9 nudge absorbs float dust so ratios like 0.16 of 100000 land on
    the exact integer they denote.
    """
    n_train = int(math.floor(spec.m_ratio * n_entries + 1e-9))
    n_val = int(math.floor(spec.n_ratio * n_entries + 1e-9))
    return n_train, n_val, n_entries - n_train - n_val


def split(tensor, spec):
    """Seed-deterministic random partition into train/validation/test tensors.

    The entry positions are shuffled with numpy's default PCG64 generator
    seeded by ``spec.seed`` (one ``permutation`` call) and cut at the sizes
    from :func:`split_sizes`; each subset keeps the source entry order. The
    permutation is dropped once it is cut, and each subset's positions once
    the subset is taken. The three outputs are disjoint and cover the input
    exactly.
    """
    n_train, n_val, _ = split_sizes(tensor.n_entries, spec)
    perm = np.random.default_rng(spec.seed).permutation(tensor.n_entries)
    positions = [np.sort(p) for p in np.split(perm, [n_train, n_train + n_val])]
    del perm
    return tuple(tensor.take(positions.pop(0)) for _ in range(3))
