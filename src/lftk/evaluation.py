"""Held-out accuracy, train/validation/test splits, and training reports."""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import entry_arrays


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
    the cold entities of any later test set. ``partition`` names the
    update-order scheme so runs are reproducible byte for byte. When no
    epoch completed, ``best_val_mae`` is infinite and :meth:`summary`
    reports it as ``None`` (JSON ``null``).
    """

    epochs: list
    best_epoch: int
    best_val_mae: float
    test_mae: float | None = None
    skipped_entities: dict = field(default_factory=dict)
    diverged: bool = False
    partition: str = "single"

    def summary(self):
        return {
            "epochs_run": len(self.epochs),
            "best_epoch": self.best_epoch,
            "best_val_mae": self.best_val_mae if math.isfinite(self.best_val_mae) else None,
            "test_mae": self.test_mae,
            "skipped_entities": self.skipped_entities,
            "diverged": self.diverged,
            "partition": self.partition,
        }


def mae(model, entries):
    """Mean absolute error of the model over the given entries.

    Accepts a SparseTensor or any iterable of (i, j, k, y) entries; the
    entry set must be nonempty. Summation uses numpy's fixed pairwise
    reduction, so the result is deterministic for a given entry order.
    """
    ii, jj, kk, yy = entry_arrays(entries)
    if yy.size == 0:
        raise ValueError("cannot compute MAE over an empty entry set")
    return float(np.abs(yy - model.predict_entries(ii, jj, kk)).mean())


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
    seeded by ``spec.seed`` (one ``permutation`` call), cut at the sizes
    from :func:`split_sizes`, and each subset keeps the source entry
    order. The three outputs are disjoint and cover the input exactly.
    """
    n = tensor.n_entries
    n_train, n_val, _ = split_sizes(n, spec)
    perm = np.random.default_rng(spec.seed).permutation(n)
    parts = (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train : n_train + n_val]),
        np.sort(perm[n_train + n_val :]),
    )
    return tuple(tensor.take(p) for p in parts)
