"""ADMM training of the nonnegative factor model.

The constrained fitting problem is split with one unconstrained auxiliary
copy of every parameter, tied to its nonnegative primal twin through an
augmented Lagrangian. Each mode's parameters form one ``(dim, R+1)``
block: factor columns ``0..R-1`` and the bias in column ``R``, which is a
factor column whose coefficient in the prediction is always 1. The primal
model, the auxiliaries and the multipliers each hold one block per mode,
so one closed form updates every column. Each epoch alternates three
moves:

1. auxiliary column updates: closed-form minimizers of the
   half-quadratic subproblem in which every residual carries the weight
   ``1 / (gamma^2 + e^2)`` (or 1 in plain squared-error mode), refreshed
   from the residual standing immediately before the coordinate's update;
2. projection of the primal blocks onto the nonnegative orthant at the
   penalty minimizer ``max(0, aux + multiplier / constant)``;
3. dual gradient ascent on the multipliers.

Per-entity augmentation constants are scaled by local data density
(``lambda * slice size``), so sparsely observed entities feel the same
relative pull toward feasibility as heavily observed ones. Entities with
no observed entries have zero constants and are skipped everywhere; they
retain their initial values.

Within one phase (one column of one mode), rows of the same mode touch
disjoint entry sets, so updating them in ascending index order is
identical to updating them simultaneously; the sweeps below exploit this
with vectorized per-phase updates. This single deterministic partition is
recorded in the training report.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import _open_sink, fmt_real
from .errors import DivergenceError
from .evaluation import EvalReport, mae
from .model import LOSS_MODES  # noqa: F401  (importable as lftk.admm.LOSS_MODES)
from .model import FactorModel, block_views, check_loss, loss_sum, objective
from .tensor import MODES

# Magnitude at which training is declared divergent; the coupled
# nonconvex updates carry no global convergence guarantee.
DIVERGENCE_LIMIT = 1e12


@dataclass
class TrainConfig:
    """Hyperparameters and stopping rules for one training run."""

    rank: int = 5
    gamma: float = 1.0
    lam: float = 0.1
    eta: float = 1.0
    loss: str = "cauchy"
    max_epochs: int = 1000
    patience: int = 20
    min_delta: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        check_loss(self.loss, self.gamma)
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.eta <= 2:
            raise ValueError(f"eta must be in (0, 2], got {self.eta}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if not 0 <= self.min_delta < math.inf:
            raise ValueError(f"min_delta must be >= 0 and finite, got {self.min_delta}")


@dataclass
class AugmentationConstants:
    """Per-entity penalty weights, one vector per mode.

    A mode's factor and bias columns share one vector, so ``alpha``,
    ``beta`` and ``delta`` are aliases of ``tau``, ``nu`` and ``omega``;
    zero exactly for entities with no observed entries.
    """

    tau: np.ndarray
    nu: np.ndarray
    omega: np.ndarray

    alpha = property(lambda self: self.tau)
    beta = property(lambda self: self.nu)
    delta = property(lambda self: self.omega)


def compute_augmentation_constants(tensor, lam):
    """Density-scaled penalty weights: lambda times the entity's entry count."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    counts = [tensor.slice_counts(mode).astype(np.float64) for mode in MODES]
    top = max(float(c.max()) for c in counts)
    if not math.isfinite(lam * top):
        raise ValueError(f"lambda {lam} times entry count {top:g} overflows")
    return AugmentationConstants(*(lam * c for c in counts))


def cauchy_weight(residual, gamma=1.0, loss="cauchy"):
    """Half-quadratic weight of a residual.

    ``cauchy``: 1 / (gamma^2 + e^2), in (0, 1/gamma^2]; this is exactly the
    factor that makes weight * e the derivative of (1/2) ln(1 + e^2/gamma^2).
    ``l2``: constant 1, recovering the plain squared-error updates.
    Accepts scalars or arrays.
    """
    check_loss(loss, gamma)
    e = np.asarray(residual, dtype=np.float64)
    w = np.ones_like(e) if loss == "l2" else 1.0 / (gamma * gamma + e * e)
    return w if e.ndim else float(w)


class AdmmState:
    """Auxiliary variables, multipliers, and constants of one training run.

    ``aux`` and ``mult`` hold one ``(dim, R+1)`` block per mode, laid out
    like ``FactorModel.blocks``; ``aux_u``..``aux_c`` and ``phi``..``sigma``
    are writable views into them in the model's U, S, T, a, b, c order.
    Auxiliaries are unconstrained in sign; multipliers start at zero. The
    loss mode and scale are carried here so the per-coordinate updates can
    evaluate their weights.
    """

    def __init__(self, aux, mult, constants, gamma, loss):
        self.aux, self.mult = tuple(aux), tuple(mult)
        (self.aux_u, self.aux_s, self.aux_t,
         self.aux_a, self.aux_b, self.aux_c) = block_views(self.aux)
        (self.phi, self.rho, self.psi,
         self.chi, self.vphi, self.sigma) = block_views(self.mult)
        self.constants = constants
        self.gamma = gamma
        self.loss = loss

    @classmethod
    def initialize(cls, model, tensor, config):
        aux = tuple(blk.copy() for blk in model.blocks)
        mult = tuple(np.zeros_like(blk) for blk in model.blocks)
        constants = compute_augmentation_constants(tensor, config.lam)
        return cls(aux, mult, constants, config.gamma, config.loss)

    @property
    def rank(self):
        return self.aux[0].shape[1] - 1

    def aux_prediction(self, tensor, positions=None):
        """Predictions from the auxiliary variables for all (or some) entries."""
        # ((cp + a) + b) + c, where predict_entries sums cp + ((a + b) + c);
        # sharing one order would change the training trajectory's last bits.
        ii, jj, kk = tensor.idx if positions is None else tensor.idx[:, positions]
        cp = (self.aux_u[ii] * self.aux_s[jj] * self.aux_t[kk]).sum(axis=1)
        return cp + self.aux_a[ii] + self.aux_b[jj] + self.aux_c[kk]

    def groups(self, model):
        """(mode, aux, primal, multiplier, constants) for each mode's block."""
        c = self.constants
        consts = (c.tau, c.nu, c.omega)
        return tuple(zip(MODES, self.aux, model.blocks, self.mult, consts))

    def max_primal_residual(self, model):
        """Largest gap |aux - primal| over every parameter."""
        gap = 0.0
        for _, aux, prim, _, _ in self.groups(model):
            if aux.size:
                gap = max(gap, float(np.abs(aux - prim).max()))
        return gap


def _column_coef(state, idx, axis, col):
    # Per-entry coefficient of the mode's own auxiliary value in column
    # `col` of the prediction: the product of the other two modes' column
    # values for a factor column, and 1 for the bias column. Gathering
    # through 1-D column views is faster than 2-D indexing blk[idx[p], col].
    if col == state.rank:
        return 1.0
    p, q = (m for m in range(3) if m != axis)
    return state.aux[p][:, col][idx[p]] * state.aux[q][:, col][idx[q]]


def _update_coordinate(state, model, tensor, mode, index, col):
    pos = tensor.slice(mode, index)
    axis = MODES.index(mode)
    _, aux, prim, mult, const = state.groups(model)[axis]
    if pos.size == 0:
        return float(aux[index, col])
    y = tensor.y[pos]
    yhat = state.aux_prediction(tensor, pos)
    coef = _column_coef(state, tensor.idx[:, pos], axis, col)
    delta = cauchy_weight(y - yhat, state.gamma, state.loss)
    partial = yhat - aux[index, col] * coef
    num = float((delta * coef * (y - partial)).sum()) + const[index] * prim[index, col]
    num -= mult[index, col]
    den = const[index] + float((delta * coef * coef).sum())
    value = num / den
    aux[index, col] = value
    return float(value)


def update_auxiliary_factor_row(state, model, tensor, mode, index, r):
    """Closed-form update of one auxiliary factor coordinate.

    Minimizes the weighted squared residual over the entity's slice plus
    its augmentation penalty, with weights frozen at the residuals standing
    before the update. Empty slices are skipped (value unchanged). The
    returned value is unconstrained in sign; state is updated in place.
    """
    if not 0 <= r < state.rank:
        raise IndexError(f"factor column {r} out of range for rank {state.rank}")
    return _update_coordinate(state, model, tensor, mode, index, r)


def update_auxiliary_bias(state, model, tensor, mode, index):
    """Closed-form update of one auxiliary bias coordinate.

    Same update as the factor coordinate with coefficient 1; the
    denominator accumulates the sum of the frozen weights over the slice.
    """
    return _update_coordinate(state, model, tensor, mode, index, state.rank)


def project_nonnegative(state, model):
    """Clamp each primal block at the penalty minimizer max(0, aux + mult/const).

    Entities with zero constants are left untouched; afterwards every model
    element is >= 0. Returns the model (mutated in place).
    """
    for _, aux, prim, mult, const in state.groups(model):
        active = const > 0
        shift = np.zeros_like(aux)
        np.divide(mult, const[:, None], out=shift, where=active[:, None])
        candidate = np.maximum(0.0, aux + shift)
        prim[active] = candidate[active]
    return model


def update_multipliers(state, model, eta):
    """Dual gradient ascent: mult += eta * const * (aux - primal), per block.

    Feasible parameters (aux equal to primal) leave their multipliers
    fixed; zero-constant entities never move.
    """
    for _, aux, prim, mult, const in state.groups(model):
        mult += eta * const[:, None] * (aux - prim)


def lagrangian_value(state, model, tensor, config):
    """Full augmented Lagrangian; diagnostics only.

    Half the loss over the auxiliary predictions, plus the quadratic
    penalties (const/2)(aux - primal + mult/const)^2, minus the constant
    term sum mult^2 / (2 const). Zero-constant entities contribute nothing.
    """
    e = tensor.y - state.aux_prediction(tensor)
    value = 0.5 * loss_sum(e, config.loss, config.gamma)
    for _, aux, prim, mult, const in state.groups(model):
        active = const > 0
        c = const[active][:, None]
        gap = aux[active] - prim[active] + mult[active] / c
        value += 0.5 * float((c * gap * gap).sum())
        value -= float((mult[active] ** 2 / (2.0 * c)).sum())
    return value


def _sweep_column(state, model, tensor, axis, col, yhat):
    # Closed-form update of one auxiliary column for every entity of the
    # mode at once; entities of a mode touch disjoint entries, so this
    # equals the ascending-index scalar sweep. Keeps yhat in step.
    _, aux, prim, mult, const = state.groups(model)[axis]
    own = tensor.idx[axis]
    coef = _column_coef(state, tensor.idx, axis, col)
    # weight * coef once, partial prediction not kept: fewer entry-sized
    # temporaries at once, so malloc's heap is not grown and trimmed per column
    wc = cauchy_weight(tensor.y - yhat, state.gamma, state.loss) * coef
    old = aux[:, col]
    dim = aux.shape[0]
    num = np.bincount(own, weights=wc * (tensor.y - (yhat - old[own] * coef)), minlength=dim)
    num += const * prim[:, col] - mult[:, col]
    den = const + np.bincount(own, weights=wc * coef, minlength=dim)
    new = old.copy()
    np.divide(num, den, out=new, where=tensor.slice_counts(MODES[axis]) > 0)
    yhat += (new[own] - old[own]) * coef
    old[:] = new


def _check_group(name, arr):
    if not np.isfinite(arr).all():
        raise DivergenceError(name, "non-finite value")
    if arr.size and np.abs(arr).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(name, f"magnitude exceeds {DIVERGENCE_LIMIT:g}")


def train_epoch(state, model, tensor, config):
    """One full sweep over every variable group.

    Order: all auxiliary user-factor columns, then service, then time
    (each column over all entities at once); then the three auxiliary bias
    columns; then the nonnegativity projection; then dual ascent. Returns
    the training objective of the projected model and the largest
    aux-primal gap. Raises :class:`DivergenceError` naming the variable
    group that first produced a non-finite or runaway value.
    """
    yhat = state.aux_prediction(tensor)
    rank = model.rank
    for axis, mode in enumerate(MODES):
        for col in range(rank):
            _sweep_column(state, model, tensor, axis, col, yhat)
        _check_group(f"auxiliary {mode} factors", state.aux[axis][:, :rank])
    for axis, mode in enumerate(MODES):
        _sweep_column(state, model, tensor, axis, rank, yhat)
        _check_group(f"auxiliary {mode} biases", state.aux[axis][:, rank])
    project_nonnegative(state, model)
    for name, arr in model.arrays():
        _check_group(f"projected {name}", arr)
    update_multipliers(state, model, config.eta)
    for part, cols in (("factors", slice(0, rank)), ("biases", rank)):
        for mode, mult in zip(MODES, state.mult):
            _check_group(f"multipliers for {mode} {part}", mult[:, cols])
    obj = objective(model, tensor, loss=config.loss, gamma=config.gamma)
    return obj, state.max_primal_residual(model)


def train(tensor_train, tensor_val, config, log=None):
    """Fit a model, keeping the snapshot with the lowest validation MAE.

    Runs up to ``config.max_epochs`` epochs; validation MAE is computed
    after each epoch and the best snapshot retained (ties keep the
    earliest epoch). Training stops once ``patience`` consecutive epochs
    fail to improve the best-seen MAE by at least ``min_delta``
    (``patience=0`` therefore stops after the first epoch). On divergence
    the best snapshot so far is returned with the report flagged.

    The training and validation tensors must share dims and are expected
    to hold disjoint entry sets (not enforced). ``log``, when given, is a
    file path or a writable stream receiving one diagnostic line per
    epoch: ``epoch <n> obj <v> val_mae <v> max_primal_residual <v>``.
    """
    config.validate()
    if tensor_train.n_entries == 0:
        raise ValueError("training set is empty")
    if tensor_val.n_entries == 0:
        raise ValueError("validation set is empty")
    if tensor_train.dims != tensor_val.dims:
        raise ValueError(
            f"train dims {tensor_train.dims} != validation dims {tensor_val.dims}"
        )
    model = FactorModel.initialize(tensor_train.dims, config.rank, config.seed)
    state = AdmmState.initialize(model, tensor_train, config)
    skipped = {
        mode: int((tensor_train.slice_counts(mode) == 0).sum()) for mode in MODES
    }

    best_model = model.copy()
    best_val = math.inf
    best_epoch = 0
    progress_ref = math.inf
    stall = 0
    rows = []
    diverged = False

    # opened only once the inputs are validated, so a rejected run leaves no log
    with _open_sink(log) as log_fh:
        for epoch in range(1, config.max_epochs + 1):
            try:
                obj, max_gap = train_epoch(state, model, tensor_train, config)
            except DivergenceError:
                diverged = True
                break
            val = mae(model, tensor_val)
            rows.append((epoch, obj, val, max_gap))
            if log_fh is not None:
                log_fh.write(
                    f"epoch {epoch} obj {fmt_real(obj)} val_mae {fmt_real(val)}"
                    f" max_primal_residual {fmt_real(max_gap)}\n"
                )
            if val < best_val:
                best_model, best_val, best_epoch = model.copy(), val, epoch
            if val < progress_ref - config.min_delta:
                progress_ref = val
                stall = 0
            else:
                stall += 1
            if stall >= config.patience:
                break

    report = EvalReport(
        epochs=rows,
        best_epoch=best_epoch,
        best_val_mae=best_val,
        skipped_entities=skipped,
        diverged=diverged,
    )
    return best_model, report
