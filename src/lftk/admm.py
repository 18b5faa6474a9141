"""ADMM training of the nonnegative factor model.

The constrained fitting problem is split with one unconstrained auxiliary
copy of every parameter, tied to its nonnegative primal twin through an
augmented Lagrangian. Each mode's parameters form one ``(dim, R+1)``
block: factor columns ``0..R-1`` and the bias in column ``R``, which is a
factor column whose coefficient in the prediction is always 1. The primal
model, the auxiliaries and the multipliers each stack their three blocks
in one ``(I+J+K, R+1)`` array, and the constants in one vector, so one
closed form updates every column and the projection, the dual step and
the checks are one set of numpy calls. Each epoch alternates three moves:

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
with vectorized per-phase updates. Each sweep walks the epoch's chunk plan,
views of cache-sized chunks and buffers built once per epoch, with one intp
copy of each chunk's coordinates; ``np.bincount`` (first chunk) and
``np.add.at`` (the rest, both sums at once as the real and imaginary parts of
one complex add) sum each entity's terms in entry order, exactly as one
``np.bincount`` over all entries would, so results do not depend on the
chunk size. This single deterministic partition is recorded in the report.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import _open_sink
from .errors import DivergenceError
from .evaluation import Epoch, EvalReport, mae
from .model import FactorModel, _predict, block_views, check_loss, mode_rows, objective
from .tensor import MODES

# Magnitude at which training is declared divergent; the coupled
# nonconvex updates carry no global convergence guarantee.
DIVERGENCE_LIMIT = 1e12

# entries per chunk of a column sweep: its work buffers stay in cache
_SWEEP_CHUNK = 1 << 13


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

    ``aux_params``, ``mult_params`` and the constants ``const`` are stacked
    like ``FactorModel.params``; ``aux`` and ``mult`` are their per-mode
    blocks, and ``aux_u``..``aux_c`` and ``phi``..``sigma`` writable views in
    the model's U, S, T, a, b, c order. Auxiliaries are unconstrained in sign;
    multipliers start at zero. The loss mode and scale are carried here so
    the per-coordinate updates can evaluate their weights.
    """

    def __init__(self, aux, mult, constants, gamma, loss):
        self.constants, self.gamma, self.loss = constants, gamma, loss
        per_mode = (constants.tau, constants.nu, constants.omega)
        self.dims, self.const = tuple(map(len, per_mode)), np.concatenate(per_mode)
        self.aux_params, self.mult_params = aux, mult
        self.aux, self.mult = mode_rows(aux, self.dims), mode_rows(mult, self.dims)
        (self.aux_u, self.aux_s, self.aux_t,
         self.aux_a, self.aux_b, self.aux_c) = block_views(self.aux)
        (self.phi, self.rho, self.psi,
         self.chi, self.vphi, self.sigma) = block_views(self.mult)
        self.active = self.const > 0
        # the ufunc `where` mask: plain True, far cheaper for numpy, when all are active
        self.where = True if self.active.all() else self.active[:, None]

    @classmethod
    def initialize(cls, model, tensor, config):
        constants = compute_augmentation_constants(tensor, config.lam)
        return cls(model.params.copy(), np.zeros_like(model.params), constants,
                   config.gamma, config.loss)

    @property
    def rank(self):
        return self.aux_params.shape[1] - 1

    def aux_prediction(self, tensor, positions=None):
        """Predictions from the auxiliary variables for all (or some) entries."""
        return _predict(self.aux, *(tensor.idx if positions is None else tensor.idx[:, positions]))

    def max_primal_residual(self, model):
        """Largest gap |aux - primal| over every parameter."""
        return float(np.abs(self.aux_params - model.params).max(initial=0.0))


def _update_coordinate(state, model, tensor, mode, index, col):
    pos = tensor.slice(mode, index)
    axis = MODES.index(mode)
    aux, prim, mult = state.aux[axis], model.blocks[axis], state.mult[axis]
    const = mode_rows(state.const, state.dims)[axis]
    if pos.size == 0:
        return float(aux[index, col])
    y = tensor.y[pos]
    yhat = state.aux_prediction(tensor, pos)
    # coefficient of aux[index, col]: the other two modes' values of the column, or 1
    p, q = (state.aux[m][tensor.idx[m, pos], col] for m in range(3) if m != axis)
    coef = p * q if col < state.rank else 1.0
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
    """Clamp the primal parameters at the penalty minimizer max(0, aux + mult/const).

    Entities with zero constants are left untouched; afterwards every model
    element is >= 0. Returns the model (mutated in place).
    """
    # 0/0 arises only on masked rows, where const and mult are both 0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(model.params, np.maximum(0.0, state.aux_params + state.mult_params
                                           / state.const[:, None]), where=state.where)
    return model


def update_multipliers(state, model, eta):
    """Dual gradient ascent: mult += eta * const * (aux - primal).

    Feasible parameters (aux equal to primal) leave their multipliers
    fixed; zero-constant entities never move.
    """
    state.mult_params += eta * state.const[:, None] * (state.aux_params - model.params)


def _sweep_column(state, axis, col, fixed, plan, prev):
    # One auxiliary column for every entity of the mode at once, chunk by chunk
    # through the epoch's plan. A chunk's coordinates are made intp once for all its
    # gathers (take) and sums, which would each convert the int16 ones again; it
    # first takes the yhat update of `prev`, the last column's (step, axis, factor),
    # with the coefficients `coef` still holds. `fixed` is the mode's
    # (const * primal - multiplier, const, where mask), set for the epoch.
    pull, const, where = fixed
    step, moved, scaled = prev or (None, None, False)
    old = state.aux[axis][:, col]
    factor, gamma2, sums = col < state.rank, state.gamma * state.gamma, None
    if factor:  # the other two modes' values of this column, per entry
        p, q = (m for m in range(3) if m != axis)
        cp, cq = state.aux[p][:, col], state.aux[q][:, col]
    if not plan:  # nothing to sum (np.bincount would return int zeros)
        num, den = np.zeros(len(old)), np.zeros(len(old))
    for n, (y, yhat, coef, idx, wc) in enumerate(plan):
        idx = idx.astype(np.intp, copy=False)
        own = idx[axis]
        if step is not None:
            yhat += step.take(idx[moved]) * coef if scaled else step.take(idx[moved])
        if state.loss == "l2":
            wc.fill(1.0)
        else:  # cauchy_weight, inline: 1 / (gamma^2 + e^2)
            np.square(np.subtract(y, yhat, out=wc), out=wc)
            np.divide(1.0, np.add(wc, gamma2, out=wc), out=wc)
        term = old.take(own)
        if factor:  # a bias column's coefficient is 1: nothing to multiply
            c = np.multiply(cp.take(idx[p]), cq.take(idx[q]), out=coef)
            wc *= c
            term *= c
        term = np.subtract(y, np.subtract(yhat, term, out=term), out=term)
        parts = (np.multiply(wc, term, out=term), np.multiply(wc, c, out=wc) if factor else wc)
        if not n:  # from zero, bincount adds in entry order exactly as np.add.at does
            num, den = (np.bincount(own, part, len(old)) for part in parts)
            continue
        if sums is None:  # complex adds sum real and imaginary parts apart: num + den*1j
            sums, z = np.empty(len(old), complex), np.empty(wc.size, complex)
            sums.real, sums.imag = num, den
            num, den = sums.real, sums.imag
        zc = z[: wc.size]  # chunks after the second are no longer
        zc.real, zc.imag = parts
        np.add.at(sums, own, zc)
    num += pull[:, col]
    den += const
    np.divide(num, den, out=num, where=where)
    # den is exactly 0 for an entity without entries, so its step stays 0
    np.subtract(num, old, out=den, where=where)
    np.copyto(old, num, where=where)
    return den, axis, factor


def _check_group(name, arr):
    if arr.size and not np.abs(arr).max() <= DIVERGENCE_LIMIT:  # NaN and inf fail it too
        raise DivergenceError(name, "non-finite value" if not np.isfinite(arr).all()
                              else f"magnitude exceeds {DIVERGENCE_LIMIT:g}")


def _check_blocks(params, blocks, names):
    # one reduction over the stacked array; only if it fails are the six groups searched
    if params.size and not np.abs(params).max() <= DIVERGENCE_LIMIT:
        for name, arr in zip(names, block_views(blocks)):
            _check_group(name, arr)


def train_epoch(state, model, tensor, config):
    """One full sweep over every variable group.

    Order: all auxiliary user-factor columns, then service, then time
    (each column over all entities at once); then the three auxiliary bias
    columns; then the nonnegativity projection; then dual ascent. Returns
    the training objective of the projected model, under the state's
    loss and gamma as in the sweeps, and the largest aux-primal gap
    (``config`` supplies only ``eta``). Raises :class:`DivergenceError`
    naming the group that first produced a non-finite or runaway value.
    """
    yhat, rank, prev, size = state.aux_prediction(tensor), model.rank, None, _SWEEP_CHUNK
    coef, buf = np.empty_like(yhat), np.empty(min(size, yhat.size))
    # the epoch's chunk plan: each chunk's y, yhat, coef, coordinates and weight buffer
    at = [slice(lo, lo + size) for lo in range(0, yhat.size, size)]
    plan = [(tensor.y[c], yhat[c], coef[c], tensor.idx[:, c], buf[: yhat[c].size]) for c in at]
    # the sweeps move only the auxiliaries, so each mode's pull is fixed
    pull = state.const[:, None] * model.params - state.mult_params
    wheres = (True,) * 3 if state.where is True else mode_rows(state.active, state.dims)
    fixed = list(zip(mode_rows(pull, state.dims), mode_rows(state.const, state.dims), wheres))
    for axis, mode in enumerate(MODES):
        for col in range(rank):
            prev = _sweep_column(state, axis, col, fixed[axis], plan, prev)
        _check_group(f"auxiliary {mode} factors", state.aux[axis][:, :rank])
    for axis, mode in enumerate(MODES):
        prev = _sweep_column(state, axis, rank, fixed[axis], plan, prev)
        _check_group(f"auxiliary {mode} biases", state.aux[axis][:, rank])
    del yhat, coef, buf, plan, prev  # freed before the objective allocates its own
    project_nonnegative(state, model)
    _check_blocks(model.params, model.blocks, (f"projected {name}" for name in "USTabc"))
    update_multipliers(state, model, config.eta)
    names = (f"multipliers for {mode} {part}" for part in ("factors", "biases") for mode in MODES)
    _check_blocks(state.mult_params, state.mult, names)
    obj = objective(model, tensor, loss=state.loss, gamma=state.gamma)
    return obj, state.max_primal_residual(model)


def train(tensor_train, tensor_val, config, log=None):
    """Fit a model, keeping the snapshot with the lowest validation MAE.

    Runs up to ``config.max_epochs`` epochs; validation MAE is computed
    after each epoch and the best snapshot retained (ties keep the
    earliest epoch). Training stops once ``patience`` consecutive epochs
    fail to get more than ``min_delta`` below the validation MAE of the
    last epoch that did, which need not be the best-seen MAE
    (``patience=0`` therefore stops after the first epoch). On divergence
    the best snapshot so far is returned with the report flagged.

    The training and validation tensors must share dims and are expected
    to hold disjoint entry sets (not enforced here; ``lftk train`` rejects a
    validation file that shares a cell with its training file). ``log``,
    when given, is a file path or a writable stream receiving each epoch's
    report row as one line (:meth:`~lftk.evaluation.Epoch.log_line`):
    ``epoch <n> obj <v> val_mae <v> max_primal_residual <v>``.
    """
    config.validate()
    if tensor_train.n_entries == 0:
        raise ValueError("training set is empty")
    if tensor_val.n_entries == 0:
        raise ValueError("validation set is empty")
    if tensor_train.dims != tensor_val.dims:
        raise ValueError(f"train dims {tensor_train.dims} != validation dims {tensor_val.dims}")
    model = FactorModel.initialize(tensor_train.dims, config.rank, config.seed)
    state = AdmmState.initialize(model, tensor_train, config)
    # an entity's constant is 0, so it is inactive, exactly when it has no entries
    skipped = {mode: int(off.sum())
               for mode, off in zip(MODES, mode_rows(~state.active, state.dims))}

    best_model, report = model.copy(), EvalReport([], 0, math.inf, skipped)
    progress_ref, stall = math.inf, 0

    # opened only once the inputs are validated, so a rejected run leaves no log
    with _open_sink(log) as log_fh:
        for epoch in range(1, config.max_epochs + 1):
            try:
                obj, max_gap = train_epoch(state, model, tensor_train, config)
            except DivergenceError as exc:
                report.diverged = True
                report.divergence = {"group": exc.group, "reason": exc.reason}
                break
            row = Epoch(epoch, obj, mae(model, tensor_val), max_gap)
            report.epochs.append(row)
            if log_fh is not None:
                log_fh.write(row.log_line() + "\n")
            if row.val_mae < report.best_val_mae:  # the snapshot takes the parameters in place
                np.copyto(best_model.params, model.params)
                report.best_val_mae, report.best_epoch = row.val_mae, epoch
            if row.val_mae < progress_ref - config.min_delta:
                progress_ref = row.val_mae
                stall = 0
            else:
                stall += 1
            if stall >= config.patience:
                break
    return best_model, report
