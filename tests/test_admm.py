import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lftk.admm
import lftk.model

from lftk import (
    AdmmState,
    DivergenceError,
    FactorModel,
    SparseTensor,
    SynthSpec,
    TrainConfig,
    build_tensor,
    cauchy_weight,
    compute_augmentation_constants,
    mae,
    objective,
    project_nonnegative,
    save_model,
    split,
    synthesize,
    train,
    train_epoch,
    update_auxiliary_bias,
    update_auxiliary_factor_row,
    update_multipliers,
)
from lftk.evaluation import Epoch, SplitSpec
from lftk.model import LOSS_MODES
from lftk.tensor import MODES
from oracles import PlainState, frozen_subproblem, golden_section, grid_min


def zero_model(dims, rank):
    ni, nj, nk = dims
    return FactorModel(
        np.zeros((ni, rank)), np.zeros((nj, rank)), np.zeros((nk, rank)),
        np.zeros(ni), np.zeros(nj), np.zeros(nk),
    )


def make_state(model, tensor, **cfg):
    config = TrainConfig(rank=model.rank, **cfg)
    return AdmmState.initialize(model, tensor, config), config


# ---------------------------------------------------------------- constants


def test_augmentation_constants_direct():
    rows = [(0, j % 5, j % 8, 1.0) for j in range(40)]  # 40 distinct cells, all user 0
    t = build_tensor((2, 5, 8), rows)
    consts = compute_augmentation_constants(t, 0.05)
    assert consts.tau[0] == pytest.approx(2.0)  # 0.05 * 40
    assert consts.alpha[0] == consts.tau[0]
    assert consts.tau[1] == 0.0  # user 1 has no entries
    assert consts.alpha[1] == 0.0


def test_augmentation_constants_uniform_slices():
    rows = [(i, j, 0, 1.0) for i in range(3) for j in range(4)]
    t = build_tensor((3, 4, 1), rows)
    consts = compute_augmentation_constants(t, 1.0)
    assert (consts.nu == 3.0).all()
    assert (consts.beta == 3.0).all()
    with pytest.raises(ValueError, match="lambda"):
        compute_augmentation_constants(t, 0.0)


def test_augmentation_constants_reject_overflowing_lambda():
    t = build_tensor((1, 2, 1), [(0, 0, 0, 1.0), (0, 1, 0, 1.0)])  # user 0: 2 entries
    with pytest.raises(ValueError, match="lambda"):
        compute_augmentation_constants(t, 1e308)
    assert compute_augmentation_constants(t, 8e307).tau.tolist() == [1.6e308]


# ------------------------------------------------------------------ weights


def test_cauchy_weight_values():
    assert cauchy_weight(0.0, 1.0) == 1.0
    assert cauchy_weight(2.0, 1.0) == pytest.approx(0.2)
    assert cauchy_weight(123.0, 1.0, loss="l2") == 1.0
    w = cauchy_weight(np.array([0.0, 2.0]), 1.0)
    assert w.tolist() == pytest.approx([1.0, 0.2])
    with pytest.raises(ValueError, match="gamma"):
        cauchy_weight(1.0, 0.0)


@pytest.mark.parametrize("gamma", [1e-155, 1e-300, 5e-324])
def test_gamma_whose_square_underflows_is_rejected_everywhere(gamma):
    m = FactorModel.initialize((1, 1, 1), 1, seed=0)
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    for call in (lambda g: TrainConfig(gamma=g), lambda g: cauchy_weight(1.0, g),
                 lambda g: objective(m, t, "cauchy", g)):
        with pytest.raises(ValueError, match="gamma"):
            call(gamma)
        call(1.5e-154)  # gamma**2 is still a normal float


def test_cauchy_weight_bounds():
    for gamma in (0.5, 1.0, 2.0):
        for e in np.linspace(-50, 50, 101):
            w = cauchy_weight(e, gamma)
            assert 0 < w <= 1.0 / gamma**2


def test_weight_is_half_log_loss_derivative():
    # d/de [0.5 ln(1 + e^2/g^2)] == w(e) * e, checked by central differences
    h = 1e-5
    loss = lambda e, g: 0.5 * math.log(1.0 + e * e / (g * g))
    for gamma in (0.5, 1.0, 2.0):
        for e in range(-10, 11):
            if e == 0:
                continue
            fd = (loss(e + h, gamma) - loss(e - h, gamma)) / (2 * h)
            analytic = cauchy_weight(float(e), gamma) * e
            assert analytic == pytest.approx(fd, rel=1e-6)


# ------------------------------------------------- single-coordinate updates


def single_entry_setup(lam=1.0, gamma=1.0, loss="cauchy", y=2.0):
    t = build_tensor((1, 1, 1), [(0, 0, 0, y)])
    model = zero_model((1, 1, 1), 1)
    state, config = make_state(model, t, lam=lam, gamma=gamma, loss=loss)
    return t, model, state, config


def test_factor_update_single_entry_cauchy():
    t, model, state, _ = single_entry_setup()
    state.aux_s[0, 0] = 1.0
    state.aux_t[0, 0] = 1.0
    got = update_auxiliary_factor_row(state, model, t, "user", 0, 0)
    # oracle: golden-section on 0.5*0.2*(2-x)^2 + 0.5*(x-0)^2
    ld = np.longdouble
    f = lambda x: 0.5 * ld(0.2) * (ld(2.0) - ld(x)) ** 2 + 0.5 * ld(x) * ld(x)
    expected = golden_section(f, -10, 10)
    assert expected == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert got == pytest.approx(expected, abs=1e-8)
    assert state.aux_u[0, 0] == got


def test_factor_update_single_entry_l2():
    t, model, state, _ = single_entry_setup(loss="l2")
    state.aux_s[0, 0] = 1.0
    state.aux_t[0, 0] = 1.0
    got = update_auxiliary_factor_row(state, model, t, "user", 0, 0)
    ld = np.longdouble
    f = lambda x: 0.5 * (ld(2.0) - ld(x)) ** 2 + 0.5 * ld(x) * ld(x)
    expected = golden_section(f, -10, 10)
    assert expected == pytest.approx(1.0, abs=1e-9)
    assert got == pytest.approx(expected, abs=1e-8)


def test_factor_update_empty_slice_skipped():
    rows = [(0, 0, 0, 2.0)]
    t = build_tensor((2, 1, 1), rows)  # user 1 has no entries
    model = zero_model((2, 1, 1), 1)
    state, _ = make_state(model, t)
    state.aux_u[1, 0] = 0.77
    got = update_auxiliary_factor_row(state, model, t, "user", 1, 0)
    assert got == 0.77
    assert state.aux_u[1, 0] == 0.77


def test_bias_update_single_entry_cauchy():
    t, model, state, _ = single_entry_setup(y=1.0)
    got = update_auxiliary_bias(state, model, t, "user", 0)
    ld = np.longdouble
    f = lambda x: 0.5 * ld(0.5) * (ld(1.0) - ld(x)) ** 2 + 0.5 * ld(x) * ld(x)
    expected = golden_section(f, -10, 10)
    assert expected == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert got == pytest.approx(expected, abs=1e-8)


def test_bias_update_single_entry_l2():
    t, model, state, _ = single_entry_setup(y=1.0, loss="l2")
    got = update_auxiliary_bias(state, model, t, "user", 0)
    ld = np.longdouble
    f = lambda x: 0.5 * (ld(1.0) - ld(x)) ** 2 + 0.5 * ld(x) * ld(x)
    expected = golden_section(f, -10, 10)
    assert expected == pytest.approx(0.5, abs=1e-9)
    assert got == pytest.approx(expected, abs=1e-8)


def test_bias_update_empty_slice_skipped():
    t = build_tensor((2, 1, 1), [(0, 0, 0, 1.0)])
    model = zero_model((2, 1, 1), 1)
    state, _ = make_state(model, t)
    state.aux_a[1] = -0.4
    assert update_auxiliary_bias(state, model, t, "user", 1) == -0.4


# -------------------------------------------------------------- projection


def test_projection_values():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    model = zero_model((1, 1, 1), 1)
    state, _ = make_state(model, t, lam=1.0)  # tau = 1
    state.aux_u[0, 0] = 0.5
    state.phi[0, 0] = 0.2
    project_nonnegative(state, model)
    # oracle: grid argmin over u >= 0 of (tau/2)(aux - u + mult/tau)^2
    expected = grid_min(lambda u: 0.5 * (0.5 - u + 0.2) ** 2, 0.0, 5.0)
    assert expected == pytest.approx(0.7, abs=1e-4)
    assert model.U[0, 0] == pytest.approx(0.7, abs=1e-12)

    state.aux_u[0, 0] = -0.5
    state.phi[0, 0] = 0.0
    project_nonnegative(state, model)
    assert model.U[0, 0] == 0.0

    state.aux_u[0, 0] = 0.0
    project_nonnegative(state, model)
    assert model.U[0, 0] == 0.0


def test_projection_skips_zero_constant_entities():
    t = build_tensor((2, 1, 1), [(0, 0, 0, 1.0)])
    model = zero_model((2, 1, 1), 1)
    model.U[1, 0] = 0.123  # entity with no data keeps its value
    state, _ = make_state(model, t)
    state.aux_u[1, 0] = 99.0
    project_nonnegative(state, model)
    assert model.U[1, 0] == 0.123


def test_projection_restores_nonnegativity_everywhere():
    rng = np.random.default_rng(5)
    obs, _, _ = synthesize(SynthSpec(dims=(6, 5, 4), rank=2, density=0.5, seed=1))
    model = FactorModel.initialize(obs.dims, 2, seed=2)
    state, _ = make_state(model, obs, lam=0.3)
    for arr in (state.aux_u, state.aux_s, state.aux_t):
        arr[:] = rng.normal(0, 1, arr.shape)
    for arr in (state.aux_a, state.aux_b, state.aux_c):
        arr[:] = rng.normal(0, 1, arr.shape)
    project_nonnegative(state, model)
    assert min(arr.min() for _, arr in model.arrays()) >= 0.0


# -------------------------------------------------------------- multipliers


def test_multiplier_update_direct():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    model = zero_model((1, 1, 1), 1)
    state, _ = make_state(model, t, lam=2.0)  # tau = 2
    state.aux_u[0, 0] = 0.5
    model.U[0, 0] = 0.7
    update_multipliers(state, model, eta=1.0)
    assert state.phi[0, 0] == pytest.approx(-0.4, abs=1e-15)


def test_multipliers_fixed_at_feasibility():
    obs, _, _ = synthesize(SynthSpec(dims=(4, 4, 3), rank=2, density=0.6, seed=3))
    model = FactorModel.initialize(obs.dims, 2, seed=4)
    state, _ = make_state(model, obs)
    # aux initialized as copies of the primal -> every group feasible
    update_multipliers(state, model, eta=1.3)
    for mult in state.mult:
        assert (mult == 0).all()


def test_multipliers_eta_zero_noop():
    obs, _, _ = synthesize(SynthSpec(dims=(4, 4, 3), rank=2, density=0.6, seed=3))
    model = FactorModel.initialize(obs.dims, 2, seed=4)
    state, _ = make_state(model, obs)
    state.aux_u += 0.5
    update_multipliers(state, model, eta=0.0)
    assert (state.phi == 0).all()


# ------------------------------------------------------------ stacked layout


def test_parameters_are_views_of_one_array_per_role():
    obs, _, _ = synthesize(SynthSpec(dims=(4, 5, 3), rank=2, density=0.6, seed=3))
    model = FactorModel.initialize(obs.dims, 2, seed=4)
    state, _ = make_state(model, obs)
    stacked = (model.params, state.aux_params, state.mult_params)
    assert all(arr.shape == (12, 3) and arr.flags.c_contiguous for arr in stacked)
    assert not any(np.shares_memory(a, b) for a, b in
                   ((model.params, state.aux_params), (model.params, state.mult_params),
                    (state.aux_params, state.mult_params)))
    aux_views = (state.aux_u, state.aux_s, state.aux_t, state.aux_a, state.aux_b, state.aux_c)
    mult_views = (state.phi, state.rho, state.psi, state.chi, state.vphi, state.sigma)
    for arr, parts in ((model.params, model.blocks + tuple(v for _, v in model.arrays())),
                       (state.aux_params, state.aux + aux_views),
                       (state.mult_params, state.mult + mult_views)):
        assert all(np.shares_memory(arr, part) for part in parts)
    # users' rows, then services', then times'; the bias in the last column
    model.params[4, 0], model.params[9, 2] = 7.0, 8.0
    assert model.S[0, 0] == 7.0 and model.c[0] == 8.0 and model.blocks[1][0, 0] == 7.0
    state.aux_params[3, 2], state.mult_params[11, 1] = 5.0, 6.0
    assert state.aux_a[3] == 5.0 and state.psi[2, 1] == 6.0 and state.mult[2][2, 1] == 6.0
    assert state.const.tolist() == np.concatenate(
        [state.constants.tau, state.constants.nu, state.constants.omega]).tolist()


def test_projection_and_dual_update_match_a_per_block_reference():
    # user 3 and time 2 have no entries: their constants are 0 and their rows
    # stay as they were, even with nonzero multipliers (mult / 0 is masked)
    dims = (4, 3, 3)
    rows = [(i, j, k, 1.0 + i + j + k) for i in range(3) for j in range(3) for k in range(2)
            if (i + j + k) % 2]
    t = build_tensor(dims, rows)
    model = FactorModel.initialize(dims, 2, seed=1)
    state, _ = make_state(model, t, lam=0.7)
    assert (state.constants.tau == 0).tolist() == [False, False, False, True]
    assert (state.constants.omega == 0).tolist() == [False, False, True]
    rng = np.random.default_rng(9)
    state.aux_params += rng.normal(0, 0.5, state.aux_params.shape)
    state.mult_params += rng.normal(0, 0.5, state.mult_params.shape)
    consts = (state.constants.tau, state.constants.nu, state.constants.omega)
    empty = [(0, 3), (2, 2)]  # (mode, row)

    want = [blk.copy() for blk in model.blocks]
    with np.errstate(divide="ignore", invalid="ignore"):
        for prim, aux, mult, c in zip(want, state.aux, state.mult, consts):
            np.copyto(prim, np.maximum(0.0, aux + mult / c[:, None]), where=(c > 0)[:, None])
    start = [blk.copy() for blk in model.blocks]
    project_nonnegative(state, model)
    assert [blk.tobytes() for blk in model.blocks] == [w.tobytes() for w in want]
    assert all(model.blocks[m][r].tobytes() == start[m][r].tobytes() for m, r in empty)

    want = [mult + 1.3 * c[:, None] * (aux - prim)
            for aux, prim, mult, c in zip(state.aux, model.blocks, state.mult, consts)]
    start = [mult.copy() for mult in state.mult]
    update_multipliers(state, model, eta=1.3)
    assert [mult.tobytes() for mult in state.mult] == [w.tobytes() for w in want]
    assert all(state.mult[m][r].tobytes() == start[m][r].tobytes() for m, r in empty)


# -------------------------------------------------------------- train_epoch


def test_epoch_zero_tensor_is_fixed_point():
    rows = [(i, j, k, 0.0) for i in range(3) for j in range(2) for k in range(2)]
    t = build_tensor((3, 2, 2), rows)
    model = zero_model(t.dims, 2)
    state, config = make_state(model, t)
    obj, gap = train_epoch(state, model, t, config)
    assert obj == 0.0
    assert gap == 0.0
    assert all((arr == 0).all() for _, arr in model.arrays())


def test_epoch_on_an_empty_tensor_moves_nothing():
    # no entity is active, so every step is zero and the model keeps its start
    t = SparseTensor.from_arrays((3, 2, 2), [], [], [], [])
    model = FactorModel.initialize(t.dims, 2, seed=0)
    start = [blk.copy() for blk in model.blocks]
    state, config = make_state(model, t)
    assert train_epoch(state, model, t, config) == (0.0, 0.0)
    assert all((blk == s).all() for blk, s in zip(model.blocks, start))
    assert all((aux == s).all() for aux, s in zip(state.aux, start))


def test_epoch_single_entry_traces_per_op_oracles():
    # composable trace: the u-update lands on 1/3 (its golden-section value),
    # projection then gives u = max(0, 1/3 + 0/1) and the dual step is zero
    t, model, state, config = single_entry_setup()
    state.aux_s[0, 0] = 1.0
    state.aux_t[0, 0] = 1.0
    obj, gap = train_epoch(state, model, t, config)
    assert state.aux_u[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert model.U[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert state.phi[0, 0] == 0.0
    assert math.isfinite(obj) and obj >= 0.0


def test_epoch_objective_finite_and_nonnegative():
    obs, _, _ = synthesize(
        SynthSpec(dims=(8, 7, 5), rank=3, density=0.4, noise_std=0.2, seed=6)
    )
    model = FactorModel.initialize(obs.dims, 3, seed=7)
    state, config = make_state(model, obs, lam=0.2)
    for _ in range(5):
        obj, gap = train_epoch(state, model, obs, config)
        assert math.isfinite(obj) and obj >= 0.0
        assert math.isfinite(gap) and gap >= 0.0


def test_epoch_objective_takes_the_states_loss_and_gamma_not_the_configs():
    # the sweeps weigh residuals by the state's loss and gamma; config supplies only eta
    obs, _, _ = synthesize(SynthSpec(dims=(6, 5, 4), rank=2, density=0.5, seed=3))
    model = FactorModel.initialize(obs.dims, 2, seed=1)
    state, _ = make_state(model, obs, loss="cauchy", gamma=1.0)
    obj, _ = train_epoch(state, model, obs, TrainConfig(rank=2, loss="l2", gamma=3.0, lam=5.0))
    assert obj == objective(model, obs, loss="cauchy", gamma=1.0)
    assert obj != objective(model, obs, loss="l2", gamma=3.0)


def test_epoch_order_u_s_t_then_biases():
    # first sweep of a single-entry problem: the u-update sees s=t=aux copies,
    # so composing the scalar ops in the documented order must equal train_epoch
    t = build_tensor((1, 1, 1), [(0, 0, 0, 2.0)])
    model = FactorModel(
        U=[[0.1]], S=[[0.2]], T=[[0.3]], a=[0.01], b=[0.02], c=[0.03]
    )
    state_a, config = make_state(model, t, lam=0.5)
    model_a = model.copy()
    train_epoch(state_a, model_a, t, config)

    state_b, _ = make_state(model, t, lam=0.5)
    model_b = model.copy()
    update_auxiliary_factor_row(state_b, model_b, t, "user", 0, 0)
    update_auxiliary_factor_row(state_b, model_b, t, "service", 0, 0)
    update_auxiliary_factor_row(state_b, model_b, t, "time", 0, 0)
    update_auxiliary_bias(state_b, model_b, t, "user", 0)
    update_auxiliary_bias(state_b, model_b, t, "service", 0)
    update_auxiliary_bias(state_b, model_b, t, "time", 0)
    project_nonnegative(state_b, model_b)
    update_multipliers(state_b, model_b, config.eta)
    assert state_a.aux_u[0, 0] == pytest.approx(state_b.aux_u[0, 0], rel=1e-12)
    assert state_a.aux_c[0] == pytest.approx(state_b.aux_c[0], rel=1e-12)
    assert model_a.U[0, 0] == pytest.approx(model_b.U[0, 0], rel=1e-12)
    assert state_a.sigma[0] == pytest.approx(state_b.sigma[0], rel=1e-12)


def test_epoch_sweep_matches_scalar_ops_on_random_tensor():
    # rows of one mode touch disjoint entries, so the vectorized phase must
    # reproduce the ascending-index scalar sweep exactly
    obs, _, _ = synthesize(SynthSpec(dims=(5, 4, 3), rank=2, density=0.6, seed=8))
    model = FactorModel.initialize(obs.dims, 2, seed=9)
    state_a, config = make_state(model, obs, lam=0.3)
    model_a = model.copy()
    train_epoch(state_a, model_a, obs, config)

    state_b, _ = make_state(model, obs, lam=0.3)
    model_b = model.copy()
    for mode, dim in zip(MODES, obs.dims):
        for r in range(2):
            for x in range(dim):
                update_auxiliary_factor_row(state_b, model_b, obs, mode, x, r)
    for mode, dim in zip(MODES, obs.dims):
        for x in range(dim):
            update_auxiliary_bias(state_b, model_b, obs, mode, x)
    project_nonnegative(state_b, model_b)
    update_multipliers(state_b, model_b, config.eta)
    np.testing.assert_allclose(state_a.aux_u, state_b.aux_u, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(state_a.aux_c, state_b.aux_c, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(model_a.U, model_b.U, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(state_a.psi, state_b.psi, rtol=1e-10, atol=1e-14)


def test_empty_slice_entities_never_move():
    # user 3 and time 2 have no observations at all
    rows = [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (2, 0, 1, 3.0)]
    t = build_tensor((4, 2, 3), rows)
    model = FactorModel.initialize(t.dims, 2, seed=11)
    u3, t2 = model.U[3].copy(), model.T[2].copy()
    state, config = make_state(model, t, lam=0.5)
    for _ in range(10):
        train_epoch(state, model, t, config)
    assert (model.U[3] == u3).all()
    assert (model.T[2] == t2).all()
    assert (state.aux_u[3] == u3).all()
    assert (state.phi[3] == 0).all()
    assert (model.T[2] == t2).all()
    assert np.isfinite(model.U).all()


def test_epoch_divergence_names_group():
    t, model, state, config = single_entry_setup()
    state.aux_u[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="user"):
        train_epoch(state, model, t, config)
    t, model, state, config = single_entry_setup()
    state.phi[0, 0] = 1e13  # drives the next factor update past the runaway guard
    with pytest.raises(DivergenceError, match="magnitude"):
        train_epoch(state, model, t, config)


def _poison(target, index):
    # NaN into one element of a named state or model view before the epoch
    def apply(state, model):
        owner = model if target in "USTabc" else state
        getattr(owner, target)[index] = np.nan
    return apply


# Entity 0 of each mode is observed, entity 1 is not. A NaN multiplier of an
# observed entity spoils its auxiliary update; the projection and the dual
# step skip unobserved entities, so a NaN there survives to their checks.
DIVERGENCE_POINTS = [
    (_poison("phi", (0, 0)), "auxiliary user factors"),
    (_poison("rho", (0, 0)), "auxiliary service factors"),
    (_poison("psi", (0, 0)), "auxiliary time factors"),
    (_poison("chi", 0), "auxiliary user biases"),
    (_poison("vphi", 0), "auxiliary service biases"),
    (_poison("sigma", 0), "auxiliary time biases"),
    *((_poison(name, (1, 0) if name in "UST" else 1), f"projected {name}")
      for name in "USTabc"),
    (_poison("phi", (1, 0)), "multipliers for user factors"),
    (_poison("rho", (1, 0)), "multipliers for service factors"),
    (_poison("psi", (1, 0)), "multipliers for time factors"),
    (_poison("chi", 1), "multipliers for user biases"),
    (_poison("vphi", 1), "multipliers for service biases"),
    (_poison("sigma", 1), "multipliers for time biases"),
]


@pytest.mark.parametrize("poison,group", DIVERGENCE_POINTS,
                         ids=[g for _, g in DIVERGENCE_POINTS])
def test_epoch_divergence_group_names_are_exact(poison, group):
    t = build_tensor((2, 2, 2), [(0, 0, 0, 1.0)])
    model = FactorModel.initialize(t.dims, 2, seed=3)
    state, config = make_state(model, t)
    poison(state, model)
    with pytest.raises(DivergenceError) as info:
        train_epoch(state, model, t, config)
    assert info.value.group == group
    assert info.value.reason == "non-finite value"


# Two failing blocks at once: the groups are searched in order, so the first
# failing group is named even where it sits in a later block.
DOUBLE_DIVERGENCE_POINTS = [
    ((_poison("a", 1), _poison("S", (1, 0))), "projected S"),
    ((_poison("chi", 1), _poison("rho", (1, 1))), "multipliers for service factors"),
    ((_poison("sigma", 1), _poison("vphi", 1)), "multipliers for service biases"),
]


@pytest.mark.parametrize("poisons,group", DOUBLE_DIVERGENCE_POINTS,
                         ids=[g for _, g in DOUBLE_DIVERGENCE_POINTS])
def test_epoch_divergence_names_the_first_group_of_two(poisons, group):
    t = build_tensor((2, 2, 2), [(0, 0, 0, 1.0)])
    model = FactorModel.initialize(t.dims, 2, seed=3)
    state, config = make_state(model, t)
    for poison in poisons:
        poison(state, model)
    with pytest.raises(DivergenceError) as info:
        train_epoch(state, model, t, config)
    assert (info.value.group, info.value.reason) == (group, "non-finite value")


def test_clean_epoch_checks_groups_only_between_sweeps(monkeypatch):
    # the six auxiliary groups are checked one by one; the projected model and
    # the multipliers are checked a block at a time and name no group when clean
    names = []
    check = lftk.admm._check_group
    monkeypatch.setattr(lftk.admm, "_check_group",
                        lambda name, arr: (names.append(name), check(name, arr)))
    t = build_tensor((2, 2, 2), [(0, 0, 0, 1.0), (1, 1, 1, 2.0)])
    model = FactorModel.initialize(t.dims, 2, seed=3)
    state, config = make_state(model, t)
    train_epoch(state, model, t, config)
    assert names == [f"auxiliary {mode} {part}" for part in ("factors", "biases")
                     for mode in MODES]


# -------------------------------------------- oracle equivalence (property)


def test_coordinate_updates_match_frozen_subproblem_minimizer():
    rng = np.random.default_rng(202)
    dims, rank = (4, 3, 3), 2
    cells = [(i, j, k) for i in range(4) for j in range(3) for k in range(3)]
    for trial in range(24):
        rng.shuffle(cells)
        rows = [(i, j, k, float(rng.uniform(0, 4))) for i, j, k in cells[:14]]
        t = build_tensor(dims, rows)
        loss = "cauchy" if trial % 2 == 0 else "l2"
        gamma = float(rng.uniform(0.5, 2.0))
        lam = float(rng.uniform(0.05, 1.0))
        config = TrainConfig(rank=rank, gamma=gamma, lam=lam, loss=loss)
        model = FactorModel.initialize(dims, rank, seed=int(rng.integers(1e6)))
        state = AdmmState.initialize(model, t, config)
        # desync aux/mult from the primal so penalties are live
        for arr in (state.aux_u, state.aux_s, state.aux_t, state.aux_a,
                    state.aux_b, state.aux_c, state.phi, state.rho,
                    state.psi, state.chi, state.vphi, state.sigma):
            arr += rng.normal(0, 0.5, arr.shape)

        plain = PlainState(rank, dims)
        plain.aux = {"U": state.aux_u.copy(), "S": state.aux_s.copy(),
                     "T": state.aux_t.copy(), "a": state.aux_a.copy(),
                     "b": state.aux_b.copy(), "c": state.aux_c.copy()}
        plain.prim = {"U": model.U.copy(), "S": model.S.copy(), "T": model.T.copy(),
                      "a": model.a.copy(), "b": model.b.copy(), "c": model.c.copy()}
        plain.mult = {"U": state.phi.copy(), "S": state.rho.copy(),
                      "T": state.psi.copy(), "a": state.chi.copy(),
                      "b": state.vphi.copy(), "c": state.sigma.copy()}
        constants = {"U": state.constants.tau, "S": state.constants.nu,
                     "T": state.constants.omega, "a": state.constants.alpha,
                     "b": state.constants.beta, "c": state.constants.delta}

        group = ("U", "S", "T", "a", "b", "c")[trial % 6]
        mode = {"U": "user", "S": "service", "T": "time",
                "a": "user", "b": "service", "c": "time"}[group]
        dim = dims[("user", "service", "time").index(mode)]
        candidates = [x for x in range(dim) if t.slice(mode, x).size > 0]
        index = candidates[int(rng.integers(len(candidates)))]
        r = int(rng.integers(rank))

        f = frozen_subproblem(rows, plain, constants, gamma, loss, group, index,
                              r if group in ("U", "S", "T") else None)
        expected = golden_section(f, -60, 60, tol=1e-11)
        if group in ("U", "S", "T"):
            got = update_auxiliary_factor_row(state, model, t, mode, index, r)
        else:
            got = update_auxiliary_bias(state, model, t, mode, index)
        assert got == pytest.approx(expected, abs=1e-8), (trial, group, index)


# --------------------------------------------------------------------- train


def noise_free_case(seed=0):
    obs, truth, _ = synthesize(SynthSpec(dims=(12, 10, 6), rank=2, density=0.3, seed=seed))
    return split(obs, SplitSpec(0.7, 0.15, 0.15, seed=seed))


def test_train_rejects_empty_sets():
    tr, va, te = noise_free_case()
    empty = tr.take([])
    with pytest.raises(ValueError, match="empty"):
        train(empty, va, TrainConfig(rank=2))
    with pytest.raises(ValueError, match="empty"):
        train(tr, empty.take([]), TrainConfig(rank=2))


def test_train_patience_zero_runs_one_epoch():
    tr, va, te = noise_free_case()
    model, report = train(tr, va, TrainConfig(rank=2, patience=0, max_epochs=50))
    assert len(report.epochs) == 1
    assert report.best_epoch == 1


def test_patience_counts_progress_against_the_last_epoch_that_made_it(monkeypatch):
    # 0.89 is below the progress mark 1.0 less min_delta, though not below the
    # best-seen 0.95 less min_delta: epoch 3 resets the count, so the run ends at 5
    maes = iter([1.0, 0.95, 0.89, 0.88, 0.87])
    monkeypatch.setattr(lftk.admm, "mae", lambda model, tensor: next(maes))
    tr, va, te = noise_free_case()
    _, report = train(tr, va, TrainConfig(rank=2, max_epochs=10, patience=2, min_delta=0.1))
    assert len(report.epochs) == 5
    assert (report.best_epoch, report.best_val_mae) == (5, 0.87)


def test_train_reports_skipped_entities_per_mode():
    # users 3-4, services 2-3 and times 2-3 have no training entries
    rows = [(i, j, k, 1.0 + i + j + k) for i in range(3) for j in range(2) for k in range(2)]
    tr = build_tensor((5, 4, 4), rows)
    va = build_tensor((5, 4, 4), [(4, 3, 3, 1.0)])
    _, report = train(tr, va, TrainConfig(rank=1, max_epochs=2))
    expected = {mode: int((tr.slice_counts(mode) == 0).sum()) for mode in MODES}
    assert report.skipped_entities == expected == {"user": 2, "service": 2, "time": 2}


def test_train_single_entry_reaches_zero_and_stops():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 2.0)])
    config = TrainConfig(rank=1, lam=1.0, patience=5, min_delta=1e-7, max_epochs=1000, seed=13)
    model, report = train(t, t, config)
    assert report.best_val_mae < 1e-6
    assert len(report.epochs) < 1000  # stopped by patience once improvement dried up
    assert model.predict(0, 0, 0) == pytest.approx(2.0, abs=1e-5)


def test_train_keeps_best_snapshot_and_logs(tmp_path):
    tr, va, te = noise_free_case(seed=3)
    sink = io.StringIO()
    config = TrainConfig(rank=2, max_epochs=60, patience=60, seed=3)
    model, report = train(tr, va, config, log=sink)
    assert report.best_val_mae == min(row[2] for row in report.epochs)
    assert report.best_epoch == min(
        e for e, _, v, _ in report.epochs if v == report.best_val_mae
    )
    lines = sink.getvalue().splitlines()
    assert len(lines) == len(report.epochs)
    head = lines[0].split()
    assert head[0] == "epoch" and head[2] == "obj"
    assert head[4] == "val_mae" and head[6] == "max_primal_residual"
    float(head[3]), float(head[5]), float(head[7])  # machine-parseable reals
    # reported best MAE must be reproducible from the returned snapshot
    assert mae(model, va) == pytest.approx(report.best_val_mae, rel=1e-12)


def test_every_log_line_reads_back_as_its_report_row():
    tr, va, te = noise_free_case(seed=3)
    sink = io.StringIO()
    _, report = train(tr, va, TrainConfig(rank=2, max_epochs=12, patience=12, seed=3), log=sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == len(report.epochs) == 12
    for line, row in zip(lines, report.epochs):
        words = line.split()
        assert isinstance(row, Epoch) and tuple(words[::2]) == Epoch._fields
        # the shortest round-trip decimal: each value parses back bit for bit
        assert all(float(v) == row[n] for n, v in enumerate(words[1::2]))


def test_train_log_takes_a_path_or_a_stream(tmp_path):
    tr, va, te = noise_free_case(seed=3)
    config = TrainConfig(rank=2, max_epochs=5, patience=5, seed=3)
    sink = io.StringIO()
    train(tr, va, config, log=sink)
    path = tmp_path / "train.log"
    train(tr, va, config, log=str(path))
    assert path.read_text() == sink.getvalue() != ""


def test_train_gamma_limit_matches_l2_updates():
    tr, va, te = noise_free_case(seed=5)
    gamma = 1e6
    cfg_c = TrainConfig(rank=2, loss="cauchy", gamma=gamma, lam=0.1 / gamma**2,
                        max_epochs=30, patience=10**6, seed=5)
    cfg_l = TrainConfig(rank=2, loss="l2", lam=0.1, max_epochs=30, patience=10**6, seed=5)
    mc, _ = train(tr, va, cfg_c)
    ml, _ = train(tr, va, cfg_l)
    pc = mc.predict_entries(te.i, te.j, te.k)
    pl = ml.predict_entries(te.i, te.j, te.k)
    rel = np.abs(pc - pl) / np.maximum(np.abs(pl), 1e-12)
    assert rel.max() < 1e-4


def test_train_divergence_flagged_with_best_snapshot():
    # extreme magnitudes push the squared-error updates past the guard
    t = build_tensor((2, 2, 1), [(0, 0, 0, 1e200), (1, 1, 0, 1e200), (0, 1, 0, 1.0)])
    config = TrainConfig(rank=1, loss="l2", max_epochs=50, seed=1)
    model, report = train(t, t.take([2]), config)
    assert report.diverged
    assert np.isfinite(model.U).all()


def test_train_determinism():
    tr, va, te = noise_free_case(seed=9)
    config = TrainConfig(rank=2, max_epochs=40, patience=40, seed=9)
    m1, r1 = train(tr, va, config)
    m2, r2 = train(tr, va, config)
    for (_, x), (_, y) in zip(m1.arrays(), m2.arrays()):
        assert (x == y).all()
    assert r1.epochs == r2.epochs


def test_train_config_validation():
    with pytest.raises(ValueError, match="eta"):
        TrainConfig(eta=3.0)
    with pytest.raises(ValueError, match="eta"):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError, match="gamma"):
        TrainConfig(gamma=-1.0)
    with pytest.raises(ValueError, match="lambda"):
        TrainConfig(lam=0.0)
    with pytest.raises(ValueError, match="rank"):
        TrainConfig(rank=0)
    with pytest.raises(ValueError, match="loss"):
        TrainConfig(loss="huber")
    TrainConfig(eta=2.0)  # boundary is allowed


@pytest.mark.parametrize("field", ["gamma", "lam", "min_delta"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{field: value})
    config = TrainConfig()
    setattr(config, field, value)
    with pytest.raises(ValueError, match="finite"):
        config.validate()


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_augmentation_constants_reject_non_finite_lambda(lam):
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    with pytest.raises(ValueError, match="lambda"):
        compute_augmentation_constants(t, lam)


# ------------------------------------------------------ chunking and memory


@given(seed=st.integers(0, 2**32 - 1), loss=st.sampled_from(LOSS_MODES), rank=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_training_does_not_depend_on_chunk_size(seed, loss, rank):
    # the sweeps and the prediction kernel walk entries in chunks; models,
    # reports and logs must come out the same bytes whatever the chunk size
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 7, 3))
    cells = rng.permutation(math.prod(dims))[: int(rng.integers(1, math.prod(dims) + 1))]
    ii, jj, kk = np.unravel_index(np.sort(cells), dims)
    y = rng.uniform(0, 5, cells.size) * np.where(rng.random(cells.size) < 0.1, 10.0, 1.0)
    t = SparseTensor.from_arrays(dims, ii, jj, kk, y)
    config = TrainConfig(rank=rank, loss=loss, max_epochs=4, patience=4, seed=seed % 997)

    def run(chunk):
        log, model_text = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lftk.admm, "_SWEEP_CHUNK", chunk)
            mp.setattr(lftk.model, "_CHUNK", chunk)
            model, report = train(t, t, config, log=log)
        save_model(model, model_text)
        return model_text.getvalue(), json.dumps(report.summary()), log.getvalue()

    first = run(1)
    for chunk in (3, 32768, t.n_entries):
        assert run(chunk) == first


def test_a_sweep_chunk_patched_between_epochs_takes_effect(monkeypatch):
    # each epoch builds its chunk plan from the _SWEEP_CHUNK of the moment
    obs, _, _ = synthesize(SynthSpec(dims=(6, 5, 4), rank=2, density=0.8, seed=2))
    twin = FactorModel.initialize(obs.dims, 2, seed=0)  # two epochs, nothing patched
    twin_state, config = make_state(twin, obs)
    for _ in range(2):
        train_epoch(twin_state, twin, obs, config)
    model = FactorModel.initialize(obs.dims, 2, seed=0)
    state, _ = make_state(model, obs)
    plans, sweep = [], lftk.admm._sweep_column
    monkeypatch.setattr(lftk.admm, "_sweep_column",
                        lambda *args: (plans.append(len(args[4])), sweep(*args))[1])
    train_epoch(state, model, obs, config)
    monkeypatch.setattr(lftk.admm, "_SWEEP_CHUNK", 7)
    train_epoch(state, model, obs, config)
    n = obs.n_entries  # rank 2: 3 x 2 factor columns and 3 bias columns per epoch
    assert plans == [1] * 9 + [-(-n // 7)] * 9 and n > 7
    assert model.params.tobytes() == twin.params.tobytes()


def test_train_epoch_peak_memory_per_entry():
    # the sweeps hold yhat and one coefficient per entry (16 B) plus
    # cache-sized chunks, and free both before the objective runs
    obs, _, _ = synthesize(
        SynthSpec(dims=(100, 200, 40), rank=3, density=0.25, noise_std=0.05, seed=1)
    )
    assert obs.n_entries == 200_000
    model = FactorModel.initialize(obs.dims, 5, seed=0)
    state, config = make_state(model, obs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_epoch(state, model, obs, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 26 * obs.n_entries


# ------------------------------------------------------------ pinned outputs

# sha256 of the saved model text, the report summary and the log of short
# fits on two small synthetic tensors; recorded before the sweeps applied each
# column's yhat update inside the next column's chunk pass, which must not
# change a bit
_PINNED_FITS = {
    ("a", "cauchy", 1): "7c724eafad50422bd5c15afc21a228c3813e50999f62e77ba0796843915fa8b3",
    ("a", "cauchy", 4): "8c899555d355f3f6376e52f987128903e9e52eae2d910b50da4900f2eff8baa2",
    ("a", "cauchy", 9): "c88837d4b1f109acd8c4bf6152cc392bcd96f7c32b005b0be2ab14773770e0a2",
    ("a", "l2", 1): "9895bf7b0e592013a63b3ba05885a3c64a98dd02641c2489ed7c0af9d1f2cb7b",
    ("a", "l2", 4): "82fdc79586a65fb9fabd18c10b98ac8ad42aee235f4d469e321e199feb1bb294",
    ("a", "l2", 9): "328c26eceefd1ad07a3bfd604f7f284c0e9b6076cbe035477114b72bbaaa1a01",
    ("b", "cauchy", 1): "dfd923f60a4ece0e04cf75aab2c4363a27dd87b510125621e2393f357362dc8a",
    ("b", "cauchy", 4): "187bce4d76d7dcdc14ce2db6ad030b90a695d0cccb74fd30f54485c1d1668906",
    ("b", "cauchy", 9): "c4a58280b85d99ad888ff7843e36c76b32fb7a092aa9939baef133e31299f8f4",
    ("b", "l2", 1): "563e0fbc21e492a143ab1ed8d6804415ad45a32e6ba3d1728a7585e8c4dd00a2",
    ("b", "l2", 4): "74664577af72e1ea0d355c45685cdd91c4358bed8f70342a0aaa0f966d68f0af",
    ("b", "l2", 9): "aa4619154d8a596c9b85ae40e0630e70aecaf070a1d79277670b979ee1f84ee1",
}
_PIN_SPECS = {
    "a": SynthSpec(dims=(7, 6, 5), rank=2, density=0.6, noise_std=0.05,
                   outlier_rate=0.1, outlier_scale=10.0, seed=11),
    "b": SynthSpec(dims=(5, 9, 4), rank=3, density=0.45, noise_std=0.02, seed=12),
}


@pytest.mark.parametrize("chunk", [lftk.admm._SWEEP_CHUNK, 3])
@pytest.mark.parametrize("tensor, loss, rank", sorted(_PINNED_FITS))
def test_fit_outputs_match_their_pinned_digests(tensor, loss, rank, chunk, monkeypatch):
    obs, _, _ = synthesize(_PIN_SPECS[tensor])
    train_t, val_t, _ = split(obs, SplitSpec(0.7, 0.1, 0.2, seed=0))
    monkeypatch.setattr(lftk.admm, "_SWEEP_CHUNK", chunk)
    log, text = io.StringIO(), io.StringIO()
    config = TrainConfig(rank=rank, loss=loss, max_epochs=12, patience=12, seed=5)
    model, report = train(train_t, val_t, config, log=log)
    save_model(model, text)
    digest = hashlib.sha256()
    for part in (text.getvalue(), json.dumps(report.summary()), log.getvalue()):
        digest.update(part.encode())
    assert digest.hexdigest() == _PINNED_FITS[tensor, loss, rank]
