import io
import math

import numpy as np
import pytest

from lftk import (
    AdmmState,
    DivergenceError,
    FactorModel,
    SynthSpec,
    TrainConfig,
    build_tensor,
    cauchy_weight,
    compute_augmentation_constants,
    lagrangian_value,
    mae,
    objective,
    project_nonnegative,
    split,
    synthesize,
    train,
    train_epoch,
    update_auxiliary_bias,
    update_auxiliary_factor_row,
    update_multipliers,
)
from lftk.evaluation import SplitSpec
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
    for _, _, _, mult, _ in state.groups(model):
        assert (mult == 0).all()


def test_multipliers_eta_zero_noop():
    obs, _, _ = synthesize(SynthSpec(dims=(4, 4, 3), rank=2, density=0.6, seed=3))
    model = FactorModel.initialize(obs.dims, 2, seed=4)
    state, _ = make_state(model, obs)
    state.aux_u += 0.5
    update_multipliers(state, model, eta=0.0)
    assert (state.phi == 0).all()


# ---------------------------------------------------------------- lagrangian


def test_lagrangian_zero_cases():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 0.0)])
    model = zero_model((1, 1, 1), 1)
    state, config = make_state(model, t)
    assert lagrangian_value(state, model, t, config) == 0.0


def test_lagrangian_zero_at_feasible_exact_fit():
    # nonzero entry fitted exactly, aux == primal, multipliers zero
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    model = FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    state, config = make_state(model, t)
    assert lagrangian_value(state, model, t, config) == 0.0


def test_lagrangian_half_log_two():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    model = zero_model((1, 1, 1), 1)
    state, config = make_state(model, t, gamma=1.0)
    got = lagrangian_value(state, model, t, config)
    assert got == pytest.approx(0.5 * math.log(2), rel=1e-12)


def test_lagrangian_includes_penalty_and_constant_term():
    t = build_tensor((1, 1, 1), [(0, 0, 0, 0.0)])
    model = zero_model((1, 1, 1), 1)
    state, config = make_state(model, t, lam=1.0)
    state.aux_u[0, 0] = 0.3
    state.aux_s[0, 0] = 1.0
    state.aux_t[0, 0] = 1.0
    state.phi[0, 0] = 0.4
    # aux prediction 0.3 -> loss 0.5*ln(1 + 0.09)
    # penalties: u: 0.5*(0.3 - 0 + 0.4)^2; s and t: 0.5*(1 - 0)^2 each
    # constant term: 0.4^2 / 2
    expected = 0.5 * math.log(1 + 0.09) + 0.5 * 0.49 + 0.5 + 0.5 - 0.08
    assert lagrangian_value(state, model, t, config) == pytest.approx(expected, rel=1e-12)


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
