import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolcast import model
from poolcast.losses import loss_elem
from poolcast.model import (Adam, ParamSet, TrainConfig, TrainingDiverged,
                            _Workspace, _fan_from_hidden, _gru_forward,
                            batch_loss, clip_gradients_, init_params,
                            load_checkpoint, loss_and_gradients, median_index,
                            rollout, save_checkpoint, train, train_stacked)

from oracles import huber, legacy_init

TINY = dict(p_dim=3, latent=2, hidden=4, n_levels=1)  # a point model


def tiny_params(seed, jitter=0.3, **shape):
    params = init_params(**dict(TINY, **shape), seed=seed)
    rng = np.random.default_rng(seed + 1000)
    params.flat += rng.normal(scale=jitter, size=params.flat.shape)
    return params


def levels(mode):
    """The head's level count of a model of ``mode``."""
    return TrainConfig(mode=mode).n_levels


def finite_difference_check(params, anchor, x, y, cfg, step=1e-5,
                            denom_floor=1e-4):
    """Max relative error between analytic and central-difference gradients.

    The denominator floor makes the comparison an absolute one for
    near-zero gradients (tolerance 1e-4 * floor).
    """
    _, grads = loss_and_gradients(params, anchor, x, y, cfg)
    start = 1 if anchor is not None else 0  # mix is frozen under an anchor
    worst = 0.0
    for name, *_ in params.layout.slots[start:]:
        tensor = getattr(params, name)
        grad = getattr(grads, name)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + step
            up = batch_loss(params, anchor, x, y, cfg)
            tensor[ix] = orig - step
            down = batch_loss(params, anchor, x, y, cfg)
            tensor[ix] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(grad[ix] - fd) / max(abs(grad[ix]), abs(fd), denom_floor)
            worst = max(worst, rel)
    return worst


def residuals_near_kink(params, x, y, cfg, margin):
    """True when any residual sits within ``margin`` of a loss kink, where
    central differences would straddle the non-smooth point."""
    fan = rollout(params, x, 1, cfg)[:, -1]
    if cfg.mode == "point":
        pred = fan[:, fed_level(cfg)]
        return bool(np.any(np.abs(np.abs(pred - y) - cfg.huber_delta) < margin))
    return bool(np.any(np.abs(y[:, None, :] - fan) < margin))


def draw_instance(mode, seed, n=3, n_levels=None):
    rng = np.random.default_rng(seed)
    params = tiny_params(seed, n_levels=n_levels or levels(mode))
    cfg = TrainConfig(w=5, mode=mode)
    x = rng.normal(size=(n, 5, 3))
    y = rng.normal(size=(n, 3))
    return params, x, y, cfg


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_gradients_match_finite_differences(mode):
    # batches of 3 and of 1; at n = 1 the recurrent products are
    # matrix-vector calls. In point mode also a three-level head, as the
    # benchmark's model probe builds: Huber reads the base alone, so the
    # levels above it get zero gradient
    for n_levels in sorted({levels(mode), 3}):
        for n in (3, 1):
            checked = 0
            seed = 0
            while checked < 3:
                params, x, y, cfg = draw_instance(mode, seed, n, n_levels)
                seed += 1
                if residuals_near_kink(params, x, y, cfg, margin=1e-4):
                    continue
                assert finite_difference_check(params, None, x, y, cfg) < 1e-4
                if mode == "point":
                    r = params.latent
                    grads = loss_and_gradients(params, None, x, y, cfg)[1]
                    assert not grads.w_head[r:].any()
                    assert not grads.b_head[r:].any()
                    assert grads.w_head[:r].all()
                checked += 1


def test_gradients_with_anchor_include_penalty():
    params, x, y, cfg = draw_instance("point", 7)
    cfg = TrainConfig(w=5, mode="point", l2sp_weight=0.7)
    anchor = tiny_params(99)
    assert finite_difference_check(params, anchor, x, y, cfg) < 1e-4
    # frozen mix: gradient exactly zero
    _, grads = loss_and_gradients(params, anchor, x, y, cfg)
    assert np.all(grads.mix == 0.0)


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_frozen_mix_step_skips_only_the_mix_gradient(mode, monkeypatch):
    # the refit's step: mix frozen without an anchor; its gradient is never
    # formed, and every other gradient is bitwise the unfrozen step's
    params, x, y, cfg = draw_instance(mode, 4, n=5)
    loss, free = loss_and_gradients(params, None, x, y, cfg)
    frozen_loss, frozen = loss_and_gradients(params, None, x, y, cfg,
                                             freeze_mix=True)
    assert frozen_loss == loss
    assert free.mix.any() and not frozen.mix.any()
    off = params.spec_offset
    assert frozen.flat[off:].tobytes() == free.flat[off:].tobytes()
    # train_stacked passes its one freezing rule down to every step
    seen, step = [], model.loss_and_gradients
    monkeypatch.setattr(model, "loss_and_gradients",
                        lambda *a: seen.append(a[-1]) or step(*a))
    for anchor, freeze_mix in ((None, False), (params, False), (None, True)):
        seen.clear()
        train(params, anchor, x, y, replace(cfg, epochs=2), freeze_mix=freeze_mix)
        assert seen == [anchor is not None or freeze_mix] * 2


def test_anchor_at_current_point_is_inert():
    params, x, y, _ = draw_instance("point", 3)
    cfg0 = TrainConfig(w=5, mode="point", l2sp_weight=0.0)
    cfg1 = TrainConfig(w=5, mode="point", l2sp_weight=10.0)
    loss0, grads0 = loss_and_gradients(params, params.copy(), x, y, cfg0)
    loss1, grads1 = loss_and_gradients(params, params.copy(), x, y, cfg1)
    assert loss0 == loss1
    assert np.array_equal(grads0.flat, grads1.flat)


def test_perfect_prediction_loss_is_anchor_term_only():
    params = tiny_params(0)
    params.flat[:] = 0.0
    x = np.zeros((2, 5, 3))
    y = np.zeros((2, 3))
    cfg = TrainConfig(w=5, mode="point")
    loss, _ = loss_and_gradients(params, None, x, y, cfg)
    assert loss == 0.0
    anchor = params.copy()
    anchor.w_head += 0.5
    eta = 0.25
    loss, _ = loss_and_gradients(params, anchor,
                                 x, y, TrainConfig(w=5, l2sp_weight=eta))
    d = params.flat[params.spec_offset:] - anchor.flat[anchor.spec_offset:]
    assert loss == pytest.approx(eta * float(d @ d))


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_zero_network_outputs_zero():
    params = tiny_params(0)
    params.flat[:] = 0.0
    fan = rollout(params, np.random.default_rng(0).normal(size=(1, 5, 3)),
                  1, TrainConfig(w=5))
    out = fan[:, -1, 0]
    np.testing.assert_array_equal(out, np.zeros((1, 3)))
    assert fan.shape[-2] == 1


def test_output_shape_and_determinism():
    params = tiny_params(1)
    window = np.random.default_rng(1).normal(size=(1, 5, 3))
    a = rollout(params, window, 1, TrainConfig(w=5))[:, -1, 0]
    b = rollout(params, window, 1, TrainConfig(w=5))[:, -1, 0]
    assert a.shape == (1, 3)
    np.testing.assert_array_equal(a, b)


def test_quantile_softplus_ladder():
    # 1x1 identity mixer, zero head: levels are (0, ln 2, 2 ln 2)
    params = init_params(1, 1, 2, 3, seed=0)
    params.flat[:] = 0.0
    params.mix[0, 0] = 1.0
    cfg = TrainConfig(w=4, mode="quantile", quantiles=(0.1, 0.5, 0.9))
    fan = rollout(params, np.zeros((1, 4, 1)), 1, cfg)[:, -1]
    np.testing.assert_allclose(
        fan[0, :, 0], [0.0, np.log(2.0), 2.0 * np.log(2.0)], atol=1e-15)


def test_latent_quantiles_never_cross():
    rng = np.random.default_rng(0)
    for trial in range(50):
        params = tiny_params(trial, jitter=1.0, n_levels=3)
        window = rng.normal(scale=3.0, size=(5, 3))
        h = _gru_forward(params, window[None])
        _, latents, _ = _fan_from_hidden(params, h)
        diffs = np.diff(latents, axis=1)
        assert np.all(diffs >= 0.0)


def test_single_level_grid():
    params = init_params(2, 2, 3, 1, seed=0)
    params.flat[:] = np.random.default_rng(0).normal(size=params.flat.size)
    cfg = TrainConfig(w=4, mode="quantile", quantiles=(0.5,))
    x, y = np.zeros((1, 4, 2)), np.zeros((1, 2))
    fan = rollout(params, x, 1, cfg)[:, -1]
    assert fan.shape == (1, 1, 2)
    np.testing.assert_array_equal(fan[:, cfg.point_level], fan[:, 0])
    # a level grid that does not match the head is refused, by the forward
    # pass, by the training step and by training alike
    wrong = replace(cfg, quantiles=(0.1, 0.5))
    for call in (lambda: rollout(params, x, 1, wrong),
                 lambda: loss_and_gradients(params, None, x, y, wrong),
                 lambda: train(params, None, x, y, wrong)):
        with pytest.raises(ValueError, match="2 levels given but head produces 1"):
            call()


def test_median_index_prefers_half():
    assert median_index((0.1, 0.5, 0.9)) == 1
    assert median_index((0.25, 0.75)) == 0  # tie resolved to the lower index
    # the config's point level is the level the oracle feeds back
    for mode in ("point", "quantile"):
        for quantiles in ((0.1, 0.5, 0.9), (0.25, 0.75)):
            cfg = TrainConfig(mode=mode, quantiles=quantiles)
            assert cfg.point_level == fed_level(cfg)
    assert TrainConfig(mode="quantile", quantiles=(0.25, 0.75)).point_level == 0


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def compose_manually(params, window, h, cfg):
    """Test-only oracle: h explicit one-step forwards of one (w, P) window,
    shifting in each step's point forecast (the median in quantile mode).
    The window is encoded as the two-row batch of itself, as rollout runs a
    lone window; the first row's last fan is returned."""
    x = np.stack([window, window])
    for step in range(h):
        fan = _fan_from_hidden(params, _gru_forward(params, x))[0]
        pred = fan[:, fed_level(cfg)]
        if step < h - 1:
            x = np.concatenate([x[:, 1:], pred[:, None]], axis=1)
    return fan[0]


def fed_level(cfg):
    """The fan level a rollout feeds back: the base in point mode, the
    median in quantile mode."""
    return 0 if cfg.mode == "point" else median_index(cfg.quantiles)


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_rollout_equals_composition_oracle(mode):
    params = tiny_params(5, n_levels=levels(mode))
    window = np.random.default_rng(5).normal(size=(5, 3))
    cfg = TrainConfig(w=5, mode=mode, quantiles=(0.1, 0.5, 0.9))
    for h in (1, 2, 3):
        fan = rollout(params, window[None], h, cfg)[:, -1]
        want = compose_manually(params, window, h, cfg)
        np.testing.assert_array_equal(fan[0, fed_level(cfg)],
                                      want[fed_level(cfg)])
        if mode == "point":
            assert fan.shape[-2] == 1
        np.testing.assert_array_equal(fan[0], want)


@pytest.mark.parametrize("n", [1, 2, 37])
@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_rollout_path_steps_equal_shorter_rollouts(mode, n):
    # step j of one rollout to 6 is bitwise a rollout to j on its own
    params = tiny_params(6, n_levels=levels(mode))
    windows = np.random.default_rng(n).normal(size=(n, 5, 3))
    cfg = TrainConfig(w=5, mode=mode, quantiles=(0.1, 0.5, 0.9))
    fan = rollout(params, windows, 6, cfg)
    point = fan[..., fed_level(cfg), :]
    assert point.shape == (n, 6, 3)
    assert fan.shape == (n, 6, levels(mode), 3)
    for j in range(1, 7):
        fan_j = rollout(params, windows, j, cfg)
        point_j = fan_j[..., fed_level(cfg), :]
        np.testing.assert_array_equal(point[:, j - 1], point_j[:, -1])
        np.testing.assert_array_equal(point[:, :j], point_j)
        np.testing.assert_array_equal(fan[:, j - 1], fan_j[:, -1])


def test_rollout_median_path_ignores_upper_increments():
    # zeroing the head rows that produce the above-median increment leaves the
    # h=2 median path bitwise unchanged
    params = tiny_params(8, n_levels=3)
    window = np.random.default_rng(8).normal(size=(5, 3))
    cfg = TrainConfig(w=5, mode="quantile", quantiles=(0.1, 0.5, 0.9))
    r = params.latent
    zeroed = params.copy()
    zeroed.w_head[2 * r:, :] = 0.0   # increment feeding only the 0.9 level
    zeroed.b_head[2 * r:] = 0.0
    med = median_index(cfg.quantiles)
    a = rollout(params, window[None], 2, cfg)[:, -1]
    b = rollout(zeroed, window[None], 2, cfg)[:, -1]
    np.testing.assert_array_equal(a[0, med], b[0, med])
    assert not np.array_equal(a[0, 2], b[0, 2])


def test_rollout_rejects_bad_horizon():
    params = tiny_params(0)
    with pytest.raises(ValueError):
        rollout(params, np.zeros((1, 5, 3)), 0, TrainConfig(w=5))


def compose_batch(params, windows, h, cfg):
    """Test-only oracle: h explicit one-step forwards of a batch of windows
    (n, w, P), each step encoding every window whole, as the fans'
    (n, h, L, P) path."""
    x, fans = windows.copy(), []
    for step in range(h):
        fan = _fan_from_hidden(params, _gru_forward(params, x))[0]
        fans.append(fan)
        if step < h - 1:
            pred = fan[..., fed_level(cfg), :]
            x = np.concatenate([x[:, 1:], pred[:, None]], axis=1)
    return np.stack(fans, -3)


@given(s=st.integers(1, 4), n=st.integers(1, 9), w=st.integers(2, 6),
       h_rule=st.sampled_from(["1", "2", "w-1", "w", "w+3"]),
       mode=st.sampled_from(["point", "quantile"]), seed=st.integers(0, 999),
       latent=st.sampled_from([1, 2]))
@example(s=1, n=1, w=5, h_rule="w+3", mode="point", seed=0, latent=2)  # one window
@example(s=1, n=1, w=5, h_rule="1", mode="quantile", seed=0, latent=2)
@example(s=1, n=4, w=5, h_rule="w-1", mode="point", seed=0, latent=2)  # one series
@example(s=1, n=2, w=5, h_rule="1", mode="quantile", seed=0, latent=2)
@example(s=3, n=4, w=5, h_rule="w+3", mode="quantile", seed=0, latent=1)
@example(s=1, n=3, w=5, h_rule="1", mode="point", seed=0, latent=1)
@settings(max_examples=80, deadline=None)
def test_rollout_of_runs_is_bitwise_its_windows_batch(s, n, w, h_rule, mode,
                                                      seed, latent):
    """Runs (S, L, P) forecast each of their windows bitwise as the same
    windows passed as one (S * n, w, P) batch, and, at latent >= 2, as that
    batch's explicit composition, a lone window composed as the two-row
    batch of itself. At latent 1 only the first is asserted: the one-column
    latent projection and a one-level head run as GEMVs, whose rows can
    depend on their place in the product (with OpenBLAS 0.3.31 on Haswell
    they do not at this test's P = 3 and hidden 4, and can from an inner
    size of 8)."""
    h = {"1": 1, "2": 2, "w-1": w - 1, "w": w, "w+3": w + 3}[h_rule]
    rng = np.random.default_rng(seed)
    runs = rng.normal(size=(s, w + n - 1, 3))
    windows = np.lib.stride_tricks.sliding_window_view(runs, w, axis=1)
    windows = windows.swapaxes(2, 3).reshape(s * n, w, 3)
    cfg = TrainConfig(w=w, mode=mode, quantiles=(0.1, 0.5, 0.9))
    models = [tiny_params(seed, latent=latent, n_levels=levels(mode)),
              tiny_params(seed + 1, latent=latent, n_levels=levels(mode))]
    for params in models[:1] + ([ParamSet.stack(models)] if h == 1 else []):
        fan = rollout(params, runs, h, cfg)
        point = fan[..., fed_level(cfg), :]
        assert point.shape == params.flat.shape[:-1] + (s * n, h, 3)
        assert fan.shape[-2] == levels(mode)
        wants = [rollout(params, windows, h, cfg)]
        if latent > 1:
            pair = np.concatenate([windows] * (2 if s * n == 1 else 1))
            wants.append(compose_batch(params, pair, h, cfg)[..., :s * n, :, :, :])
        for want in wants:
            assert point.tobytes() == want[..., fed_level(cfg), :].tobytes()
            assert fan.tobytes() == want.tobytes()


def test_rollout_refuses_a_run_shorter_than_the_window():
    with pytest.raises(ValueError, match="no window"):
        rollout(tiny_params(0), np.zeros((2, 4, 3)), 1, TrainConfig(w=5))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_training_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 5, 3))
    y = rng.normal(size=(40, 3))
    cfg = TrainConfig(w=5, epochs=3, batch=16, seed=42)
    init = tiny_params(2)
    a = train(init, None, x, y, cfg)
    b = train(init, None, x, y, cfg)
    assert np.array_equal(a.flat, b.flat)


def test_training_fits_constant_target():
    # constant target is representable by bias terms when the mixer is square
    rng = np.random.default_rng(0)
    params = init_params(p_dim=2, latent=2, hidden=8, n_levels=3, seed=0)
    x = rng.normal(scale=0.1, size=(64, 4, 2))
    y = np.full((64, 2), 0.7)
    cfg = TrainConfig(w=4, epochs=400, batch=64, lr=3e-3, seed=0)
    fitted = train(params, None, x, y, cfg)
    final = huber(rollout(fitted, x, 1, cfg)[:, -1, 0], np.broadcast_to(y, (64, 2)), 1.0)
    assert final < 1e-3


def test_anchor_weight_sweep_shrinks_distance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 5, 3))
    y = rng.normal(size=(60, 3))
    anchor = tiny_params(3)
    dists = []
    for eta in (0.0, 1.0, 1e3):
        cfg = TrainConfig(w=5, epochs=5, batch=20, l2sp_weight=eta,
                          lr=1e-4, seed=0)
        fitted = train(anchor, anchor, x, y, cfg)
        off = anchor.spec_offset
        dists.append(np.linalg.norm(fitted.flat[off:] - anchor.flat[off:]))
    assert dists[0] > dists[1] > dists[2]


def test_extreme_anchor_pins_parameters():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 5, 3))
    y = rng.normal(size=(60, 3))
    anchor = tiny_params(4)
    cfg = TrainConfig(w=5, epochs=5, batch=20, l2sp_weight=1e6, lr=1e-4, seed=0)
    fitted = train(anchor, anchor, x, y, cfg)
    off = anchor.spec_offset
    assert np.max(np.abs(fitted.flat[off:] - anchor.flat[off:])) < 1e-3
    np.testing.assert_array_equal(fitted.mix, anchor.mix)


def test_divergence_aborts_with_last_finite_epoch():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(32, 5, 3))
    y = rng.normal(size=(32, 3))
    init = tiny_params(5)
    init.flat[:] = np.inf
    cfg = TrainConfig(w=5, epochs=2, batch=16, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        train(init, None, x, y, cfg)
    assert err.value.last_finite_epoch == -1


def test_training_diverged_survives_pickling():
    err = pickle.loads(pickle.dumps(TrainingDiverged("loss is nan", 2)))
    assert type(err) is TrainingDiverged
    assert str(err) == "loss is nan" and err.last_finite_epoch == 2


def test_empty_training_set_rejected():
    with pytest.raises(ValueError):
        train(tiny_params(0), None, np.empty((0, 5, 3)), np.empty((0, 3)),
              TrainConfig(w=5))


def reference_train(initial, anchor, x, y, cfg, freeze_mix=False):
    """train() spelled out from the public step functions, with a fresh
    gradient ParamSet on every step."""
    params = initial.copy()
    skip_mix = anchor is not None or freeze_mix
    opt = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps_adam,
               skip_mix=skip_mix)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for lo in range(0, len(x), cfg.batch):
            idx = order[lo:lo + cfg.batch]
            _, grads = loss_and_gradients(params, anchor, x[idx], y[idx], cfg)
            if skip_mix:
                grads.mix[:] = 0.0
            clip_gradients_(grads, cfg.clip, skip_mix=skip_mix)
            opt.step(params, grads)
    return params


@pytest.mark.parametrize(
    "mode,anchored,freeze_mix",
    [("point", False, False), ("quantile", False, False),
     ("point", True, False), ("quantile", True, False),
     ("point", False, True), ("quantile", False, True)],
    ids=["point-False", "quantile-False", "point-True", "quantile-True",
         "point-freeze_mix", "quantile-freeze_mix"])
def test_train_with_reused_gradient_buffer_is_bitwise_reference(
        mode, anchored, freeze_mix):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(70, 5, 3))  # 70 = 4 batches of 16 and one of 6
    y = rng.normal(size=(70, 3))
    init = tiny_params(6, n_levels=levels(mode))
    anchor = tiny_params(7, n_levels=levels(mode)) if anchored else None
    cfg = TrainConfig(w=5, epochs=3, batch=16, mode=mode, clip=0.5, seed=2)
    fitted = train(init, anchor, x, y, cfg, freeze_mix=freeze_mix)
    expected = reference_train(init, anchor, x, y, cfg, freeze_mix)
    assert fitted.flat.tobytes() == expected.flat.tobytes()
    assert not np.array_equal(fitted.flat, init.flat)
    if anchored or freeze_mix:  # the shared encoder stays as it was
        assert fitted.mix.tobytes() == init.mix.tobytes()


def stacked_instance(sizes, seed=0, mode="point"):
    """One start of ``mode``'s shape and one (x, y) training set of each
    size per model."""
    rng = np.random.default_rng(seed)
    data = [(rng.normal(size=(n, 5, 3)), rng.normal(size=(n, 3))) for n in sizes]
    return ([tiny_params(10 + i, n_levels=levels(mode))
             for i in range(len(sizes))], data)


def assert_trained_as_alone(fitted, initials, anchor, data, cfg, seeds,
                            freeze_mix=False):
    assert len(fitted) == len(initials)
    for params, init, (x, y), seed in zip(fitted, initials, data, seeds):
        alone = train(init, anchor, x, y, replace(cfg, seed=seed),
                      freeze_mix=freeze_mix)
        assert params.flat.tobytes() == alone.flat.tobytes()


def bound_stacks(mp, depth, batch, like):
    """Set the stack budget to ``depth`` models of the size of ``like`` at
    the largest batch ``batch`` (None keeps the module's budget) on the
    monkeypatch ``mp``; returns the list that records the model count of
    every stack built while ``mp`` is in effect."""
    if depth is not None:
        one = _Workspace.specs(like, 1, batch, 5)
        mp.setattr(model, "STACK_BYTES",
                   depth * 8 * sum(math.prod(s) for _, s in one))
    stacks, stack = [], ParamSet.stack
    mp.setattr(ParamSet, "stack", staticmethod(
        lambda models: stacks.append(len(models)) or stack(models)))
    return stacks


@pytest.mark.parametrize("mode", ["point", "quantile"])
@pytest.mark.parametrize("anchored,freeze_mix", [(False, False), (True, False),
                                                 (False, True)],
                         ids=["free", "anchored", "freeze_mix"])
def test_stacked_training_is_bitwise_each_models_own(mode, anchored, freeze_mix,
                                                     monkeypatch):
    # batches of 16: unequal sizes with partial last batches (70 = 4 x 16 + 6,
    # 40 = 2 x 16 + 8), a model with fewer windows than one batch (5), one
    # of exactly one batch, and two of equal size that stack throughout;
    # under the module's budget, and under budgets of one and of two models,
    # which split the fit into consecutive stacks
    sizes = [70, 5, 40, 70, 16]
    initials, data = stacked_instance(sizes, mode=mode)
    anchor = tiny_params(7, n_levels=levels(mode)) if anchored else None
    cfg = TrainConfig(w=5, epochs=3, batch=16, mode=mode, clip=0.5)
    seeds = [3, 4, 5, 3, 6]
    for depth, expected in ((None, [5]), (1, [1] * 5), (2, [2, 2, 1])):
        with monkeypatch.context() as mp:
            stacks = bound_stacks(mp, depth, 16, initials[0])
            fitted = train_stacked(initials, anchor, data, cfg, seeds,
                                   freeze_mix=freeze_mix)
        assert stacks == expected
        assert_trained_as_alone(fitted, initials, anchor, data, cfg, seeds,
                                freeze_mix)
        if anchored or freeze_mix:  # the shared encoder stays as it was
            for params, init in zip(fitted, initials):
                assert params.mix.tobytes() == init.mix.tobytes()


def test_back_to_back_stacked_fits_are_each_bitwise_alone():
    # fits of other model counts and batch sizes in turn: none sees
    # another's buffers
    cfg = TrainConfig(w=5, epochs=2, mode="point", clip=0.5)
    for sizes, batch in (([70, 40, 33], 16), ([9, 20], 8), ([70, 40, 33], 16),
                         ([50], 32)):
        initials, data = stacked_instance(sizes, seed=batch)
        seeds = list(range(len(sizes)))
        cfg = replace(cfg, batch=batch)
        fitted = train_stacked(initials, None, data, cfg, seeds)
        assert_trained_as_alone(fitted, initials, None, data, cfg, seeds)
    assert train_stacked([], None, [], cfg, []) == []


def test_stacked_divergence_raises_the_serial_orders_first(monkeypatch):
    # the first n_fine models sit at a zero-loss fixed point, the next takes
    # one step per epoch and overflows in its second epoch (lr = 1e308), the
    # last starts at infinity and fails in its first: trained one after
    # another, the overflowing one raises first, although the last fails
    # first in lock-step; under the module's budget, and under budgets of
    # one and of two models, the last with both failing models in the
    # second stack
    cfg = TrainConfig(w=5, epochs=3, batch=16, lr=1e308)
    for depth, n_fine, expected_stacks in ((None, 1, [3]), (1, 1, [1, 1]),
                                           (2, 1, [2]), (2, 2, [2, 2])):
        initials, data = stacked_instance([8] * n_fine + [8, 40])
        for i in range(n_fine):
            initials[i] = init_params(**TINY, seed=0)  # biases zero
            data[i] = (np.zeros((8, 5, 3)), np.zeros((8, 3)))
        initials[-1].flat[:] = np.inf
        with np.errstate(all="ignore"):
            expected = None
            for init, (x, y) in zip(initials, data):
                try:
                    train(init, None, x, y, cfg)
                except TrainingDiverged as exc:
                    expected = exc
                    break
            assert expected is not None and expected.last_finite_epoch == 0
            with monkeypatch.context() as mp:
                stacks = bound_stacks(mp, depth, 16, initials[0])
                with pytest.raises(TrainingDiverged) as err:
                    train_stacked(initials, None, data, cfg,
                                  [cfg.seed] * len(data))
        # no stack after the one that raised is built
        assert stacks == expected_stacks
        assert str(err.value) == str(expected)
        assert err.value.last_finite_epoch == expected.last_finite_epoch


def test_paramset_copies_are_views_of_their_own_buffer(tmp_path):
    params = tiny_params(1)
    path = str(tmp_path / "m.pcm")
    save_checkpoint(params, w=5, mode="point", path=path)
    copies = [params.copy(), params.zeros_like(), load_checkpoint(path)[0]]
    assert copies[0].flat.tobytes() == params.flat.tobytes()
    assert not copies[1].flat.any()
    for other in copies:
        assert not np.shares_memory(other.flat, params.flat)
        other.flat[:] = np.arange(other.flat.size)
        tiled = np.concatenate([getattr(other, n).ravel()
                                for n, *_ in other.layout.slots])
        np.testing.assert_array_equal(tiled, np.arange(other.flat.size))
        assert other.spec_offset == params.spec_offset


def test_unpickled_paramset_tensors_are_views_of_its_buffer():
    params = tiny_params(2)
    clone = pickle.loads(pickle.dumps(params))
    assert clone.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(clone.flat, params.flat)
    names = [name for name, *_ in clone.layout.slots]
    tensors = [getattr(clone, name) for name in names]
    for name, t in zip(names, tensors):
        assert np.shares_memory(t, clone.flat), name
    clone.flat[:] = np.arange(clone.flat.size)
    tiled = np.concatenate([t.ravel() for t in tensors])
    np.testing.assert_array_equal(tiled, np.arange(clone.flat.size))


def test_gru_forward_saturates_without_overflow_warning():
    params = tiny_params(3, n_levels=3)
    params.flat *= 100.0
    x = np.full((4, 5, 3), 30.0)
    x[1::2] *= -1.0
    y = np.zeros((4, 3))
    pre = x[:, 0] @ params.mix.T @ params.w_gates[:params.hidden].T
    assert np.abs(pre).max() > 1000.0  # exp(-pre) overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = _gru_forward(params, x)
        loss_and_gradients(params, None, x, y, TrainConfig(w=5, mode="quantile"))
    assert np.isfinite(h).all()


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("n", [1, 31])
@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_stacked_pass_is_bitwise_each_models_own(mode, n, m):
    # the serving size of the models; each has its own jittered mix
    cfg = TrainConfig(w=7, mode=mode)
    models = [init_params(8, 6, 16, cfg.n_levels, seed) for seed in range(m)]
    for seed, params in enumerate(models):
        params.flat += np.random.default_rng(seed).normal(
            scale=0.3, size=params.flat.shape)
    assert len({params.mix.tobytes() for params in models}) == m
    rng = np.random.default_rng([n, m])
    x, y = rng.normal(size=(n, 7, 8)), rng.normal(size=(n, 8))
    stack = ParamSet.stack(models)
    hs = _gru_forward(stack, x)
    assert hs.shape == (m, n, 16)
    preds = _fan_from_hidden(stack, hs)[0]
    # the one-step rollout of the stack, and the loss routing scores it by
    fan = rollout(stack, x, 1, cfg)
    point = fan[..., fed_level(cfg), :]
    assert point.shape == (m, n, 1, 8)
    assert fan.shape == (m, n, 1, levels(mode), 8)
    kind, pred = ("huber", point) if mode == "point" else ("pinball", fan)
    losses = loss_elem(kind, pred[:, :, 0], y, cfg)
    for i, params in enumerate(models):
        h = _gru_forward(params, x)
        assert hs[i].tobytes() == h.tobytes()
        assert preds[i].tobytes() == _fan_from_hidden(params, h)[0].tobytes()
        own_fan = rollout(params, x, 1, cfg)
        assert point[i].tobytes() == own_fan[..., fed_level(cfg), :].tobytes()
        assert fan[i].tobytes() == own_fan.tobytes()
        assert float(np.mean(losses[i])) == batch_loss(params, None, x, y, cfg)
    with pytest.raises(ValueError, match="one step"):
        rollout(stack, x, 2, cfg)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("shape", [(8, 6, 16, 3), (5, 1, 4, 1)])
def test_init_params_keeps_every_seeds_draws(shape, seed):
    # the fused tensors hold, slice by slice, the per-gate tensors the seed
    # has always drawn, in that order and with those fan-in bounds
    params = init_params(*shape, seed)
    old = legacy_init(*shape, seed)
    hid = shape[2]
    gates = [slice(0, hid), slice(hid, 2 * hid), slice(2 * hid, 3 * hid)]
    # a one-level head keeps the point head's draws, a fan the fan's
    head = "_out" if shape[3] == 1 else "_quant"
    pairs = [(params.mix, old["mix"]), (params.u_cand, old["u_cand"]),
             (params.w_head, old["w" + head]), (params.b_head, old["b" + head])]
    for rows, gate in zip(gates, ("update", "reset", "cand")):
        pairs += [(params.w_gates[rows], old["w_" + gate]),
                  (params.b_gates[rows], old["b_" + gate])]
    for rows, gate in zip(gates, ("update", "reset")):
        pairs.append((params.u_zr[rows], old["u_" + gate]))
    assert sum(new.size for new, _ in pairs) == params.flat.size
    for new, expected in pairs:
        assert new.shape == expected.shape
        assert new.tobytes() == expected.tobytes()


def test_stack_needs_models_of_one_layout():
    with pytest.raises(ValueError, match="one tensor layout"):
        ParamSet.stack([tiny_params(0), init_params(3, 2, 5, 3, 0)])
    with pytest.raises(ValueError, match="one tensor layout"):
        ParamSet.stack([ParamSet.stack([tiny_params(0)])])
    with pytest.raises(ValueError, match="zero models"):
        ParamSet.stack([])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = tiny_params(9, n_levels=3)
    path = str(tmp_path / "model.pcm")
    save_checkpoint(params, w=5, mode="quantile", path=path)
    loaded, w, mode = load_checkpoint(path)
    assert (w, mode) == (5, "quantile")
    assert np.array_equal(loaded.flat, params.flat)
    with open(path, "rb") as fh:
        assert fh.read(4) == model.CHECKPOINT_MAGIC


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pcm"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))
    # headers checked against the file before the payload is read: a zero
    # dimension, sizes no file holds, and a payload one value short or long
    save_checkpoint(tiny_params(9), w=5, mode="point", path=str(path))
    good = path.read_bytes()
    for latent, tail, match in ((0, good[52:], ">= 1"),
                                (2 ** 62, good[52:], "truncated"),
                                (2, good[52:-8], "truncated"),
                                (2, good[52:] + bytes(8), "trailing")):
        path.write_bytes(good[:4] + latent.to_bytes(8, "little") + good[12:52]
                         + tail)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(str(path))
