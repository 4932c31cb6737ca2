import pickle
import warnings

import numpy as np
import pytest

from poolcast.losses import huber
from poolcast.model import (Adam, ParamSet, QuantilePrediction, TrainConfig,
                            TrainingDiverged, _gru_forward, batch_loss,
                            clip_gradients_, forward_point, forward_quantiles,
                            init_params, load_checkpoint, loss_and_gradients,
                            median_index, rollout, save_checkpoint, train)

TINY = dict(p_dim=3, latent=2, hidden=4, n_levels=3)


def tiny_params(seed, jitter=0.3):
    params = init_params(**TINY, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    params.flat += rng.normal(scale=jitter, size=params.flat.shape)
    return params


def finite_difference_check(params, anchor, x, y, cfg, step=1e-5,
                            denom_floor=1e-4):
    """Max relative error between analytic and central-difference gradients.

    The denominator floor makes the comparison an absolute one for
    near-zero gradients (tolerance 1e-4 * floor).
    """
    _, grads = loss_and_gradients(params, anchor, x, y, cfg)
    start = 1 if anchor is not None else 0  # mix is frozen under an anchor
    worst = 0.0
    for name in ParamSet.NAMES[start:]:
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
    if cfg.mode == "point":
        pred = forward_point(params, x)
        return bool(np.any(np.abs(np.abs(pred - y) - cfg.huber_delta) < margin))
    preds = forward_quantiles(params, x, cfg.quantiles)
    return bool(np.any(np.abs(y[:, None, :] - preds) < margin))


def draw_instance(mode, seed):
    rng = np.random.default_rng(seed)
    params = tiny_params(seed)
    cfg = TrainConfig(w=5, mode=mode)
    x = rng.normal(size=(3, 5, 3))
    y = rng.normal(size=(3, 3))
    return params, x, y, cfg


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_gradients_match_finite_differences(mode):
    checked = 0
    seed = 0
    while checked < 3:
        params, x, y, cfg = draw_instance(mode, seed)
        seed += 1
        if residuals_near_kink(params, x, y, cfg, margin=1e-4):
            continue
        assert finite_difference_check(params, None, x, y, cfg) < 1e-4
        checked += 1


def test_gradients_with_anchor_include_penalty():
    params, x, y, cfg = draw_instance("point", 7)
    cfg = TrainConfig(w=5, mode="point", l2sp_weight=0.7)
    anchor = tiny_params(99)
    assert finite_difference_check(params, anchor, x, y, cfg) < 1e-4
    # frozen mix: gradient exactly zero
    _, grads = loss_and_gradients(params, anchor, x, y, cfg)
    assert np.all(grads.mix == 0.0)


def test_anchor_at_current_point_is_inert():
    params, x, y, _ = draw_instance("point", 3)
    cfg0 = TrainConfig(w=5, mode="point", l2sp_weight=0.0)
    cfg1 = TrainConfig(w=5, mode="point", l2sp_weight=10.0)
    loss0, grads0 = loss_and_gradients(params, params.copy(), x, y, cfg0)
    loss1, grads1 = loss_and_gradients(params, params.copy(), x, y, cfg1)
    assert loss0 == loss1
    assert grads0.max_diff(grads1) == 0.0


def test_perfect_prediction_loss_is_anchor_term_only():
    params = tiny_params(0)
    params.flat[:] = 0.0
    x = np.zeros((2, 5, 3))
    y = np.zeros((2, 3))
    cfg = TrainConfig(w=5, mode="point")
    loss, _ = loss_and_gradients(params, None, x, y, cfg)
    assert loss == 0.0
    anchor = params.copy()
    anchor.w_out += 0.5
    eta = 0.25
    loss, _ = loss_and_gradients(params, anchor,
                                 x, y, TrainConfig(w=5, l2sp_weight=eta))
    assert loss == pytest.approx(eta * params.specialized_sq_distance(anchor))


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_zero_network_outputs_zero():
    params = tiny_params(0)
    params.flat[:] = 0.0
    out = forward_point(params, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_output_shape_and_determinism():
    params = tiny_params(1)
    window = np.random.default_rng(1).normal(size=(5, 3))
    a = forward_point(params, window)
    b = forward_point(params, window)
    assert a.shape == (3,)
    np.testing.assert_array_equal(a, b)


def test_quantile_softplus_ladder():
    # 1x1 identity mixer, zero head: levels are (0, ln 2, 2 ln 2)
    shapes = ParamSet.shapes(1, 1, 2, 3)
    params = ParamSet(*[np.zeros(s) for _, s in shapes])
    params.mix[0, 0] = 1.0
    pred = forward_quantiles(params, np.zeros((4, 1)), (0.1, 0.5, 0.9))
    assert isinstance(pred, QuantilePrediction)
    np.testing.assert_allclose(
        pred.values[:, 0], [0.0, np.log(2.0), 2.0 * np.log(2.0)], atol=1e-15)


def test_latent_quantiles_never_cross():
    from poolcast.model import _gru_forward, _quantiles_from_hidden
    rng = np.random.default_rng(0)
    for trial in range(50):
        params = tiny_params(trial, jitter=1.0)
        window = rng.normal(scale=3.0, size=(5, 3))
        h, _ = _gru_forward(params, window[None])
        _, latents, _ = _quantiles_from_hidden(params, h)
        diffs = np.diff(latents, axis=1)
        assert np.all(diffs >= 0.0)


def test_single_level_grid():
    shapes = ParamSet.shapes(2, 2, 3, 1)
    params = ParamSet(*[np.random.default_rng(0).normal(size=s) for _, s in shapes])
    pred = forward_quantiles(params, np.zeros((4, 2)), (0.5,))
    assert pred.values.shape == (1, 2)


def test_median_index_prefers_half():
    assert median_index((0.1, 0.5, 0.9)) == 1
    assert median_index((0.25, 0.75)) == 0  # tie resolved to the lower index


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------


def compose_manually(params, window, h, mode, levels=None):
    """Test-only oracle: h explicit one-step forwards with window shifting."""
    x = window.copy()
    for step in range(h):
        if mode == "point":
            pred = forward_point(params, x)
            fan = None
        else:
            fan = forward_quantiles(params, x, levels).values
            pred = fan[median_index(levels)]
        if step < h - 1:
            x = np.concatenate([x[1:], pred[None, :]], axis=0)
    return pred if mode == "point" else fan


@pytest.mark.parametrize("mode", ["point", "quantile"])
def test_rollout_equals_composition_oracle(mode):
    params = tiny_params(5)
    window = np.random.default_rng(5).normal(size=(5, 3))
    levels = (0.1, 0.5, 0.9)
    for h in (1, 2, 3):
        got = rollout(params, window, h, mode=mode, levels=levels)
        want = compose_manually(params, window, h, mode, levels)
        if mode == "point":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_array_equal(got.values, want)


def test_rollout_h1_is_forward():
    params = tiny_params(6)
    window = np.random.default_rng(6).normal(size=(5, 3))
    np.testing.assert_array_equal(rollout(params, window, 1, mode="point"),
                                  forward_point(params, window))


def test_rollout_median_path_ignores_upper_increments():
    # zeroing the head rows that produce the above-median increment leaves the
    # h=2 median path bitwise unchanged
    params = tiny_params(8)
    window = np.random.default_rng(8).normal(size=(5, 3))
    levels = (0.1, 0.5, 0.9)
    r = params.latent
    zeroed = params.copy()
    zeroed.w_quant[2 * r:, :] = 0.0   # increment feeding only the 0.9 level
    zeroed.b_quant[2 * r:] = 0.0
    med = median_index(levels)
    a = rollout(params, window, 2, mode="quantile", levels=levels)
    b = rollout(zeroed, window, 2, mode="quantile", levels=levels)
    np.testing.assert_array_equal(a.values[med], b.values[med])
    assert not np.array_equal(a.values[2], b.values[2])


def test_rollout_rejects_bad_horizon():
    params = tiny_params(0)
    with pytest.raises(ValueError):
        rollout(params, np.zeros((5, 3)), 0, mode="point")


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
    assert a.max_diff(b) == 0.0


def test_training_fits_constant_target():
    # constant target is representable by bias terms when the mixer is square
    rng = np.random.default_rng(0)
    params = init_params(p_dim=2, latent=2, hidden=8, n_levels=3, seed=0)
    x = rng.normal(scale=0.1, size=(64, 4, 2))
    y = np.full((64, 2), 0.7)
    cfg = TrainConfig(w=4, epochs=400, batch=64, lr=3e-3, seed=0)
    fitted = train(params, None, x, y, cfg)
    final = huber(forward_point(fitted, x), np.broadcast_to(y, (64, 2)), 1.0)
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
        dists.append(np.sqrt(fitted.specialized_sq_distance(anchor)))
    assert dists[0] > dists[1] > dists[2]


def test_extreme_anchor_pins_parameters():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 5, 3))
    y = rng.normal(size=(60, 3))
    anchor = tiny_params(4)
    cfg = TrainConfig(w=5, epochs=5, batch=20, l2sp_weight=1e6, lr=1e-4, seed=0)
    fitted = train(anchor, anchor, x, y, cfg)
    assert fitted.max_diff(anchor, specialized_only=True) < 1e-3
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


def reference_train(initial, anchor, x, y, cfg):
    """train() spelled out from the public step functions, with a fresh
    gradient ParamSet on every step."""
    params = initial.copy()
    skip_mix = anchor is not None
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


@pytest.mark.parametrize("mode,anchored", [("point", False), ("quantile", False),
                                           ("point", True), ("quantile", True)])
def test_train_with_reused_gradient_buffer_is_bitwise_reference(mode, anchored):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(70, 5, 3))  # 70 = 4 batches of 16 and one of 6
    y = rng.normal(size=(70, 3))
    init = tiny_params(6)
    anchor = tiny_params(7) if anchored else None
    cfg = TrainConfig(w=5, epochs=3, batch=16, mode=mode, clip=0.5, seed=2)
    fitted = train(init, anchor, x, y, cfg)
    expected = reference_train(init, anchor, x, y, cfg)
    assert fitted.flat.tobytes() == expected.flat.tobytes()
    assert fitted.max_diff(init) > 0.0


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
        tiled = np.concatenate([t.ravel() for t in other.tensors()])
        np.testing.assert_array_equal(tiled, np.arange(other.flat.size))
        assert other.spec_offset == params.spec_offset


def test_unpickled_paramset_tensors_are_views_of_its_buffer():
    params = tiny_params(2)
    clone = pickle.loads(pickle.dumps(params))
    assert clone.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(clone.flat, params.flat)
    for name, t in zip(ParamSet.NAMES, clone.tensors()):
        assert np.shares_memory(t, clone.flat), name
    clone.flat[:] = np.arange(clone.flat.size)
    tiled = np.concatenate([t.ravel() for t in clone.tensors()])
    np.testing.assert_array_equal(tiled, np.arange(clone.flat.size))


def test_gru_forward_saturates_without_overflow_warning():
    params = tiny_params(3)
    params.flat *= 100.0
    x = np.full((4, 5, 3), 30.0)
    x[1::2] *= -1.0
    y = np.zeros((4, 3))
    pre = x[:, 0] @ params.mix.T @ params.w_update.T
    assert np.abs(pre).max() > 1000.0  # exp(-pre) overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, _ = _gru_forward(params, x)
        loss_and_gradients(params, None, x, y, TrainConfig(w=5, mode="quantile"))
    assert np.isfinite(h).all()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = tiny_params(9)
    path = str(tmp_path / "model.pcm")
    save_checkpoint(params, w=5, mode="quantile", path=path)
    loaded, w, mode = load_checkpoint(path)
    assert (w, mode) == (5, "quantile")
    assert loaded.max_diff(params) == 0.0
    with open(path, "rb") as fh:
        assert fh.read(4) == b"PCM1"


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pcm"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))
