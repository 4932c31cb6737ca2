"""Quantile forecasting: non-crossing fans, pinball-driven routing, and
interval calibration.

The output head emits a base level plus softplus increments, so the latent
fan can never cross regardless of parameter values. Multi-step forecasts
feed the median path back; intervals are then widened (or sharpened) by a
per-horizon scalar chosen on VAL to hit the 80% coverage target.
"""

import numpy as np

from poolcast import clustering
from poolcast.losses import format_rows, interval_stats
from poolcast.data import SplitSpec, prepare
from poolcast.model import TrainConfig, derive_seed, init_params, rollout, train
from poolcast.synthetic import SyntheticSpec, generate

ds, _ = generate(SyntheticSpec(n_series=18, n_times=300, n_components=6,
                               n_regimes=3, seed=2))
prepared = prepare(ds, SplitSpec(200, 50, 50))
cfg = TrainConfig(w=8, epochs=12, batch=64, mode="quantile",
                  quantiles=(0.1, 0.5, 0.9), seed=0)

prepared.audit.set_phase("fit-global")
x, y = prepared.windows("tr", 1, cfg.w)
pooled = train(init_params(6, 5, 16, cfg.n_levels, seed=derive_seed(0, "init")), None, x, y, cfg)

window = prepared.dataset.values[0:1, 192:200, :]  # a batch of one window
# one rollout gives the whole path: step j of the fan is path[:, j - 1], and
# its point level (the median) is the forecast fed back at every step
path = rollout(pooled, window, 6, cfg)
fan, deep = path[:, 0], path[:, -1]
median = path[..., cfg.point_level, :]
print("median path, first component:", np.round(median[0, :, 0], 3))
print("one-step fan for one window, first three components:")
for level, row in zip(cfg.quantiles, fan[0]):
    print(f"  q={level:.1f}: {np.round(row[:3], 3)}")
print("monotone across levels:", bool(np.all(np.diff(fan[0], axis=0) >= -1e-12)))

print("\nsix-step-ahead fan widens:",
      float((fan[0, -1] - fan[0, 0]).mean()), "->",
      float((deep[0, -1] - deep[0, 0]).mean()))

sel = clustering.SelectionConfig(candidates=(3,), seeds=(0,),
                                 max_outer_iters=3, assign_horizons=(1,))
result = clustering.select_k(prepared, pooled, cfg, sel, proto_epochs=8)
art = clustering.final_refit_and_test(prepared, result.assignment, result.flags,
                                      pooled, result.prototypes, cfg,
                                      horizons=(1, 3, 6), refit_epochs=6,
                                      coverage_target=0.8)

print("\ncalibration factors per horizon:",
      {h: round(s, 3) for h, s in art.calibration.factors.items()})
streams = clustering.val_calibration_streams(prepared, art.groups,
                                             (1, 3, 6), cfg)
for h, (med, lo, hi, tv) in sorted(streams.items()):
    # the fan's two outer levels, rescaled about the median as served
    raw = interval_stats(tv, lo, hi)[0]
    cal = interval_stats(tv, *art.calibration.apply(h, med, np.stack([lo, hi])))[0]
    print(f"  h={h}: VAL coverage raw {raw:.3f} -> calibrated {cal:.3f}")

print("\nTEST report:")
print(format_rows(art.report))
