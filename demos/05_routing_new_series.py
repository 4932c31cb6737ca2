"""Routing newly observed series through the frozen model set.

After a run is finished, a fresh series from the same context is assigned by
evaluating one-step loss on an initial observed segment under the pooled
model and every specializable prototype. The pooled model wins ties and wins
whenever no prototype strictly improves, so pure-noise segments fall back.
"""

import numpy as np

from poolcast import clustering
from poolcast.data import MtsDataset, SplitSpec, prepare
from poolcast.model import TrainConfig, derive_seed, init_params, rollout, train
from poolcast.synthetic import SyntheticSpec, generate

spec = SyntheticSpec(n_series=18, n_times=360, n_components=6, n_regimes=3, seed=11)
ds, labels = generate(spec)
# hold the last 60 steps of every series out entirely: they play the role of
# "newly observed segments" arriving after deployment
deploy_segments = ds.values[:, 300:, :]
fitting = MtsDataset(ds.values[:, :300, :].copy(), list(ds.names))

prepared = prepare(fitting, SplitSpec(200, 50, 50))
cfg = TrainConfig(w=8, epochs=10, batch=64, seed=0)
prepared.audit.set_phase("fit-global")
x, y = prepared.windows("tr", 1, cfg.w)
pooled = train(init_params(6, 5, 16, cfg.n_levels, seed=derive_seed(0, "init")), None, x, y, cfg)
truth = clustering.Assignment(labels.copy(), 3)
prototypes, _ = clustering.fit_prototypes(prepared, truth, pooled, cfg,
                                          proto_epochs=10)
# each cluster keeps its prototype only if it lowers its members' VAL loss
own = clustering.group_val_losses(
    prepared, [(prototypes[k], truth.members(k)) for k in range(3)], cfg)
pooled_losses = clustering.group_val_losses(
    prepared, [(pooled, np.arange(prepared.n_series))], cfg)
flags = clustering.compute_fallback(
    clustering.cluster_val_means(truth, own, pooled_losses))
print("fallback flags:", flags.flagged)

hits = 0
for i in range(spec.n_series):
    segment = prepared.standardizer.transform(deploy_segments[i])
    routed = clustering.assign_new_series(segment, pooled, prototypes, flags, cfg)
    hits += int(routed == labels[i])
print(f"routed {hits}/{spec.n_series} held-out segments to their true regime")

rng = np.random.default_rng(0)
noise = rng.normal(size=(60, 6))
routed = clustering.assign_new_series(noise, pooled, prototypes, flags, cfg)
print(f"pure-noise segment routes to: "
      f"{'pooled model' if routed < 0 else f'prototype {routed}'}")

segment = prepared.standardizer.transform(deploy_segments[4])
routed = clustering.assign_new_series(segment, pooled, prototypes, flags, cfg)
chosen = pooled if routed < 0 else prototypes[routed]
# the fans of one window; a point model's forecast is the fan's point level
path = rollout(chosen, segment[None, -cfg.w:], 6, cfg)
forecast = path[..., cfg.point_level, :][0, -1]
print(f"\nseries 4 routes to prototype {routed}; 6-step-ahead forecast "
      f"(standardized): {np.round(forecast[:4], 3)} ...")
print("forecast in raw units:",
      np.round(prepared.standardizer.inverse(forecast)[:4], 3), "...")
