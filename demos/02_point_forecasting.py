"""Point forecasting with validation-driven clustering at a fixed K.

Walks the whole procedure once: pooled fit on TRAIN, alternating prototype
fitting and VAL reassignment, the frozen fallback decision, the TRAIN+VAL
refit, and the single TEST pass. Ground-truth regimes are known here, so the
recovered partition can be scored directly.
"""

import numpy as np

from poolcast import clustering
from poolcast.losses import format_rows
from poolcast.data import SplitSpec, prepare
from poolcast.model import TrainConfig, derive_seed, init_params, train
from poolcast.synthetic import SyntheticSpec, generate, adjusted_rand_index

ds, true_labels = generate(SyntheticSpec(n_series=18, n_times=300,
                                         n_components=6, n_regimes=3, seed=3))
prepared = prepare(ds, SplitSpec(200, 50, 50))
cfg = TrainConfig(w=8, epochs=10, batch=64, mode="point", seed=0)

prepared.audit.set_phase("fit-global")
x, y = prepared.windows("tr", 1, cfg.w)
print(f"pooled fit on {len(x)} TRAIN windows")
pooled = train(init_params(6, 5, 16, cfg.n_levels, seed=derive_seed(0, "init")), None, x, y, cfg)

sel = clustering.SelectionConfig(candidates=(3,), seeds=(0,),
                                 max_outer_iters=8, assign_horizons=(1, 3))
start = clustering.init_assignments(prepared.n_series, 3, seed=0)
loop = clustering.outer_loop(prepared, pooled, start, cfg, sel, proto_epochs=8)
print(f"outer loop: {loop.assignment.iterations} iterations, converged={loop.converged}")
for it, labels in enumerate(loop.label_trace):
    print(f"  iteration {it}: sizes {np.bincount(labels, minlength=3)}")
ari = adjusted_rand_index(loop.assignment.labels, true_labels)
print(f"agreement with true regimes: ARI = {ari:.2f}")

# each series' VAL loss under its own prototype comes from the loop's last
# cost matrix; the pooled model's is scored once
means = clustering.cluster_val_means(
    loop.assignment, loop.cost.own_losses(loop.assignment),
    clustering.group_val_losses(
        prepared, [(pooled, np.arange(prepared.n_series))], cfg))
flags = clustering.compute_fallback(means)
routed, pooled_risk = clustering.val_risk_pair(means, flags)
print(f"fallback flags: {flags.flagged}")
print(f"routed VAL risk {routed:.4f} <= pooled VAL risk {pooled_risk:.4f}")

art = clustering.final_refit_and_test(prepared, loop.assignment, flags, pooled,
                                      loop.prototypes, cfg, horizons=(1, 3, 6),
                                      refit_epochs=5)
print("\nTEST report (standardized units):")
print(format_rows(art.report))
print("\nTEST cells were read only by the evaluate phase:",
      prepared.audit.test_reads_outside(allowed=("evaluate",)) == 0)
