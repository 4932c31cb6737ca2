"""Choosing the number of clusters by penalized validation risk.

Every candidate K is run from several random balanced initializations; each
run reports its routed VAL risk (after fallback) and the penalized score
adding gamma * K / N. The winner is the penalized minimum, with ties going
to the smaller K and then the smaller seed. The true number of regimes here
is 3.
"""

from poolcast import clustering
from poolcast.data import SplitSpec, prepare
from poolcast.model import TrainConfig, derive_seed, init_params, train
from poolcast.synthetic import SyntheticSpec, generate, adjusted_rand_index

ds, true_labels = generate(SyntheticSpec(seed=7))
prepared = prepare(ds, SplitSpec(200, 50, 50))
cfg = TrainConfig(w=8, epochs=10, batch=64, seed=0)

prepared.audit.set_phase("fit-global")
x, y = prepared.windows("tr", 1, cfg.w)
pooled = train(init_params(8, 6, 16, cfg.n_levels, seed=derive_seed(0, "init")), None, x, y, cfg)

sel = clustering.SelectionConfig(candidates=(2, 3, 4, 5), seeds=(0, 1, 2),
                                 gamma=0.05, max_outer_iters=3,
                                 assign_horizons=(1,))
result = clustering.select_k(prepared, pooled, cfg, sel, proto_epochs=8)

print(" K  seed   SelAbs    SelPen   iters  converged")
for row in result.table:
    kept = (row["k"], row["seed"]) == (result.k_star, result.seed_star)
    print(f"{row['k']:>2}  {row['seed']:>4}  {row['sel_abs']:.5f}  "
          f"{row['sel_pen']:.5f}  {row['iterations']:>5}  "
          f"{str(row['converged']):>9}{' <-- selected' if kept else ''}")

best_per_k = {}
for row in result.table:
    best_per_k.setdefault(row["k"], []).append(row["sel_pen"])
print("\nbest penalized score per K:",
      {k: float(round(min(v), 5)) for k, v in sorted(best_per_k.items())})
print(f"selected K* = {result.k_star} (true number of regimes: 3)")
print(f"ARI of the selected run vs truth: "
      f"{adjusted_rand_index(result.assignment.labels, true_labels):.2f}")
