"""Strict chronological splitting and leakage-free preprocessing.

Everything the pipeline later consumes is fixed here: the TRAIN / VAL / TEST
cut, imputation fill values and per-component scales estimated from observed
TRAIN entries only, and the per-segment window indices. The punchline at the
end: replacing every VAL and TEST value with garbage does not move a single
bit of the fitted preprocessing.
"""

import numpy as np

from poolcast.data import MtsDataset, SplitSpec, fit_impute_standardize, prepare
from poolcast.synthetic import SyntheticSpec, generate

spec = SyntheticSpec(n_series=6, n_times=288, n_components=3, n_regimes=2, seed=0)
ds, labels = generate(spec)

# knock out a few observations to exercise imputation: NaN marks a missing
# value, with no separate mask
ds.values[0, 10, 1] = np.nan
ds.values[3, 250, 0] = np.nan   # missing inside TEST

split_spec = SplitSpec(t_train=200, t_val=40, t_test=48)
print("segments:", {tag: split_spec.bounds(tag) for tag in ("tr", "va", "te")})

standardizer, transformed = fit_impute_standardize(ds, split_spec)
print(f"per-component TRAIN mean: {np.round(standardizer.mu, 3)}")
print(f"per-component scale:      {np.round(standardizer.sigma, 3)}")
train_part = transformed.values[:, :200, :]
print(f"standardized TRAIN mean ~ 0: {np.abs(train_part.mean(axis=(0, 1))).max():.2e}")
print(f"imputed TEST cell (standardized units): {transformed.values[3, 250, 0]:+.4f}")

# window indices per segment: TRAIN windows stay inside TRAIN, while scored
# segments let the input window reach backward but keep the whole forecast
# path t+1 .. t+h inside the segment
prepared = prepare(ds, split_spec)
for tag in ("tr", "va", "te"):
    idx = prepared.window_index(tag, w=12, horizons=[1, 6])
    ends = {h: (int(e[0]) + 1, int(e[-1]) + 1, len(e)) for h, e in idx.end_times.items() if len(e)}
    print(f"{tag}: end-times (1-based first, last, count) per horizon: {ends}")

# leakage check: arbitrary finite garbage in VAL and TEST, same TRAIN
tampered = MtsDataset(ds.values.copy(), ds.names)
tampered.values[:, 200:, :] = 1234.5
standardizer_b, _ = fit_impute_standardize(tampered, split_spec)
same = (np.array_equal(standardizer.mu, standardizer_b.mu)
        and np.array_equal(standardizer.sigma, standardizer_b.sigma))
print(f"\nstandardizer bitwise identical after VAL+TEST tampering: {same}")

# the prepared bundle also records which segments each phase reads
prepared.audit.set_phase("fit-global")
prepared.windows("tr", 1, 12)
prepared.audit.set_phase("reassign")
prepared.windows("va", 1, 12)
print("reads by phase:", {ph: prepared.audit.counts(ph) for ph in ("fit-global", "reassign")})
print("TEST cells read so far:", prepared.audit.test_reads_outside(allowed=()))
