"""Run-directory orchestration: configuration, manifest, and command flows.

A run directory is the unit of reproducibility. Everything written into it
(manifest, checkpoints, reports, plot data) is a deterministic function of
the configuration, the seed, and the dataset bytes; no timestamps or other
environment noise are recorded. The manifest doubles as the protocol guard:
it stores the frozen fallback flags, the phase-tagged access-audit counters,
and a marker that flips the first time TEST is evaluated so a second
evaluation of the same run id is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, clustering, losses, model
from .data import (DataError, PreparedData, SplitSpec, Standardizer,
                   atomic_open, load_dataset, prepare, save_csv, save_packed)
from .model import ParamSet, TrainConfig, derive_seed
from .synthetic import SyntheticSpec, generate


class ConfigError(Exception):
    """Bad or inconsistent run configuration."""


class ProtocolError(Exception):
    """Violation of the single-use-TEST protocol."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s) -> tuple:
    if isinstance(s, (list, tuple)):
        return tuple(int(v) for v in s)
    return tuple(int(v) for v in str(s).split(",") if v.strip())


def _parse_float_list(s) -> tuple:
    if isinstance(s, (list, tuple)):
        return tuple(float(v) for v in s)
    return tuple(float(v) for v in str(s).split(",") if v.strip())


@dataclass
class RunConfig:
    """Every knob of the pipeline; parsed from a plain key = value file."""

    data_dir: str = ""
    data_format: str = "csv"
    csv_header: bool = False
    impute: str = "mean"
    eps: float = 1e-8
    t_train: int = 0
    t_val: int = 0
    t_test: int = 0
    window: int = 12
    latent: int = 0              # 0 resolves to min(16, P)
    hidden: int = 32
    mode: str = "point"
    quantiles: tuple = (0.1, 0.5, 0.9)
    huber_delta: float = 1.0
    epochs: int = 30
    proto_epochs: int = 15
    refit_epochs: int = 0        # 0 resolves to epochs // 2
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    batch: int = 64
    l2sp: float = 1e-3
    clip: float = 5.0
    seed: int = 0
    method: str = "cluster"
    k: int = 0                   # 0 means "take the select-k result"
    k_candidates: tuple = (2, 3, 4, 5, 6, 7, 8, 9)
    selection_seeds: tuple = (0, 1, 2, 3, 4)
    gamma: float = 0.05
    max_outer_iters: int = 10
    assign_horizons: tuple = (1, 3, 6)
    horizons: tuple = (1, 3, 6)
    init: str = "random_balanced"
    coverage_target: float = 0.8
    run_dir: str = "run"

    PARSERS = {
        "data_dir": str, "data_format": str, "csv_header": _parse_bool,
        "impute": str, "eps": float,
        "t_train": int, "t_val": int, "t_test": int,
        "window": int, "latent": int, "hidden": int, "mode": str,
        "quantiles": _parse_float_list, "huber_delta": float,
        "epochs": int, "proto_epochs": int, "refit_epochs": int,
        "lr": float, "beta1": float, "beta2": float, "eps_adam": float,
        "batch": int, "l2sp": float, "clip": float, "seed": int,
        "method": str, "k": int, "k_candidates": _parse_int_list,
        "selection_seeds": _parse_int_list, "gamma": float,
        "max_outer_iters": int, "assign_horizons": _parse_int_list,
        "horizons": _parse_int_list, "init": str, "coverage_target": float,
        "run_dir": str,
    }

    def set_key(self, key: str, raw: str) -> None:
        if key not in self.PARSERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            setattr(self, key, self.PARSERS[key](raw))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None

    @classmethod
    def from_file(cls, path: str, overrides=()) -> "RunConfig":
        cfg = cls()
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in text.split("=", 1))
            cfg.set_key(key, raw)
        cfg.apply_overrides(overrides)
        cfg.validate()
        return cfg

    def apply_overrides(self, overrides) -> None:
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, raw = (part.strip() for part in item.split("=", 1))
            self.set_key(key, raw)

    def validate(self) -> None:
        if self.method not in baselines.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.mode not in ("point", "quantile"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.impute not in ("mean", "median"):
            raise ConfigError(f"unknown imputation {self.impute!r}")
        if self.init not in ("random_balanced", "feature"):
            raise ConfigError(f"unknown init strategy {self.init!r}")
        if self.data_format not in ("csv", "packed", "pems"):
            raise ConfigError(f"unknown data format {self.data_format!r}")
        if not (0.0 < self.coverage_target < 1.0):
            raise ConfigError("coverage_target must lie in (0, 1)")

    # resolved values -------------------------------------------------------

    def split_spec(self) -> SplitSpec:
        if min(self.t_train, self.t_val, self.t_test) <= 0:
            raise ConfigError("t_train, t_val, t_test must all be set and positive")
        return SplitSpec(self.t_train, self.t_val, self.t_test)

    def resolved_latent(self, p_dim: int) -> int:
        return self.latent if self.latent > 0 else min(16, p_dim)

    def resolved_refit_epochs(self) -> int:
        return self.refit_epochs if self.refit_epochs > 0 else max(1, self.epochs // 2)

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                w=self.window, epochs=self.epochs, lr=self.lr, beta1=self.beta1,
                beta2=self.beta2, eps_adam=self.eps_adam, batch=self.batch,
                l2sp_weight=self.l2sp, huber_delta=self.huber_delta,
                quantiles=tuple(self.quantiles), seed=self.seed, mode=self.mode,
                clip=self.clip)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def selection_config(self, candidates=None) -> clustering.SelectionConfig:
        try:
            return clustering.SelectionConfig(
                candidates=tuple(candidates if candidates is not None
                                 else self.k_candidates),
                seeds=tuple(self.selection_seeds), gamma=self.gamma,
                max_outer_iters=self.max_outer_iters,
                assign_horizons=tuple(self.assign_horizons),
                init_strategy=self.init)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def min_segment(self) -> int:
        return self.window + max(tuple(self.horizons) + tuple(self.assign_horizons))

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    # fields that must not silently differ between train-time and evaluate-time
    IDENTITY_KEYS = ("data_dir", "data_format", "csv_header", "impute", "eps",
                     "t_train", "t_val", "t_test", "window", "latent", "hidden",
                     "mode", "quantiles", "huber_delta", "epochs",
                     "proto_epochs", "lr", "beta1", "beta2", "eps_adam",
                     "batch", "l2sp", "clip", "seed", "method")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, "manifest.json")


def load_manifest(run_dir: str) -> dict:
    path = _manifest_path(run_dir)
    if not os.path.exists(path):
        raise DataError(f"no manifest in {run_dir}; run prepare/train first")
    with open(path) as fh:
        return json.load(fh)


def save_manifest(run_dir: str, manifest: dict) -> None:
    os.makedirs(run_dir, exist_ok=True)
    with atomic_open(_manifest_path(run_dir)) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _record_audit(manifest: dict, prepared: PreparedData, stage: str) -> None:
    log = manifest.setdefault("audit", {})
    stage_log = log.setdefault(stage, {})
    for phase in prepared.audit._touched:
        counts = prepared.audit.counts(phase)
        stage_log[phase] = {"train": counts["tr"], "val": counts["va"],
                            "test": counts["te"]}


def _check_identity(cfg: RunConfig, manifest: dict) -> None:
    stored = manifest.get("config", {})
    current = cfg.as_dict()
    for key in RunConfig.IDENTITY_KEYS:
        if key in stored and stored[key] != current[key]:
            raise ConfigError(
                f"config key {key!r} differs from the trained run "
                f"({stored[key]!r} there, {current[key]!r} now)")


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------


def load_prepared(cfg: RunConfig) -> PreparedData:
    if not cfg.data_dir:
        raise ConfigError("data_dir is not set")
    ds = load_dataset(cfg.data_dir, fmt=cfg.data_format, header=cfg.csv_header)
    return prepare(ds, cfg.split_spec(), eps=cfg.eps, impute=cfg.impute,
                   min_segment=cfg.min_segment())


def _fit_global(prepared: PreparedData, cfg: RunConfig) -> ParamSet:
    tc = cfg.train_config()
    prepared.audit.set_phase("fit-global")
    x, y = prepared.windows("tr", 1, tc.w)
    fresh = model.init_params(prepared.dataset.n_components,
                              cfg.resolved_latent(prepared.dataset.n_components),
                              cfg.hidden, len(tc.quantiles),
                              derive_seed(cfg.seed, "init-global"))
    fit_cfg = dataclasses.replace(tc, seed=derive_seed(cfg.seed, "fit-global"))
    return model.train(fresh, None, x, y, fit_cfg)


def _checkpoint_dir(run_dir: str) -> str:
    path = os.path.join(run_dir, "checkpoints")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_prepare(cfg: RunConfig, prepared: PreparedData | None = None) -> dict:
    """Start the run's manifest from the config and the TRAIN standardizer;
    ``prepared`` saves loading the dataset when the caller already has it."""
    if prepared is None:
        prepared = load_prepared(cfg)
    manifest = {
        "config": cfg.as_dict(),
        "standardizer": {
            "mu": prepared.standardizer.mu.tolist(),
            "sigma": prepared.standardizer.sigma.tolist(),
            "eps": prepared.standardizer.eps,
        },
        "n_series": prepared.n_series,
        "n_components": prepared.dataset.n_components,
        "test_evaluated": False,
    }
    save_manifest(cfg.run_dir, manifest)
    return manifest


def _store_cluster_artifacts(cfg: RunConfig, manifest: dict, run_dir: str,
                             result) -> None:
    ckpt = _checkpoint_dir(run_dir)
    proto_paths = []
    for k, proto in enumerate(result.prototypes):
        path = os.path.join(ckpt, f"proto_{k:02d}.pcm")
        model.save_checkpoint(proto, cfg.window, cfg.mode, path)
        proto_paths.append(path)
    manifest.update({
        "k": result.k_star,
        "selection_seed": result.seed_star,
        "assignment": result.assignment.labels.tolist(),
        "iterations": result.assignment.iterations,
        "flags": list(result.flags.flagged),
        "label_trace": [t.tolist() for t in result.label_trace],
        "selection_table": [
            {"k": r.k, "seed": r.seed, "sel_abs": r.sel_abs, "sel_pen": r.sel_pen,
             "iterations": r.iterations, "converged": r.converged,
             "global_risk": r.global_risk}
            for r in result.table],
        "prototype_checkpoints": proto_paths,
    })


def _train_core(cfg: RunConfig, candidates) -> tuple[dict, PreparedData]:
    """Shared body of the train and select-k commands."""
    prepared = load_prepared(cfg)
    manifest = cmd_prepare(cfg, prepared)  # refresh config + standardizer snapshot
    tc = cfg.train_config()

    global_params = _fit_global(prepared, cfg)
    ckpt = _checkpoint_dir(cfg.run_dir)
    global_path = os.path.join(ckpt, "global.pcm")
    model.save_checkpoint(global_params, cfg.window, cfg.mode, global_path)
    manifest["checkpoint_global"] = global_path
    manifest["method"] = cfg.method

    if cfg.method == "cluster":
        features = (baselines.training_feature_vectors(prepared)
                    if cfg.init == "feature" else None)
        sel_cfg = cfg.selection_config(candidates)
        result = clustering.select_k(prepared, global_params, tc, sel_cfg,
                                     cfg.proto_epochs, features=features)
        _store_cluster_artifacts(cfg, manifest, cfg.run_dir, result)
    elif cfg.method in ("feat_kmeans", "random_balanced"):
        sel_cfg = cfg.selection_config(candidates)
        fit = baselines.fit_baseline(cfg.method, prepared, global_params, tc,
                                     sel_cfg, cfg.proto_epochs)
        result = clustering.SelectionResult(
            fit.k, fit.seed, fit.selection_table, fit.assignment, fit.flags,
            fit.prototypes, [fit.assignment.labels])
        _store_cluster_artifacts(cfg, manifest, cfg.run_dir, result)
    elif cfg.method == "individual":
        fit = baselines.fit_baseline("individual", prepared, global_params, tc,
                                     cfg.selection_config(), cfg.proto_epochs)
        paths = []
        for i, params in enumerate(fit.individual_models):
            path = os.path.join(ckpt, f"individual_{i:04d}.pcm")
            model.save_checkpoint(params, cfg.window, cfg.mode, path)
            paths.append(path)
        manifest["individual_checkpoints"] = paths
    # method == "global": nothing beyond the pooled checkpoint

    _record_audit(manifest, prepared, "train")
    save_manifest(cfg.run_dir, manifest)
    return manifest, prepared


def cmd_train(cfg: RunConfig) -> dict:
    """Fit GLOBAL plus the configured method at a fixed K."""
    if cfg.method in ("cluster", "feat_kmeans", "random_balanced"):
        if cfg.k <= 0:
            raise ConfigError("train needs k > 0 for clustered methods "
                              "(or use select-k)")
        candidates = (cfg.k,)
    else:
        candidates = None
    manifest, _ = _train_core(cfg, candidates)
    return manifest


def cmd_select_k(cfg: RunConfig) -> dict:
    """Sweep all candidate K values and seeds; keep the penalized best."""
    if cfg.method not in ("cluster", "feat_kmeans", "random_balanced"):
        raise ConfigError(f"select-k does not apply to method {cfg.method!r}")
    manifest, _ = _train_core(cfg, None)
    table_path = os.path.join(cfg.run_dir, "selection.csv")
    with atomic_open(table_path) as fh:
        fh.write("k,seed,sel_abs,sel_pen,global_risk,iterations,converged\n")
        for row in manifest["selection_table"]:
            fh.write(f"{row['k']},{row['seed']},{row['sel_abs']!r},"
                     f"{row['sel_pen']!r},{row['global_risk']!r},"
                     f"{row['iterations']},{row['converged']}\n")
    return manifest


def _load_trained(cfg: RunConfig, manifest: dict):
    global_params, _, _ = model.load_checkpoint(manifest["checkpoint_global"])
    assignment = flags = prototypes = individual = None
    if cfg.method in ("cluster", "feat_kmeans", "random_balanced"):
        labels = np.asarray(manifest["assignment"], dtype=np.int64)
        assignment = clustering.Assignment(labels, int(manifest["k"]))
        flags = clustering.FallbackFlags(flagged=tuple(manifest["flags"]))
        prototypes = [model.load_checkpoint(p)[0]
                      for p in manifest["prototype_checkpoints"]]
    elif cfg.method == "individual":
        individual = [model.load_checkpoint(p)[0]
                      for p in manifest["individual_checkpoints"]]
    return global_params, assignment, flags, prototypes, individual


def cmd_evaluate(cfg: RunConfig) -> dict:
    """Final refit on TRAIN+VAL and the one permitted TEST evaluation."""
    manifest = load_manifest(cfg.run_dir)
    _check_identity(cfg, manifest)
    if manifest.get("test_evaluated"):
        raise ProtocolError(
            f"run {cfg.run_dir!r} already evaluated TEST; refusing a second use")
    if "checkpoint_global" not in manifest:
        raise DataError("no trained checkpoints in this run; run train/select-k")
    # flip the marker before any TEST value is touched: a crash mid-way
    # must not leave a second evaluation possible
    manifest["test_evaluated"] = True
    save_manifest(cfg.run_dir, manifest)

    prepared = load_prepared(cfg)
    tc = cfg.train_config()
    global_params, assignment, flags, prototypes, individual = _load_trained(cfg, manifest)

    artifacts = clustering.final_refit_and_test(
        prepared, assignment, flags, global_params, prototypes, tc,
        horizons=tuple(cfg.horizons), method=cfg.method,
        refit_epochs=cfg.resolved_refit_epochs(),
        coverage_target=cfg.coverage_target,
        individual_models=individual)

    run_dir = cfg.run_dir
    report_json = os.path.join(run_dir, "report.json")
    with atomic_open(report_json) as fh:
        json.dump({"method": cfg.method,
                   "rows": artifacts.report.to_records()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    artifacts.report.to_csv(os.path.join(run_dir, "report.csv"))
    _write_plot_data(cfg, prepared, artifacts)

    ckpt = _checkpoint_dir(run_dir)
    refit_global_path = os.path.join(ckpt, "refit_global.pcm")
    model.save_checkpoint(artifacts.refit_global, cfg.window, cfg.mode,
                          refit_global_path)
    manifest["checkpoint_refit_global"] = refit_global_path
    routed_paths = []
    seen = {}
    for i, params in enumerate(artifacts.routed_models):
        key = id(params)
        if key not in seen:
            if params is artifacts.refit_global:
                seen[key] = refit_global_path
            else:
                path = os.path.join(ckpt, f"refit_routed_{len(seen):02d}.pcm")
                model.save_checkpoint(params, cfg.window, cfg.mode, path)
                seen[key] = path
        routed_paths.append(seen[key])
    manifest["routed_checkpoints"] = routed_paths
    manifest["calibration"] = (artifacts.calibration.as_dict()
                               if artifacts.calibration else None)
    manifest["report"] = {"json": report_json,
                          "csv": os.path.join(run_dir, "report.csv")}
    _record_audit(manifest, prepared, "evaluate")
    save_manifest(run_dir, manifest)
    return manifest


def _write_plot_data(cfg: RunConfig, prepared: PreparedData, artifacts) -> None:
    """CSV payloads for error-distribution and trajectory panels."""
    plot_dir = os.path.join(cfg.run_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    tc = cfg.train_config()
    for h in cfg.horizons:
        ref = artifacts.series_mse[("global", h)]
        m = artifacts.series_mse.get((cfg.method, h), ref)
        with open(os.path.join(plot_dir, f"improvement_h{h}.csv"), "w") as fh:
            fh.write("series,mse_method,mse_global,improvement_pct\n")
            for i, name in enumerate(prepared.dataset.names):
                imp = 100.0 * (ref[i] - m[i]) / ref[i] if ref[i] else 0.0
                fh.write(f"{name},{m[i]!r},{ref[i]!r},{imp!r}\n")
    # trajectories of the first component for a few series across TEST
    n_show = min(3, prepared.n_series)
    for h in cfg.horizons:
        rows = []
        for i in range(n_show):
            x, y = prepared.per_series_windows("te", h, tc.w, [i])
            _, nw, w, p = x.shape
            xf = x.reshape(nw, w, p)
            ends = prepared.window_index("te", tc.w, [h]).end_times[h]
            if cfg.mode == "quantile":
                fan_g = model.rollout(artifacts.refit_global, xf, h,
                                      mode="quantile", levels=tc.quantiles)
                fan_m = model.rollout(artifacts.routed_models[i], xf, h,
                                      mode="quantile", levels=tc.quantiles)
                med = model.median_index(tc.quantiles)
                pred_g, pred_m = fan_g[:, med], fan_m[:, med]
            else:
                pred_g = model.rollout(artifacts.refit_global, xf, h, mode="point")
                pred_m = model.rollout(artifacts.routed_models[i], xf, h, mode="point")
            for j, t_end in enumerate(ends):
                rows.append((prepared.dataset.names[i], int(t_end + h),
                             y[0, j, 0], pred_g[j, 0], pred_m[j, 0]))
        with open(os.path.join(plot_dir, f"trajectory_h{h}.csv"), "w") as fh:
            fh.write("series,time,actual,pred_global,pred_method\n")
            for name, t, actual, pg, pm in rows:
                fh.write(f"{name},{t},{actual!r},{pg!r},{pm!r}\n")


def _read_segment(path: str, p_dim: int, csv_header: bool) -> np.ndarray:
    from .data import _load_csv_file, load_packed
    if path.endswith(".csv"):
        seg = _load_csv_file(path, csv_header)
    else:
        ds = load_packed(path)
        if ds.n_series != 1:
            raise DataError(f"{path}: expected a single-series packed file")
        seg = np.where(ds.mask[0], ds.values[0], np.nan)
    if seg.shape[1] != p_dim:
        raise DataError(
            f"segment has {seg.shape[1]} components, the run expects {p_dim}")
    return seg


def cmd_forecast_new(cfg: RunConfig, segment_path: str,
                     out_path: str | None = None) -> dict:
    """Route a new series through the frozen models and forecast ahead."""
    manifest = load_manifest(cfg.run_dir)
    _check_identity(cfg, manifest)
    if "checkpoint_refit_global" not in manifest:
        raise DataError("run evaluate first: routing uses the final refit models")
    std = Standardizer(mu=np.asarray(manifest["standardizer"]["mu"]),
                       sigma=np.asarray(manifest["standardizer"]["sigma"]),
                       eps=float(manifest["standardizer"]["eps"]))
    tc = cfg.train_config()
    raw = _read_segment(segment_path, len(std.mu), cfg.csv_header)
    filled = np.where(np.isfinite(raw), raw, std.mu)
    segment = std.transform(filled)

    refit_global, _, _ = model.load_checkpoint(manifest["checkpoint_refit_global"])
    prototypes, flags = [], None
    if cfg.method in ("cluster", "feat_kmeans", "random_balanced"):
        flags = clustering.FallbackFlags(flagged=tuple(manifest["flags"]))
        routed_paths = manifest["routed_checkpoints"]
        labels = manifest["assignment"]
        by_cluster = {}
        for i, path in enumerate(routed_paths):
            by_cluster.setdefault(labels[i], path)
        prototypes = [model.load_checkpoint(by_cluster[k])[0]
                      if k in by_cluster else refit_global
                      for k in range(int(manifest["k"]))]
    else:
        flags = clustering.FallbackFlags(flagged=())

    routed_id = clustering.assign_new_series(segment, refit_global, prototypes,
                                             flags, tc)
    chosen = refit_global if routed_id < 0 else prototypes[routed_id]
    window = segment[-tc.w:]
    forecasts = {}
    for h in cfg.horizons:
        if cfg.mode == "quantile":
            fan = model.rollout(chosen, window, h, mode="quantile",
                                levels=tc.quantiles)
            std_vals = fan.values
            forecasts[str(h)] = {
                "levels": list(fan.levels),
                "standardized": std_vals.tolist(),
                "raw": std.inverse(std_vals).tolist(),
            }
        else:
            pred = model.rollout(chosen, window, h, mode="point")
            forecasts[str(h)] = {"standardized": pred.tolist(),
                                 "raw": std.inverse(pred).tolist()}
    result = {
        "routed_model": "global" if routed_id < 0 else f"prototype_{routed_id}",
        "routed_id": routed_id,
        "forecasts": forecasts,
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def cmd_synth(out_dir: str, fmt: str = "csv", n_series: int = 30,
              n_times: int = 300, n_components: int = 8, n_regimes: int = 3,
              alpha: float = 1.0, noise: float = 0.2, seed: int = 0) -> dict:
    """Write a synthetic dataset plus its ground-truth regime labels."""
    spec = SyntheticSpec(n_series=n_series, n_times=n_times,
                         n_components=n_components, n_regimes=n_regimes,
                         heterogeneity=alpha, noise_scale=noise, seed=seed)
    ds, labels = generate(spec)
    os.makedirs(out_dir, exist_ok=True)
    if fmt == "csv":
        data_path = os.path.join(out_dir, "series")
        save_csv(ds, data_path)
    elif fmt == "packed":
        data_path = os.path.join(out_dir, "data.mts")
        save_packed(ds, data_path)
    else:
        raise ConfigError(f"unknown synth format {fmt!r}")
    labels_path = os.path.join(out_dir, "labels.csv")
    with open(labels_path, "w") as fh:
        fh.write("series,regime\n")
        for name, lab in zip(ds.names, labels):
            fh.write(f"{name},{lab}\n")
    return {"data": data_path, "labels": labels_path,
            "n_series": n_series, "n_times": n_times}


def cmd_report(run_dirs, out_path: str | None = None,
               paper_scale: bool = False) -> list[dict]:
    """Merge evaluated runs into one comparison table."""
    merged = []
    for run_dir in run_dirs:
        manifest = load_manifest(run_dir)
        report_path = manifest.get("report", {}).get("json")
        if not report_path or not os.path.exists(report_path):
            raise DataError(f"{run_dir}: no evaluation report; run evaluate")
        with open(report_path) as fh:
            payload = json.load(fh)
        for row in payload["rows"]:
            rec = dict(row)
            if paper_scale:
                for key in losses.MetricRow.LOSS_FIELDS:
                    if rec.get(key) is not None:
                        rec[key] = rec[key] * 100.0
            rec["run"] = run_dir
            merged.append(rec)
    if out_path:
        cols = ("run",) + losses.MetricTable.COLUMNS
        with open(out_path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for rec in merged:
                fh.write(",".join(
                    "" if rec.get(c) is None else str(rec.get(c))
                    for c in cols) + "\n")
    return merged
