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

import contextlib
import dataclasses
import glob
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, clustering, losses, model
from .calibration import CalibrationTable
from .data import (DataError, PreparedData, SplitSpec, Standardizer,
                   atomic_open, load_dataset, prepare, save_csv, save_packed,
                   write_csv)
from .model import ParamSet, TrainConfig, derive_seed
from .synthetic import SyntheticSpec, generate


# methods that fit cluster prototypes and route through fallback flags
CLUSTERED_METHODS = ("cluster", "feat_kmeans", "random_balanced")


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


def _parser(default):
    """The parser of a config value, by the type of the key's default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        item = type(default[0])
        return lambda s: tuple(item(v) for v in s.split(",") if v.strip())
    return type(default)


@dataclass
class RunConfig:
    """Every knob of the pipeline, parsed from a plain key = value file; the
    field list is the one declaration of each key, its type and default."""

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

    @classmethod
    def from_file(cls, path: str, overrides=()) -> "RunConfig":
        """Read the ``key = value`` lines of ``path``, then the ``key=value``
        overrides, and check every key."""
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        entries = [(f"{path}:{lineno}", text)
                   for lineno, line in enumerate(lines, 1)
                   if (text := line.split("#", 1)[0].strip())]
        entries += [("override", item) for item in overrides]
        parsers = {f.name: _parser(f.default) for f in fields(cls)}
        cfg = cls()
        for where, text in entries:
            key, sep, raw = (part.strip() for part in text.partition("="))
            if not sep:
                raise ConfigError(f"{where}: expected key = value, got {text!r}")
            if key not in parsers:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                setattr(cfg, key, parsers[key](raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every key, those of :meth:`train_config` and
        :meth:`selection_config` included, before anything is written."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.method not in baselines.METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.impute not in ("mean", "median"):
            raise ConfigError(f"unknown imputation {self.impute!r}")
        if self.data_format not in ("csv", "packed", "pems"):
            raise ConfigError(f"unknown data format {self.data_format!r}")
        if not (0.0 < self.coverage_target < 1.0):
            raise ConfigError("coverage_target must lie in (0, 1)")
        for key, low in (("hidden", 1), ("latent", 0), ("eps", 0),
                         ("proto_epochs", 0), ("refit_epochs", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        hs = self.horizons
        if not hs or min(hs) < 1 or len(set(hs)) != len(hs):
            raise ConfigError(f"need one or more distinct horizons >= 1, got {list(hs)}")
        try:
            self.train_config()
            self.selection_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

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
        return TrainConfig(
            w=self.window, epochs=self.epochs, lr=self.lr, beta1=self.beta1,
            beta2=self.beta2, eps_adam=self.eps_adam, batch=self.batch,
            l2sp_weight=self.l2sp, huber_delta=self.huber_delta,
            quantiles=self.quantiles, seed=self.seed, mode=self.mode,
            clip=self.clip)

    def selection_config(self, candidates=None) -> clustering.SelectionConfig:
        return clustering.SelectionConfig(
            candidates=candidates or self.k_candidates,
            seeds=self.selection_seeds, gamma=self.gamma,
            max_outer_iters=self.max_outer_iters,
            assign_horizons=self.assign_horizons, init_strategy=self.init)

    def min_segment(self) -> int:
        """Window length + longest horizon: the shortest segment that
        :meth:`SplitSpec.validate` accepts. It leaves TRAIN at least one
        window, and VAL and TEST at least w + 1, at every horizon of the run,
        so a CLI run never reaches the refusal of a horizon with no window
        in :meth:`PreparedData.window_index`."""
        return self.window + max(tuple(self.horizons) + tuple(self.assign_horizons))

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    # the fields that may differ between training and evaluate or
    # forecast-new; every other field must match the trained run's
    FREE_KEYS = ("refit_epochs", "k", "k_candidates", "selection_seeds", "gamma",
                 "max_outer_iters", "assign_horizons", "horizons", "init",
                 "coverage_target", "run_dir")


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _manifest_path(run_dir: str) -> str:
    return os.path.join(run_dir, "manifest.json")


_NUMBER = (int, float)
# the type of each manifest field that evaluate, forecast-new and report
# read: a type or tuple of types, [type] for a list of it, {key: type} for
# an object with those keys, {int: type} for an object whose keys are
# integers, and (kind, kind) for either of two kinds
MANIFEST_TYPES = {
    "config": dict, "n_series": int, "n_components": int, "k": int,
    "assignment": [int], "flags": [bool],
    "calibration": (type(None), {"target": _NUMBER, "factors": {int: _NUMBER}}),
    "standardizer": {"mu": [_NUMBER], "sigma": [_NUMBER], "eps": _NUMBER,
                     "fill": [_NUMBER]},
    "report": bool,
}


# a report.json row: every report column, the losses, percentages, coverage
# and width numbers or null (None)
REPORT_ROW_TYPES = dict(dict.fromkeys(losses.REPORT_COLUMNS, _NUMBER + (type(None),)),
                        method=str, horizon=int)


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_type(v, kind[0]) for v in value)
    if isinstance(kind, dict) and int in kind:  # JSON keys are strings
        return isinstance(value, dict) and all(
            k.isdecimal() and _has_type(v, kind[int]) for k, v in value.items())
    if isinstance(kind, dict):
        return isinstance(value, dict) and all(
            k in value and _has_type(value[k], t) for k, t in kind.items())
    if isinstance(kind, tuple):
        return any(_has_type(value, k) for k in kind)
    # JSON true and false are bools, which Python also counts as ints
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def load_manifest(run_dir: str) -> dict:
    """The run's manifest; one that is not a JSON object, has a field of
    another type than :data:`MANIFEST_TYPES` gives or a calibration that
    cannot be served, is a :class:`DataError`."""
    path = _manifest_path(run_dir)
    if not os.path.exists(path):
        raise DataError(f"no manifest in {run_dir}; run prepare/train first")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"unreadable manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"unreadable manifest {path}: not a JSON object")
    for key, kind in MANIFEST_TYPES.items():
        if key in manifest and not _has_type(manifest[key], kind):
            raise DataError(f"unreadable manifest {path}: field {key!r} "
                            f"has the wrong type")
    # one label per series, one flag per cluster, one standardizer entry per
    # component, and every label one of the k clusters; a missing field is
    # left to the command that needs it (:func:`_require`)
    n, k, p = (manifest.get(key) for key in ("n_series", "k", "n_components"))
    std = manifest.get("standardizer", {})
    for name, value, size in (
            ("assignment", manifest.get("assignment"), n),
            ("flags", manifest.get("flags"), k),
            *((f"standardizer.{key}", std.get(key), p)
              for key in ("mu", "sigma", "fill"))):
        if value is not None and size is not None and len(value) != size:
            raise DataError(f"unreadable manifest {path}: field {name!r} "
                            f"does not have {size} entries")
    if k is not None and not all(0 <= label < k
                                 for label in manifest.get("assignment", ())):
        raise DataError(f"unreadable manifest {path}: a label of 'assignment' "
                        f"is not one of its k = {k} clusters")
    # a factor or scale that is not finite and > 0, or a mean or fill that is
    # not finite, would serve a NaN, collapsed or inverted forecast
    calib = manifest.get("calibration")
    if calib and not (0 < calib["target"] < 1 and all(
            0 < s < math.inf for s in calib["factors"].values())):
        raise DataError(f"unreadable manifest {path}: field 'calibration' needs "
                        f"a target in (0, 1) and finite factors > 0")
    if std and not (all(map(math.isfinite, std["mu"] + std["fill"]))
                    and all(0 < s < math.inf for s in std["sigma"])):
        raise DataError(f"unreadable manifest {path}: field 'standardizer' "
                        f"needs finite entries and scales sigma > 0")
    return manifest


# the manifest fields a clustered run's evaluate and forecast-new require
CLUSTER_FIELDS = ("assignment", "k", "flags")


def _require(manifest: dict, run_dir: str, keys) -> None:
    """A :class:`DataError` naming the first of ``keys`` the manifest lacks
    or holds as null."""
    for key in keys:
        if manifest.get(key) is None:
            raise DataError(f"unreadable manifest {_manifest_path(run_dir)}: "
                            f"no field {key!r}")


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write a command's output at ``path`` into a
    :class:`DataError`."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def save_manifest(run_dir: str, manifest: dict) -> None:
    with _writing(run_dir):
        os.makedirs(run_dir, exist_ok=True)
        with atomic_open(_manifest_path(run_dir)) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _record_audit(manifest: dict, prepared: PreparedData, stage: str) -> None:
    log = manifest.setdefault("audit", {})
    stage_log = log.setdefault(stage, {})
    for phase in prepared.audit.phases():
        counts = prepared.audit.counts(phase)
        stage_log[phase] = {"train": counts["tr"], "val": counts["va"],
                            "test": counts["te"]}


def _check_identity(cfg: RunConfig, manifest: dict) -> None:
    stored = manifest.get("config", {})
    for key, value in cfg.as_dict().items():
        if (key not in RunConfig.FREE_KEYS and key in stored
                and stored[key] != value):
            raise ConfigError(
                f"config key {key!r} differs from the trained run "
                f"({stored[key]!r} there, {value!r} now)")


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
                              cfg.hidden, tc.n_levels,
                              derive_seed(cfg.seed, "init-global"))
    fit_cfg = dataclasses.replace(tc, seed=derive_seed(cfg.seed, "fit-global"))
    return model.train(fresh, None, x, y, fit_cfg)


def _checkpoint(cfg: RunConfig, role: str, index: int = 0,
                refit: bool = False) -> str:
    """The path of the run's checkpoint of ``role`` and cluster or series
    ``index``: the one declaration of every checkpoint name, which the
    manifest does not store. A refit checkpoint is ``refit_`` plus the name
    of the checkpoint it was refit from."""
    name = {"global": "global.pcm", "proto": f"proto_{index:02d}.pcm",
            "individual": f"individual_{index:04d}.pcm"}[role]
    return os.path.join(cfg.run_dir, "checkpoints", "refit_" * refit + name)


def _save_params(cfg: RunConfig, params: ParamSet, role: str, index: int = 0,
                 refit: bool = False) -> None:
    """Write ``params`` to the run's checkpoint of ``role`` (:func:`_checkpoint`);
    every checkpoint a run writes goes through here, and a failure to write
    it is a :class:`DataError`."""
    path = _checkpoint(cfg, role, index, refit)
    with _writing(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        model.save_checkpoint(params, cfg.window, cfg.mode, path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_prepare(cfg: RunConfig, prepared: PreparedData | None = None) -> dict:
    """Start the run's manifest from the config and the TRAIN standardizer;
    ``prepared`` saves loading the dataset when the caller already has it.
    A run that evaluated TEST is not restarted, which would reset its marker."""
    if (os.path.exists(_manifest_path(cfg.run_dir))
            and load_manifest(cfg.run_dir).get("test_evaluated")):
        raise ProtocolError(f"run {cfg.run_dir!r} already evaluated TEST; "
                            f"refusing to train it again")
    if prepared is None:
        prepared = load_prepared(cfg)
    manifest = {
        "config": cfg.as_dict(),
        "standardizer": prepared.standardizer.as_dict(),
        "n_series": prepared.n_series,
        "n_components": prepared.dataset.n_components,
        "test_evaluated": False,
    }
    # a fresh manifest has no selection table or trained model, so the last
    # training's go
    for path in [os.path.join(cfg.run_dir, "selection.csv"), *glob.glob(
            os.path.join(glob.escape(cfg.run_dir), "checkpoints", "*.pcm"))]:
        with _writing(path), contextlib.suppress(FileNotFoundError):
            os.remove(path)
    save_manifest(cfg.run_dir, manifest)
    return manifest


def _store_cluster_artifacts(cfg: RunConfig, manifest: dict, result) -> None:
    manifest.update({
        "k": result.k_star,
        "selection_seed": result.seed_star,
        "assignment": result.assignment.labels.tolist(),
        "iterations": result.assignment.iterations,
        "flags": list(result.flags.flagged),
        "label_trace": [t.tolist() for t in result.label_trace],
        "selection_table": result.table,
    })
    for k, proto in enumerate(result.prototypes):
        _save_params(cfg, proto, "proto", k)
    path = os.path.join(cfg.run_dir, "selection.csv")
    with _writing(path):
        losses.write_report_csv(path, result.table, clustering.SELECTION_COLUMNS)


def _train_core(cfg: RunConfig, candidates) -> dict:
    """Shared body of the train and select-k commands."""
    prepared = load_prepared(cfg)
    if cfg.method in CLUSTERED_METHODS:
        for k in candidates or cfg.k_candidates:
            if k > prepared.n_series:
                raise ConfigError(f"K candidate {k} exceeds the number of "
                                  f"series N={prepared.n_series}")
    manifest = cmd_prepare(cfg, prepared)  # refresh config + standardizer snapshot
    tc = cfg.train_config()

    global_params = _fit_global(prepared, cfg)
    _save_params(cfg, global_params, "global")
    manifest["method"] = cfg.method

    if cfg.method in CLUSTERED_METHODS:
        sel_cfg = cfg.selection_config(candidates)
        if cfg.method == "cluster":
            features = (baselines.training_feature_vectors(prepared)
                        if cfg.init == "feature" else None)
            result = clustering.select_k(prepared, global_params, tc, sel_cfg,
                                         cfg.proto_epochs, features=features)
        else:
            result = baselines.fit_baseline(cfg.method, prepared, global_params,
                                            tc, sel_cfg, cfg.proto_epochs)
        _store_cluster_artifacts(cfg, manifest, result)
    elif cfg.method == "individual":
        for i, params in enumerate(baselines.fit_individual(
                prepared, global_params, tc)):
            _save_params(cfg, params, "individual", i)
    # method == "global": nothing beyond the pooled checkpoint

    _record_audit(manifest, prepared, "train")
    save_manifest(cfg.run_dir, manifest)
    return manifest


def cmd_train(cfg: RunConfig) -> dict:
    """Fit GLOBAL plus the configured method at a fixed K."""
    if cfg.method in CLUSTERED_METHODS:
        if cfg.k <= 0:
            raise ConfigError("train needs k > 0 for clustered methods "
                              "(or use select-k)")
        candidates = (cfg.k,)
    else:
        candidates = None
    return _train_core(cfg, candidates)


def cmd_select_k(cfg: RunConfig) -> dict:
    """Sweep all candidate K values and seeds; keep the penalized best."""
    if cfg.method not in CLUSTERED_METHODS:
        raise ConfigError(f"select-k does not apply to method {cfg.method!r}")
    return _train_core(cfg, None)


def _load_params(cfg: RunConfig, tc: TrainConfig, p_dim: int, role: str,
                 index: int = 0, refit: bool = False) -> ParamSet:
    """The parameters of the run's checkpoint of ``role`` (:func:`_checkpoint`);
    one that is missing, unreadable or not the run's model (by its header,
    against ``cfg`` and its train config ``tc``) is a :class:`DataError`."""
    path = _checkpoint(cfg, role, index, refit)
    try:
        params, w, mode = model.load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    found = (params.p_dim, params.latent, params.hidden, params.n_levels, w, mode)
    expected = (p_dim, cfg.resolved_latent(p_dim), cfg.hidden,
                tc.n_levels, tc.w, tc.mode)
    if found != expected:
        raise DataError(f"checkpoint {path} is not the run's model: (P, latent, "
                        f"hidden, levels, window, mode) {found}, not {expected}")
    return params


def _load_trained(cfg: RunConfig, tc: TrainConfig, manifest: dict, p_dim: int):
    global_params = _load_params(cfg, tc, p_dim, "global")
    assignment = flags = prototypes = individual = None
    if cfg.method in CLUSTERED_METHODS:
        _require(manifest, cfg.run_dir, CLUSTER_FIELDS)
        assignment = clustering.Assignment(manifest["assignment"], manifest["k"])
        flags = clustering.FallbackFlags(flagged=tuple(manifest["flags"]))
        prototypes = [_load_params(cfg, tc, p_dim, "proto", k)
                      for k in range(manifest["k"])]
    elif cfg.method == "individual":
        individual = [_load_params(cfg, tc, p_dim, "individual", i)
                      for i in range(manifest["n_series"])]
    return global_params, assignment, flags, prototypes, individual


def cmd_evaluate(cfg: RunConfig) -> dict:
    """Final refit on TRAIN+VAL and the one permitted TEST evaluation.

    Right before the first TEST read (``before_test``) one manifest save
    records the refit checkpoints, the calibration and the spent TEST marker;
    the reports and plots follow the TEST pass, and the manifest that names
    them is saved last."""
    manifest = load_manifest(cfg.run_dir)
    _check_identity(cfg, manifest)
    if manifest.get("test_evaluated"):
        raise ProtocolError(
            f"run {cfg.run_dir!r} already evaluated TEST; refusing a second use")
    if "method" not in manifest:
        raise DataError("no trained checkpoints in this run; run train/select-k")
    prepared = load_prepared(cfg)
    # another dataset shows in the series count or the TRAIN statistics
    if (manifest.get("n_series") != prepared.n_series
            or manifest.get("standardizer") != prepared.standardizer.as_dict()):
        raise DataError(f"{cfg.data_dir!r} is not the dataset run {cfg.run_dir!r} "
                        f"was trained on: its series count or TRAIN standardizer differs")
    tc = cfg.train_config()
    global_params, assignment, flags, prototypes, individual = _load_trained(
        cfg, tc, manifest, prepared.dataset.n_components)
    run_dir = cfg.run_dir

    def before_test(refit_global, groups, calibration):
        _save_params(cfg, refit_global, "global", refit=True)
        for params, ids in groups:
            # a refit individual model serves its one series, a refit
            # prototype its cluster's members
            if individual is not None:
                _save_params(cfg, params, "individual", ids[0], refit=True)
            elif params is not refit_global:
                label = assignment.labels[ids[0]]
                _save_params(cfg, params, "proto", label, refit=True)
        manifest.update({
            "calibration": calibration.as_dict() if calibration else None,
            "test_evaluated": True,
        })
        save_manifest(run_dir, manifest)

    artifacts = clustering.final_refit_and_test(
        prepared, assignment, flags, global_params, prototypes,
        tc, horizons=tuple(cfg.horizons), method=cfg.method,
        refit_epochs=cfg.resolved_refit_epochs(),
        coverage_target=cfg.coverage_target,
        individual_models=individual, before_test=before_test)

    report_json = os.path.join(run_dir, "report.json")
    report_csv = os.path.join(run_dir, "report.csv")
    with _writing(run_dir):
        with atomic_open(report_json) as fh:
            json.dump({"method": cfg.method, "rows": artifacts.report}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        losses.write_report_csv(report_csv, artifacts.report,
                                losses.REPORT_COLUMNS)
        _write_plot_data(cfg, prepared, artifacts)
    manifest["report"] = True  # the evaluation's outputs are complete
    _record_audit(manifest, prepared, "evaluate")
    save_manifest(run_dir, manifest)
    return manifest


def _write_plot_data(cfg: RunConfig, prepared: PreparedData, artifacts) -> None:
    """CSV payloads for error-distribution and trajectory panels."""
    plot_dir = os.path.join(cfg.run_dir, "plots")
    os.makedirs(plot_dir, exist_ok=True)
    for h in cfg.horizons:
        ref = artifacts.series_mse[("global", h)]
        m = artifacts.series_mse.get((cfg.method, h), ref)
        write_csv(os.path.join(plot_dir, f"improvement_h{h}.csv"),
                  [("series", "mse_method", "mse_global", "improvement_pct")]
                  + [(name, m[i], ref[i],
                      100.0 * (ref[i] - m[i]) / ref[i] if ref[i] else 0.0)
                     for i, name in enumerate(prepared.dataset.names)])
    # the first component of the evaluation's TEST forecasts for a few series;
    # the TEST windows' targets are the segment's last n steps
    t_end = prepared.spec.bounds("te")[1]
    for h in cfg.horizons:
        pooled, target = artifacts.trajectories[("global", h)]
        pred, _ = artifacts.trajectories.get((cfg.method, h), (pooled, target))
        n = target.shape[1]
        write_csv(os.path.join(plot_dir, f"trajectory_h{h}.csv"),
                  [("series", "time", "actual", "pred_global", "pred_method")]
                  + [(prepared.dataset.names[i], t_end - n + j,
                      target[i, j, 0], pooled[i, j, 0], pred[i, j, 0])
                     for i in range(len(target)) for j in range(n)])


def _read_segment(path: str, p_dim: int, w: int, csv_header: bool) -> np.ndarray:
    """The raw (length, P) segment of a new series; a :class:`DataError` when
    it cannot be read or is too short to hold one (window, target) pair."""
    from .data import _load_csv_file, load_packed
    try:
        if path.endswith(".csv"):
            seg = _load_csv_file(path, csv_header)
        else:
            ds = load_packed(path)
            if ds.n_series != 1:
                raise DataError(f"{path}: expected a single-series packed file")
            seg = ds.values[0]
    except OSError as exc:
        raise DataError(f"cannot read segment: {exc}") from None
    if seg.shape[1] != p_dim:
        raise DataError(
            f"segment has {seg.shape[1]} components, the run expects {p_dim}")
    if seg.shape[0] < w + 1:
        raise DataError(
            f"segment has {seg.shape[0]} steps; need at least w + 1 = {w + 1}")
    return seg


def cmd_forecast_new(cfg: RunConfig, segment_path: str,
                     out_path: str | None = None) -> dict:
    """Route a new series through the frozen models and forecast ahead; a
    quantile fan is served with every level calibrated as on TEST."""
    manifest = load_manifest(cfg.run_dir)
    _check_identity(cfg, manifest)
    if not manifest.get("test_evaluated"):
        raise DataError("run evaluate first: routing uses the final refit models")
    _require(manifest, cfg.run_dir, ("standardizer", "n_components")
             + (("calibration",) if cfg.mode == "quantile" else ())
             + (CLUSTER_FIELDS if cfg.method in CLUSTERED_METHODS else ()))
    calib = None
    if cfg.mode == "quantile":
        # before the segment or any checkpoint is read
        calib = CalibrationTable.from_dict(manifest["calibration"])
        for h in cfg.horizons:
            if h not in calib.factors:
                raise ConfigError(f"horizon {h} was not calibrated by evaluate "
                                  f"(calibrated: {sorted(calib.factors)})")
    std = Standardizer.from_dict(manifest["standardizer"])
    tc = cfg.train_config()
    p_dim = len(std.mu)
    segment = std.transform(_read_segment(segment_path, p_dim, tc.w, cfg.csv_header))

    refit_global = _load_params(cfg, tc, p_dim, "global", refit=True)
    # only a clustered run has flags; flagged clusters route to the pooled
    # model, which assign_new_series tries first, an unflagged cluster to its
    # refit prototype
    flags = clustering.FallbackFlags(flagged=tuple(manifest.get("flags", ())))
    prototypes = [refit_global if flagged
                  else _load_params(cfg, tc, p_dim, "proto", k, refit=True)
                  for k, flagged in enumerate(flags.flagged)]

    routed_id = clustering.assign_new_series(segment, refit_global, prototypes,
                                             flags, tc)
    chosen = refit_global if routed_id < 0 else prototypes[routed_id]
    # one rollout to the longest horizon serves every horizon
    fan = model.rollout(chosen, segment[None, -tc.w:], max(cfg.horizons), tc)[0]
    forecasts = {}
    for h in cfg.horizons:
        std_vals = fan[h - 1, tc.point_level]
        if calib is not None:
            std_vals = calib.apply(h, std_vals, fan[h - 1])
        forecasts[str(h)] = {"standardized": std_vals.tolist(),
                             "raw": std.inverse(std_vals).tolist()}
        if calib is not None:
            forecasts[str(h)]["levels"] = list(tc.quantiles)
    result = {
        "routed_model": "global" if routed_id < 0 else f"prototype_{routed_id}",
        "routed_id": routed_id,
        "forecasts": forecasts,
    }
    if out_path:
        with _writing(out_path), atomic_open(out_path) as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def cmd_synth(out_dir: str, fmt: str = "csv", n_series: int = 30,
              n_times: int = 300, n_components: int = 8, n_regimes: int = 3,
              alpha: float = 1.0, noise: float = 0.2, seed: int = 0) -> dict:
    """Write a synthetic dataset plus its ground-truth regime labels. Bad
    sizes, an ``alpha`` outside [0, 1] or a negative or non-finite ``noise``
    are a :class:`ConfigError`."""
    try:
        spec = SyntheticSpec(n_series=n_series, n_times=n_times,
                             n_components=n_components, n_regimes=n_regimes,
                             heterogeneity=alpha, noise_scale=noise, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"synth: {exc}") from None
    ds, labels = generate(spec)
    with _writing(out_dir):
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
        write_csv(labels_path,
                  [("series", "regime")] + list(zip(ds.names, labels)))
    return {"data": data_path, "labels": labels_path,
            "n_series": n_series, "n_times": n_times}


def cmd_report(run_dirs, out_path: str | None = None,
               paper_scale: bool = False) -> list[dict]:
    """Merge evaluated runs into one comparison table."""
    merged = []
    for run_dir in run_dirs:
        if not load_manifest(run_dir).get("report"):
            raise DataError(f"{run_dir}: no evaluation report; run evaluate")
        report_path = os.path.join(run_dir, "report.json")
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DataError(f"unreadable report {report_path}: {exc}") from None
        if not _has_type(report, {"rows": [REPORT_ROW_TYPES]}):
            raise DataError(f"unreadable report {report_path}: not a list of report rows")
        rows = report["rows"]
        if paper_scale:
            rows = losses.paper_scale(rows)
        merged += [dict(row, run=run_dir) for row in rows]
    if out_path:
        with _writing(out_path):
            losses.write_report_csv(out_path, merged,
                                    ("run",) + losses.REPORT_COLUMNS)
    return merged
