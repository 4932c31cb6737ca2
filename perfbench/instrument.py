"""Which program functions the traced run wraps, and the per-layer metrics
computed from the resulting spans and counters.

Every wrapped function is public API of its module (or a public method of a
public class), so the trace needs no change to the program. Work counts and
counters are computed after each span closes and do not inflate its time.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Tracer

MODULES = ("poolcast", "poolcast.cli", "poolcast.pipeline", "poolcast.data",
           "poolcast.model", "poolcast.losses", "poolcast.clustering",
           "poolcast.calibration", "poolcast.baselines", "poolcast.synthetic")

# audit phases, as ``AccessAudit.set_phase`` names them, mapped to metrics
PHASE_METRICS = {
    "fit-global": "pipeline.fit_global_s",
    "fit-prototypes": "clustering.fit_prototypes_s",
    "reassign": "clustering.reassign_s",
    "fallback": "clustering.fallback_s",
    "refit": "clustering.refit_s",
    "calibrate": "clustering.calibrate_s",
    "evaluate": "clustering.evaluate_s",
}


def _n_windows(args, result):
    return len(result[0])


def _train_work(args, result):
    epochs = args["epochs"] if args["epochs"] is not None else args["cfg"].epochs
    return len(args["x"]) * epochs


def _batch_work(args, result):
    return len(args["x"])


def _rollout_work(args, result):
    window = np.asarray(args["window"])
    return 1 if window.ndim == 2 else len(window)


def _score_work(args, result):
    prepared, cfg, h = args["prepared"], args["cfg"], args["h"]
    series = args["series"]
    n_series = prepared.n_series if series is None else len(series)
    return n_series * prepared.window_index(args["tag"], cfg.w, [h]).count(h)


def _outer_loop(tracer, args, result):
    tracer.counters["clustering.outer_iters"] += result.assignment.iterations


def _fit_prototypes(tracer, args, result):
    _, inert = result
    tracer.counters["clustering.protos_trained"] += int((~inert).sum())


def _fallback(tracer, args, result):
    tracer.counters["clustering.protos_kept"] += sum(
        not f for f in result.flagged)


def _final_refit(tracer, args, result):
    assignment, flags = args["assignment"], args["flags"]
    if assignment is not None and flags is not None:
        routed = np.asarray(flags.flagged)[assignment.labels]
        tracer.counters["fallback.routed"] += int(routed.sum())
        tracer.counters["fallback.series"] += len(routed)


def _calibrate(tracer, args, result):
    target = args["target_coverage"]
    for h, (med, lo, hi, tv) in args["streams"].items():
        tracer.counters["fan.crossed"] += int(np.sum(hi < lo))
        tracer.counters["fan.pairs"] += hi.size
        s = result.factors[h]
        lo_s, hi_s = med - s * (med - lo), med + s * (hi - med)
        coverage = float(np.mean((tv >= lo_s) & (tv <= hi_s)))
        tracer.counters["calibration.horizons"] += 1
        tracer.counters["calibration.reached"] += int(coverage >= target)


# (module, attribute, span name, work, observe); a dotted attribute names a
# method of a class in that module
TARGETS = (
    ("data", "load_dataset", "data.load_dataset", None, None),
    ("data", "prepare", "data.prepare", None, None),
    ("data", "PreparedData.windows", "data.windows", _n_windows, None),
    ("model", "train", "model.train", _train_work, None),
    ("model", "loss_and_gradients", "model.loss_and_gradients", _batch_work,
     None),
    ("model", "Adam.step", "model.adam_step", None, None),
    ("model", "clip_gradients_", "model.clip_gradients", None, None),
    ("model", "rollout", "model.rollout", _rollout_work, None),
    ("model", "save_checkpoint", "model.save_checkpoint", None, None),
    ("model", "load_checkpoint", "model.load_checkpoint", None, None),
    ("losses", "per_series_split_losses", "losses.score", _score_work, None),
    ("clustering", "select_k", "clustering.select_k", None, None),
    ("clustering", "outer_loop", "clustering.outer_loop", None, _outer_loop),
    ("clustering", "fit_prototypes", "clustering.fit_prototypes", None,
     _fit_prototypes),
    ("clustering", "compute_cost_matrix", "clustering.cost_matrix", None, None),
    ("clustering", "compute_fallback", "clustering.compute_fallback", None,
     _fallback),
    ("clustering", "val_risk_pair", "clustering.val_risk_pair", None, None),
    ("clustering", "val_calibration_streams", "clustering.calibration_streams",
     None, None),
    ("clustering", "final_refit_and_test", "clustering.final_refit_and_test",
     None, _final_refit),
    ("clustering", "assign_new_series", "clustering.assign_new_series", None,
     None),
    ("calibration", "calibrate", "calibration.calibrate", None, _calibrate),
    ("baselines", "kmeans", "baselines.kmeans", None, None),
    ("baselines", "fit_baseline", "baselines.fit_baseline", None, None),
    ("baselines", "training_feature_vectors", "baselines.features", None, None),
    ("pipeline", "load_manifest", "pipeline.load_manifest", None, None),
    ("pipeline", "save_manifest", "pipeline.save_manifest", None, None),
    ("pipeline", "load_prepared", "pipeline.load_prepared", None, None),
    ("pipeline", "cmd_prepare", "pipeline.cmd_prepare", None, None),
    ("pipeline", "cmd_select_k", "pipeline.cmd_select_k", None, None),
    ("pipeline", "cmd_evaluate", "pipeline.cmd_evaluate", None, None),
    ("pipeline", "cmd_report", "pipeline.cmd_report", None, None),
    ("pipeline", "cmd_forecast_new", "pipeline.cmd_forecast_new", None, None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target, count ParamSet constructions made while training,
    and turn audit phase transitions into phase spans."""
    modules = [importlib.import_module(m) for m in MODULES]
    for mod_name, attr, name, work, observe in TARGETS:
        mod = importlib.import_module(f"poolcast.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            tracer.patch(cls, meth, tracer.wrap(getattr(cls, meth), name,
                                                work, observe))
        else:
            old = getattr(mod, attr)
            if not tracer.rebind(modules, old, tracer.wrap(old, name, work,
                                                           observe)):
                raise RuntimeError(f"poolcast.{mod_name}.{attr} not found")

    model = importlib.import_module("poolcast.model")
    data = importlib.import_module("poolcast.data")
    init, set_phase = model.ParamSet.__init__, data.AccessAudit.set_phase

    def counting_init(self, *tensors):
        if tracer.active and tracer.open_names["model.train"]:
            tracer.counters["model.paramset_allocs"] += 1
        init(self, *tensors)

    def traced_set_phase(self, phase):
        if tracer.active:
            tracer.phase(id(self), phase)
        set_phase(self, phase)

    tracer.patch(model.ParamSet, "__init__", counting_init)
    tracer.patch(data.AccessAudit, "set_phase", traced_set_phase)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics over every span and counter the tracer holds."""
    calls, secs, work = tracer.totals()
    c = tracer.counters
    m = {
        "data.load_calls": calls["data.load_dataset"],
        "data.load_s": secs["data.load_dataset"],
        "data.prepare_s": secs["data.prepare"],
        "data.windows_calls": calls["data.windows"],
        "data.windows_s": secs["data.windows"],
        "data.windows_gathered": work["data.windows"],
        "model.train_calls": calls["model.train"],
        "model.train_s": secs["model.train"],
        "model.train_windows": work["model.train"],
        "model.step_us_per_window": 1e6 * _ratio(
            secs["model.loss_and_gradients"], work["model.loss_and_gradients"]),
        "model.adam_us_per_step": 1e6 * _ratio(secs["model.adam_step"],
                                               calls["model.adam_step"]),
        "model.clip_us_per_step": 1e6 * _ratio(secs["model.clip_gradients"],
                                               calls["model.clip_gradients"]),
        "model.paramset_allocs_per_step": _ratio(c["model.paramset_allocs"],
                                                 calls["model.adam_step"]),
        "model.rollout_calls": calls["model.rollout"],
        "model.rollout_us_per_window": 1e6 * _ratio(secs["model.rollout"],
                                                    work["model.rollout"]),
        "model.ckpt_loads": calls["model.load_checkpoint"],
        "model.ckpt_saves": calls["model.save_checkpoint"],
        "model.ckpt_io_s": secs["model.load_checkpoint"]
        + secs["model.save_checkpoint"],
        "model.diverged": tracer.errors[("model.train", "TrainingDiverged")],
        "model.fan_cross_share": _ratio(c["fan.crossed"], c["fan.pairs"]),
        "losses.score_calls": calls["losses.score"],
        "losses.score_s": secs["losses.score"],
        "losses.scored_windows": work["losses.score"],
        "clustering.sweep_runs": calls["clustering.compute_fallback"],
        "clustering.outer_iters": c["clustering.outer_iters"],
        "clustering.protos_trained": c["clustering.protos_trained"],
        "clustering.protos_kept": c["clustering.protos_kept"],
        "clustering.fallback_share": _ratio(c["fallback.routed"],
                                            c["fallback.series"]),
        "clustering.route_s": secs["clustering.assign_new_series"],
        "calibration.calibrate_s": secs["calibration.calibrate"],
        "calibration.reached_share": _ratio(c["calibration.reached"],
                                            c["calibration.horizons"]),
        "baselines.kmeans_calls": calls["baselines.kmeans"],
        "baselines.kmeans_s": secs["baselines.kmeans"],
        "baselines.fit_baseline_s": secs["baselines.fit_baseline"],
        "pipeline.manifest_io_s": secs["pipeline.load_manifest"]
        + secs["pipeline.save_manifest"],
        "pipeline.forecast_new_s": secs["pipeline.cmd_forecast_new"],
    }
    for phase, name in PHASE_METRICS.items():
        m[name] = secs[f"phase.{phase}"]
    for layer, s in tracer.self_times().items():
        m[f"{layer}.self_s"] = s
    return m
