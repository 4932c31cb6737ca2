"""Losses, split forecasts and evaluation metrics.

Huber and pinball are the two training/selection losses; MSE and MAE are the
reporting metrics. Components are always averaged with equal weight, and in
the multi-quantile case levels are averaged too. Degenerate cases (no valid
windows) return None so callers can exclude the pair instead of biasing a
mean with zeros.
"""

from __future__ import annotations

import numpy as np

from .data import write_csv


def huber_elem(e: np.ndarray, delta: float, out: np.ndarray | None = None,
               quad: np.ndarray | None = None,
               small: np.ndarray | None = None) -> np.ndarray:
    """Elementwise Huber loss; written into ``out``, with ``quad`` (float)
    and ``small`` (bool) of e's shape as scratch, when given."""
    a = np.abs(e, out)
    small = np.less_equal(a, delta, small)
    quad = np.multiply(e, 0.5, quad)
    quad *= e
    a *= delta
    a -= 0.5 * delta * delta
    np.copyto(a, quad, where=small)
    return a


def huber_deriv(e: np.ndarray, delta: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """d huber_elem / d e (the prediction side carries the same sign)."""
    return np.clip(e, -delta, delta, out=out)


def loss_elem(kind: str, pred: np.ndarray, target: np.ndarray, cfg) -> np.ndarray:
    """Elementwise loss of forecasts against targets, unreduced.

    "huber", "mse" and "mae" compare point forecasts (..., P) with targets
    (..., P); "pinball" compares a quantile fan (..., Q, P) with targets
    (..., P) at the Q levels ``cfg.quantiles``, another Q a ``ValueError``.
    Huber uses ``cfg.huber_delta``.
    """
    if kind == "pinball":
        q = np.asarray(cfg.quantiles).reshape((-1, 1))
        if pred.shape[-2] != len(q):
            raise ValueError(f"{len(q)} levels given but fan has {pred.shape[-2]}")
        # rho_q(u) = u * (q - 1{u < 0}) with u = target - pred
        u = target[..., None, :] - pred
        return u * (q - (u < 0))
    e = pred - target
    if kind == "huber":
        return huber_elem(e, cfg.huber_delta)
    if kind == "mse":
        return e * e
    if kind == "mae":
        return np.abs(e)
    raise ValueError(f"unknown loss kind {kind!r}")


def objective(fan: np.ndarray, cfg) -> tuple:
    """``(kind, forecast)`` of the mode's objective on a fan (..., L, P): Huber
    on its point level, or pinball on the whole fan in quantile mode. Every
    mode-following loss (routing, cost matrix, batch loss) chooses it here."""
    return (("pinball", fan) if cfg.mode == "quantile"
            else ("huber", fan[..., cfg.point_level, :]))


# ---------------------------------------------------------------------------
# split forecasts and per-series split losses
# ---------------------------------------------------------------------------


def _join(parts: list):
    """Group arrays concatenated in group order; one group's array is
    returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def split_forecasts(groups, prepared, tag: str, horizons, cfg):
    """Forecasts of one segment at every horizon, one rollout per
    ``(params, series)`` group, as one panel.

    Returns ``(series, by_horizon)``: the groups' series ids concatenated in
    group order, and per horizon h the ``(fan, target)`` of those S rows:
    the h-step fans (S, n_h, L, P) and the targets (S, n_h, P), over the
    n_h windows of the segment at h (n_h = 0 when it has none). Each
    group's rows are exactly its own forecasts; a single group's arrays are
    not copied. Every split forecast runs through here.

    A series' windows slide by one row, so each group gathers them once and
    passes each series to :func:`model.rollout` as one run: the first
    window, then each later window's last row. The rollout then projects
    each row once and resumes every later step from the state a neighbouring
    window reached on the rows they share, bitwise as if every window were
    rolled out on its own.
    """
    from . import model  # deferred: model depends on this module for losses

    horizons = tuple(horizons)
    h_first, h_last = min(horizons), max(horizons)
    index = prepared.window_index(tag, cfg.w, horizons)
    paths = []
    for params, series in groups:
        # Every horizon's end times start at the same first end time, so the
        # windows of a longer horizon are a prefix of the shortest horizon's,
        # and the target of window i at h is the shortest horizon's target of
        # window i + h - h_first. One gather thus serves every horizon, and
        # one rollout to the longest horizon forecasts them all.
        x, y = prepared.windows(tag, h_first, cfg.w, series)
        s, n, p = len(series), index.count(h_first), y.shape[-1]
        if n:  # each series' windows as one run
            x = x.reshape(s, n, cfg.w, p)
            x = np.concatenate([x[:, 0], x[:, 1:, -1]], axis=1)
        fan = model.rollout(params, x, h_last, cfg)
        paths.append((fan.reshape(s, n, h_last, fan.shape[-2], p),
                      y.reshape(s, n, p)))
    by_horizon = {}
    for h in horizons:
        n_h, lag = index.count(h), h - h_first
        by_horizon[h] = tuple(_join(parts) for parts in zip(*(
            (fan[:, :n_h, h - 1], y[:, lag:lag + n_h]) for fan, y in paths)))
    return _join([series for _, series in groups]), by_horizon


def series_means(kind: str, pred: np.ndarray, target: np.ndarray, cfg) -> np.ndarray:
    """Per-series mean :func:`loss_elem` of forecasts (S, n, ...) against
    targets (S, n, P): the mean over each window's elements, then over the
    windows."""
    per = loss_elem(kind, pred, target, cfg)
    return per.mean(axis=tuple(range(2, per.ndim))).mean(axis=1)


def horizon_losses(kind: str | None, forecast: tuple, cfg) -> np.ndarray | None:
    """Per-series mean ``kind`` loss of one horizon's ``(fan, target)``
    from :func:`split_forecasts`, or None when the segment has no windows at
    that horizon. ``kind`` None scores the mode's :func:`objective`;
    "pinball" scores the fan; the point losses score its point level."""
    fan, y = forecast
    if y.shape[1] == 0:
        return None
    kind, pred = objective(fan, cfg) if kind is None else (
        kind, fan if kind == "pinball" else fan[..., cfg.point_level, :])
    return series_means(kind, pred, y, cfg)


def per_series_split_losses(params, prepared, tag: str, h: int, cfg,
                            kind: str | None = None,
                            series=None) -> np.ndarray | None:
    """Per-series mean forecasting loss on one segment at one horizon.

    Uses recursive rollout for h > 1. ``kind`` overrides the mode's
    :func:`objective` (any :func:`loss_elem` kind, scored as in
    :func:`horizon_losses`). Returns an array of shape
    (n_series_selected,), or None when the window index is empty.
    """
    if series is None:
        series = np.arange(prepared.n_series)
    _, by_horizon = split_forecasts([(params, series)], prepared, tag, (h,),
                                    cfg)
    return horizon_losses(kind, by_horizon[h], cfg)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def interval_stats(target: np.ndarray, lower: np.ndarray, upper: np.ndarray
                   ) -> tuple[float, float]:
    """(coverage, mean width) of elementwise intervals."""
    target = np.asarray(target, dtype=np.float64)
    inside = (target >= lower) & (target <= upper)
    return float(inside.mean()), float(np.mean(upper - lower))


# the columns of a report row, in table order
REPORT_COLUMNS = ("method", "horizon", "mse", "mae", "pinball", "coverage",
                  "width", "delta_pct", "ben_pct", "fb_pct")


def summarize_method(method: str, horizon: int,
                     series_mse: np.ndarray, series_mae: np.ndarray,
                     reference_series_mse: np.ndarray,
                     fallback_share: float,
                     series_pinball: np.ndarray | None = None,
                     coverage: float | None = None,
                     width: float | None = None) -> dict:
    """Aggregate per-series TEST losses into one report row, the record
    ``report.json`` stores (keys :data:`REPORT_COLUMNS`; pinball, coverage
    and width are None in point mode).

    delta_pct and ben_pct compare per-series MSE against the pooled reference
    model on the same windows; ties count as not benefited.
    """
    mu = float(np.mean(series_mse))
    mu_ref = float(np.mean(reference_series_mse))
    delta = 100.0 * (mu_ref - mu) / mu_ref if mu_ref != 0 else 0.0
    ben = 100.0 * float(np.mean(series_mse < reference_series_mse))
    return {
        "method": method, "horizon": horizon,
        "mse": mu, "mae": float(np.mean(series_mae)),
        "pinball": None if series_pinball is None else float(np.mean(series_pinball)),
        "coverage": coverage, "width": width,
        "delta_pct": delta, "ben_pct": ben, "fb_pct": 100.0 * fallback_share,
    }


def paper_scale(rows: list[dict]) -> list[dict]:
    """Copies of report rows with the loss columns (MSE, MAE, pinball) x100,
    the published table convention."""
    return [{k: v * 100.0 if k in ("mse", "mae", "pinball") and v is not None
             else v for k, v in row.items()} for row in rows]


def write_report_csv(path: str, rows: list[dict], columns) -> None:
    """Report or selection rows as a CSV table of ``columns``, through the
    one CSV writer."""
    write_csv(path, [columns] + [[row.get(c) for c in columns] for row in rows])


def format_rows(rows: list[dict]) -> str:
    """Report rows as a fixed-width text table; a row's ``run``, when it has
    one, prefixes its method."""
    lines = [" ".join(f"{c:>14}" for c in REPORT_COLUMNS)]
    for row in rows:
        row = dict(row, method=f"{row['run']}:{row['method']}" if "run" in row
                   else row["method"])
        lines.append(" ".join(
            f"{'-':>14}" if row[c] is None else f"{row[c]:>14.6f}"
            if isinstance(row[c], float) else f"{str(row[c]):>14}"
            for c in REPORT_COLUMNS))
    return "\n".join(lines)
