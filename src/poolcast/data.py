"""Dataset ingestion, strict chronological splitting, and TRAIN-only preprocessing.

A dataset is N series observed on a shared time grid of length T, each with P
real components. The time axis is cut once into contiguous TRAIN / VAL / TEST
segments. Every statistic used to transform the data (imputation fill values,
per-component scale) is estimated from observed TRAIN entries only and then
applied verbatim to all three segments, so nothing fitted upstream can depend
on later data.

Model-facing reads (window and target gathering) are recorded in an
:class:`AccessAudit` so a run can prove after the fact that no TEST value was
consumed before the final evaluation phase.
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
from dataclasses import dataclass, field

import numpy as np

PACKED_MAGIC = b"MTS1"


class DataError(Exception):
    """Raised for unreadable, inconsistent, or malformed input data."""


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


class MtsDataset:
    """N series x T time points x P components, plus an observed-value mask.

    ``values`` holds NaN wherever the raw input was missing until
    :func:`fit_impute_standardize` fills it; ``mask`` stays True exactly at
    originally observed positions.
    """

    def __init__(self, values: np.ndarray, mask: np.ndarray | None = None,
                 names: list[str] | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise DataError(f"expected (N, T, P) values, got shape {values.shape}")
        n, t, p = values.shape
        if n == 0 or t == 0 or p == 0:
            raise DataError(f"degenerate dataset shape {values.shape}")
        if mask is None:
            mask = np.isfinite(values)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape:
            raise DataError("mask shape does not match values")
        if np.isinf(values).any():
            raise DataError("dataset contains non-finite (inf) values")
        if names is None:
            names = [f"s{i:04d}" for i in range(n)]
        if len(names) != n:
            raise DataError("need one name per series")
        self.values = values
        self.mask = mask
        self.names = list(names)

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    @property
    def n_components(self) -> int:
        return self.values.shape[2]

    @property
    def series(self) -> list[np.ndarray]:
        """Per-series (T, P) read-only views."""
        out = []
        for i in range(self.n_series):
            v = self.values[i].view()
            v.flags.writeable = False
            out.append(v)
        return out

    def freeze(self) -> "MtsDataset":
        self.values.flags.writeable = False
        self.mask.flags.writeable = False
        return self

    def copy(self) -> "MtsDataset":
        return MtsDataset(self.values.copy(), self.mask.copy(), list(self.names))


@dataclass(frozen=True)
class SplitSpec:
    """Lengths of the chronological TRAIN / VAL / TEST segments."""

    t_train: int
    t_val: int
    t_test: int

    def __post_init__(self):
        for name in ("t_train", "t_val", "t_test"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def total(self) -> int:
        return self.t_train + self.t_val + self.t_test

    def bounds(self, tag: str) -> tuple[int, int]:
        """Half-open [t0, t1) time range of a segment tag."""
        ranges = {
            "tr": (0, self.t_train),
            "va": (self.t_train, self.t_train + self.t_val),
            "te": (self.t_train + self.t_val, self.total),
            # merged refit segment used after fallback decisions are frozen
            "trval": (0, self.t_train + self.t_val),
        }
        if tag not in ranges:
            raise ValueError(f"unknown split tag {tag!r}")
        return ranges[tag]

    def tag_of_time(self, t: int) -> str:
        if t < self.t_train:
            return "tr"
        if t < self.t_train + self.t_val:
            return "va"
        return "te"


@dataclass(frozen=True)
class Standardizer:
    """Per-component affine transform fitted on observed TRAIN entries only."""

    mu: np.ndarray
    sigma: np.ndarray
    eps: float

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mu) / self.sigma

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.sigma + self.mu


@dataclass(frozen=True)
class SplitView:
    """Immutable window onto one time segment of a dataset.

    ``self_contained`` marks segments whose forecasting windows must lie
    entirely inside the segment (training segments). Scored segments instead
    allow the input window to reach backward into strictly earlier data.
    """

    tag: str
    t0: int
    t1: int
    dataset: MtsDataset
    self_contained: bool

    @property
    def length(self) -> int:
        return self.t1 - self.t0

    @property
    def values(self) -> np.ndarray:
        v = self.dataset.values[:, self.t0:self.t1, :]
        out = v.view()
        out.flags.writeable = False
        return out


def split(ds: MtsDataset, spec: SplitSpec, min_segment: int | None = None) -> dict[str, SplitView]:
    """Cut the dataset into contiguous TRAIN / VAL / TEST views.

    ``min_segment`` (typically window length + max horizon) rejects splits too
    short to yield any forecasting windows.
    """
    if spec.total != ds.n_times:
        raise DataError(
            f"split lengths sum to {spec.total} but dataset has T={ds.n_times}")
    if min_segment is not None:
        for name, length in (("t_train", spec.t_train), ("t_val", spec.t_val),
                             ("t_test", spec.t_test)):
            if length < min_segment:
                raise DataError(
                    f"{name}={length} is shorter than window + max horizon = {min_segment}")
    views = {}
    for tag in ("tr", "va", "te"):
        t0, t1 = spec.bounds(tag)
        views[tag] = SplitView(tag, t0, t1, ds, self_contained=(tag == "tr"))
    return views


# ---------------------------------------------------------------------------
# loading and saving
# ---------------------------------------------------------------------------


def _parse_cell(cell: str, where: str) -> float:
    cell = cell.strip()
    if cell == "":
        return np.nan
    try:
        x = float(cell)
    except ValueError:
        raise DataError(f"unreadable cell {cell!r} at {where}") from None
    if np.isinf(x):
        raise DataError(f"non-finite value {cell!r} at {where}")
    return x


def _load_csv_file(path: str, header: bool) -> np.ndarray:
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    # fast path: float() strips whitespace and reads NaN exactly as
    # _parse_cell does; empty or unreadable cells, ragged rows and infinities
    # take the checked path, which decides the values and the error messages
    try:
        rows = [list(map(float, row))
                for row in records[1 if header else 0:] if row]
    except ValueError:
        rows = None
    if rows and len({len(r) for r in rows}) == 1:
        values = np.array(rows, dtype=np.float64)
        if not np.isinf(values).any():
            return values
    return _check_csv_records(path, records, header)


def _check_csv_records(path: str, records: list[list[str]], header: bool) -> np.ndarray:
    rows = []
    for rownum, row in enumerate(records):
        if header and rownum == 0:
            continue
        if not row:
            continue
        rows.append([_parse_cell(c, f"{os.path.basename(path)}:{rownum + 1}:{j + 1}")
                     for j, c in enumerate(row)])
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (column counts {sorted(widths)})")
    return np.asarray(rows, dtype=np.float64)


def load_dataset(path: str, fmt: str = "csv", header: bool = False) -> MtsDataset:
    """Load a dataset from a directory of CSV files or a single packed file.

    CSV: one file per series (rows = time, columns = components), empty cell
    or NaN means missing; series are ordered by file name. Packed: see
    :func:`save_packed`. The "pems" format accepts the public traffic-archive
    layout (one day per line, see :func:`load_pems`).
    """
    if fmt == "packed":
        return load_packed(path)
    if fmt == "pems":
        return load_pems(path)
    if fmt != "csv":
        raise DataError(f"unknown dataset format {fmt!r}")
    if not os.path.isdir(path):
        raise DataError(f"{path} is not a directory")
    files = sorted(f for f in os.listdir(path)
                   if f.endswith(".csv") and os.path.isfile(os.path.join(path, f)))
    if not files:
        raise DataError(f"no .csv files in {path}")
    arrays, names = [], []
    for f in files:
        arr = _load_csv_file(os.path.join(path, f), header)
        if arrays and arr.shape != arrays[0].shape:
            raise DataError(
                f"{f}: shape {arr.shape} does not match {files[0]}: {arrays[0].shape}")
        arrays.append(arr)
        names.append(os.path.splitext(f)[0])
    values = np.stack(arrays)
    return MtsDataset(values, np.isfinite(values), names)


def load_packed(path: str) -> MtsDataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != PACKED_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {PACKED_MAGIC!r}")
        head = fh.read(24)
        if len(head) != 24:
            raise DataError(f"{path}: truncated header")
        n, t, p = struct.unpack("<QQQ", head)
        if n == 0 or t == 0 or p == 0:
            raise DataError(f"{path}: degenerate dimensions ({n}, {t}, {p})")
        payload = fh.read()
    expected = n * t * p * 8
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, t, p).astype(np.float64)
    return MtsDataset(values, np.isfinite(values))


def load_pems(path: str) -> MtsDataset:
    """Load the public traffic-archive text layout: one day-series per line,
    a bracketed matrix with ';'-separated station rows and space-separated
    values. Station rows become components, so each line yields a
    (timestamps x stations) series."""
    day_matrices = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            text = text.lstrip("[").rstrip("]")
            rows = []
            for r, chunk in enumerate(text.split(";")):
                cells = chunk.split()
                if not cells:
                    raise DataError(f"{path}:{lineno}: empty station row {r}")
                rows.append([_parse_cell(c, f"{path}:{lineno} station {r}")
                             for c in cells])
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise DataError(f"{path}:{lineno}: ragged station rows")
            day_matrices.append(np.asarray(rows, dtype=np.float64).T)
    if not day_matrices:
        raise DataError(f"{path}: no day lines")
    shapes = {m.shape for m in day_matrices}
    if len(shapes) != 1:
        raise DataError(f"{path}: day matrices differ in shape: {sorted(shapes)}")
    values = np.stack(day_matrices)
    names = [f"day{i:04d}" for i in range(len(day_matrices))]
    return MtsDataset(values, np.isfinite(values), names)


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` once the block completes, so a crash mid-write leaves the previous
    file (or none) in place, never a truncated one."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_packed(ds: MtsDataset, path: str) -> None:
    """Write the packed binary format: magic, N/T/P as little-endian u64,
    then row-major float64 values series by series, NaN marking missing."""
    values = np.where(ds.mask, ds.values, np.nan)
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC)
        fh.write(struct.pack("<QQQ", ds.n_series, ds.n_times, ds.n_components))
        fh.write(values.astype("<f8").tobytes(order="C"))


def save_csv(ds: MtsDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    values = np.where(ds.mask, ds.values, np.nan)
    for i, name in enumerate(ds.names):
        with open(os.path.join(directory, f"{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in values[i]:
                writer.writerow(["" if np.isnan(x) else repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def fit_impute_standardize(ds: MtsDataset, spec: SplitSpec, eps: float = 1e-8,
                           impute: str = "mean") -> tuple[Standardizer, MtsDataset]:
    """Fill missing entries and rescale, using observed TRAIN statistics only.

    Per component p the fill value is the mean (or median, behind the flag)
    of observed TRAIN entries pooled over all series, and the scale is
    sqrt(TRAIN variance + eps). Both are applied to every segment. Raises if
    a component has no observed TRAIN entry at all.
    """
    if impute not in ("mean", "median"):
        raise DataError(f"unknown imputation method {impute!r}")
    if spec.total != ds.n_times:
        raise DataError("split spec does not match dataset length")
    p = ds.n_components
    train_vals = ds.values[:, :spec.t_train, :]
    train_mask = ds.mask[:, :spec.t_train, :]

    mu = np.empty(p)
    fill = np.empty(p)
    var = np.empty(p)
    for j in range(p):
        obs = train_vals[:, :, j][train_mask[:, :, j]]
        if obs.size == 0:
            raise DataError(f"component {j} has no observed TRAIN entries")
        mu[j] = obs.mean()
        var[j] = ((obs - mu[j]) ** 2).mean()
        fill[j] = mu[j] if impute == "mean" else np.median(obs)
    sigma = np.sqrt(var + eps)
    standardizer = Standardizer(mu=mu, sigma=sigma, eps=eps)

    values = ds.values.copy()
    missing = ~ds.mask
    values[missing] = np.broadcast_to(fill, ds.values.shape)[missing]
    values = standardizer.transform(values)
    out = MtsDataset(values, ds.mask.copy(), list(ds.names)).freeze()
    return standardizer, out


# ---------------------------------------------------------------------------
# window enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowIndex:
    """Valid window end-times per horizon for one segment.

    End-time t means the input window covers times [t-w+1, t] and the target
    sits at t+h (all 0-based). Because every series shares the same grid, the
    index is identical across series.

    For scored segments (VAL / TEST) the window context may reach backward
    into earlier data, but the whole forecast path t+1 .. t+h must lie inside
    the segment; training segments require window and target to both lie
    inside the segment.
    """

    tag: str
    w: int
    end_times: dict[int, np.ndarray] = field(repr=False)

    def count(self, h: int) -> int:
        return len(self.end_times[h])

    def for_series(self, i: int, h: int) -> np.ndarray:
        # shared grid: the same end-times are valid for every series
        return self.end_times[h]


def enumerate_windows(view: SplitView, w: int, horizons) -> WindowIndex:
    if w < 1:
        raise ValueError("window length must be >= 1")
    end_times = {}
    for h in horizons:
        if h < 1:
            raise ValueError("horizons must be >= 1")
        if view.self_contained:
            lo = max(w - 1, view.t0 + w - 1)
            hi = view.t1 - 1 - h
        else:
            # forecast path inside the segment, context may cross backward
            lo = max(w - 1, view.t0 - 1)
            hi = view.t1 - 1 - h
        if hi < lo:
            end_times[h] = np.empty(0, dtype=np.int64)
        else:
            end_times[h] = np.arange(lo, hi + 1, dtype=np.int64)
    return WindowIndex(tag=view.tag, w=w, end_times=end_times)


# ---------------------------------------------------------------------------
# access audit
# ---------------------------------------------------------------------------


class AccessAudit:
    """Phase-tagged record of model-facing (series, time) value reads.

    Only window/target gathering is recorded; applying the TRAIN-fitted
    affine transform during preprocessing is not a model-facing read (its
    leakage-freeness is established separately and bitwise). Queries report
    distinct touched cells per segment.
    """

    def __init__(self, n_series: int, spec: SplitSpec):
        self.n_series = n_series
        self.spec = spec
        self._touched: dict[str, np.ndarray] = {}
        self.phase = "setup"

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def _grid(self) -> np.ndarray:
        if self.phase not in self._touched:
            self._touched[self.phase] = np.zeros(
                (self.n_series, self.spec.total), dtype=bool)
        return self._touched[self.phase]

    def mark(self, series: np.ndarray | list[int], t_lo: int, t_hi: int) -> None:
        """Record reads of times [t_lo, t_hi] (inclusive) for the given series."""
        t_lo = max(int(t_lo), 0)
        t_hi = min(int(t_hi), self.spec.total - 1)
        if t_hi < t_lo:
            return
        grid = self._grid()
        grid[np.asarray(series, dtype=np.int64), t_lo:t_hi + 1] = True

    def merge(self, other: "AccessAudit") -> None:
        """Add the reads ``other`` recorded (a sweep worker's copy of this
        audit) to this one, phase by phase."""
        for phase, grid in other._touched.items():
            if phase in self._touched:
                self._touched[phase] |= grid
            else:
                self._touched[phase] = grid.copy()

    def counts(self, phase: str) -> dict[str, int]:
        grid = self._touched.get(phase)
        out = {"tr": 0, "va": 0, "te": 0}
        if grid is None:
            return out
        for tag in out:
            t0, t1 = self.spec.bounds(tag)
            out[tag] = int(grid[:, t0:t1].sum())
        return out

    def phases_reading(self, tag: str) -> list[str]:
        return [ph for ph in self._touched if self.counts(ph)[tag] > 0]

    def test_reads_outside(self, allowed=("evaluate",)) -> int:
        return sum(self.counts(ph)["te"]
                   for ph in self._touched if ph not in allowed)


# ---------------------------------------------------------------------------
# prepared bundle
# ---------------------------------------------------------------------------


class PreparedData:
    """Frozen post-preprocessing dataset plus split bookkeeping and audit."""

    def __init__(self, dataset: MtsDataset, spec: SplitSpec, standardizer: Standardizer):
        self.dataset = dataset
        self.spec = spec
        self.standardizer = standardizer
        self.audit = AccessAudit(dataset.n_series, spec)
        self._sliding: dict[int, np.ndarray] = {}

    @property
    def n_series(self) -> int:
        return self.dataset.n_series

    def view(self, tag: str) -> SplitView:
        t0, t1 = self.spec.bounds(tag)
        return SplitView(tag, t0, t1, self.dataset,
                         self_contained=tag in ("tr", "trval"))

    def window_index(self, tag: str, w: int, horizons) -> WindowIndex:
        return enumerate_windows(self.view(tag), w, horizons)

    def _windows_all_ends(self, w: int) -> np.ndarray:
        # (N, T-w+1, w, P), row j = window ending at time j+w-1
        if w not in self._sliding:
            sw = np.lib.stride_tricks.sliding_window_view(
                self.dataset.values, w, axis=1)
            self._sliding[w] = np.ascontiguousarray(np.swapaxes(sw, 2, 3))
        return self._sliding[w]

    def windows(self, tag: str, h: int, w: int,
                series: np.ndarray | list[int] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Gather (inputs, targets) for one segment and horizon.

        Returns X with shape (n_series_selected * n_windows, w, P) and Y with
        shape (n_series_selected * n_windows, P), ordered series-major. Both
        are copies; the read is recorded in the audit. Empty index yields
        (0, w, P) and (0, P) arrays.
        """
        if series is None:
            series = np.arange(self.n_series)
        series = np.asarray(series, dtype=np.int64)
        ends = self.window_index(tag, w, [h]).end_times[h]
        p = self.dataset.n_components
        if len(ends) == 0:
            return (np.empty((0, w, p)), np.empty((0, p)))
        self.audit.mark(series, ends[0] - w + 1, ends[-1])
        self.audit.mark(series, ends[0] + h, ends[-1] + h)
        sw = self._windows_all_ends(w)
        x = sw[series][:, ends - (w - 1)]                 # (S, n, w, P)
        y = self.dataset.values[series][:, ends + h]      # (S, n, P)
        return (np.ascontiguousarray(x.reshape(-1, w, p)),
                np.ascontiguousarray(y.reshape(-1, p)))

    def per_series_windows(self, tag: str, h: int, w: int,
                           series: np.ndarray | list[int] | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`windows` but keeps the series axis: (S, n, w, P), (S, n, P)."""
        if series is None:
            series = np.arange(self.n_series)
        series = np.asarray(series, dtype=np.int64)
        x, y = self.windows(tag, h, w, series)
        n = len(x) // max(len(series), 1)
        p = self.dataset.n_components
        return x.reshape(len(series), n, w, p), y.reshape(len(series), n, p)


def prepare(ds: MtsDataset, spec: SplitSpec, eps: float = 1e-8,
            impute: str = "mean", min_segment: int | None = None) -> PreparedData:
    """Split, impute, standardize, and return the frozen prepared bundle."""
    split(ds, spec, min_segment=min_segment)  # validates lengths
    standardizer, transformed = fit_impute_standardize(ds, spec, eps=eps, impute=impute)
    return PreparedData(transformed, spec, standardizer)
