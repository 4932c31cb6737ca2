"""Dataset ingestion, strict chronological splitting, and TRAIN-only preprocessing.

A dataset is N series observed on a shared time grid of length T, each with P
real components. The time axis is cut once into contiguous TRAIN / VAL / TEST
segments. NaN marks a missing value. Every statistic used to transform the
data (fill values, per-component scale) is estimated from observed (non-NaN)
TRAIN entries only and applied by :meth:`Standardizer.transform` to all three
segments, so nothing fitted upstream can depend on later data.

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
    """N series x T time points x P components.

    NaN is the one marker of a missing value: ``values`` holds NaN wherever
    the raw input was missing, and :func:`fit_impute_standardize` returns a
    copy with every NaN filled.
    """

    def __init__(self, values: np.ndarray, names: list[str] | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3:
            raise DataError(f"expected (N, T, P) values, got shape {values.shape}")
        n, t, p = values.shape
        if n == 0 or t == 0 or p == 0:
            raise DataError(f"degenerate dataset shape {values.shape}")
        if np.isinf(values).any():
            raise DataError("dataset contains non-finite (inf) values")
        if names is None:
            names = [f"s{i:04d}" for i in range(n)]
        if len(names) != n or not all(isinstance(x, str) for x in names):
            raise DataError("need one name (a string) per series")
        self.values = values
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

    def validate(self, n_times: int, min_segment: int | None = None) -> None:
        """Reject a spec whose lengths do not sum to the dataset length
        ``n_times``, or, given ``min_segment`` (typically window length +
        max horizon), one with a segment too short to yield any forecasting
        windows."""
        if self.total != n_times:
            raise DataError(
                f"split lengths sum to {self.total} but dataset has T={n_times}")
        if min_segment is not None:
            for name in ("t_train", "t_val", "t_test"):
                length = getattr(self, name)
                if length < min_segment:
                    raise DataError(f"{name}={length} is shorter than "
                                    f"window + max horizon = {min_segment}")


@dataclass(frozen=True)
class Standardizer:
    """Per-component affine transform fitted on observed TRAIN entries only,
    and ``fill``, the TRAIN value that replaces a missing entry before it."""

    mu: np.ndarray
    sigma: np.ndarray
    eps: float
    fill: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Fill every NaN entry of ``values`` (..., P) with ``fill``, then
        rescale: the one fill-and-scale step."""
        return (np.where(np.isnan(values), self.fill, values) - self.mu) / self.sigma

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.sigma + self.mu

    def as_dict(self) -> dict:
        """The record a run's manifest stores as ``standardizer``."""
        return {"mu": self.mu.tolist(), "sigma": self.sigma.tolist(),
                "eps": self.eps, "fill": self.fill.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        return cls(mu=np.asarray(d["mu"], dtype=np.float64),
                   sigma=np.asarray(d["sigma"], dtype=np.float64),
                   eps=float(d["eps"]), fill=np.asarray(d["fill"], dtype=np.float64))


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
    layout (one day per line, see :func:`load_pems`). A file that cannot be
    read is a :class:`DataError`.
    """
    try:
        if fmt == "packed":
            return load_packed(path)
        if fmt == "pems":
            return load_pems(path)
        if fmt == "csv":
            return _load_csv_dir(path, header)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}") from None
    raise DataError(f"unknown dataset format {fmt!r}")


def _load_csv_dir(path: str, header: bool) -> MtsDataset:
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
    return MtsDataset(np.stack(arrays), names)


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
    return MtsDataset(values)


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
    names = [f"day{i:04d}" for i in range(len(day_matrices))]
    return MtsDataset(np.stack(day_matrices), names)


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
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC)
        fh.write(struct.pack("<QQQ", ds.n_series, ds.n_times, ds.n_components))
        fh.write(ds.values.astype("<f8").tobytes(order="C"))


def write_csv(path: str, rows) -> None:
    """Write ``rows`` (sequences of cells, a header row included) to ``path``
    through :func:`atomic_open`, with "\n" line ends. None becomes an empty
    cell and a float its shortest repr, which ``float()`` reads back bitwise.
    Every CSV poolcast writes goes through here."""
    with atomic_open(path) as fh:
        fh.reconfigure(newline="")  # the csv module writes its own line ends
        csv.writer(fh, lineterminator="\n").writerows(
            ["" if v is None else repr(float(v)) if isinstance(v, float) else v
             for v in row] for row in rows)


def save_csv(ds: MtsDataset, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for i, name in enumerate(ds.names):
        write_csv(os.path.join(directory, f"{name}.csv"),
                  [[None if x != x else x for x in row]  # NaN is missing
                   for row in ds.values[i].tolist()])


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def fit_impute_standardize(ds: MtsDataset, spec: SplitSpec, eps: float = 1e-8,
                           impute: str = "mean") -> tuple[Standardizer, MtsDataset]:
    """Fill missing entries and rescale, using observed TRAIN statistics only.

    Per component p the fill value is the mean (or median, behind the flag)
    of the observed (non-NaN) TRAIN entries pooled over all series, and the
    scale is sqrt(TRAIN variance + eps). :meth:`Standardizer.transform`
    applies both to every segment. Raises if a component has no observed
    TRAIN entry at all, or a scale of 0 (a component constant on TRAIN, with
    ``eps = 0``).
    """
    if impute not in ("mean", "median"):
        raise DataError(f"unknown imputation method {impute!r}")
    spec.validate(ds.n_times)
    p = ds.n_components
    train_vals = ds.values[:, :spec.t_train, :]

    mu = np.empty(p)
    fill = np.empty(p)
    var = np.empty(p)
    for j in range(p):
        obs = train_vals[:, :, j][~np.isnan(train_vals[:, :, j])]
        if obs.size == 0:
            raise DataError(f"component {j} has no observed TRAIN entries")
        mu[j] = obs.mean()
        var[j] = ((obs - mu[j]) ** 2).mean()
        fill[j] = mu[j] if impute == "mean" else np.median(obs)
        if var[j] + eps == 0:
            raise DataError(f"component {j} is constant on TRAIN, so its scale "
                            f"is 0; set eps > 0")
    sigma = np.sqrt(var + eps)
    standardizer = Standardizer(mu=mu, sigma=sigma, eps=eps, fill=fill)
    values = standardizer.transform(ds.values)
    values.flags.writeable = False  # the prepared panel is read-only
    return standardizer, MtsDataset(values, list(ds.names))


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

    end_times: dict[int, np.ndarray] = field(repr=False)

    def count(self, h: int) -> int:
        return len(self.end_times[h])


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

    def phases(self) -> list[str]:
        """The phases that recorded a read, in the order of their first."""
        return list(self._touched)

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

    @property
    def n_series(self) -> int:
        return self.dataset.n_series

    def window_index(self, tag: str, w: int, horizons) -> WindowIndex:
        """Window end times of segment ``tag`` at each of ``horizons``: the
        one place the window rule of :class:`WindowIndex` is stated."""
        if w < 1:
            raise ValueError("window length must be >= 1")
        t0, t1 = self.spec.bounds(tag)
        if tag in ("tr", "trval"):  # training: the window stays inside
            lo = t0 + w - 1
        else:  # scored: the context may reach back into earlier data
            lo = max(w - 1, t0 - 1)
        end_times = {}
        for h in horizons:
            if h < 1:
                raise ValueError("horizons must be >= 1")
            end_times[h] = np.arange(lo, t1 - h, dtype=np.int64)
        return WindowIndex(end_times)

    def windows(self, tag: str, h: int, w: int,
                series: np.ndarray | list[int] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Gather (inputs, targets) for one segment and horizon.

        Returns X with shape (n_series_selected * n_windows, w, P) and Y with
        shape (n_series_selected * n_windows, P), ordered series-major: for
        each series and window end, X holds times end - w + 1 .. end and Y
        the value at end + h. Both are fresh arrays indexed out of one
        strided view of the panel, with no copy of it; every (window,
        target) gather runs through here, and the read is recorded in the
        audit. Empty index yields (0, w, P) and (0, P) arrays.
        """
        if series is None:
            series = np.arange(self.n_series)
        series = np.asarray(series, dtype=np.int64)
        ends = self.window_index(tag, w, [h]).end_times[h]
        if len(ends):
            self.audit.mark(series, ends[0] - w + 1, ends[-1])
            self.audit.mark(series, ends[0] + h, ends[-1] + h)
        values = self.dataset.values
        view = np.lib.stride_tricks.sliding_window_view(values, w, axis=1)
        rows = series[:, None]
        p = self.dataset.n_components
        return (np.swapaxes(view, 2, 3)[rows, ends - (w - 1)].reshape(-1, w, p),
                values[rows, ends + h].reshape(-1, p))


def prepare(ds: MtsDataset, spec: SplitSpec, eps: float = 1e-8,
            impute: str = "mean", min_segment: int | None = None) -> PreparedData:
    """Split, impute, standardize, and return the frozen prepared bundle."""
    spec.validate(ds.n_times, min_segment)
    standardizer, transformed = fit_impute_standardize(ds, spec, eps=eps, impute=impute)
    return PreparedData(transformed, spec, standardizer)
