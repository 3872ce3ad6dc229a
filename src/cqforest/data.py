"""Datasets for right-censored regression: containers, CSV ingestion, simulators.

An observation is a triple (x, y, delta): features, the observed response
y = min(t, c) for a latent survival time t and censoring time c, and the
event flag delta = 1{t <= c}. Four synthetic generators with known
conditional quantiles are provided for benchmarking.
"""

import csv
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np


class DataError(ValueError):
    """Raised for malformed input data (files or arrays)."""


def check_tau(tau):
    """tau as a float, or DataError unless it lies in (0, 1)."""
    try:
        tau = float(tau)
    except (TypeError, ValueError):
        raise DataError(f"tau must be a number, got {tau!r}") from None
    if not 0.0 < tau < 1.0:
        raise DataError("tau must lie in (0, 1)")
    return tau


def check_taus(taus):
    """A nonempty, strictly increasing tuple of taus, each in (0, 1)."""
    taus = tuple(check_tau(t) for t in taus)
    if not taus:
        raise DataError("taus must be nonempty")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise DataError("taus must be strictly increasing")
    return taus


def check_int(name, value, low):
    """``value`` as a Python int, or DataError unless it is an integer (not a bool) and at least ``low``.

    numpy integers are accepted, so a config read from arrays saves and
    loads like one written by hand.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DataError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DataError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def check_real(name, value):
    """``value`` as a Python float, or DataError unless it is a real number (not a bool).

    numpy reals are accepted, as ``check_int`` accepts numpy integers;
    each caller checks the range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")
    return float(value)


MODELS = ("aft1d", "sine1d", "aft-multi", "complex")

# Fixed coefficient vector of the multi-dimensional log-linear model.
_AFT_MULTI_BETA = np.array([0.1, 0.2, 0.3, 0.4, 0.5])


def _freeze(a):
    a = np.array(a, dtype=a.dtype, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable right-censored sample.

    Parameters
    ----------
    features : ndarray of shape (n, p)
        Covariate matrix, finite reals.
    response : ndarray of shape (n,)
        Observed responses y = min(t, c).
    event : ndarray of shape (n,), bool
        True where the latent time was observed (t <= c).
    latent : ndarray of shape (n,), optional
        True survival times; only available for simulated or oracle data.
    """

    features: np.ndarray
    response: np.ndarray
    event: np.ndarray
    latent: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DataError("features must be a nonempty 2-d array")
        y = np.asarray(self.response, dtype=np.float64)
        ev = np.asarray(self.event)
        if ev.dtype != np.bool_:
            vals = np.unique(ev)
            if not np.isin(vals, (0, 1)).all():
                raise DataError("event flags must be 0/1 or boolean")
            ev = ev.astype(bool)
        if y.shape != (x.shape[0],) or ev.shape != y.shape:
            raise DataError("features, response and event lengths differ")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise DataError("non-finite value in features or response")
        lat = self.latent
        if lat is not None:
            lat = np.asarray(lat, dtype=np.float64)
            if lat.shape != y.shape or not np.isfinite(lat).all():
                raise DataError("latent vector malformed")
            # observed rows carry the latent time itself; censored rows sit strictly below it
            if not np.array_equal(y[ev], lat[ev]) or not (y[~ev] < lat[~ev]).all():
                raise DataError("response/latent/event are mutually inconsistent")
            lat = _freeze(lat)
        object.__setattr__(self, "features", _freeze(x))
        object.__setattr__(self, "response", _freeze(y))
        object.__setattr__(self, "event", _freeze(ev))
        object.__setattr__(self, "latent", lat)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def p(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one synthetic draw.

    ``censor_rate_param`` is the exponential rate of the censoring law
    (the shifted-exponential rate for the sine model).
    """

    model: str
    n: int
    censor_rate_param: float
    noise_sd: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise DataError(f"unknown model {self.model!r}; choose from {MODELS}")
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        for name in ("censor_rate_param", "noise_sd"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0 < self.censor_rate_param < math.inf:
            raise DataError("censor_rate_param must be finite and > 0")
        if not 0 < self.noise_sd < math.inf:
            raise DataError("noise_sd must be finite and > 0")


def model_dim(model):
    """Feature dimension of a named generator."""
    if model in ("aft1d", "sine1d"):
        return 1
    if model in ("aft-multi", "complex"):
        return 5
    raise DataError(f"unknown model {model!r}")


def _signal(model, x):
    """Noise-free location of log(T) (aft models) or T (additive models)."""
    if model == "aft1d":
        return x[:, 0]
    if model == "sine1d":
        return 2.5 + np.sin(x[:, 0])
    if model == "aft-multi":
        return x @ _AFT_MULTI_BETA
    if model == "complex":
        return 5.0 + 0.2 * (
            np.sin(x[:, 0]) + np.cos(x[:, 1]) + x[:, 2] ** 2 + np.exp(x[:, 3]) + x[:, 4]
        )
    raise DataError(f"unknown model {model!r}")


def simulate(cfg):
    """Draw one dataset from a named generator.

    Latent times follow the model's location plus N(0, noise_sd^2) noise
    (on the log scale for the aft models). Censoring times are exponential
    with rate ``censor_rate_param``; the sine model shifts them by
    1 + sin(x) so censoring tracks the signal. Same seed, same bytes.
    """
    rng = np.random.default_rng(cfg.seed)
    p = model_dim(cfg.model)
    high = 2.0 * math.pi if cfg.model == "sine1d" else 2.0
    x = rng.uniform(0.0, high, size=(cfg.n, p))
    eps = rng.normal(0.0, cfg.noise_sd, size=cfg.n)
    loc = _signal(cfg.model, x)
    if cfg.model in ("aft1d", "aft-multi"):
        latent = np.exp(loc + eps)
    else:
        latent = loc + eps
    censor = rng.exponential(1.0 / cfg.censor_rate_param, size=cfg.n)
    if cfg.model == "sine1d":
        censor = 1.0 + np.sin(x[:, 0]) + censor
    response = np.minimum(latent, censor)
    event = latent <= censor
    return Dataset(features=x, response=response, event=event, latent=latent)


def true_quantile(model, x, tau, noise_sd=0.3):
    """Closed-form conditional tau-quantile of the latent time at x.

    Parameters
    ----------
    model : str
        One of the generator names.
    x : array-like
        A single feature vector (p,) or a batch (n, p); scalars are
        accepted for the one-dimensional models.
    tau : float in (0, 1)

    Returns
    -------
    float or ndarray matching the batch shape of ``x``.
    """
    tau = check_tau(tau)
    p = model_dim(model)
    xa = np.asarray(x, dtype=np.float64)
    scalar = xa.ndim < 2
    xa = np.atleast_2d(xa)
    if xa.shape[1] != p:
        if p == 1 and xa.shape[0] == 1:
            xa = xa.T
        else:
            raise DataError(f"model {model!r} expects {p} feature(s)")
    # scipy's ndtri, imported here so the CLI's start-up never loads scipy;
    # statistics.NormalDist().inv_cdf differs from it in the last bits at some taus.
    from scipy.special import ndtri

    z = noise_sd * ndtri(tau)
    loc = _signal(model, xa)
    q = np.exp(loc + z) if model in ("aft1d", "aft-multi") else loc + z
    return float(q[0]) if scalar and q.size == 1 else q


# The fixed columns of a dataset file (response, event flag, latent time); every other column is a feature.
_FIXED_COLUMNS = ("y", "delta", "latent")


@dataclass(frozen=True)
class CsvSchema:
    """Column selection for :func:`load_csv`."""

    response: str = "y"
    event: str = "delta"
    features: tuple = ()
    latent: str | None = None


@contextmanager
def open_utf8(path):
    """Open a text file to read as UTF-8; a byte that is not UTF-8, or a csv.Error, raises DataError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV ({exc})") from None


def read_table(path):
    """The header, line numbers and rows of a headered CSV, read in one pass.

    Blank lines are skipped, above the header too, and every other row
    must be as wide as the header. ``lines[i]`` is the physical line that
    ``rows[i]`` ends on, so errors can name it as ``path:line:``.
    """
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = read_header(path, reader)
        lines, rows = [], []  # not one list of pairs: 5,000 pair tuples left `fit` 1.3 MiB more peak RSS
        for rec in reader:
            if _blank(rec):
                continue
            if len(rec) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(rec)}")
            lines.append(reader.line_num)
            rows.append(rec)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, lines, rows


def _column(path, header, lines, rows, name, kind="float"):
    """Column ``name`` of a ``read_table`` as finite floats, or as bools from 0/1 flags for ``kind="event"``."""
    if name not in header:
        raise DataError(f"{path}: missing column {name!r}")
    j = header.index(name)
    out = []
    for line, rec in zip(lines, rows):
        cell = rec[j].strip()
        if cell == "":
            raise DataError(f"{path}:{line}: missing value in column {name!r}")
        if kind == "event":
            if cell not in ("0", "1"):
                raise DataError(f"{path}:{line}: invalid event flag {cell!r} in column {name!r}")
            out.append(cell == "1")
            continue
        try:
            val = float(cell)
        except ValueError:
            raise DataError(f"{path}:{line}: non-numeric cell {cell!r} in column {name!r}") from None
        if not math.isfinite(val):
            raise DataError(f"{path}:{line}: non-finite value in column {name!r}")
        out.append(val)
    return out


def load_csv(path, schema=None):
    """Read a UTF-8, comma-separated, headered file into a Dataset.

    Rows must be complete and numeric; the event column only accepts 0/1.
    With no ``schema``, the schema is detected from the file's own header
    as ``detect_schema`` does, in the same read.
    """
    return _read_dataset(path, schema)[1]


def _read_dataset(path, schema=None):
    """``load_csv``, returning ``(schema, dataset)`` with the schema it used."""
    if schema is not None and not schema.features:
        raise DataError("schema must name at least one feature column")
    header, lines, rows = read_table(path)
    if schema is None:
        schema = _header_schema(path, header)
    column = partial(_column, path, header, lines, rows)
    features = np.column_stack([column(f) for f in schema.features])
    response = np.asarray(column(schema.response))
    event = np.asarray(column(schema.event, kind="event"))
    latent = np.asarray(column(schema.latent)) if schema.latent else None
    try:
        dataset = Dataset(features=features, response=response, event=event, latent=latent)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return schema, dataset


def _blank(rec):
    """Whether a csv record is a blank line (no cells, or one cell of whitespace)."""
    return not rec or (len(rec) == 1 and not rec[0].strip())


def read_header(path, reader):
    """The next row of a csv reader that is not blank, as stripped column names, each given once."""
    rec = next((rec for rec in reader if not _blank(rec)), None)
    if rec is None:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rec]
    seen = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: column {name!r} appears more than once")
        seen.add(name)
    return header


def detect_schema(path):
    """Schema for a headered CSV, treating every column but y, delta and latent as a feature.

    The latent column is optional and is picked up when present; feature
    order follows the header. The whole file is read and checked.
    """
    return _header_schema(path, read_table(path)[0])


def _header_schema(path, header):
    response, event, latent = _FIXED_COLUMNS
    for name in (response, event):
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    features = tuple(h for h in header if h not in _FIXED_COLUMNS)
    if not features:
        raise DataError(f"{path}: no feature columns found")
    return CsvSchema(response, event, features, latent if latent in header else None)


def load_features_csv(path, names=None, n_features=None):
    """Read test-point features from a headered CSV.

    Columns are selected by ``names`` when all are present; otherwise
    every column except y/delta/latent is used, which must then match
    ``n_features`` if given. Returns (matrix, column names).
    """
    header, lines, rows = read_table(path)
    if names and all(n in header for n in names):
        chosen = list(names)
    else:
        chosen = [h for h in header if h not in _FIXED_COLUMNS]
        if names and len(chosen) != len(names):
            raise DataError(
                f"{path}: feature columns do not match the model "
                f"(expected {list(names)}, found {chosen})"
            )
    if n_features is not None and len(chosen) != n_features:
        raise DataError(f"{path}: expected {n_features} feature columns, found {len(chosen)}")
    if not chosen:
        raise DataError(f"{path}: no feature columns found")
    return np.column_stack([_column(path, header, lines, rows, c) for c in chosen]), chosen


def write_table(path, header, rows):
    """Write a UTF-8 CSV: the header, then each row of cells as given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, data, feature_names=None):
    """Write a Dataset in the format load_csv reads: x*, y, delta and, when known, latent."""
    names = list(feature_names or (f"x{j + 1}" for j in range(data.p)))
    if len(names) != data.p:
        raise DataError("feature_names length does not match p")
    header = [*names, *_FIXED_COLUMNS[: 2 if data.latent is None else 3]]

    def record(i):  # row by row: whole columns through tolist() raised peak RSS by 1.6 MiB at n=5000
        rec = [repr(float(v)) for v in data.features[i]]
        rec += [repr(float(data.response[i])), "1" if data.event[i] else "0"]
        if data.latent is not None:
            rec.append(repr(float(data.latent[i])))
        return rec

    write_table(path, header, map(record, range(data.n)))
