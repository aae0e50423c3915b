"""Dataset loaders and design-matrix construction.

Loaders are pure functions of the file bytes: quantitative predictors are
standardized to mean zero / sd one, qualitative predictors are dummy-encoded
against a reference level (first level in sorted order), and an intercept
column is prepended.  A headerless matrix reader, a libsvm-format parser
and the mean-corrected log-return transform of the volatility models live
here too, along with the mixed-model recipes for the clinical panels.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


@dataclass
class DesignInfo:
    """Bookkeeping to reproduce a design matrix exactly."""

    column_names: list
    numeric_stats: dict      # column -> (mean, sd)
    categorical_levels: dict  # column -> ordered levels (first = reference)
    intercept: bool


@dataclass
class LoadedDesign:
    X: np.ndarray
    y: np.ndarray
    info: DesignInfo


def _read_csv_rows(path, header=True):
    """Stripped header (None if header=False), the non-empty rows and their line
    numbers.  Header names must be unique and every row as wide as the header (or
    as the first row), so columns can be read off by position."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = [h.strip() for h in next(reader, [])] if header else None
        width, where = (len(names), "the header") if header else (None, None)
        rows, lines = [], []
        for row in reader:
            if row:
                if len(row) != width:
                    if width is not None:
                        raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                         f"fields, {where} has {width}")
                    width, where = len(row), f"line {reader.line_num}"  # the first row's
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    if header and len(set(names)) < len(names):
        name = next(h for i, h in enumerate(names) if h in names[:i])
        raise ValueError(f"{path}: column {name!r} is repeated in the header")
    return names, rows, lines


def _finite_cell(path, line, text) -> float:
    """float(text); a ValueError naming path, line and cell if it is not finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: {text.strip()!r} is not a finite number")
    return value


def load_csv_matrix(path, vector=False) -> np.ndarray:
    """A headerless CSV's cells as floats, (rows, columns), blank lines skipped;
    with vector=True, one row or column as a 1-d array.  A ragged row, a cell that
    is not a finite number (a `#` line too) or a vector's 2-d shape is a ValueError."""
    _, rows, lines = _read_csv_rows(path, header=False)
    m = np.array([[_finite_cell(path, line, c) for c in row] for row, line in zip(rows, lines)])
    if vector and min(m.shape) > 1:
        raise ValueError(f"{path}: expected a single row or column, got "
                         f"{m.shape[0]} x {m.shape[1]}")
    return m.ravel() if vector else m


def load_csv_design(path, response: str, intercept: bool = True) -> LoadedDesign:
    """Design matrix from a header CSV.

    Each cell is converted once, with the syntax of Python `float` (padding
    whitespace, exponents and underscores are accepted).  A column that
    converts is standardized; any other is stripped and dummy-encoded with
    the lexicographically first level as reference.  Column order:
    intercept, then input column order with each categorical expanded
    level-by-level.  Rejected with ValueError: a repeated header name,
    ragged rows, non-finite numeric cells (nan, inf, or an overflow such as
    1e999) and constant numeric columns.
    """
    header, rows, lines = _read_csv_rows(path)
    if response not in header:
        raise ValueError(f"response column {response!r} not in header {header}")
    cols = dict(zip(header, zip(*rows)))

    def finite(h, x):
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"{path}: column {h!r} has the non-finite value "
                             f"{cols[h][bad[0]].strip()!r} at line {lines[bad[0]]}")

    y = np.array(cols[response], dtype=float)
    finite(response, y)
    names = ["intercept"] if intercept else []
    blocks = [np.ones(len(rows))] if intercept else []
    numeric_stats = {}
    categorical_levels = {}
    for h in header:
        if h == response:
            continue
        try:
            x = np.array(cols[h], dtype=float)
        except ValueError:
            vals = np.asarray([v.strip() for v in cols[h]], dtype=object)
            levels = sorted(set(vals))
            categorical_levels[h] = levels
            names += [f"{h}={lev}" for lev in levels[1:]]
            blocks += [(vals == lev).astype(float) for lev in levels[1:]]
            continue
        finite(h, x)
        sd = float(x.std(ddof=0))
        if sd == 0.0:
            raise ValueError(f"column {h!r} is constant (zero sd); drop it first")
        mean = float(x.mean())
        numeric_stats[h] = (mean, sd)
        names.append(h)
        blocks.append((x - mean) / sd)
    return LoadedDesign(np.column_stack(blocks), y,
                        DesignInfo(names, numeric_stats, categorical_levels, intercept))


def load_libsvm(path):
    """Sparse (X, y) from `label idx:val ...` lines with 1-based indices.

    Labels -1/+1 map to 0/1; the column count is the maximum index seen.
    A token that is not `integer:number`, a label or value that is not a
    finite number, and a duplicate index within a line are ValueErrors
    naming the path and line.
    """
    data, indices, indptr, labels = [], [], [0], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            label = _finite_cell(path, lineno, parts[0])
            if label not in (-1.0, 1.0):
                raise ValueError(f"{path}:{lineno}: label must be -1 or +1, got {parts[0]}")
            labels.append(0.0 if label < 0 else 1.0)
            seen = set()
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected index:value, "
                                     f"got {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                if idx in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate feature index {idx}")
                seen.add(idx)
                indices.append(idx - 1)
                data.append(_finite_cell(path, lineno, val_s))
            indptr.append(len(data))
    if not labels:
        raise ValueError(f"{path}: no samples")
    x = scipy.sparse.csr_matrix((data, indices, indptr),
                                shape=(len(labels), max(indices, default=-1) + 1))
    return x, np.asarray(labels)


def load_returns(path):
    """Mean-corrected percentage log returns from a one-column rate series.

    y_t = 100 * (log(r_t / r_{t-1}) - mean of the log ratios); length n-1.
    The rate is the last field of each line that is not blank or a `#`
    comment; one that is not a finite number is rejected with its line.
    """
    with open(path) as fh:
        rates = [_finite_cell(path, lineno, line.strip().split(",")[-1])
                 for lineno, line in enumerate(fh, start=1)
                 if line.strip() and not line.lstrip().startswith("#")]
    rates = np.asarray(rates)
    if rates.size < 2:
        raise ValueError(f"{path}: need at least two rates")
    if np.any(rates <= 0):
        raise ValueError(f"{path}: nonpositive rate; log returns undefined")
    lr = np.diff(np.log(rates))
    return 100.0 * (lr - lr.mean())


# ---------------------------------------------------------------------------
# mixed-model design recipes


@dataclass
class GlmmDesign:
    family: str
    X_blocks: list
    Z_blocks: list
    y_blocks: list
    column_names: list = field(default_factory=list)


class _Panel:
    """A panel CSV's columns y and `names`, each cell read by `_finite_cell`,
    and its subjects: the raw `id` cells in order of first appearance, each
    with its rows in file order.  A missing column is a ValueError."""

    def __init__(self, path, names):
        header, rows, self.lines = _read_csv_rows(path)
        for name in ("id", "y", *names):
            if name not in header:
                raise ValueError(f"{path}: missing column {name!r}")
        self.path, self.cells = path, dict(zip(header, zip(*rows)))
        self.col = {name: np.array([_finite_cell(path, line, c)
                                    for c, line in zip(self.cells[name], self.lines)])
                    for name in ("y", *names)}
        first = {}
        subject = [first.setdefault(key, len(first)) for key in self.cells["id"]]
        self._order = np.argsort(subject, kind="stable")
        self._bounds = np.cumsum(np.bincount(subject))[:-1]

    def require(self, name, ok, domain):
        """A ValueError naming the first row where ok is False."""
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"{self.path}: line {self.lines[bad[0]]}: {name} must be "
                             f"{domain}, got {self.cells[name][bad[0]].strip()!r}")

    def design(self, family, names, covariates, slopes=()) -> GlmmDesign:
        """X = [1, covariates] and Z = [1, slopes], whole columns in file order,
        split with y into subject blocks; X's columns are "intercept", *names."""
        one = np.ones_like(self.col["y"])
        x, z = np.column_stack([one, *covariates]), np.column_stack([one, *slopes])
        return GlmmDesign(family, *(np.split(a[self._order], self._bounds)
                                    for a in (x, z, self.col["y"])), ["intercept", *names])


def load_epilepsy(path, model: str = "epi1") -> GlmmDesign:
    """Poisson random-effect designs for seizure-count panel data.

    Expects columns id, y, visit (1..4), base (pre-trial count, > 0), trt,
    age (> 0).  Covariates: Base = log(base/4), Age = centered log(age),
    Visit coded -0.3/-0.1/0.1/0.3, V4 = 1 at the fourth visit.
    Model "epi1": X = [1, Base, Trt, Age, Base*Trt, V4], random intercept.
    Model "epi2": X = [1, Base, Trt, Age, Base*Trt, Visit], random
    intercept and Visit slope.
    """
    if model not in ("epi1", "epi2"):
        raise ValueError("model must be 'epi1' or 'epi2'")
    panel = _Panel(path, ("visit", "base", "trt", "age"))
    visit, base, trt, age = (panel.col[n] for n in ("visit", "base", "trt", "age"))
    panel.require("visit", np.isin(visit, (1, 2, 3, 4)), "1, 2, 3 or 4")
    panel.require("base", base > 0, "positive")
    panel.require("age", age > 0, "positive")
    log_base, log_age = np.log(base / 4.0), np.log(age)
    x = [log_base, trt, log_age - log_age.mean(), log_base * trt]
    names = ["Base", "Trt", "Age", "BaseTrt"]
    if model == "epi1":
        return panel.design("poisson-log", names + ["V4"], x + [visit == 4])
    code = (visit - 2.5) / 5.0
    return panel.design("poisson-log", names + ["Visit"], x + [code], [code])


def load_toenail(path) -> GlmmDesign:
    """Logistic random-intercept design: X = [1, Trt, t, Trt*t], t standardized.

    Expects columns id, y, trt, time (months, not all equal).
    """
    panel = _Panel(path, ("trt", "time"))
    trt, time = panel.col["trt"], panel.col["time"]
    if np.all(time == time[0]):
        raise ValueError(f"{path}: column 'time' is constant")
    t = (time - time.mean()) / time.std(ddof=0)
    return panel.design("bernoulli-logit", ["Trt", "t", "Trt:t"], [trt, t, trt * t])


def load_polypharmacy(path) -> GlmmDesign:
    """Logistic random-intercept design with the outpatient-visit codings.

    Expects columns id, y, gender, race, age (> 0), mhv (visit count),
    inptmhv.  Covariates: Gender, Race, log(age/10), MHV1 (1-5 visits),
    MHV2 (6-14), MHV3 (>= 15), INPTMHV.
    """
    panel = _Panel(path, ("gender", "race", "age", "mhv", "inptmhv"))
    age, mhv = panel.col["age"], panel.col["mhv"]
    panel.require("age", age > 0, "positive")
    return panel.design("bernoulli-logit",
                        ["Gender", "Race", "Age", "MHV1", "MHV2", "MHV3", "INPTMHV"],
                        [panel.col["gender"], panel.col["race"], np.log(age / 10.0),
                         (1 <= mhv) & (mhv <= 5), (6 <= mhv) & (mhv <= 14), mhv >= 15,
                         panel.col["inptmhv"]])
