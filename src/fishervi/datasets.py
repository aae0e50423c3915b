"""Dataset loaders and design-matrix construction.

Loaders are pure functions of the file bytes: quantitative predictors are
standardized to mean zero / sd one, qualitative predictors are dummy-encoded
against a reference level (first level in sorted order), and an intercept
column is prepended.  A libsvm-format parser and the mean-corrected
log-return transform used by the volatility models live here too, along
with the mixed-model design recipes for the clinical panel datasets.
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


def _read_csv_rows(path):
    """Stripped header, the non-empty rows and their line numbers; every row
    must be as wide as the header, so columns can be read off by position."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        rows, lines = [], []
        for row in reader:
            if row:
                if len(row) != len(header):
                    raise ValueError(f"{path}: line {reader.line_num} has {len(row)} "
                                     f"fields, the header has {len(header)}")
                rows.append(row)
                lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows, lines


def _finite_cell(path, line, text) -> float:
    """float(text); a ValueError naming path, line and cell if it is not finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: {text.strip()!r} is not a finite number")
    return value


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
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise ValueError(f"{path}: column {name!r} is repeated in the header")
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
    Duplicate indices within a line are an error.
    """
    data, indices, indptr = [], [], [0]
    labels = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            label = float(parts[0])
            if label not in (-1.0, 1.0):
                raise ValueError(f"{path}:{lineno}: label must be -1 or +1, got {parts[0]}")
            labels.append(0.0 if label < 0 else 1.0)
            seen = set()
            for tok in parts[1:]:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                if idx in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate feature index {idx}")
                seen.add(idx)
                indices.append(idx - 1)
                data.append(float(val_s))
                max_idx = max(max_idx, idx)
            indptr.append(len(data))
    if not labels:
        raise ValueError(f"{path}: no samples")
    x = scipy.sparse.csr_matrix((data, indices, indptr),
                                shape=(len(labels), max_idx))
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


def _group_rows(rows, id_col):
    groups = {}
    order = []
    for row in rows:
        key = row[id_col]
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    return [groups[k] for k in order]


def load_epilepsy(path, model: str = "epi1") -> GlmmDesign:
    """Poisson random-effect designs for seizure-count panel data.

    Expects columns id, y, visit (1..4), base (pre-trial count), trt, age.
    Covariates: Base = log(base/4), Age = centered log(age),
    Visit coded -0.3/-0.1/0.1/0.3, V4 = 1 at the fourth visit.
    Model "epi1": X = [1, Base, Trt, Age, Base*Trt, V4], random intercept.
    Model "epi2": X = [1, Base, Trt, Age, Base*Trt, Visit], random
    intercept and Visit slope.
    """
    if model not in ("epi1", "epi2"):
        raise ValueError("model must be 'epi1' or 'epi2'")
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    log_age = [math.log(float(r[col["age"]])) for r in rows]
    age_mean = sum(log_age) / len(log_age)
    visit_code = {1: -0.3, 2: -0.1, 3: 0.1, 4: 0.3}

    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, zs, ys = [], [], []
        for r in grp:
            base = math.log(float(r[col["base"]]) / 4.0)
            trt = float(r[col["trt"]])
            age = math.log(float(r[col["age"]])) - age_mean
            visit = visit_code[int(r[col["visit"]])]
            v4 = 1.0 if int(r[col["visit"]]) == 4 else 0.0
            if model == "epi1":
                xs.append([1.0, base, trt, age, base * trt, v4])
                zs.append([1.0])
            else:
                xs.append([1.0, base, trt, age, base * trt, visit])
                zs.append([1.0, visit])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.asarray(zs))
        yb.append(np.asarray(ys))
    names = (["intercept", "Base", "Trt", "Age", "BaseTrt", "V4"] if model == "epi1"
             else ["intercept", "Base", "Trt", "Age", "BaseTrt", "Visit"])
    return GlmmDesign("poisson-log", xb, zb, yb, names)


def load_toenail(path) -> GlmmDesign:
    """Logistic random-intercept design: X = [1, Trt, t, Trt*t], t standardized.

    Expects columns id, y, trt, time (months).
    """
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    times = np.asarray([float(r[col["time"]]) for r in rows])
    t_std = (times - times.mean()) / times.std(ddof=0)
    t_of_row = {id(r): t_std[i] for i, r in enumerate(rows)}

    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, ys = [], []
        for r in grp:
            trt = float(r[col["trt"]])
            t = t_of_row[id(r)]
            xs.append([1.0, trt, t, trt * t])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.ones((len(grp), 1)))
        yb.append(np.asarray(ys))
    return GlmmDesign("bernoulli-logit", xb, zb, yb,
                      ["intercept", "Trt", "t", "Trt:t"])


def load_polypharmacy(path) -> GlmmDesign:
    """Logistic random-intercept design with the outpatient-visit codings.

    Expects columns id, y, gender, race, age, mhv (visit count), inptmhv.
    Covariates: Gender, Race, log(age/10), MHV1 (1-5 visits), MHV2 (6-14),
    MHV3 (>= 15), INPTMHV.
    """
    header, rows, _ = _read_csv_rows(path)
    col = {h: i for i, h in enumerate(header)}
    xb, zb, yb = [], [], []
    for grp in _group_rows(rows, col["id"]):
        xs, ys = [], []
        for r in grp:
            mhv = float(r[col["mhv"]])
            xs.append([
                1.0,
                float(r[col["gender"]]),
                float(r[col["race"]]),
                math.log(float(r[col["age"]]) / 10.0),
                1.0 if 1 <= mhv <= 5 else 0.0,
                1.0 if 6 <= mhv <= 14 else 0.0,
                1.0 if mhv >= 15 else 0.0,
                float(r[col["inptmhv"]]),
            ])
            ys.append(float(r[col["y"]]))
        xb.append(np.asarray(xs))
        zb.append(np.ones((len(grp), 1)))
        yb.append(np.asarray(ys))
    return GlmmDesign("bernoulli-logit", xb, zb, yb,
                      ["intercept", "Gender", "Race", "Age",
                       "MHV1", "MHV2", "MHV3", "INPTMHV"])
