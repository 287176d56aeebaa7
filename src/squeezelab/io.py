"""File formats: scan/DHD CSV, raw trace binary, report CSV/JSON.

Two precision regimes, deliberately different:

* raw data files (scan and DHD CSV) are written with Python repr floats,
  the shortest string that round-trips the exact float64, because
  simulate -> estimate round trips must match in-process results
  bit-for-bit;
* report files (bounds tables, benchmark CSV/JSON, track CSV) use 12
  significant digits, which is lossless at every tolerance the reports
  are consumed at;
* the run config a file or JSON document carries keeps repr floats too,
  so that it alone reproduces the run.

Parse errors name the file and the 1-based line number.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, fields
from itertools import repeat

import numpy as np

from . import bounds
from .bounds import BoundVector
from .model import StateParams
from .montecarlo import TrialReport, TrackResult
from .simulate import DhdBatch, HomodyneScan

__all__ = [
    "fmt12",
    "write_scan_csv",
    "read_scan_csv",
    "write_dhd_csv",
    "read_dhd_csv",
    "write_trace",
    "read_trace",
    "report_rows",
    "REPORT_HEADER",
    "report_csv_lines",
    "write_report_csv",
    "bounds_csv_lines",
    "track_csv_lines",
    "report_to_dict",
    "json_ready",
    "dump_json",
    "write_track_csv",
    "write_lines",
]

SCAN_HEADER = "psi_rad,q"
DHD_HEADER = "q1,p2"
TRACE_MAGIC = "squeezelab-trace v1"


def fmt12(x: float) -> str:
    """12-significant-digit report formatting; ``format`` spells out nan
    (of either sign), inf and -inf."""
    return format(float(x), ".12g")


def write_lines(path, lines) -> None:
    """Write the lines, each ended by a newline, to path, or to stdout when path is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_comment(config_json) -> list[str]:
    if config_json is None:
        return []
    if not isinstance(config_json, str):
        config_json = json.dumps(config_json, sort_keys=True)
    return [f"# config: {config_json}"]


def _write_pair_csv(path, header, col_a, col_b, config_json):
    lines = _config_comment(config_json)
    lines.append(header)
    # a Python float reprs as the numpy float64 it came from, so the bytes
    # are those of float(a)!r on each scalar, without the scalar round trips
    col_a = np.asarray(col_a, dtype=float).tolist()
    col_b = np.asarray(col_b, dtype=float).tolist()
    lines.extend(f"{a!r},{b!r}" for a, b in zip(col_a, col_b))
    write_lines(path, lines)


def _read_pair_csv(path, header):
    """The two float columns of a CSV file with the given header.

    Blank lines and lines starting with '#' are skipped anywhere, and
    whitespace around a line or a field is ignored.  The body is parsed and
    checked as whole arrays; only when a check fails are its lines walked
    in order, to name the first bad one.
    """
    # universal newlines leave "\n" the only line end; str.splitlines would
    # also split at form feeds and other separators a file line can hold.
    # An undecodable byte reads as U+FFFD, so a binary file fails the header
    # check and a bad byte in a row fails as that row's value, with file:line
    with open(path, errors="replace") as fh:
        lines = fh.read().split("\n")
    for start, line in enumerate(map(str.strip, lines)):
        if line and line[0] != "#":
            break
    else:
        raise ValueError(f"{path}: empty file, expected header {header!r}")
    if line != header:
        raise ValueError(f"{path}:{start + 1}: expected header {header!r}, got {line!r}")
    rows = [row for row in map(str.strip, lines[start + 1:]) if row and row[0] != "#"]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    fields = ",".join(rows).split(",")
    try:
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        values = None
    # a row holds two fields when it holds one comma
    if (values is None or not set(map(str.count, rows, repeat(","))) <= {1}
            or not np.isfinite(values).all()):
        _raise_at_first_bad_row(path, lines, start + 1)
    return tuple(values.reshape(-1, 2).T.copy())


def _raise_at_first_bad_row(path, lines, first):
    """Raise the error of the first bad data line from lines[first] on,
    testing its field count, then its numbers, then their finiteness."""
    for lineno, line in enumerate(map(str.strip, lines[first:]), first + 1):
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            values = list(map(float, parts))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value in {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")


def write_scan_csv(path, scan: HomodyneScan, config_json=None) -> None:
    _write_pair_csv(path, SCAN_HEADER, scan.phases, scan.samples, config_json)


def read_scan_csv(path) -> HomodyneScan:
    psi, q = _read_pair_csv(path, SCAN_HEADER)
    return HomodyneScan(phases=psi, samples=q)


def write_dhd_csv(path, batch: DhdBatch, config_json=None) -> None:
    _write_pair_csv(path, DHD_HEADER, batch.q1, batch.p2, config_json)


def read_dhd_csv(path) -> DhdBatch:
    q1, p2 = _read_pair_csv(path, DHD_HEADER)
    return DhdBatch(q1=q1, p2=p2)


def _check_rate(rate_hz, where: str = "") -> int:
    """``rate_hz`` as an int if it is a whole number of Hz in [1, 2**53], where
    floats are exact, else ValueError led by ``where``: the one trace rate rule."""
    if not 1 <= rate_hz <= 2**53 or rate_hz != int(rate_hz):
        raise ValueError(f"{where}rate_hz={rate_hz} must be > 0 and at most 2**53, in whole Hz")
    return int(rate_hz)


def write_trace(path, trace, rate_hz: float) -> None:
    """Header line then raw float32 little-endian samples.  A rate that
    ``read_trace`` would refuse raises ValueError before the file is opened."""
    data = np.asarray(trace, dtype="<f4")
    header = f"{TRACE_MAGIC}, rate_hz={_check_rate(rate_hz)}, count={data.size}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_trace(path) -> tuple[np.ndarray, int]:
    """Returns (float32 samples, rate_hz); validates magic, count and rate."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        payload = fh.read()
    parts = [p.strip() for p in header.split(",")]
    if len(parts) != 3 or parts[0] != TRACE_MAGIC:
        raise ValueError(f"{path}:1: not a {TRACE_MAGIC!r} file (header {header!r})")
    try:
        rate_hz = int(parts[1].removeprefix("rate_hz="))
        count = int(parts[2].removeprefix("count="))
    except ValueError:
        raise ValueError(f"{path}:1: malformed header fields in {header!r}") from None
    _check_rate(rate_hz, f"{path}:1: ")
    if len(payload) != 4 * count:
        raise ValueError(
            f"{path}: header promises {count} samples ({4 * count} bytes), "
            f"payload has {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype="<f4"), rate_hz


_PARAM_NAMES = ("s", "kappa", "phi_s")
# the per-parameter fields of a BoundVector, in as_tuple order
_BOUND_VARS = tuple(f.name for f in fields(BoundVector) if f.name.startswith("var_"))


# The theoretical variance curves, each declared once as (report column,
# bounds-CSV prefix, function of ``bounds`` taking (truth, n_samples)).  The
# function is looked up on the module at every call, so that a wrapper
# installed there (a profiler's, say) sees the calls made through this table.
_THEORY_CURVES = (
    ("crb_homodyne", "crb", "crb_homodyne"),
    ("fit_prediction", "fit", "fit_variance_prediction"),
    ("crb_dhd", "dhd", "crb_dhd"),
    ("crb_quantum", "qcrb", "crb_quantum"),
)


def _theory_curves(truth: StateParams, n_samples: int) -> dict[str, BoundVector]:
    """Every theoretical variance curve at one parameter point, by report column."""
    return {col: getattr(bounds, fn)(truth, n_samples) for col, _, fn in _THEORY_CURVES}


def _header(columns) -> str:
    """The CSV header of a schema whose entries start with the column name."""
    return ",".join(entry[0] for entry in columns)


def _at(triple, i: int) -> str:
    """Entry i of a per-parameter triple or BoundVector; blank when there is none."""
    if triple is None:
        return ""
    if isinstance(triple, BoundVector):
        triple = triple.as_tuple()
    return fmt12(triple[i])


# (column, cell) of the benchmark report: one row per report r and parameter
# index i, with c the report's theory curves
_REPORT_COLUMNS = (
    ("s", lambda r, c, i: fmt12(r.truth.s)),
    ("kappa", lambda r, c, i: fmt12(r.truth.kappa)),
    ("phi_s", lambda r, c, i: fmt12(r.truth.phi_s)),
    ("method", lambda r, c, i: r.method),
    ("parameter", lambda r, c, i: _PARAM_NAMES[i]),
    ("trials", lambda r, c, i: str(r.trials)),
    ("n_samples", lambda r, c, i: str(r.n_samples)),
    ("policy", lambda r, c, i: r.policy),
    ("empirical_var", lambda r, c, i: _at(r.var_all, i)),
    ("empirical_var_physical", lambda r, c, i: _at(r.var_physical, i)),
    ("bias", lambda r, c, i: _at(r.bias_all, i)),
    ("bound", lambda r, c, i: _at(r.bound, i)),
    ("saturation_ratio", lambda r, c, i: _at(r.saturation_ratio, i)),
    ("ratio_stderr", lambda r, c, i: _at(r.ratio_stderr, i)),
    ("prediction", lambda r, c, i: _at(r.prediction, i)),
    ("prediction_ratio", lambda r, c, i: _at(r.prediction_ratio, i)),
    ("nonphysical_rate", lambda r, c, i: fmt12(r.nonphysical_rate)),
    ("n_physical", lambda r, c, i: str(r.n_physical)),
    ("mean_iterations", lambda r, c, i: fmt12(r.mean_iterations)),
) + tuple((col, lambda r, c, i, col=col: _at(c[col], i)) for col, _, _ in _THEORY_CURVES)

REPORT_HEADER = _header(_REPORT_COLUMNS)


def report_rows(report: TrialReport) -> list[str]:
    """One CSV row per parameter, carrying all four theory curves."""
    curves = _theory_curves(report.truth, report.n_samples)
    return [",".join(cell(report, curves, i) for _, cell in _REPORT_COLUMNS)
            for i in range(len(_PARAM_NAMES))]


def report_csv_lines(reports, config_json=None) -> list[str]:
    lines = _config_comment(config_json)
    lines.append(REPORT_HEADER)
    for rep in reports:
        lines.extend(report_rows(rep))
    return lines


def write_report_csv(path, reports, config_json=None) -> None:
    write_lines(path, report_csv_lines(reports, config_json))


def report_to_dict(report: TrialReport) -> dict:
    """The JSON mirror: every TrialReport field, with bias_all under "bias",
    floats at 12 significant digits."""
    out = asdict(report)
    out["bias"] = out.pop("bias_all")
    return json_ready(out)


# (column, cell) of the bounds table: one row per truth t at n samples, with c
# the theory curves there
_BOUNDS_COLUMNS = (
    ("s", lambda t, n, c: fmt12(t.s)),
    ("kappa", lambda t, n, c: fmt12(t.kappa)),
    ("phi_s", lambda t, n, c: fmt12(t.phi_s)),
    ("n_samples", lambda t, n, c: str(n)),
) + tuple(
    (f"{prefix}_{var}", lambda t, n, c, col=col, var=var: fmt12(getattr(c[col], var)))
    for col, prefix, _ in _THEORY_CURVES
    for var in _BOUND_VARS
)


def bounds_csv_lines(truths, n_samples: int, config_json=None) -> list[str]:
    """Every theory curve's three variances at each state, scaled to n_samples."""
    lines = _config_comment(config_json)
    lines.append(_header(_BOUNDS_COLUMNS))
    for t in truths:
        curves = _theory_curves(t, n_samples)
        lines.append(",".join(cell(t, n_samples, curves) for _, cell in _BOUNDS_COLUMNS))
    return lines


def json_ready(obj):
    """Recursively round floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return obj if not math.isfinite(obj) else float(fmt12(obj))
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return json_ready(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dump_json(obj, path=None) -> str:
    """Serialize a JSON-ready object as it is; write to path when given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        write_lines(path, [text])
    return text


# (column, TrackResult field, %-format) of the track CSV, one row per scan
_TRACK_COLUMNS = (
    ("t_s", "times", "%.12g"),
    ("phi_true_rad", "phi_true", "%.12g"),
    ("phi_est_rad", "phi_est", "%.12g"),
    ("half_width_rad", "half_width", "%.12g"),
    ("s_est", "s_est", "%.12g"),
    ("kappa_est", "kappa_est", "%.12g"),
    ("iterations", "iterations", "%d"),
)
_TRACK_ROW = ",".join(spec for _, _, spec in _TRACK_COLUMNS)


def track_csv_lines(result: TrackResult, config_json=None) -> list[str]:
    lines = _config_comment(config_json)
    lines.append(f"# tau_est_s: {fmt12(result.tau_est)}")
    lines.append(f"# noise_floor_rad2: {fmt12(result.noise_floor)}")
    lines.append(_header(_TRACK_COLUMNS))
    columns = [getattr(result, field).tolist() for _, field, _ in _TRACK_COLUMNS]
    lines.extend(_TRACK_ROW % row for row in zip(*columns))
    return lines


def write_track_csv(path, result: TrackResult, config_json=None) -> None:
    write_lines(path, track_csv_lines(result, config_json))
