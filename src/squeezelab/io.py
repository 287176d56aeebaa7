"""File formats: scan/DHD CSV, raw trace binary, report CSV/JSON.

Two precision regimes, deliberately different:

* raw data files (scan and DHD CSV) are written with Python repr floats,
  the shortest string that round-trips the exact float64, because
  simulate -> estimate round trips must match in-process results
  bit-for-bit;
* report files (bounds tables, benchmark CSV/JSON, track CSV) use 12
  significant digits, which is lossless at every tolerance the reports
  are consumed at.

Parse errors name the file and the 1-based line number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundVector
from .model import StateParams, SymMatrix3
from .montecarlo import TrialReport, TrackResult, theory_curves
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
    "track_csv_lines",
    "report_to_dict",
    "json_ready",
    "dump_json",
    "write_track_csv",
]

SCAN_HEADER = "psi_rad,q"
DHD_HEADER = "q1,p2"
TRACE_MAGIC = "squeezelab-trace v1"


def fmt12(x: float) -> str:
    """12-significant-digit report formatting; inf/nan spelled out."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def _config_comment(config_json) -> list[str]:
    if config_json is None:
        return []
    if not isinstance(config_json, str):
        config_json = json.dumps(config_json, sort_keys=True)
    return [f"# config: {config_json}"]


def _write_pair_csv(path, header, col_a, col_b, config_json):
    lines = _config_comment(config_json)
    lines.append(header)
    for a, b in zip(col_a, col_b):
        lines.append(f"{float(a)!r},{float(b)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_pair_csv(path, header):
    col_a, col_b = [], []
    with open(path) as fh:
        lineno = 0
        header_seen = False
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != header:
                    raise ValueError(
                        f"{path}:{lineno}: expected header {header!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 2 fields, got {len(parts)}"
                )
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric value in {line!r}"
                ) from None
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
            col_a.append(a)
            col_b.append(b)
        if not header_seen:
            raise ValueError(f"{path}: empty file, expected header {header!r}")
    return np.array(col_a), np.array(col_b)


def write_scan_csv(path, scan: HomodyneScan, config_json=None) -> None:
    _write_pair_csv(path, SCAN_HEADER, scan.phases, scan.samples, config_json)


def read_scan_csv(path) -> HomodyneScan:
    psi, q = _read_pair_csv(path, SCAN_HEADER)
    if psi.size == 0:
        raise ValueError(f"{path}: no data rows")
    return HomodyneScan(phases=psi, samples=q, meta=None)


def write_dhd_csv(path, batch: DhdBatch, config_json=None) -> None:
    _write_pair_csv(path, DHD_HEADER, batch.q1, batch.p2, config_json)


def read_dhd_csv(path) -> DhdBatch:
    q1, p2 = _read_pair_csv(path, DHD_HEADER)
    if q1.size == 0:
        raise ValueError(f"{path}: no data rows")
    return DhdBatch(q1=q1, p2=p2)


def write_trace(path, trace, rate_hz: int) -> None:
    """Header line then raw float32 little-endian samples."""
    data = np.asarray(trace, dtype="<f4")
    header = f"{TRACE_MAGIC}, rate_hz={int(rate_hz)}, count={data.size}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data.tobytes())


def read_trace(path) -> tuple[np.ndarray, int]:
    """Returns (float32 samples, rate_hz); validates magic and count."""
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
    if len(payload) != 4 * count:
        raise ValueError(
            f"{path}: header promises {count} samples ({4 * count} bytes), "
            f"payload has {len(payload)} bytes"
        )
    return np.frombuffer(payload, dtype="<f4"), rate_hz


_PARAM_NAMES = ("s", "kappa", "phi_s")

REPORT_HEADER = (
    "s,kappa,phi_s,method,parameter,trials,n_samples,policy,"
    "empirical_var,empirical_var_physical,bias,bound,saturation_ratio,"
    "ratio_stderr,prediction,prediction_ratio,nonphysical_rate,n_physical,"
    "mean_iterations,crb_homodyne,fit_prediction,crb_dhd,crb_quantum"
)


def report_rows(report: TrialReport) -> list[str]:
    """One CSV row per parameter, carrying all four theory curves."""
    t = report.truth
    curves = theory_curves(t, report.n_samples)
    rows = []
    for i, pname in enumerate(_PARAM_NAMES):
        var_phys = "" if report.var_physical is None else fmt12(report.var_physical[i])
        pred = "" if report.prediction is None else fmt12(report.prediction.as_tuple()[i])
        pred_ratio = "" if report.prediction_ratio is None else fmt12(report.prediction_ratio[i])
        rows.append(
            ",".join(
                [
                    fmt12(t.s),
                    fmt12(t.kappa),
                    fmt12(t.phi_s),
                    report.method,
                    pname,
                    str(report.trials),
                    str(report.n_samples),
                    report.policy,
                    fmt12(report.var_all[i]),
                    var_phys,
                    fmt12(report.bias_all[i]),
                    fmt12(report.bound.as_tuple()[i]),
                    fmt12(report.saturation_ratio[i]),
                    fmt12(report.ratio_stderr[i]),
                    pred,
                    pred_ratio,
                    fmt12(report.nonphysical_rate),
                    str(report.n_physical),
                    fmt12(report.mean_iterations),
                    fmt12(curves["crb_homodyne"].as_tuple()[i]),
                    fmt12(curves["fit_prediction"].as_tuple()[i]),
                    fmt12(curves["crb_dhd"].as_tuple()[i]),
                    fmt12(curves["crb_quantum"].as_tuple()[i]),
                ]
            )
        )
    return rows


def report_csv_lines(reports, config_json=None) -> list[str]:
    lines = _config_comment(config_json)
    lines.append(REPORT_HEADER)
    for rep in reports:
        lines.extend(report_rows(rep))
    return lines


def write_report_csv(path, reports, config_json=None) -> None:
    lines = report_csv_lines(reports, config_json)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _params_dict(p: StateParams) -> dict:
    return {"s": p.s, "kappa": p.kappa, "phi_s": p.phi_s}


def _bound_dict(b: BoundVector) -> dict:
    return {
        "var_s": b.var_s,
        "var_kappa": b.var_kappa,
        "var_phi": b.var_phi,
        "n_samples": b.n_samples,
    }


def _sym3_dict(m: SymMatrix3) -> dict:
    return {"ss": m.ss, "sk": m.sk, "sp": m.sp, "kk": m.kk, "kp": m.kp, "pp": m.pp}


def report_to_dict(report: TrialReport) -> dict:
    return {
        "truth": _params_dict(report.truth),
        "method": report.method,
        "trials": report.trials,
        "n_samples": report.n_samples,
        "policy": report.policy,
        "bound": _bound_dict(report.bound),
        "prediction": None if report.prediction is None else _bound_dict(report.prediction),
        "empirical_cov": _sym3_dict(report.empirical_cov),
        "var_all": list(report.var_all),
        "var_physical": None if report.var_physical is None else list(report.var_physical),
        "bias": list(report.bias_all),
        "saturation_ratio": list(report.saturation_ratio),
        "ratio_stderr": list(report.ratio_stderr),
        "prediction_ratio": None
        if report.prediction_ratio is None
        else list(report.prediction_ratio),
        "nonphysical_rate": report.nonphysical_rate,
        "n_physical": report.n_physical,
        "mean_iterations": report.mean_iterations,
    }


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
    """Serialize with rounded floats; write to path when given."""
    text = json.dumps(json_ready(obj), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def track_csv_lines(result: TrackResult, config_json=None) -> list[str]:
    lines = _config_comment(config_json)
    lines.append(f"# tau_est_s: {fmt12(result.tau_est)}")
    lines.append(f"# noise_floor_rad2: {fmt12(result.noise_floor)}")
    lines.append("t_s,phi_true_rad,phi_est_rad,half_width_rad,s_est,kappa_est,iterations")
    for k in range(len(result.times)):
        lines.append(
            ",".join(
                [
                    fmt12(result.times[k]),
                    fmt12(result.phi_true[k]),
                    fmt12(result.phi_est[k]),
                    fmt12(result.half_width[k]),
                    fmt12(result.s_est[k]),
                    fmt12(result.kappa_est[k]),
                    str(int(result.iterations[k])),
                ]
            )
        )
    return lines


def write_track_csv(path, result: TrackResult, config_json=None) -> None:
    lines = track_csv_lines(result, config_json)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
