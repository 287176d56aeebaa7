"""File format round trips and command line behavior."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import squeezelab
from squeezelab import (
    DhdBatch,
    DriftModel,
    HomodyneScan,
    MAX_PHASE,
    ScanConfig,
    StateParams,
    default_temporal_mode,
    dhd_estimate,
    fit_estimate,
    mom_estimate,
    run_trials,
    sample_dhd,
    sample_homodyne_scan,
    scan_from_trace,
    synthesize_trace,
    track_angle,
)
from squeezelab import bounds, estimators, model, simulate
from squeezelab import io as sio
from squeezelab.cli import (
    RunConfig,
    build_parser,
    main,
    parse_methods,
    parse_s_values,
    resolve_config,
)


# ------------------------------------------------------------ io: raw data


def test_scan_csv_round_trip_bit_exact(tmp_path):
    """repr floats survive the file system without losing a single bit, so
    a scan read back estimates to the bytes of the scan as drawn."""
    for spacing in ("random", "equispaced"):
        scan = sample_homodyne_scan(
            StateParams(0.3, 1.7, 0.9), ScanConfig(n_psi=64, spacing=spacing), seed=12
        )
        path = tmp_path / f"{spacing}.csv"
        sio.write_scan_csv(path, scan, config_json={"seed": 12})
        back = sio.read_scan_csv(path)
        assert np.array_equal(back.phases, scan.phases)
        assert np.array_equal(back.samples, scan.samples)
        assert path.read_text().startswith('# config: {"seed": 12}\npsi_rad,q\n')
        for estimate in (fit_estimate, mom_estimate):
            drawn, read = estimate(scan), estimate(back)
            assert drawn.predicted_cov is not None
            assert repr(read) == repr(drawn) and read.flags == drawn.flags


def test_dhd_csv_round_trip_bit_exact(tmp_path):
    batch = sample_dhd(StateParams(0.5, 2.0, 0.4), mu=48, seed=1)
    path = tmp_path / "pairs.csv"
    sio.write_dhd_csv(path, batch)
    back = sio.read_dhd_csv(path)
    assert np.array_equal(back.q1, batch.q1)
    assert np.array_equal(back.p2, batch.p2)


def test_csv_parse_errors_cite_lines(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError, match=r"a\.csv:1"):
        sio.read_scan_csv(bad_header)

    bad_fields = tmp_path / "b.csv"
    bad_fields.write_text("# note\npsi_rad,q\n0.1,0.2\n0.3,0.4,0.5\n")
    with pytest.raises(ValueError, match=r"b\.csv:4"):
        sio.read_scan_csv(bad_fields)

    bad_value = tmp_path / "c.csv"
    bad_value.write_text("psi_rad,q\n0.1,squeeze\n")
    with pytest.raises(ValueError, match=r"c\.csv:2"):
        sio.read_scan_csv(bad_value)

    empty = tmp_path / "d.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        sio.read_scan_csv(empty)

    header_only = tmp_path / "e.csv"
    header_only.write_text("psi_rad,q\n")
    with pytest.raises(ValueError, match="no data rows"):
        sio.read_scan_csv(header_only)

    not_finite = tmp_path / "f.csv"
    not_finite.write_text("psi_rad,q\n0.1,0.2\n0.3,nan\n")
    with pytest.raises(ValueError, match=r"f\.csv:3: non-finite"):
        sio.read_scan_csv(not_finite)

    dhd_not_finite = tmp_path / "g.csv"
    dhd_not_finite.write_text("# config: {}\nq1,p2\n-inf,0.2\n")
    with pytest.raises(ValueError, match=r"g\.csv:3: non-finite"):
        sio.read_dhd_csv(dhd_not_finite)


def test_csv_readers_name_the_file_of_a_binary_input(tmp_path, capsys):
    """A trace given to a CSV reader fails at its header, naming file:1 and
    the expected header, however the payload decodes; an undecodable byte
    in a data row fails at that row.  The CLI reports the same and exits 1."""
    path = tmp_path / "trace.dat"
    assert main(["simulate", "--kind", "trace", "--s", "0.5", "--phi-s", "0.3",
                 "--out", str(path)]) == 0
    for read, header in ((sio.read_scan_csv, "psi_rad,q"), (sio.read_dhd_csv, "q1,p2")):
        with pytest.raises(ValueError, match=rf"trace\.dat:1: expected header '{header}', "
                                             r"got 'squeezelab-trace v1, rate_hz="):
            read(path)
    capsys.readouterr()
    assert main(["estimate", "--input", str(path), "--method", "fit"]) == 1
    assert "trace.dat:1: expected header 'psi_rad,q'" in capsys.readouterr().err

    bad_byte = tmp_path / "h.csv"
    bad_byte.write_bytes(b"psi_rad,q\n0.1,0.2\n0.3,\xd3\n")
    with pytest.raises(ValueError, match=r"h\.csv:3: non-numeric value"):
        sio.read_scan_csv(bad_byte)


# every finite float64 a data file must carry, the edges drawn often
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7e308, -1.7e308, 1.7976931348623157e308])
_finite_floats = _edge_floats | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=80)
@given(pairs=st.lists(st.tuples(_finite_floats, _finite_floats), min_size=1, max_size=40))
def test_csv_round_trip_keeps_every_bit(tmp_path_factory, pairs):
    a, b = (np.array(col, dtype=float) for col in zip(*pairs))
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    sio.write_scan_csv(path, HomodyneScan(phases=a, samples=b), config_json={"seed": 1})
    scan = sio.read_scan_csv(path)
    assert scan.phases.tobytes() == a.tobytes() and scan.samples.tobytes() == b.tobytes()
    sio.write_dhd_csv(path, DhdBatch(q1=a, p2=b))
    batch = sio.read_dhd_csv(path)
    assert batch.q1.tobytes() == a.tobytes() and batch.p2.tobytes() == b.tobytes()


@pytest.mark.parametrize("body, error", [
    # the first bad line wins, whatever is wrong with a later one
    ("0.1,0.2\n0.3,squeeze\n0.5,0.6\n0.7,0.8,0.9\n", r":3: non-numeric value in '0\.3,squeeze'"),
    ("0.1,0.2,0.3\n0.4,squeeze\n", r":2: expected 2 fields, got 3"),
    ("0.1,inf\n0.2,squeeze\n", r":2: non-finite value in '0\.1,inf'"),
    # on one line: the field count, then the numbers, then finiteness
    ("nan,squeeze,0.1\n", r":2: expected 2 fields, got 3"),
    ("nan,squeeze\n", r":2: non-numeric value in 'nan,squeeze'"),
    ("0.1\n", r":2: expected 2 fields, got 1"),
    ("0.1,\n", r":2: non-numeric value in '0\.1,'"),
    # comment and blank lines count towards the line number
    ("0.1,0.2\n\n# note\n   \n0.3,-nan\n", r":6: non-finite value in '0\.3,-nan'"),
    # a second header is a data row like any other
    ("0.1,0.2\npsi_rad,q\n", r":3: non-numeric value in 'psi_rad,q'"),
])
def test_csv_reports_the_first_bad_line(tmp_path, body, error):
    path = tmp_path / "bad.csv"
    path.write_text("psi_rad,q\n" + body)
    with pytest.raises(ValueError, match=r"bad\.csv" + error):
        sio.read_scan_csv(path)


def test_csv_layout_the_reader_accepts(tmp_path):
    """Comment and blank lines anywhere, CRLF or CR endings, spaces around
    fields and header, and no final newline."""
    path = tmp_path / "loose.csv"
    path.write_bytes(b"\r\n# config: {}\r\n  psi_rad,q \r\n 0.5 , -1.25\t\r\n# mid\r\n"
                     b"   \r\n\r\n1e-3,2\r\n  # indented\r\n-0.0,4")
    scan = sio.read_scan_csv(path)
    assert scan.phases.tobytes() == np.array([0.5, 1e-3, -0.0]).tobytes()
    assert scan.samples.tobytes() == np.array([-1.25, 2.0, 4.0]).tobytes()
    assert scan.phases.flags.c_contiguous and scan.samples.flags.c_contiguous

    path.write_bytes(b"q1,p2\r0.5,1\r\r0.25,2\r")
    batch = sio.read_dhd_csv(path)
    assert batch.q1.tolist() == [0.5, 0.25] and batch.p2.tolist() == [1.0, 2.0]
    path.write_bytes(b"q1,p2\r0.5,1\r\r0.25,x\r")
    with pytest.raises(ValueError, match=r"loose\.csv:4: non-numeric"):
        sio.read_dhd_csv(path)

    path.write_bytes(b"# only a comment\n\n")
    with pytest.raises(ValueError, match=r"loose\.csv: empty file"):
        sio.read_dhd_csv(path)
    path.write_bytes(b"\n# note\nq1,p2\n# no rows\n\n")
    with pytest.raises(ValueError, match="no data rows"):
        sio.read_dhd_csv(path)
    path.write_bytes(b"\n# note\n q1,p3\n0,1\n")
    with pytest.raises(ValueError, match=r"loose\.csv:3: expected header 'q1,p2', got 'q1,p3'"):
        sio.read_dhd_csv(path)


def test_trace_round_trip(tmp_path):
    trace = np.array([0.5, -1.25, 2.0, 3.5], dtype=np.float32)
    path = tmp_path / "t.bin"
    sio.write_trace(path, trace, rate_hz=100_000_000)
    back, rate = sio.read_trace(path)
    assert rate == 100_000_000
    assert np.array_equal(back, trace)
    assert path.read_bytes().startswith(b"squeezelab-trace v1, rate_hz=100000000, count=4\n")


def test_trace_header_validation(tmp_path):
    wrong_magic = tmp_path / "w.bin"
    wrong_magic.write_bytes(b"some other format\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match=r"w\.bin:1"):
        sio.read_trace(wrong_magic)

    bad_field = tmp_path / "x.bin"
    bad_field.write_bytes(b"squeezelab-trace v1, rate_hz=fast, count=1\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="malformed header"):
        sio.read_trace(bad_field)

    # a rate beyond 2**53 would not survive the float the trace mode is built from
    for rate in (0, -5, 2**53 + 1, 10**400):
        bad_rate = tmp_path / "z.bin"
        bad_rate.write_bytes(b"squeezelab-trace v1, rate_hz=%d, count=1\n\x00\x00\x00\x00" % rate)
        with pytest.raises(ValueError, match=rf"z\.bin:1: rate_hz={rate} must be > 0 and at most"):
            sio.read_trace(bad_rate)

    truncated = tmp_path / "y.bin"
    truncated.write_bytes(b"squeezelab-trace v1, rate_hz=10, count=4\n\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="payload"):
        sio.read_trace(truncated)


# ------------------------------------------------------------ io: reports


def test_fmt12():
    assert sio.fmt12(math.pi) == "3.14159265359"
    assert sio.fmt12(float("inf")) == "inf"
    assert sio.fmt12(float("-inf")) == "-inf"
    assert sio.fmt12(float("nan")) == "nan"
    assert sio.fmt12(2.0) == "2"


@pytest.mark.parametrize("x, text", [
    (float("nan"), "nan"),
    (-float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0"),
    (1e-320, "9.99988867183e-321"),
])
def test_fmt12_spells_out_the_edge_values(x, text):
    assert sio.fmt12(x) == text
    assert sio.fmt12(np.float64(x)) == text


def test_json_ready_rounds_and_converts():
    out = sio.json_ready(
        {"a": math.pi, "b": [np.float64(1.5), np.int64(3)], "c": float("inf"), "d": "x"}
    )
    assert out["a"] == 3.14159265359
    assert out["b"] == [1.5, 3] and isinstance(out["b"][1], int)
    # a numpy float that is not a Python float, rounded like one
    assert sio.json_ready(np.float32(0.1)) == 0.100000001490
    assert type(sio.json_ready(np.float32(0.1))) is float
    assert math.isinf(out["c"])
    assert out["d"] == "x"


def test_report_csv_schema():
    rep = run_trials(StateParams(0.5, 1.4, 0.2), "fit", 6, seed=0,
                     scan_config=ScanConfig(n_psi=64))
    lines = sio.report_csv_lines([rep], config_json='{"seed": 0}')
    assert lines[0] == '# config: {"seed": 0}'
    assert lines[1] == sio.REPORT_HEADER
    assert len(lines) == 2 + 3
    n_cols = len(sio.REPORT_HEADER.split(","))
    for row, pname in zip(lines[2:], ("s", "kappa", "phi_s")):
        cells = row.split(",")
        assert len(cells) == n_cols
        assert cells[3] == "fit" and cells[4] == pname
        assert cells[5] == "6" and cells[6] == "64"


def test_report_to_dict_and_dump(tmp_path):
    rep = run_trials(StateParams(0.5, 1.4, 0.2), "mom", 6, seed=0,
                     scan_config=ScanConfig(n_psi=64))
    d = sio.report_to_dict(rep)
    assert d["method"] == "mom" and d["prediction"] is None
    assert len(d["saturation_ratio"]) == 3
    path = tmp_path / "rep.json"
    text = sio.dump_json(d, path=path)
    assert json.loads(path.read_text()) == json.loads(text)


def test_track_csv_layout():
    res = track_angle(DriftModel(amplitude=0.0), StateParams(0.5, 1.4, 0.2),
                      scan_config=ScanConfig(n_psi=100), duration=0.005, seed=0)
    lines = sio.track_csv_lines(res, config_json='{"seed": 0}')
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# tau_est_s:")
    assert lines[2].startswith("# noise_floor_rad2:")
    assert lines[3] == "t_s,phi_true_rad,phi_est_rad,half_width_rad,s_est,kappa_est,iterations"
    assert len(lines) == 4 + 10
    assert all(len(row.split(",")) == 7 for row in lines[4:])


# ------------------------------------------------------------ report schemas

REPORT_HEADER = (
    "s,kappa,phi_s,method,parameter,trials,n_samples,policy,"
    "empirical_var,empirical_var_physical,bias,bound,saturation_ratio,"
    "ratio_stderr,prediction,prediction_ratio,nonphysical_rate,n_physical,"
    "mean_iterations,crb_homodyne,fit_prediction,crb_dhd,crb_quantum"
)
BOUNDS_HEADER = (
    "s,kappa,phi_s,n_samples,"
    "crb_var_s,crb_var_kappa,crb_var_phi,"
    "fit_var_s,fit_var_kappa,fit_var_phi,"
    "dhd_var_s,dhd_var_kappa,dhd_var_phi,"
    "qcrb_var_s,qcrb_var_kappa,qcrb_var_phi"
)
TRACK_HEADER = "t_s,phi_true_rad,phi_est_rad,half_width_rad,s_est,kappa_est,iterations"


def _key_tree(obj):
    """The nesting of a JSON value's object keys; every other value is None."""
    if isinstance(obj, dict):
        return {k: _key_tree(v) for k, v in obj.items()}
    return None


def _keys(*names):
    return dict.fromkeys(names)


def test_csv_headers_are_pinned(tmp_path, capsys):
    report = tmp_path / "rep.csv"
    assert main(["benchmark", "--s", "0.5", "--methods", "fit", "--trials", "4",
                 "--n-psi", "64", "--out", str(report)]) == 0
    assert report.read_text().splitlines()[1] == REPORT_HEADER
    assert sio.REPORT_HEADER == REPORT_HEADER

    capsys.readouterr()
    assert main(["bounds", "--s", "0.5"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == BOUNDS_HEADER

    track = tmp_path / "track.csv"
    assert main(["track", "--s", "0.5", "--n-psi", "64", "--duration", "0.002",
                 "--out", str(track)]) == 0
    assert track.read_text().splitlines()[3] == TRACK_HEADER


def test_json_documents_have_pinned_keys(tmp_path, capsys):
    config = _keys(*(f.name for f in dataclasses.fields(RunConfig)))
    bound = _keys("var_s", "var_kappa", "var_phi", "n_samples")
    report = {
        **_keys("method", "trials", "n_samples", "policy", "var_all", "var_physical",
                "bias", "saturation_ratio", "ratio_stderr", "prediction_ratio",
                "nonphysical_rate", "n_physical", "mean_iterations"),
        "truth": _keys("s", "kappa", "phi_s"),
        "bound": bound,
        "prediction": bound,
        "empirical_cov": _keys("ss", "sk", "sp", "kk", "kp", "pp"),
    }
    json_path = tmp_path / "rep.json"
    assert main(["benchmark", "--s", "0.5", "--methods", "fit,mom", "--trials", "4",
                 "--n-psi", "64", "--out", str(tmp_path / "rep.csv"),
                 "--json", str(json_path)]) == 0
    mirror = json.loads(json_path.read_text())
    assert _key_tree(mirror) == {"config": config, "reports": None}
    fit_report, mom_report = mirror["reports"]
    assert _key_tree(fit_report) == report
    assert _key_tree(mom_report) == {**report, "prediction": None}

    scan = tmp_path / "scan.csv"
    assert main(["simulate", "--s", "0.5", "--n-psi", "64", "--out", str(scan)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", str(scan), "--method", "fit,mom", "--n-psi", "64",
                 "--prior-s", "0.4", "--prior-kappa", "1.5", "--prior-phi", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    triple = _keys("s", "kappa", "phi_s")
    estimate = {
        **_keys("s", "kappa", "phi_s", "squeezing_db", "squeezing_db_err", "method",
                "physical", "iterations", "flags"),
        "prior_used": triple,
        "predicted_std": triple,
    }
    assert _key_tree(payload) == {"config": config, "estimates": None}
    fit_est, mom_est = payload["estimates"]
    assert _key_tree(fit_est) == {**estimate, "prior_used": None}
    assert _key_tree(mom_est) == estimate


@pytest.mark.parametrize("workers", [1, 2])
def test_benchmark_report_bytes_are_pinned(tmp_path, workers):
    """SHA-256 of the report CSV and JSON mirror of a fit, MoM and DHD sweep,
    and of a fit and MoM sweep on random phases, whose blocks carry per-row
    harmonics: any change to a per-trial draw or estimate, or to the merge
    of the worker chunks, shows here.  Both files start with the config
    echo, so a new RunConfig field changes the digests while every data row
    stays put."""
    cases = [
        (["--s", "0.21,0.5,0.9", "--methods", "fit,mom,dhd", "--trials", "200",
          "--n-psi", "300", "--seed", "11"],
         ["c2eb9d8445fbf73a843d396764f2f2e0b03becf41de9ee02bf04bf9d02a40c5a",
          "e50e78836dde6b609ca23aa662fbbae160ccb03ff73376f71ac2f747309ffd10"]),
        (["--spacing", "random", "--n-psi", "64", "--methods", "fit,mom", "--s", "0.21,0.5",
          "--trials", "200", "--seed", "11"],
         ["68a004778ec46bce07fbbb4510924dda585c1f8b4c6a918f50022fc41817aa89",
          "bb0142be670afbe7ed48089ac86d7cf3361a69565c99f15653d17114d1b5aab9"]),
    ]
    for k, (argv, want) in enumerate(cases):
        csv_path, json_path = tmp_path / f"rep{k}.csv", tmp_path / f"rep{k}.json"
        assert main(["benchmark", *argv, "--workers", str(workers), "--out", str(csv_path),
                     "--json", str(json_path)]) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path)] == want


# ------------------------------------------------------------ cli: parsing


def test_parse_s_values():
    assert parse_s_values("0.4") == (0.4,)
    assert parse_s_values("0.2,0.5") == (0.2, 0.5)
    assert parse_s_values("0.2:0.4:0.1") == pytest.approx((0.2, 0.3, 0.4))
    assert parse_s_values("0.2:0.3") == pytest.approx((0.2, 0.25, 0.3))
    with pytest.raises(ValueError, match="need stop >= start"):
        parse_s_values("0.5:0.2")
    with pytest.raises(ValueError, match="bad s value 'a,b'"):
        parse_s_values("a,b")


def test_parse_s_range_lands_on_the_named_decimals():
    """A range is stepped in exact decimals: its last value is the stop it
    names, not 0.9999999999999999, and no value picks up a rounding tail."""
    assert parse_s_values("0.1:1.0:0.3") == (0.1, 0.4, 0.7, 1.0)
    assert parse_s_values("0.2:0.4:0.1") == (0.2, 0.3, 0.4)
    assert parse_s_values("0.2:0.3") == (0.2, 0.25, 0.3)
    assert parse_s_values("0:1:0.3") == (0.0, 0.3, 0.6, 0.9)
    for bad in ("0.1:inf:0.1", "nan:1", "0.1:1:nan", "0.1:1:inf", "0:1e40:1e-20", "0.1:0.5:0.1:1"):
        with pytest.raises(ValueError, match="bad s range"):
            parse_s_values(bad)


def test_parse_methods():
    assert parse_methods("fit,mom") == ("fit", "mom")
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        parse_methods("fit,magic")
    with pytest.raises(ValueError, match="empty method list"):
        parse_methods("")


def test_repeated_method_exits_1(capsys):
    """A method listed twice is refused by name, rather than run twice."""
    assert main(["benchmark", "--s", "0.5", "--methods", "fit,fit", "--trials", "4"]) == 1
    out, err = capsys.readouterr()
    assert "method 'fit' is listed twice" in err and out == ""


@pytest.mark.parametrize("command", ["bounds", "benchmark"])
def test_config_file_empty_s_exits_1(tmp_path, capsys, command):
    """A config file whose s list is empty is refused, as an empty method
    list is, instead of a report with no rows; no --s overrides it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": [], "trials": 4}))
    assert main([command, "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "error: empty s list" in err and out == ""


def _echo_config(capsys):
    err = capsys.readouterr().err
    for line in err.splitlines():
        if line.startswith("config: "):
            return json.loads(line.removeprefix("config: "))
    raise AssertionError(f"no config echo in stderr: {err!r}")


def test_precedence_env_file_flags(tmp_path, capsys):
    """The config file beats the defaults and the flags beat the file; the
    environment sets no option."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 7}')

    assert main(["bounds", "--s", "0.5", "--config", str(cfg)]) == 0
    assert _echo_config(capsys)["seed"] == 7

    assert main(["bounds", "--s", "0.5", "--config", str(cfg), "--seed", "4"]) == 0
    assert _echo_config(capsys)["seed"] == 4


@pytest.mark.parametrize("text, error", [
    (None, "cannot read config file"), ("{", "is not valid JSON"),
    ("[1]", "must hold a JSON object"),
], ids=["missing", "not-json", "list"])
def test_config_file_unreadable_or_not_an_object_exits_1(tmp_path, capsys, text, error):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert main(["bounds", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "error: " in err and error in err and out == ""


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seeds": 1}')
    assert main(["bounds", "--s", "0.5", "--config", str(cfg)]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_config_validation_errors(capsys):
    assert main(["bounds", "--s", "1.5"]) == 1
    assert main(["bounds", "--s", "0.5", "--kappa", "0.5"]) == 1
    capsys.readouterr()
    assert main(["track", "--duration", "inf"]) == 1
    assert "error: duration=inf is not finite" in capsys.readouterr().err
    # kappa follows the purity family whenever --kappa is absent; there is no flag for it
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--s", "0.5", "--family", "kappa-inv-sqrt-s"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --family" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n_psi", 100.7), ("trials", 2.9), ("seed", True), ("max_iter", False),
    ("phi_s", True), ("kappa", True), ("tol", False), ("s", True), ("s", [True]),
    ("trial", 1.5),
    # s of a JSON type that is neither a number, a list nor a string
    ("s", None), ("s", {"a": 1}),
])
def test_config_file_rejects_bools_and_fractional_integers(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    # no --s flag: it would override the file's s
    assert main(["bounds", "--config", str(cfg)]) == 1
    assert f"error: bad value for {key}" in capsys.readouterr().err


def test_config_file_accepts_integral_floats(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_psi": 100.0, "trials": 20}')
    assert main(["bounds", "--s", "0.5", "--config", str(cfg)]) == 0
    echoed = _echo_config(capsys)
    assert echoed["n_psi"] == 100 and isinstance(echoed["n_psi"], int)


# the settings that must be > 0 when set
_POSITIVE = ("n_samples", "trials", "tol", "max_iter", "duration", "rate_hz", "fwhm_hz",
             "scan_duration", "prior_s", "prior_kappa")


@pytest.mark.parametrize("key, value", [
    ("spacing", "grid"), ("policy", "some"), ("drift_kind", "jump"),
    ("n_psi", 0), ("phase_span", 0), ("correlation_time", 0.0), ("step_interval", -1.0),
    ("kappa", math.nan), ("phi_s", math.nan), ("phi_s", -math.inf), ("tol", math.nan),
    ("tol", -1.0), ("tol", 0.0), ("max_iter", 0), ("correlation_time", math.inf),
    ("step_interval", math.nan), ("amplitude", math.inf), ("duration", math.inf),
    ("rate_hz", math.inf), ("rate_hz", 1e8 + 0.5), ("fwhm_hz", math.nan),
    ("scan_duration", -math.inf), ("prior_s", math.nan), ("prior_kappa", math.inf),
    ("prior_phi", math.nan), ("max_iter", -1), ("methods", ["fit", "fit"]),
    # tol and max_iter have their cases at 0 above
    *((key, value) for key in _POSITIVE if key not in ("tol", "max_iter") for value in (0, -1)),
])
def test_config_file_bad_choice_or_range_exits_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    # a whole prior, so that a bad prior_* value is the only fault
    cfg.write_text(json.dumps({"prior_s": 0.4, "prior_kappa": 1.5, "prior_phi": 0.1,
                               key: value}))
    assert main(["bounds", "--s", "0.5", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert "error:" in err and out == ""
    assert key not in _POSITIVE or f"error: {key}=" in err


# a value other than its default for every RunConfig field
_EVERY_SETTING = {
    "seed": 5, "s": [0.3, 0.6], "kappa": 2.5, "phi_s": 0.1, "n_psi": 64,
    "phase_span": 4, "spacing": "random", "n_samples": 50, "trials": 10,
    "methods": ["fit", "dhd"], "policy": "exclude", "tol": 1e-7, "max_iter": 15,
    "drift_kind": "random-walk", "correlation_time": 1e-3, "step_interval": 1e-4,
    "amplitude": 0.2, "duration": 0.01, "trial": 3, "rate_hz": 5e7, "fwhm_hz": 4e6,
    "scan_duration": 2e-4, "prior_s": 0.4, "prior_kappa": 1.5, "prior_phi": 0.2,
}


def test_every_run_config_field_is_a_config_key_echoed_back(tmp_path, capsys):
    want = _EVERY_SETTING
    defaults = dataclasses.asdict(RunConfig())
    assert set(want) == set(defaults)
    assert all(want[k] != defaults[k] for k in want)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(want))
    assert main(["bounds", "--config", str(cfg)]) == 0
    assert _echo_config(capsys) == want


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.scan_config() == ScanConfig()
    assert cfg.drift_model() == DriftModel()
    assert cfg.temporal_mode() == default_temporal_mode()


@pytest.mark.parametrize("settings_file", [
    None,
    {"s": [0.21, 0.3, 0.5], "methods": ["fit", "mom", "dhd"]},
    _EVERY_SETTING,
], ids=["defaults", "lists", "every-setting"])
def test_echo_is_the_json_of_the_config_as_a_dict(tmp_path, capsys, settings_file):
    """The echo line holds, byte for byte, the JSON of ``dataclasses.asdict``."""
    argv = ["bounds"]
    if settings_file is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(settings_file))
        argv += ["--config", str(path)]
    cfg = resolve_config(build_parser().parse_args(argv))
    assert main(argv) == 0
    echoes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config: ")]
    assert echoes == ["config: " + json.dumps(dataclasses.asdict(cfg), sort_keys=True)]


def _subcommands():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _flag_surface(command):
    return {
        (flag, a.dest, tuple(a.choices) if a.choices else None)
        for a in _subcommands()[command]._actions
        for flag in a.option_strings
        if a.dest != "help"
    }


_STATE = {("--s", "s", None), ("--kappa", "kappa", None), ("--phi-s", "phi_s", None)}
_SCAN = {
    ("--n-psi", "n_psi", None), ("--phase-span", "phase_span", None),
    ("--spacing", "spacing", ("equispaced", "random")),
}
_TRACE = {("--fwhm-hz", "fwhm_hz", None), ("--scan-duration", "scan_duration", None)}
_COMMON = {("--seed", "seed", None), ("--config", "config", None), ("--out", "out", None)}
_ITER = {("--tol", "tol", None), ("--max-iter", "max_iter", None)}


@pytest.mark.parametrize("command, want", [
    ("bounds", _STATE | _COMMON | {("--n", "n_samples", None)}),
    ("simulate", _STATE | _SCAN | _TRACE | _COMMON | {
        ("--kind", "kind", ("scan", "dhd", "trace")), ("--n", "n_samples", None),
        ("--trial", "trial", None), ("--rate-hz", "rate_hz", None),
    }),
    ("estimate", _SCAN | _TRACE | _COMMON | _ITER | {
        ("--input", "input", None), ("--method", "method", None),
        ("--format", "format", ("scan", "dhd", "trace")),
        ("--prior-s", "prior_s", None), ("--prior-kappa", "prior_kappa", None),
        ("--prior-phi", "prior_phi", None),
    }),
    ("benchmark", _STATE | _SCAN | _COMMON | {
        ("--methods", "methods", None), ("--trials", "trials", None),
        ("--n", "n_samples", None), ("--policy", "policy", ("include", "exclude")),
        ("--workers", "workers", None), ("--json", "json", None),
    }),
    ("track", _STATE | _SCAN | _COMMON | _ITER | {
        ("--drift-kind", "drift_kind", ("mean-reverting", "random-walk")),
        ("--tau", "correlation_time", None), ("--step", "step_interval", None),
        ("--amplitude", "amplitude", None), ("--duration", "duration", None),
    }),
])
def test_cli_flag_surface(command, want):
    assert _flag_surface(command) == want


# options that say where data come from and go to, or how a run executes
_EXECUTION_DETAILS = {"config", "out", "input", "method", "format", "kind", "workers", "json"}


def test_every_option_is_a_run_config_field_or_an_execution_detail():
    """A run option declared outside RunConfig escapes its checks and its echo."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for command, parser in _subcommands().items():
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        assert dests - fields - _EXECUTION_DETAILS == set(), command


def test_package_exports_every_public_module_name():
    modules = [squeezelab.model, squeezelab.bounds, squeezelab.estimators,
               squeezelab.simulate, squeezelab.montecarlo]
    names = [name for mod in modules for name in mod.__all__]
    # the package star-imports these modules, so a later module's name would
    # silently shadow an earlier one
    assert len(names) == len(set(names))
    for mod in modules:
        for name in mod.__all__:
            assert getattr(squeezelab, name) is getattr(mod, name), name
    assert sorted(squeezelab.__all__) == sorted(names + ["__version__"])


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-2.5e+1", "-.5e1", "-3.e0", "-7", "-0.25"])
def test_negative_number_follows_its_flag(capsys, value):
    """A negative number, with or without an exponent, is read as the value
    of the flag before it, as the --flag=value form is."""
    assert main(["bounds", "--phi-s", value, "--n", "100"]) == 0
    spaced = capsys.readouterr()
    assert main(["bounds", f"--phi-s={value}", "--n", "100"]) == 0
    assert capsys.readouterr() == spaced
    echo = json.loads(spaced.err.removeprefix("config: "))
    assert echo["phi_s"] == float(value) and echo["n_samples"] == 100


@pytest.mark.parametrize("argv", [
    ["bounds", "--phi-s", "--n", "100"],
    ["bounds", "--phi-s", "-1e-3x"],
    ["simulate", "--phi-s", "-e3", "--out", "x.csv"],
])
def test_an_option_is_not_read_as_a_number(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "--kappa", "abc"],
    ["simulate", "--n-psi", "2.5", "--out", "x.csv"],
    ["benchmark", "--n-psi", "2.5"],
])
def test_malformed_scalar_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    """Repeated main calls, a malformed one among them, share one parser."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert main(["bounds", "--s", "0.5"]) == 0
    with pytest.raises(SystemExit):
        main(["bounds", "--kappa", "abc"])
    capsys.readouterr()
    assert built.count("squeezelab") <= 1


def _scan_roundtrip(path, capsys):
    """(exit code, stdout, stderr) of simulate and of estimate, and the file."""
    outcomes = []
    for argv in (["simulate", "--kind", "scan", "--s", "0.4", "--n-psi", "64",
                  "--seed", "5", "--out", str(path)],
                 ["estimate", "--input", str(path), "--method", "fit,mom", "--n-psi", "64"]):
        code = main(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes, path.read_bytes()


def test_malformed_call_leaves_next_call_unchanged(tmp_path, capsys):
    """A call that exits 2 on a bad flag changes nothing a later call prints
    or writes: the shared parser keeps no state from one call to the next."""
    alone = _scan_roundtrip(tmp_path / "alone.csv", capsys)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n-psi", "2.5", "--kind", "dhd", "--out", str(tmp_path / "bad.csv")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert _scan_roundtrip(tmp_path / "after.csv", capsys) == alone
    assert [code for code, _, _ in alone[0]] == [0, 0]
    assert not (tmp_path / "bad.csv").exists()


def test_help_text_matches_a_fresh_process(monkeypatch, tmp_path, capsys):
    """--help in a process whose parser has served earlier calls prints what
    a fresh interpreter prints."""
    monkeypatch.setenv("COLUMNS", "100")
    assert main(["simulate", "--kind", "scan", "--n-psi", "16",
                 "--out", str(tmp_path / "scan.csv")]) == 0
    with pytest.raises(SystemExit):
        main(["bounds", "--kappa", "abc"])
    capsys.readouterr()

    env = dict(os.environ)
    # the subprocess must import the squeezelab under test, not an installed one
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(squeezelab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    for argv in ([], ["bounds"], ["simulate"], ["estimate"], ["benchmark"], ["track"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        here = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "squeezelab.cli", *argv, "--help"],
                               env=env, capture_output=True, text=True, timeout=60)
        assert fresh.returncode == 0, fresh.stderr
        assert here == fresh.stdout
        assert here.startswith("usage: squeezelab")


def test_cli_import_loads_no_process_pool():
    """Importing the CLI in a fresh interpreter loads neither
    concurrent.futures nor multiprocessing: only a sweep of more than one
    worker opens a process pool, and it imports them then."""
    env = dict(os.environ)
    # the subprocess must import the squeezelab under test, not an installed one
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(squeezelab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = ("import sys, squeezelab.cli; "
            "print(*(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == ""


# ------------------------------------------------------------ cli: commands


def test_bounds_stdout_and_inf(capsys):
    assert main(["bounds", "--s", "1.0", "--kappa", "1.0", "--n", "1"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].count(",") == 15
    row = lines[2].split(",")
    assert len(row) == 16
    assert row[0] == "1" and row[6] == "inf"
    assert "config: {" in err


def test_bounds_s_range_rows(capsys):
    assert main(["bounds", "--s", "0.2:0.4:0.1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2 + 3


def test_simulate_estimate_matches_in_process(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    assert main([
        "simulate", "--kind", "scan", "--s", "0.4", "--kappa", "1.3",
        "--phi-s", "0.7", "--n-psi", "200", "--seed", "3", "--trial", "2",
        "--out", str(path),
    ]) == 0
    assert main([
        "estimate", "--input", str(path), "--method", "fit,mom",
        "--n-psi", "200", "--seed", "3",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["method"] for e in payload["estimates"]] == ["fit", "mom"]

    scan = sample_homodyne_scan(
        StateParams(0.4, 1.3, 0.7), ScanConfig(n_psi=200), seed=3, trial=2
    )
    want_fit = fit_estimate(scan)
    want_mom = mom_estimate(scan)
    got_fit, got_mom = payload["estimates"]
    assert got_fit["s"] == pytest.approx(want_fit.params.s, rel=1e-11)
    assert got_fit["kappa"] == pytest.approx(want_fit.params.kappa, rel=1e-11)
    assert got_fit["phi_s"] == pytest.approx(want_fit.params.phi_s, rel=1e-11)
    assert got_mom["s"] == pytest.approx(want_mom.params.s, rel=1e-11)
    assert got_mom["iterations"] == want_mom.iterations
    db = 10.0 * math.log10(want_fit.params.kappa * want_fit.params.s)
    assert got_fit["squeezing_db"] == pytest.approx(db, rel=1e-9)
    assert got_mom["squeezing_db_err"] > 0


def test_estimate_dhd_round_trip(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    assert main([
        "simulate", "--kind", "dhd", "--s", "0.5", "--kappa", "1.6",
        "--n", "400", "--seed", "2", "--out", str(path),
    ]) == 0
    assert main(["estimate", "--input", str(path), "--method", "dhd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    est = payload["estimates"][0]
    assert est["method"] == "dhd"
    batch = sample_dhd(StateParams(0.5, 1.6, 0.0), mu=400, seed=2)
    want = dhd_estimate(batch)
    assert est["s"] == pytest.approx(want.params.s, rel=1e-11)
    assert est["kappa"] == pytest.approx(want.params.kappa, rel=1e-11)


@pytest.mark.parametrize("kind, method", [("dhd", "dhd"), ("scan", "fit")])
def test_estimate_echoes_the_methods_it_ran(tmp_path, capsys, kind, method):
    """The config echo, on stderr and in the JSON, names the --method list."""
    path = tmp_path / "data.csv"
    assert main(["simulate", "--kind", kind, "--n-psi", "64", "--n", "64",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", str(path), "--method", method]) == 0
    captured = capsys.readouterr()
    echo = next(json.loads(line.removeprefix("config: "))
                for line in captured.err.splitlines() if line.startswith("config: "))
    assert echo["methods"] == json.loads(captured.out)["config"]["methods"] == [method]


def test_estimate_trace_input(tmp_path, capsys):
    path = tmp_path / "trace.bin"
    assert main([
        "simulate", "--kind", "trace", "--s", "0.5", "--n-psi", "100",
        "--scan-duration", "50e-6", "--seed", "1", "--out", str(path),
    ]) == 0
    assert main([
        "estimate", "--input", str(path), "--method", "fit", "--format", "trace",
        "--n-psi", "100", "--scan-duration", "50e-6",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)

    truth = StateParams(0.5, 1.0 / math.sqrt(0.5), 0.0)
    mode, total = default_temporal_mode(n_psi=100, scan_duration=50e-6)
    trace = synthesize_trace([truth] * 100, mode, ScanConfig(n_psi=100),
                             seed=1, total_len=total)
    want = fit_estimate(scan_from_trace(trace, mode, ScanConfig(n_psi=100)))
    assert payload["estimates"][0]["s"] == pytest.approx(want.params.s, rel=1e-6)


def test_estimate_records_the_trace_rate(tmp_path, capsys):
    """A trace written at 9e7 Hz is demodulated at its header rate, and the
    JSON records that rate beside the config, whose rate_hz stays 1e8."""
    path = tmp_path / "trace.bin"
    assert main(["simulate", "--kind", "trace", "--s", "0.5", "--phi-s", "0.3",
                 "--rate-hz", "90000000", "--seed", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--input", str(path), "--method", "fit", "--format", "trace"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["trace_rate_hz"] == 90_000_000
    assert payload["config"]["rate_hz"] == 1e8
    assert '"rate_hz": 100000000.0' in captured.err

    mode, total = default_temporal_mode(sample_rate_hz=9e7)
    trace = synthesize_trace([StateParams(0.5, 1.0 / math.sqrt(0.5), 0.3)] * 900, mode,
                             seed=4, total_len=total)
    want = fit_estimate(scan_from_trace(trace, mode))
    got = payload["estimates"][0]
    assert [got["s"], got["kappa"], got["phi_s"]] == sio.json_ready(
        [want.params.s, want.params.kappa, want.params.phi_s])

    dhd = tmp_path / "pairs.csv"
    assert main(["simulate", "--kind", "dhd", "--out", str(dhd)]) == 0
    assert main(["estimate", "--input", str(dhd), "--method", "dhd"]) == 0
    assert "trace_rate_hz" not in json.loads(capsys.readouterr().out)


def test_estimate_rejects_bad_combinations(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    main(["simulate", "--kind", "scan", "--s", "0.5", "--n-psi", "50",
          "--out", str(path)])
    assert main(["estimate", "--input", str(path), "--method", "fit,dhd"]) == 1
    assert main(["estimate", "--input", str(path), "--method", "fit",
                 "--format", "dhd"]) == 1
    assert main(["estimate", "--input", str(path), "--method", "mom",
                 "--prior-s", "0.5"]) == 1
    assert main(["estimate", "--input", str(path), "--method", "dhd"]) == 1
    capsys.readouterr()
    assert main(["estimate", "--input", str(path), "--method", "dhd", "--format", "scan"]) == 1
    assert "error: method dhd reads --format dhd files" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["simulate", "--kind", "trace", "--rate-hz", "inf"], "error: rate_hz=inf "),
    (["simulate", "--kind", "trace", "--rate-hz", "99999999.6"], "error: rate_hz=99999999.6 "),
    (["simulate", "--kind", "trace", "--scan-duration", "nan"], "error: scan_duration=nan "),
    (["simulate", "--kind", "trace", "--fwhm-hz", "nan"], "error: fwhm_hz=nan "),
    (["estimate", "--method", "mom", "--prior-s", "nan", "--prior-kappa", "1",
      "--prior-phi", "0"], "error: prior_s=nan "),
    (["estimate", "--method", "mom", "--prior-s", "0.5"], "error: give all of "),
    (["simulate", "--kind", "trace", "--rate-hz", "-5"], "error: rate_hz=-5.0 "),
    (["simulate", "--kind", "trace", "--fwhm-hz", "0"], "error: fwhm_hz=0.0 "),
    (["simulate", "--kind", "trace", "--scan-duration=-1e-6"], "error: scan_duration=-1e-06 "),
    (["estimate", "--method", "mom", "--prior-s", "-1", "--prior-kappa", "1",
      "--prior-phi", "0"], "error: prior_s=-1.0 "),
    (["simulate", "--kind", "trace", "--scan-duration", "1e-9"],
     "error: scan_duration=1e-09 at sample_rate_hz=100000000.0 gives a trace of 0 samples, "
     "too short for n_psi=900 windows"),
    (["estimate", "--method", "mom", "--prior-s", "1e-200", "--prior-kappa", "1",
      "--prior-phi", "0"], " needs 1e-06 <= s <= 1e+06: "),
], ids=["rate-inf", "rate-fractional", "scan-duration-nan", "fwhm-nan", "prior-nan",
        "prior-partial", "rate-negative", "fwhm-zero", "scan-duration-negative",
        "prior-negative", "scan-duration-too-short", "prior-below-s-floor"])
def test_bad_trace_or_prior_setting_exits_1_before_any_output(tmp_path, capsys, argv, error):
    if argv[0] == "estimate":
        scan = tmp_path / "scan.csv"
        sio.write_scan_csv(scan, sample_homodyne_scan(StateParams(0.5, 1.4, 0.2),
                                                      ScanConfig(n_psi=64)))
        argv = [*argv, "--input", str(scan), "--n-psi", "64"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert error in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "scan"],
    ["simulate", "--kind", "scan", "--spacing", "random"],
    ["benchmark", "--methods", "fit,mom", "--trials", "20", "--n-psi", "64"],
    ["track", "--n-psi", "64", "--duration", "0.01"],
], ids=["simulate", "simulate-random", "benchmark", "track"])
@pytest.mark.parametrize("s", ["1e-7", repr(math.nextafter(1e-6, 0.0))])
def test_scan_truth_beyond_the_s_floor_exits_1_before_any_output(tmp_path, capsys, argv, s):
    """Every command that draws scans rejects a truth with min(s, 1/s) below
    S_FLOOR = 1e-6, one ulp below included, naming the floor; a truth at
    the floor is simulated."""
    out, report = tmp_path / "out", tmp_path / "report.json"
    extra = ["--json", str(report)] if argv[0] == "benchmark" else []
    assert main([*argv, "--s", s, "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert "min(s, 1/s) >= S_FLOOR = 1e-06" in err and "Traceback" not in err
    assert not out.exists() and not report.exists()
    if argv[0] == "simulate":
        assert main([*argv, "--s", "1e-6", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()


@pytest.mark.parametrize("phase", ["1e308", repr(math.nextafter(MAX_PHASE, math.inf))])
def test_estimate_rejects_a_phase_whose_double_overflows(tmp_path, capsys, phase):
    """A finite phase beyond MAX_PHASE, where 2 psi overflows, exits 1 with
    the limit named and no warning; a phase at the limit is estimated."""
    cfg = ScanConfig(n_psi=64)
    scan = sample_homodyne_scan(StateParams(0.5, 1.4, 0.2), cfg, seed=1)
    for value, code in ((float(phase), 1), (MAX_PHASE, 0)):
        phases = scan.phases.copy()
        phases[5] = value
        path, out = tmp_path / "scan.csv", tmp_path / "est.json"
        sio.write_scan_csv(path, HomodyneScan(phases, scan.samples))
        assert main(["estimate", "--input", str(path), "--method", "fit,mom",
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Warning" not in err and "Traceback" not in err
        if code:
            assert f"|psi| <= MAX_PHASE = {MAX_PHASE!r}" in err
            assert not out.exists()
        else:
            assert out.exists()


# (simulate flags at the bound, flags one float beyond it, estimate flags) per
# file kind: kappa at KAPPA_LIMIT with s at the floor for scans, and a largest
# variance kappa max(s, 1/s) of MAX_DRAW_VARIANCE = 2 * 5e69 for DHD and traces
_DRAW_BOUNDS = {
    "scan": (["--kappa", "1e90", "--s", "1e-6", "--n-psi", "8"],
             ["--kappa", repr(math.nextafter(1e90, math.inf)), "--s", "0.5", "--n-psi", "8"],
             ["--method", "fit,mom"]),
    "dhd": (["--kappa", "5e69", "--s", "0.5"],
            ["--kappa", repr(math.nextafter(5e69, math.inf)), "--s", "0.5"],
            ["--method", "dhd"]),
    "trace": (["--kappa", "5e69", "--s", "0.5"],
              ["--kappa", repr(math.nextafter(5e69, math.inf)), "--s", "0.5"],
              ["--method", "fit,mom", "--format", "trace"]),
}


@pytest.mark.parametrize("kind", list(_DRAW_BOUNDS))
def test_simulate_refuses_a_truth_whose_data_estimate_refuses(tmp_path, capsys, kind):
    """At its bound each kind of file is drawn and estimated; one float beyond
    it, and at kappa = 1e305 (whose samples overflow the estimators' mean
    square, or float32 in a trace), simulate exits 1 naming the rule and
    writes no file.  DHD keeps no s floor: s = 1e-7 is drawn, while
    s = 1e-200 (largest variance 1e300) is refused."""
    at, beyond, estimate = _DRAW_BOUNDS[kind]
    data, est = tmp_path / "data", tmp_path / "est.json"
    assert main(["simulate", "--kind", kind, *at, "--out", str(data)]) == 0
    assert main(["estimate", *estimate, "--input", str(data), "--out", str(est)]) == 0
    assert json.loads(est.read_text())["estimates"]
    capsys.readouterr()
    rule = "KAPPA_LIMIT" if kind == "scan" else "MAX_DRAW_VARIANCE = 1e+70"
    refused = [beyond, ["--kappa", "1e305", "--s", "1e-3", "--n-psi", "8"]]
    if kind == "dhd":
        assert main(["simulate", "--kind", "dhd", "--s", "1e-7", "--out", str(data)]) == 0
        refused.append(["--s", "1e-200"])
    for argv in refused:
        out = tmp_path / "refused"
        assert main(["simulate", "--kind", kind, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert rule in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv, rule", [
    (["simulate", "--kind", "dhd", "--n", "2"], "repetitions per DHD batch, got n_samples=2"),
    (["simulate", "--kind", "scan", "--n-psi", "2"], "samples per scan, got n_psi=2"),
    (["simulate", "--kind", "trace", "--n-psi", "2"], "samples per scan, got n_psi=2"),
    (["benchmark", "--methods", "dhd", "--n", "2"], "repetitions per DHD batch, got mu=2"),
    (["benchmark", "--n-psi", "2"], "samples per scan, got n_psi=2"),
    (["track", "--n-psi", "2"], "samples per scan, got n_psi=2"),
], ids=["simulate-dhd", "simulate-scan", "simulate-trace", "benchmark-dhd", "benchmark-scan",
        "track"])
def test_too_few_samples_exit_1_before_any_draw(tmp_path, capsys, monkeypatch, argv, rule):
    """Data that estimate would refuse, fewer than 3 samples per scan or
    repetitions per DHD batch, are refused with status 1 before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew data")

    monkeypatch.setattr(squeezelab.simulate, "keyed_generator", no_draw)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"need at least 3 {rule}" in err and "Traceback" not in err
    assert not out.exists()


def test_trace_commands_refuse_random_spacing(tmp_path, capsys):
    """A trace's windows carry no phases: simulate and estimate of a trace
    with --spacing random exit 1 and write nothing."""
    trace, out = tmp_path / "trace.bin", tmp_path / "out"
    assert main(["simulate", "--kind", "trace", "--spacing", "random", "--out", str(trace)]) == 1
    assert not trace.exists()
    assert main(["simulate", "--kind", "trace", "--out", str(trace)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--method", "fit,mom", "--format", "trace", "--input", str(trace),
                 "--spacing", "random", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "carry no phases" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_echo_reproduces_its_file(tmp_path, capsys):
    """The echoed config alone, fed back as a config file, rewrites the same bytes."""
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["simulate", "--trial", "7", "--n-psi", "64", "--out", str(first)]) == 0
    echo = _echo_config(capsys)
    assert echo["trial"] == 7
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(echo))
    assert main(["simulate", "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_echo_keeps_every_digit(tmp_path, capsys):
    """A setting with more than 12 significant digits is echoed as given, on
    stderr, in a file's config comment and in a JSON output's config object,
    so the echo replays the run."""
    phi = 0.12345678901234567
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["simulate", "--n-psi", "16", "--phi-s", str(phi), "--out", str(first)]) == 0
    echo = _echo_config(capsys)
    assert echo["phi_s"] == phi
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(echo))
    assert main(["simulate", "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()

    assert main(["estimate", "--input", str(first), "--method", "fit", "--n-psi", "16",
                 "--tol", str(phi)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == phi
    json_path = tmp_path / "rep.json"
    assert main(["benchmark", "--s", "0.5", "--methods", "fit", "--trials", "4",
                 "--n-psi", "16", "--phi-s", str(phi), "--out", str(tmp_path / "rep.csv"),
                 "--json", str(json_path)]) == 0
    capsys.readouterr()
    assert json.loads(json_path.read_text())["config"]["phi_s"] == phi


@pytest.mark.parametrize("method", ["fit,mom", "mom,fit"])
def test_estimate_fits_the_scan_once(tmp_path, capsys, monkeypatch, method):
    """Without a prior, the fit result is also MoM's seed: one fit per scan,
    on the scan prepared once, so its harmonics are computed once."""
    path = tmp_path / "scan.csv"
    assert main(["simulate", "--n-psi", "64", "--out", str(path)]) == 0
    calls = {"_fit_finish": 0, "grid_harmonics": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (model, bounds, estimators, simulate):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["estimate", "--input", str(path), "--method", method, "--n-psi", "64"]) == 0
    capsys.readouterr()
    assert calls == {"_fit_finish": 1, "grid_harmonics": 1}


def test_simulate_requires_out(capsys):
    assert main(["simulate", "--kind", "scan", "--s", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_benchmark_byte_identical_across_workers(tmp_path, capsys):
    common = [
        "benchmark", "--s", "0.5", "--methods", "fit,mom", "--trials", "40",
        "--n-psi", "100", "--seed", "0",
    ]
    f1 = tmp_path / "one.csv"
    f3 = tmp_path / "three.csv"
    assert main(common + ["--workers", "1", "--out", str(f1)]) == 0
    assert main(common + ["--workers", "3", "--out", str(f3)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f3.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == sio.REPORT_HEADER
    assert len(lines) == 2 + 2 * 3
    echoed = json.loads(lines[0].removeprefix("# config: "))
    assert "workers" not in echoed and "out" not in echoed


def test_benchmark_honours_config_tol_and_max_iter(tmp_path, capsys):
    """A config file's max_iter reaches MoM; fit and DHD rows do not move."""
    common = ["benchmark", "--s", "0.5", "--methods", "fit,mom,dhd", "--trials", "20",
              "--n-psi", "100", "--n", "100"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_iter": 1}')
    default, capped = tmp_path / "default.csv", tmp_path / "capped.csv"
    assert main(common + ["--out", str(default)]) == 0
    assert main(common + ["--config", str(cfg), "--out", str(capped)]) == 0
    capsys.readouterr()

    def rows_by_method(path):
        rows = {}
        for line in path.read_text().splitlines()[2:]:
            rows.setdefault(line.split(",")[3], []).append(line)
        return rows

    want, got = rows_by_method(default), rows_by_method(capped)
    assert got["fit"] == want["fit"] and got["dhd"] == want["dhd"]
    assert got["mom"] != want["mom"]
    mean_iterations = sio.REPORT_HEADER.split(",").index("mean_iterations")
    assert {row.split(",")[mean_iterations] for row in got["mom"]} == {"1"}


def test_benchmark_rejects_workers_below_one(capsys):
    for workers in ("0", "-1"):
        assert main(["benchmark", "--s", "0.5", "--trials", "4", "--workers", workers]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err


def test_benchmark_rejects_fewer_than_two_trials(capsys):
    """A variance needs 2 trials: 1 is a ValueError, exit 1, before any draw."""
    assert RunConfig(trials=2).trials == 2
    with pytest.raises(ValueError, match="trials=1 must be >= 2"):
        RunConfig(trials=1)
    assert main(["benchmark", "--s", "0.5", "--trials", "1"]) == 1
    assert "error: trials=1 must be >= 2 to form variances" in capsys.readouterr().err


def test_benchmark_json_mirror(tmp_path, capsys):
    csv_path = tmp_path / "rep.csv"
    json_path = tmp_path / "rep.json"
    assert main([
        "benchmark", "--s", "0.3,0.5", "--methods", "fit", "--trials", "12",
        "--n-psi", "64", "--out", str(csv_path), "--json", str(json_path),
    ]) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text())
    assert len(payload["reports"]) == 2
    assert payload["config"]["trials"] == 12
    assert payload["reports"][0]["truth"]["s"] == 0.3


def test_track_cli(tmp_path, capsys):
    out = tmp_path / "track.csv"
    assert main([
        "track", "--s", "0.5", "--n-psi", "100", "--duration", "0.01",
        "--amplitude", "0.0", "--out", str(out),
    ]) == 0
    err = capsys.readouterr().err
    assert "tau_est_s:" in err
    lines = out.read_text().splitlines()
    assert lines[1].startswith("# tau_est_s:")
    assert lines[3].startswith("t_s,")
    assert len(lines) == 4 + 20


def test_track_rejects_multi_s(capsys):
    assert main(["track", "--s", "0.3,0.5", "--duration", "0.005"]) == 1
    assert "single s" in capsys.readouterr().err
    # 0.001 s is 2 scans at the default 0.5 ms step; the correlation time needs 3
    assert main(["track", "--duration", "0.001"]) == 1
    assert "tracking needs at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("spacing, digest", [
    ("equispaced", "91f25f843e6b5cd1e74602a9dd3e2806de7ca29f8306cffd44e0ae8a587f5c7b"),
    ("random", "da089266f9f8efb0d7fe56e301c16e2b0bef8a6286df6a6996ba497a3e1a318b"),
])
def test_track_csv_bytes_are_pinned(tmp_path, capsys, spacing, digest):
    """File bytes of a 40-scan track at a fixed seed, drift on: any change to
    the scan draws, the warm-started MoM chain or the CSV format shows here."""
    out = tmp_path / "track.csv"
    assert main(["track", "--s", "0.5", "--n-psi", "64", "--duration", "0.02", "--seed", "5",
                 "--spacing", spacing, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
