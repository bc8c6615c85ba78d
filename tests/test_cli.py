import json

import numpy as np
import pytest

from nugs import analysis, experiments
from nugs.cli import build_parser, main, parse_scheme
from nugs.estimator import NonuniformFourierRegressor
from nugs.fourier import FunctionSpec, basis_transform, sample_function, save_data_csv
from nugs.sampling import SchemeSpec, generate
from nugs.solver import Reconstruction
from nugs.spaces import SpaceSpec, build_basis, member_values


def run(args):
    return main([str(a) for a in args])


def test_reconstruct_synthetic_round_trip(tmp_path):
    code = run(["reconstruct", "--space", "trig:3", "--scheme", "jittered:0.2",
                "--k", 20, "--n", 60, "--seed", 3, "--out-dir", tmp_path])
    assert code == 0
    rec = Reconstruction.from_json((tmp_path / "coefficients.json").read_text())
    assert rec.space == SpaceSpec.trig(3)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["c_ratio"] <= 3.0
    assert diag["weights"] == "computed"
    lines = (tmp_path / "reconstruction.csv").read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 513


def test_reconstruct_underdetermined_exits_2(tmp_path, capsys):
    code = run(["reconstruct", "--space", "trig:8", "--scheme", "uniform",
                "--k", 3, "--n", 7, "--out-dir", tmp_path])
    assert code == 2
    assert "unstable" in capsys.readouterr().err


def test_reconstruct_from_csv_with_weights(tmp_path):
    spec = SpaceSpec.legendre(4)
    basis = build_basis(spec)
    s = generate(SchemeSpec("jittered", 50, 16.0, theta=0.2, seed=5))
    data = sample_function(FunctionSpec.benchmark(), s)
    save_data_csv(tmp_path / "data.csv", data)
    code = run(["reconstruct", "--space", "legendre:4", "--input",
                tmp_path / "data.csv", "--out-dir", tmp_path])
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["weights"] == "file"


def test_reconstruct_diagnostics_use_file_weights(tmp_path):
    # without --k the loader's bandwidth is the largest |omega| < 16, so the
    # file's weights (computed at K = 16) differ from recomputed ones
    s = generate(SchemeSpec("jittered", 50, 16.0, theta=0.2, seed=5))
    data = sample_function(FunctionSpec.benchmark(), s)
    save_data_csv(tmp_path / "data.csv", data)
    code = run(["reconstruct", "--space", "legendre:4", "--input",
                tmp_path / "data.csv", "--out-dir", tmp_path])
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["frame_lower"] == diag["sigma_min"] ** 2
    est = NonuniformFourierRegressor(space="legendre:4").fit(
        data.samples.points, data.values, sample_weight=data.weights)
    assert diag["c_ratio"] == pytest.approx(est.stability_ratio_, rel=1e-12, abs=0)


def test_reconstruct_csv_without_weight_column(tmp_path):
    path = tmp_path / "noweight.csv"
    rows = ["omega,re,im"]
    s = generate(SchemeSpec("uniform", 30, 10.0))
    vals = np.exp(-1j * np.pi * s.points) * np.sinc(s.points)
    for w, v in zip(s.points, vals):
        rows.append(f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r}")
    path.write_text("\n".join(rows) + "\n")
    code = run(["reconstruct", "--space", "piecewise_const:2", "--input", path,
                "--out-dir", tmp_path])
    assert code == 0
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["weights"] == "computed"
    rec = Reconstruction.from_json((tmp_path / "coefficients.json").read_text())
    # data comes from the constant function: both cells at 1/sqrt(2)
    assert np.allclose(rec.coefficients, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)


def test_reconstruct_malformed_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("omega,re,im\n0.0,1.0,0.0\n0.5,zap,0.0\n")
    code = run(["reconstruct", "--space", "trig:1", "--input", path,
                "--out-dir", tmp_path])
    assert code == 1
    assert ":3" in capsys.readouterr().err


def test_reconstruct_negative_weight_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "negative.csv"
    path.write_text("omega,re,im,weight\n-1.0,0.5,0.0,1.0\n0.0,1.0,0.0,-1.0\n"
                    "1.0,0.5,0.0,1.0\n")
    code = run(["reconstruct", "--space", "piecewise_const:1", "--input", path,
                "--out-dir", tmp_path])
    assert code == 1
    assert f"{path}: weight must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("0.0,nan,0.0,1.0", "re/im contains non-finite values"),
    ("-1.0,0.5,0.0,1.0", "omega repeats the frequency -1.0"),
    ("0.0,1.0,0.0,inf", "weight contains non-finite values"),
])
def test_reconstruct_bad_csv_row_exits_1(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"omega,re,im,weight\n-1.0,0.5,0.0,1.0\n{row}\n1.0,0.5,0.0,1.0\n")
    code = run(["reconstruct", "--space", "piecewise_const:1", "--input", path,
                "--out-dir", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {path}: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["reconstruct", "--space", "legendre:3", "--k", 10],
    ["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2],
])
def test_bad_delta_max_exits_1(tmp_path, capsys, args):
    code = run(args + ["--delta-max", 0, "--out-dir", tmp_path])
    assert code == 1
    assert "delta_max must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", -1])
@pytest.mark.parametrize("args", [
    ["stability", "--space", "trig:2", "--scheme", "uniform", "--k", 10, "--n", 40],
    ["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2],
])
def test_bad_threshold_exits_1(tmp_path, capsys, args, threshold):
    code = run(args + ["--threshold", threshold, "--out-dir", tmp_path])
    assert code == 1
    assert "threshold must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["reconstruct", "--space", "trig:2", "--k", 10, "--grid-points", 0], "grid_points"),
    (["residual", "--space", "legendre:3", "--zmax", 10, "--zcount", 0], "zcount"),
    (["residual", "--space", "legendre:3", "--zmax", 0], "zmax"),
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 0], "kcount"),
    (["scaling", "--family", "trig", "--kmin", 0], "kmin"),
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2, "--jobs", 0], "jobs"),
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2, "--jobs", -1], "jobs"),
    (["figure1", "--kcount", 0], "kcount"),
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2, "--threshold", 0.5],
     "threshold must be positive"),
    (["stability", "--space", "trig:2", "--scheme", "uniform", "--k", 10, "--n", 40,
      "--threshold", 0.5], "threshold must be positive"),
    (["gap", "--space", "legendre:3", "--l", 0], "cells"),
    (["gap", "--space", "legendre:3", "--l", -1], "cells"),
    (["reconstruct", "--space", "trig:1", "--input", "header-only"], "no data rows"),
    (["residual", "--space", "legendre:3", "--zmax", 4, "--zmin", "nan"], "zmin"),
    (["residual", "--space", "legendre:3", "--zmax", 4, "--zmin", "inf"], "zmin"),
    (["residual", "--space", "legendre:3", "--zmax", 4, "--zmin", -1], "zmin"),
    (["stability", "--space", "trig:2", "--scheme", "jittered:abc", "--k", 10, "--n", 40],
     "scheme 'jittered:abc': the jitter fraction 'abc' is not a number"),
    (["scaling", "--family", "trig", "--scheme", "jittered:abc", "--kmax", 10, "--kcount", 2],
     "scheme 'jittered:abc'"),
    (["stability", "--space", "trig:2", "--scheme", "jittered:0.2:junk", "--k", 10, "--n", 40],
     "scheme 'jittered:0.2:junk': the jitter fraction is the only parameter"),
    (["scaling", "--family", "trig", "--scheme", "jittered:0.2:junk", "--kmax", 10,
      "--kcount", 2], "scheme 'jittered:0.2:junk'"),
    (["figure1", "--jobs", 0], "jobs"),
    (["figure1", "--threshold", 0.5], "threshold must be positive"),
    (["figure1", "--delta-max", -1], "delta_max"),
])
def test_bad_count_or_grid_exits_1_before_writing(tmp_path, capsys, args, message):
    (tmp_path / "header.csv").write_text("omega,re,im\n")
    args = [tmp_path / "header.csv" if a == "header-only" else a for a in args]
    code = run(args + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bare_jittered_scheme_takes_the_experiments_jitter(monkeypatch):
    assert parse_scheme("jittered", 10, 5.0, 0).theta == experiments._THETA
    monkeypatch.setattr(experiments, "_THETA", 0.35)
    assert parse_scheme("jittered", 10, 5.0, 0).theta == 0.35
    assert parse_scheme("jittered:0.1", 10, 5.0, 0).theta == 0.1


def test_usage_error_exits_1(capsys):
    assert run(["reconstruct"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert run(["no-such-command"]) == 1


def test_usage_error_then_valid_call_in_one_process(capsys):
    # one parser serves every call: neither call leaves state for the next
    valid = ["stability", "--space", "trig:2", "--scheme", "jittered", "--k", 10, "--n", 30]
    outcomes = []
    for args in (["reconstruct"], valid, ["reconstruct"], valid):
        code = run(args)
        out, err = capsys.readouterr()
        outcomes.append((code, out, err))
    assert outcomes[0] == outcomes[2]
    assert outcomes[1] == outcomes[3]
    assert outcomes[0][0] == 1 and "usage error" in outcomes[0][2]
    assert outcomes[1][0] == 0 and outcomes[1][2] == ""
    assert json.loads(outcomes[1][1])["ratio"] > 0


def test_stability_command(tmp_path, capsys):
    code = run(["stability", "--space", "trig:2", "--scheme", "uniform",
                "--k", 10, "--n", 40, "--out-dir", tmp_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ratio"] <= 3.0
    assert out["density"] == pytest.approx(0.5)


def test_stability_command_threshold_exit(tmp_path, capsys):
    code = run(["stability", "--space", "trig:8", "--scheme", "uniform",
                "--k", 3, "--n", 40, "--threshold", 3, "--out-dir", tmp_path])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["ratio"] > 3.0


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args", [
    ["--space", "trig:300", "--k", 10, "--n", 40],  # dimension 601 > N = 40
    ["--space", "spline:1:30", "--k", 3, "--n", 40, "--scheme", "log"],
], ids=["dim-above-n", "spline-log"])
def test_stability_command_writes_null_for_an_infinite_ratio(tmp_path, capsys, args):
    # a lower frame constant of 0 makes the ratio infinite, which JSON
    # cannot spell; the exit codes stay those of an infinite ratio
    assert run(["stability", *args, "--out-dir", tmp_path]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["lower"] == 0.0 and out["ratio"] is None
    assert run(["stability", *args, "--threshold", 3, "--out-dir", tmp_path]) == 2
    assert _strict_json(capsys.readouterr().out)["ratio"] is None


def test_residual_command_monotone_csv(tmp_path):
    code = run(["residual", "--space", "legendre:3", "--zmax", 40,
                "--zcount", 8, "--out-dir", tmp_path])
    assert code == 0
    lines = (tmp_path / "residual.csv").read_text().splitlines()
    assert lines[0] == "z,e"
    es = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))


def test_gap_command_hand_value(tmp_path, capsys):
    code = run(["gap", "--space", "legendre:1", "--l", 2, "--out-dir", tmp_path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gap"] == pytest.approx(0.5, abs=1e-10)
    assert out["bound"] == pytest.approx(0.5513, abs=1e-4)
    assert out["holds"]


def test_scaling_command_writes_csv_and_svg(tmp_path):
    code = run(["scaling", "--family", "legendre", "--scheme", "jittered:0.2",
                "--kmin", 6, "--kmax", 24, "--kcount", 3, "--seed", 2,
                "--out-dir", tmp_path])
    assert code == 0
    csv = (tmp_path / "scaling_legendre_jittered.csv").read_text()
    assert csv.splitlines()[0] == "k,n,m,ratio,c_ratio"
    svg = (tmp_path / "scaling_legendre_jittered.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_scaling_command_spline_degree_zero_exits_1(tmp_path, capsys):
    code = run(["scaling", "--family", "spline", "--d", 0, "--kmin", 6, "--kmax", 12,
                "--kcount", 2, "--out-dir", tmp_path])
    assert code == 1
    assert "d >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_figure1_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = run(["figure1", "--seed", 7, "--kmin", 6, "--kmax", 12,
                    "--kcount", 2, "--out-dir", out])
        assert code == 0
    for name in ("scaling_jittered.csv", "scaling_log.csv", "error_jittered.csv",
                 "error_log.csv", "scaling_jittered.svg", "error_log.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_figure1_byte_identical_across_jobs(tmp_path):
    # every cell depends only on its bandwidth, so the pool writes the
    # serial map's files
    for jobs in (1, 2):
        code = run(["figure1", "--kcount", 4, "--kmax", 40, "--jobs", jobs,
                    "--out-dir", tmp_path / str(jobs)])
        assert code == 0
    names = sorted(path.name for path in (tmp_path / "1").iterdir())
    assert len(names) == 8
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_env_var_default_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NUGS_OUT_DIR", str(tmp_path / "envout"))
    code = run(["residual", "--space", "legendre:1", "--zmax", 4, "--zcount", 3])
    assert code == 0
    assert (tmp_path / "envout" / "residual.csv").exists()


def test_function_json_with_non_finite_coefficient_exits_1(tmp_path, capsys):
    spec = tmp_path / "f.json"
    good = FunctionSpec.from_coefficients(SpaceSpec.legendre(2), [1, 2j, -0.5]).to_json()
    spec.write_text(good.replace("-0.5", "Infinity"), encoding="utf-8")
    code = run(["reconstruct", "--space", "legendre:2", "--k", 10, "--n", 40,
                "--function-json", spec, "--out-dir", tmp_path / "out"])
    assert code == 1
    assert "coefficients" in capsys.readouterr().err
    assert not (tmp_path / "out" / "coefficients.json").exists()


@pytest.mark.parametrize("expr, jumps, message", [
    (["tan", ["x"]], [], "expr: unknown op 'tan'"),
    (["sin"], [], "expr: 'sin' takes 1 argument"),
    (["pow", ["x"], 0.5], [],
     "expr: the pow exponent must be an integer of magnitude at most 2**53, got 0.5"),
    (["const", "one"], [], "expr: const must be a finite number"),
    (["const", float("nan")], [], "expr: const must be a finite number"),
    (["x"], [0.5, float("inf")], "jumps must be finite numbers"),
])
def test_function_json_with_bad_expression_exits_1(tmp_path, capsys, expr, jumps, message):
    # before these were checked, x^0.5 was rebuilt as x^0 and ["sin"] raised IndexError
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps({"kind": "expr", "expr": expr, "jumps": jumps}),
                    encoding="utf-8")
    code = run(["reconstruct", "--space", "legendre:2", "--k", 10, "--n", 40,
                "--function-json", spec, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out" / "coefficients.json").exists()


@pytest.mark.parametrize("args, option", [
    (["reconstruct", "--space", "legendre:2", "--k", 10], "--jobs"),
    (["reconstruct", "--space", "legendre:2", "--k", 10], "--threshold"),
    (["stability", "--space", "trig:2", "--k", 10, "--n", 40], "--jobs"),
    (["stability", "--space", "trig:2", "--k", 10, "--n", 40], "--delta-max"),
    *[(["residual", "--space", "legendre:1", "--zmax", 4], option)
      for option in ("--seed", "--jobs", "--threshold", "--delta-max")],
    *[(["gap", "--space", "legendre:1", "--l", 2], option)
      for option in ("--seed", "--jobs", "--threshold", "--delta-max")],
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2], "--k"),
    (["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2], "--n"),
])
def test_option_a_subcommand_does_not_read_exits_1(tmp_path, capsys, args, option):
    code = run(args + [option, 2, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    # "--k" on scaling is also a prefix of --kmin, --kmax and --kcount
    assert "usage error" in err and option in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [["--function", "benchmark"], ["--grid", 8]])
def test_removed_or_shortened_option_is_unknown(tmp_path, capsys, option):
    # --function and --grid are prefixes of --function-json and --grid-points
    code = run(["reconstruct", "--space", "legendre:2", "--k", 10, "--n", 40, *option,
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"usage error: unrecognized arguments: {option[0]} {option[1]}" in err
    assert not (tmp_path / "out").exists()


def test_function_json_without_kind_exits_1_naming_the_key(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"expr": ["x"]}', encoding="utf-8")
    code = run(["reconstruct", "--space", "legendre:2", "--k", 10, "--n", 40,
                "--function-json", spec, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert "expected a JSON object with the key 'kind'" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "coefficients.json").exists()


@pytest.mark.parametrize("args, message", [
    (["reconstruct", "--space", "legendre:2"], "synthetic reconstruction needs --k"),
    (["stability", "--space", "trig:2", "--k", 10], "stability needs --k and --n"),
    (["stability", "--space", "trig:2", "--scheme", "uniform:3", "--k", 10, "--n", 40],
     "scheme 'uniform' takes no parameter"),
    # 0 is a given count, not a missing one
    (["reconstruct", "--space", "legendre:2", "--k", 5, "--n", 0],
     "--n must be an integer >= 2, got 0"),
    (["reconstruct", "--space", "legendre:2", "--k", 5, "--n", 1],
     "--n must be an integer >= 2, got 1"),
    (["stability", "--space", "trig:2", "--k", 10, "--n", 0],
     "--n must be an integer >= 2, got 0"),
    # the scheme's own checks, reported under the options' names
    *[([command, "--space", "trig:2", "--scheme", "log", "--k", 10, "--n", 41],
       "--n: the log scheme requires an even sample count, got 41")
      for command in ("reconstruct", "stability")],
    *[([command, "--space", "trig:2", "--k", 10, "--n", 40, "--seed", -1],
       "--seed must be an integer >= 0, got -1")
      for command in ("reconstruct", "stability")],
    *[(args + ["--seed", -1], "--seed must be an integer >= 0, got -1")
      for args in (["reconstruct", "--space", "trig:2", "--k", 10],
                   ["scaling", "--family", "trig", "--kmax", 10, "--kcount", 2],
                   ["figure1", "--kmax", 10, "--kcount", 2])],
])
def test_missing_or_bad_sampling_option_exits_1(tmp_path, capsys, args, message):
    code = run(args + ["--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_reconstruction_csv_bytes(tmp_path):
    # the grid values of the written coefficients, one repr per field
    code = run(["reconstruct", "--space", "legendre:3", "--scheme", "jittered:0.2",
                "--k", 12, "--n", 40, "--seed", 4, "--grid-points", 7, "--out-dir", tmp_path])
    assert code == 0
    rec = Reconstruction.from_json((tmp_path / "coefficients.json").read_text())
    grid = (np.arange(7) + 0.5) / 7
    vals = member_values(build_basis(rec.space), rec.coefficients, grid)
    want = "x,re,im\n" + "".join(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}\n"
                                 for x, v in zip(grid, vals))
    assert (tmp_path / "reconstruction.csv").read_bytes() == want.encode()


@pytest.mark.parametrize("rows, k, message", [
    ("-1.0,0.5,0.0\n-1.0,0.5,0.0\n1.0,0.5,0.0\n", [], "omega repeats the frequency -1.0"),
    ("-4.0,0.5,0.0\n0.0,1.0,0.0\n4.0,0.5,0.0\n", ["--k", 1],
     "omega exceeds --k 1.0: |w| = 4.0"),
    # each column is checked under its name before anything else
    ("-1.0,0.5,0.0\nnan,1.0,0.0\n1.0,0.5,0.0\n", [], "omega contains non-finite values"),
    ("-1.0,0.5,0.0\n0.0,1.0,inf\n1.0,0.5,0.0\n", [], "re/im contains non-finite values"),
], ids=["repeated_omega", "k_below_max_omega", "nan_omega", "inf_im"])
def test_reconstruct_csv_sample_errors_name_the_file(tmp_path, capsys, rows, k, message):
    path = tmp_path / "F.csv"
    path.write_text("omega,re,im\n" + rows)
    code = run(["reconstruct", "--space", "legendre:2", "--input", path, *k,
                "--out-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_reconstruct_csv_names_k_for_a_bad_bandwidth(tmp_path, capsys):
    path = tmp_path / "F.csv"
    path.write_text("omega,re,im\n-1.0,0.5,0.0\n1.0,0.5,0.0\n")
    code = run(["reconstruct", "--space", "legendre:2", "--input", path, "--k", 0,
                "--out-dir", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == "error: --k must be finite and positive, got 0.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 745. GiB for an array with shape (100000000000,)",
     "Unable to allocate 745. GiB for an array with shape (100000000000,)"),
    ("", "MemoryError"),
], ids=["numpy", "bare"])
def test_allocation_failure_exits_1_without_traceback(monkeypatch, capsys, message, shown):
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(analysis, "verify_gap_bound", too_large)
    assert run(["gap", "--space", "legendre:2", "--l", 100000000000]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"


def test_sweep_option_defaults_are_the_experiments_constants():
    parser = build_parser()
    grid = experiments.default_k_grid()
    assert (grid[0], grid[-1], grid.size) == experiments._K_GRID
    for command in (["figure1"], ["scaling", "--family", "trig"]):
        args = parser.parse_args(command)
        assert args.threshold == experiments._THRESHOLD
        assert args.delta_max == experiments._DELTA_MAX
        assert (args.kmin, args.kmax, args.kcount) == experiments._K_GRID
    # stability judges against a threshold only when one is given
    assert parser.parse_args(["stability", "--space", "trig:2"]).threshold is None
    assert parser.parse_args(["reconstruct", "--space", "trig:2"]).delta_max == \
        experiments._DELTA_MAX
