import argparse
import contextlib
import io
import os
import re
import string
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import _kernels, harness, testfn
from fraclab.errors import ParameterError
from fraclab.harness import (
    CSV_HEADER,
    EXIT_BAD_CONFIG,
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    ExperimentSpec,
    SweepRow,
    build_spec,
    load_config,
    render_csv,
    sweep_p,
    verify_all,
)


def ns(mode="verify", config=None, out=None, tol=None, jobs=None, seed=None):
    return argparse.Namespace(mode=mode, config=config, out=out, tol=tol,
                              jobs=jobs, seed=seed)


def clear_fraclab_env(monkeypatch):
    import os
    for name in list(os.environ):
        if name.startswith("FRACLAB_") and name != "FRACLAB_BACKEND":
            monkeypatch.delenv(name)


def test_defaults_resolve(monkeypatch):
    clear_fraclab_env(monkeypatch)
    cp = load_config(None)
    assert cp["params"]["alpha1"] == "0.5"
    assert cp["bump"]["amplitude"] == "4.0"
    assert cp["time"]["steps"] == "50000"


def test_file_then_env_precedence(tmp_path, monkeypatch):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "run.ini"
    ini.write_text("[time]\nhorizon = 10\nsteps = 100\n")
    cp = load_config(str(ini))
    assert cp["time"]["horizon"] == "10"
    monkeypatch.setenv("FRACLAB_TIME_HORIZON", "20")
    cp = load_config(str(ini))
    assert cp["time"]["horizon"] == "20"
    # untouched keys keep the file value
    assert cp["time"]["steps"] == "100"


def test_unknown_config_entries_rejected(tmp_path, monkeypatch):
    clear_fraclab_env(monkeypatch)
    bad_sec = tmp_path / "a.ini"
    bad_sec.write_text("[nope]\nx = 1\n")
    with pytest.raises(ParameterError, match="unknown config section"):
        load_config(str(bad_sec))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[time]\nhorizont = 10\n")
    with pytest.raises(ParameterError, match="unknown key"):
        load_config(str(bad_key))
    with pytest.raises(ParameterError, match="not found"):
        load_config(str(tmp_path / "missing.ini"))


def test_env_override_validation(monkeypatch):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_TIME_HORIZONT", "10")
    with pytest.raises(ParameterError, match="FRACLAB_TIME_HORIZONT"):
        load_config(None)
    monkeypatch.delenv("FRACLAB_TIME_HORIZONT")
    # the backend selector is not a config override; an unknown section is
    # refused like an unknown key
    monkeypatch.setenv("FRACLAB_BACKEND", "numpy")
    cp = load_config(None)
    assert cp["time"]["horizon"] == "50.0"
    monkeypatch.setenv("FRACLAB_NOSECTION_KEY", "1")
    with pytest.raises(ParameterError, match="FRACLAB_NOSECTION_KEY names no config key"):
        load_config(None)
    monkeypatch.delenv("FRACLAB_NOSECTION_KEY")
    # underscores inside key names survive the section split
    monkeypatch.setenv("FRACLAB_RUN_SNAPSHOT_EVERY", "5")
    assert load_config(None)["run"]["snapshot_every"] == "5"


@pytest.mark.parametrize("name", ["FRACLAB_RUNN_THRESHOLD", "FRACLAB_RUN_THRESHOLDD",
                                  "FRACLAB_RUN", "FRACLAB_"])
def test_unknown_env_names_exit_two(name, monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv(name, "5")
    assert harness.main(["exponent"]) == EXIT_BAD_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]


def _exponent_with_backend(value):
    # the backend is chosen when fraclab is imported, so only a fresh
    # interpreter sees the request
    env = dict(os.environ, FRACLAB_BACKEND=value)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "fraclab", "exponent"],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("value", ["bogus", "numba", "numpy", " Auto "])
def test_backend_request_keeps_the_exit_code_contract(value):
    proc = _exponent_with_backend(value)
    usable = value != "bogus" and (value != "numba" or _kernels.HAVE_NUMBA)
    if usable:
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        return
    assert proc.returncode == EXIT_BAD_CONFIG, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FRACLAB_BACKEND"), lines
    assert all(v in lines[0] for v in ("'auto'", "'numba'", "'numpy'"))


def test_parse_p_values():
    assert harness._parse_p_values("1.5, 2, 3") == (1.5, 2.0, 3.0)
    assert harness._parse_p_values("1.5; 2") == (1.5, 2.0)
    assert harness._parse_p_values("") == ()
    with pytest.raises(ParameterError, match="must be numbers"):
        harness._parse_p_values("1.5, two")
    with pytest.raises(ParameterError, match="exceed 1"):
        harness._parse_p_values("0.5, 2")
    with pytest.raises(ParameterError, match="ascending"):
        harness._parse_p_values("3, 2")
    with pytest.raises(ParameterError, match="ascending"):
        harness._parse_p_values("2, 2")


def test_experiment_spec_validation():
    with pytest.raises(ParameterError):
        ExperimentSpec(mode="nope")
    with pytest.raises(ParameterError):
        ExperimentSpec(mode="verify", tol=-1.0)
    with pytest.raises(ParameterError):
        ExperimentSpec(mode="verify", jobs=0)
    with pytest.raises(ParameterError):
        ExperimentSpec(mode="simulate", amplitude_policy="triple")


def test_build_spec_wires_flags_over_config(tmp_path, monkeypatch):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "v.ini"
    ini.write_text("[verify]\nseed = 11\ntol = 0.5\n")
    spec = build_spec(ns(config=str(ini)))
    assert spec.seed == 11 and spec.tol == 0.5
    spec = build_spec(ns(config=str(ini), tol=0.25, seed=3))
    assert spec.seed == 3 and spec.tol == 0.25
    assert spec.params is None  # verify needs no parameter block


def test_build_spec_modes(monkeypatch):
    clear_fraclab_env(monkeypatch)
    spec = build_spec(ns(mode="exponent"))
    assert spec.params.p == 2.0
    assert spec.system_params.q == 2.0
    assert spec.radius == 1.0
    spec = build_spec(ns(mode="sweep"))
    assert spec.sweep_p == (1.5, 2.0, 3.0)
    assert spec.space.half_length == 20.0
    assert spec.bump.amplitude == 4.0
    spec = build_spec(ns(mode="system-sweep"))
    assert spec.system_params is not None and spec.params is None


def test_verify_all_green(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    spec = ExperimentSpec(mode="verify", seed=7)
    report = verify_all(spec)
    assert report.all_passed
    text = report.render()
    assert text.count("[PASS]") == 9
    assert text.endswith("9/9 checks passed")


def test_verify_tol_zero_separates_exact_from_quadrature(monkeypatch):
    clear_fraclab_env(monkeypatch)
    report = verify_all(ExperimentSpec(mode="verify", seed=7, tol=0.0))
    assert not report.all_passed
    by_name = {r.name: r for r in report.results}
    # checks whose residual is genuine quadrature error must fail at tol 0
    for name in ("power-rule-phi1", "composition-integral",
                 "composition-derivative", "lemma3-scaling",
                 "laplacian-cross-method", "laplacian-constants"):
        assert not by_name[name].passed
    # adjointness is exact, so the residual is pure roundoff; whether the
    # two sums cancel to exactly 0.0 depends on the summation order of the
    # BLAS products behind the operators, so assert the invariant rather
    # than the outcome on one BLAS build
    ibp = by_name["integration-by-parts"]
    assert ibp.residual < 1e-14
    assert bool(ibp.passed) == (ibp.residual == 0.0)
    # identities with no floating accumulation survive even a zero tolerance
    for name in ("exponent-table", "zero-fixed-point"):
        assert by_name[name].passed


def test_verify_report_is_stable(monkeypatch):
    # the nine checks, their order, PASS flags and printed digits at seed 7;
    # two residuals are roundoff whose digits (and the IBP slope) depend on
    # the summation order of the BLAS products, so they are bounded instead
    clear_fraclab_env(monkeypatch)
    report = verify_all(ExperimentSpec(mode="verify", seed=7))
    by_name = {r.name: r for r in report.results}
    for name in ("integration-by-parts", "lemma3-scaling"):
        assert by_name[name].residual < 1e-12
    text = re.sub(r"(by-parts|scaling)( +)residual=\S+(  tol=\S+)(  slope=\S+)?",
                  r"\1\2residual=*\3", report.render())
    assert text == (
        "[PASS] power-rule-phi1          residual=9.053e-05  tol=1.000e-02  slope=+1.30\n"
        "[PASS] integration-by-parts     residual=*  tol=1.000e-02\n"
        "[PASS] composition-integral     residual=3.837e-04  tol=2.000e-02  slope=+1.11\n"
        "[PASS] composition-derivative   residual=1.443e-04  tol=2.000e-02  slope=+1.16\n"
        "[PASS] lemma3-scaling           residual=*  tol=2.000e-02\n"
        "[PASS] laplacian-cross-method   residual=1.491e-02  tol=2.000e-02\n"
        "[PASS] laplacian-constants      residual=4.179e-06  tol=1.000e-01\n"
        "[PASS] exponent-table           residual=0.000e+00  tol=1.000e-12\n"
        "[PASS] zero-fixed-point         residual=0.000e+00  tol=1.000e-12\n"
        "9/9 checks passed"
    )


@pytest.mark.parametrize("argv,env", [
    (["verify", "--seed", "-1"], {}),
    (["verify"], {"FRACLAB_VERIFY_SEED": "-5"}),
])
def test_negative_seed_exits_two(monkeypatch, capsys, argv, env):
    clear_fraclab_env(monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert harness.main(argv) == EXIT_BAD_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: seed must be nonnegative")
    assert err.count("\n") == 1
    # only verify draws from the seed, so a bad one does not stop other modes
    monkeypatch.setenv("FRACLAB_VERIFY_SEED", "-5")
    assert harness.main(["exponent"]) == 0


@pytest.mark.parametrize("flag,value,field,modes", [
    ("--tol", "0.5", "tol", ("verify",)),
    ("--seed", "5", "seed", ("verify",)),
    ("--jobs", "3", "jobs", ("sweep", "system-sweep")),
])
def test_flags_only_where_they_apply(monkeypatch, capsys, flag, value, field, modes):
    clear_fraclab_env(monkeypatch)
    for mode in harness._MODES:
        if mode in modes:
            spec = build_spec(harness._parse_args([mode, flag, value]))
            assert getattr(spec, field) == float(value)
            continue
        with pytest.raises(SystemExit) as exc:
            harness.main([mode, flag, value])
        assert exc.value.code == EXIT_BAD_CONFIG
        assert "unrecognized arguments: %s %s" % (flag, value) in capsys.readouterr().err


def test_verify_catches_injected_fault(monkeypatch):
    clear_fraclab_env(monkeypatch)
    orig = testfn.phi1_right_derivative_closed

    def skewed(params, theta_d, steps):
        out = orig(params, theta_d, steps)
        return type(out)(out.grid, 1.05 * out.values)

    monkeypatch.setattr(testfn, "phi1_right_derivative_closed", skewed)
    report = verify_all(ExperimentSpec(mode="verify", seed=7))
    by_name = {r.name: r for r in report.results}
    assert not by_name["power-rule-phi1"].passed


def test_csv_rendering_is_byte_stable():
    rows = [
        SweepRow(1.5, 10.0, "Completed", None, 852.5),
        SweepRow(2.0, 10.0, "BlowUp", 1.7676796743638307, 1.33424315484e8),
    ]
    assert render_csv(rows) == (
        "p,p_star,status,blowup_time,final_supnorm\n"
        "1.5,10,Completed,,852.5\n"
        "2,10,BlowUp,1.76767967436,133424315.484\n"
    )
    assert CSV_HEADER.split(",") == ["p", "p_star", "status", "blowup_time",
                                     "final_supnorm"]


def sweep_spec(monkeypatch, tmp_path, p_values="1.5, 2", jobs=None):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "s.ini"
    ini.write_text(
        "[sweep]\np_values = %s\n[time]\nhorizon = 1.0\nsteps = 100\n"
        "[space]\npoints = 64\n[bump]\namplitude = 0.5\n" % p_values
    )
    return build_spec(ns(mode="sweep", config=str(ini), jobs=jobs))


def test_sweep_serial_matches_parallel(monkeypatch, tmp_path):
    serial = sweep_p(sweep_spec(monkeypatch, tmp_path, jobs=1))
    parallel = sweep_p(sweep_spec(monkeypatch, tmp_path, jobs=2))
    assert [r.p for r in serial] == [1.5, 2.0]
    assert all(r.status == "Completed" for r in serial)
    assert all(r.p_star == 10.0 for r in serial)
    assert serial == parallel


def test_main_sweep_jobs_two_matches_jobs_one(monkeypatch, tmp_path, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "j.ini"
    ini.write_text(
        "[sweep]\np_values = 1.5, 2, 3\n[time]\nhorizon = 1.0\nsteps = 100\n"
        "[space]\npoints = 64\n[bump]\namplitude = 0.5\n"
    )
    for name in harness._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    texts = []
    for jobs in ("1", "2"):
        assert harness.main(["sweep", "--config", str(ini), "--jobs", jobs]) == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].count("\n") == 4
    # workers get one BLAS thread each; the parent's environment is left as it was
    seen = harness._run_tasks(list(harness._BLAS_THREAD_VARS), os.getenv, 2)
    assert seen == ["1", "1"]
    assert not any(name in os.environ for name in harness._BLAS_THREAD_VARS)
    # a count the user chose is passed on
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    seen = harness._run_tasks(list(harness._BLAS_THREAD_VARS), os.getenv, 2)
    assert seen == ["2", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert "OMP_NUM_THREADS" not in os.environ


def test_sweep_records_failures_as_rows(monkeypatch, tmp_path):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "f.ini"
    # two steps and a huge amplitude: the first step already crosses, which
    # the solver reports as a step-size failure, not a result
    ini.write_text(
        "[sweep]\np_values = 2\n[time]\nhorizon = 0.01\nsteps = 2\n"
        "[space]\npoints = 64\n[bump]\namplitude = 1e12\n"
    )
    rows = sweep_p(build_spec(ns(mode="sweep", config=str(ini), jobs=1)))
    assert len(rows) == 1
    assert rows[0].status == "Failed"
    assert np.isnan(rows[0].final_supnorm)
    assert "Failed" in render_csv(rows)


def test_failed_sweep_rows_keep_their_message(monkeypatch, tmp_path, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "f.ini"
    ini.write_text(
        "[sweep]\np_values = 2, 3\n[time]\nhorizon = 0.01\nsteps = 2\n"
        "[space]\npoints = 64\n[bump]\namplitude = 1e12\n"
    )
    rows = sweep_p(build_spec(ns(mode="sweep", config=str(ini), jobs=1)))
    assert [r.status for r in rows] == ["Failed", "Failed"]
    assert rows[0].message.startswith("run ended before step 2")
    assert harness.main(["sweep", "--config", str(ini), "--jobs", "1"]) == EXIT_OK
    captured = capsys.readouterr()
    # the CSV is unchanged; each failure is one stderr line
    assert captured.out == render_csv(rows)
    assert captured.out.splitlines()[1] == "2,10,Failed,,nan"
    assert captured.err.splitlines() == [
        f"warning: p=2: {rows[0].message}", f"warning: p=3: {rows[1].message}",
    ]


def test_exponent_query_text(monkeypatch):
    clear_fraclab_env(monkeypatch)
    text = harness.exponent_query(build_spec(ns(mode="exponent")))
    assert "p_star = 10" in text
    assert "local_exponent = -3.25" in text
    assert "decay_exponent = 3.03333333333" in text
    assert "no interior minimum" in text
    assert "dimension_bound = 2.33333333333" in text
    monkeypatch.setenv("FRACLAB_PARAMS_P", "5.0")
    text = harness.exponent_query(build_spec(ns(mode="exponent")))
    assert "t_natural(radius=1) = 2.35930453402" in text


def test_main_exponent_and_verify_exit_codes(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    assert harness.main(["exponent"]) == EXIT_OK
    assert "p_star = 10" in capsys.readouterr().out
    assert harness.main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert harness.main(["verify", "--tol", "0"]) == EXIT_VERIFY_FAILED
    assert "[FAIL]" in capsys.readouterr().out


def test_main_bad_inputs_exit_two(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    assert harness.main(["exponent", "--config", "/no/such/file.ini"]) == EXIT_BAD_CONFIG
    monkeypatch.setenv("FRACLAB_PARAMS_SIGMA", "0.9")
    rc = harness.main(["exponent"])
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_CONFIG
    assert "0<sigma<delta<1" in err


def test_malformed_half_length_exits_two(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_SPACE_HALF_LENGTH", "abc")
    assert harness.main(["simulate"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == "error: [space] half_length must be a number, got 'abc'\n"
    # empty still means the default box
    monkeypatch.setenv("FRACLAB_SPACE_HALF_LENGTH", " ")
    assert build_spec(ns(mode="simulate")).space.half_length == 20.0


def test_non_finite_half_length_exits_two(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    for raw in ("nan", "inf"):
        monkeypatch.setenv("FRACLAB_SPACE_HALF_LENGTH", raw)
        assert harness.main(["simulate"]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: half_length must be finite and positive, got {raw}\n"
        )


# every config key that holds a number (or, for p_values, a list of them)
NUMERIC_KEYS = [
    (sec, key) for sec, keys in harness._DEFAULTS.items() for key in keys
    if (sec, key) not in {("params", "mode"), ("run", "amplitude_policy")}
]
# none of these reads as a finite number: without digits float() accepts only
# nan/inf/infinity; "%" was once taken for configparser interpolation syntax
NOT_A_FINITE_NUMBER = st.sampled_from(["nan", "inf", "-inf", "Infinity", "2%"]) | st.text(
    alphabet=string.ascii_letters + "%.+-_()", min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(NUMERIC_KEYS), raw=NOT_A_FINITE_NUMBER)
def test_bad_numbers_exit_two_with_one_error_line(key, raw):
    # system-sweep reads every numeric key; it must never get as far as running
    env = {n: v for n, v in os.environ.items()
           if not n.startswith("FRACLAB_") or n == "FRACLAB_BACKEND"}
    env["FRACLAB_%s_%s" % (key[0].upper(), key[1].upper())] = raw
    err = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(harness, "sweep_system", side_effect=AssertionError("ran")), \
            contextlib.redirect_stderr(err):
        rc = harness.main(["system-sweep", "--jobs", "1"])
    assert rc == EXIT_BAD_CONFIG, (key, raw)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (key, raw, lines)


def test_non_finite_flags_and_values_exit_two(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    for raw in ("nan", "inf", "-inf"):
        assert harness.main(["verify", "--tol=" + raw]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error: tolerance must be finite")
    monkeypatch.setenv("FRACLAB_SWEEP_P_VALUES", "1.5, nan")
    assert harness.main(["sweep", "--jobs", "1"]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        "error: sweep powers must be finite and exceed 1, got nan\n")
    monkeypatch.delenv("FRACLAB_SWEEP_P_VALUES")
    monkeypatch.setenv("FRACLAB_RUN_THRESHOLD", "nan")
    assert harness.main(["simulate"]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "error: [run] threshold must be finite, got 'nan'\n"
    monkeypatch.delenv("FRACLAB_RUN_THRESHOLD")
    monkeypatch.setenv("FRACLAB_RUN_SNAPSHOT_EVERY", "-1")
    assert harness.main(["simulate"]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == "error: snapshot_every must be nonnegative, got -1\n"


def test_main_simulate_numerics_exit_three(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    for k, v in (("TIME_HORIZON", "0.01"), ("TIME_STEPS", "2"),
                 ("SPACE_POINTS", "64"), ("BUMP_AMPLITUDE", "1e12")):
        monkeypatch.setenv("FRACLAB_" + k, v)
    rc = harness.main(["simulate"])
    assert rc == EXIT_NUMERICS
    assert "numerical failure" in capsys.readouterr().err


def test_main_simulate_trace_and_snapshot_files(monkeypatch, tmp_path, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "sim.ini"
    ini.write_text(
        "[time]\nhorizon = 0.1\nsteps = 50\n[space]\npoints = 64\n"
        "[bump]\namplitude = 0.5\n"
    )
    out = tmp_path / "trace.txt"
    assert harness.main(["simulate", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "status = Completed" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "# fraclab sup-norm trace"
    assert lines[3] == "# columns: t supnorm"
    assert len(lines) == 4 + 51

    ini.write_text(ini.read_text() + "[run]\nsnapshot_every = 10\n")
    snap = tmp_path / "snaps.txt"
    assert harness.main(["simulate", "--config", str(ini), "--out", str(snap)]) == EXIT_OK
    lines = snap.read_text().splitlines()
    assert lines[0] == "# fraclab snapshots"
    assert len(lines) == 4 + 6  # t = 0 plus every 10th of 50 steps
    first = lines[4].split()
    assert first[0] == "0" and len(first) == 1 + 64


def test_main_sweep_writes_csv(monkeypatch, tmp_path, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "sw.ini"
    ini.write_text(
        "[sweep]\np_values = 1.5\n[time]\nhorizon = 0.5\nsteps = 50\n"
        "[space]\npoints = 64\n[bump]\namplitude = 0.5\n"
    )
    out = tmp_path / "rows.csv"
    rc = harness.main(["sweep", "--config", str(ini), "--jobs", "1",
                       "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("1.5,10,Completed,,")


def test_main_sweep_empty_p_list_header_only(monkeypatch, tmp_path):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "e.ini"
    ini.write_text("[sweep]\np_values =\n")
    out = tmp_path / "empty.csv"
    assert harness.main(["sweep", "--config", str(ini), "--jobs", "1",
                         "--out", str(out)]) == EXIT_OK
    assert out.read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize("mode", ["sweep", "system-sweep"])
@pytest.mark.parametrize("key,value,needle", [
    ("AMPLITUDE_POLICY", "double", "amplitude_policy 'double' applies to simulate only"),
    ("SNAPSHOT_EVERY", "5", "snapshot_every applies to simulate only"),
])
def test_sweeps_refuse_settings_they_would_drop(monkeypatch, capsys, mode, key,
                                                value, needle):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_RUN_" + key, value)
    monkeypatch.setattr(harness, "sweep_p", mock.Mock(side_effect=AssertionError("ran")))
    monkeypatch.setattr(harness, "sweep_system",
                        mock.Mock(side_effect=AssertionError("ran")))
    assert harness.main([mode, "--jobs", "1"]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + needle), lines
    # simulate honours both settings, so it accepts them
    assert build_spec(ns("simulate")).mode == "simulate"
