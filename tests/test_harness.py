import argparse
import contextlib
import dataclasses
import io
import os
import pathlib
import random
import re
import string
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import harness, solver, testfn
from fraclab.config import blas_threads
from fraclab.errors import ParameterError
from fraclab.exponents import ParamSet
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
    sweep,
    verify_all,
)


def ns(mode="verify", config=None, out=None, tol=None, seed=None):
    return argparse.Namespace(mode=mode, config=config, out=out, tol=tol, seed=seed)


def clear_fraclab_env(monkeypatch):
    import os
    for name in list(os.environ):
        if name.startswith("FRACLAB_"):
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


def assert_exits_two_with_one_error(argv, capsys, needle):
    assert harness.main(argv) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + needle), lines


def test_config_file_that_is_not_utf8_exits_two(tmp_path, monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "latin1.ini"
    ini.write_bytes("[bump]\namplitude = 2 ; \u00e9\n".encode("latin-1"))
    assert_exits_two_with_one_error(
        ["exponent", "--config", str(ini)], capsys, f"config file {ini} is not UTF-8")


def test_config_file_with_a_byte_order_mark_is_read(tmp_path, monkeypatch, capsys):
    # a leading UTF-8 byte-order mark is not part of the first header
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "bom.ini"
    ini.write_bytes(b"\xef\xbb\xbf[params]\np = 10\n")
    assert harness.main(["exponent", "--config", str(ini)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert " p=10 " in captured.out.splitlines()[0]


@pytest.mark.parametrize("text", ["[time]\nsteps\n", "steps = 10\n",
                                  "[time]\nsteps = 1\nsteps = 2\n"],
                         ids=["no-value", "no-header", "duplicate"])
def test_config_file_that_is_not_ini_exits_two_with_one_line(tmp_path, monkeypatch,
                                                             capsys, text):
    # the parser's own message spans lines
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert_exits_two_with_one_error(
        ["exponent", "--config", str(ini)], capsys, f"config file {ini} is not valid INI")


def test_config_path_that_is_a_directory_exits_two(tmp_path, monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    assert_exits_two_with_one_error(
        ["exponent", "--config", str(tmp_path)], capsys,
        f"cannot read config file {tmp_path}")


def test_config_default_section_is_refused(tmp_path, monkeypatch, capsys):
    # configparser would hand [DEFAULT] keys to every section, where the
    # schema's own values shadow them: threshold = 5 would be dropped
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "d.ini"
    ini.write_text("[DEFAULT]\nthreshold = 5\nbogus = 1\n[run]\n")
    assert_exits_two_with_one_error(
        ["exponent", "--config", str(ini)], capsys, "unknown config section [DEFAULT]")
    # an empty [DEFAULT] header sets nothing and is read as before
    ini.write_text("[DEFAULT]\n[run]\nthreshold = 5\n")
    assert load_config(str(ini))["run"]["threshold"] == "5"


def test_env_override_validation(monkeypatch):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_TIME_HORIZONT", "10")
    with pytest.raises(ParameterError, match="FRACLAB_TIME_HORIZONT"):
        load_config(None)
    monkeypatch.delenv("FRACLAB_TIME_HORIZONT")
    # an unknown section is refused like an unknown key
    monkeypatch.setenv("FRACLAB_NOSECTION_KEY", "1")
    with pytest.raises(ParameterError, match="FRACLAB_NOSECTION_KEY names no config key"):
        load_config(None)
    monkeypatch.delenv("FRACLAB_NOSECTION_KEY")
    # underscores inside key names survive the section split
    monkeypatch.setenv("FRACLAB_RUN_SNAPSHOT_EVERY", "5")
    assert load_config(None)["run"]["snapshot_every"] == "5"


@pytest.mark.parametrize("name", ["FRACLAB_RUNN_THRESHOLD", "FRACLAB_RUN_THRESHOLDD",
                                  "FRACLAB_RUN", "FRACLAB_", "FRACLAB_BACKEND"])
def test_unknown_env_names_exit_two(name, monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv(name, "5")
    assert harness.main(["exponent"]) == EXIT_BAD_CONFIG
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    # refused for its name, whatever the value
    assert "names no config key" in lines[0]


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
    assert spec.system_params.second.p == 2.0
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
        "[PASS] composition-integral     residual=5.060e-04  tol=2.000e-02  slope=+1.07\n"
        "[PASS] composition-derivative   residual=9.439e-05  tol=2.000e-02  slope=+1.20\n"
        "[PASS] lemma3-scaling           residual=*  tol=2.000e-02\n"
        "[PASS] laplacian-cross-method   residual=1.491e-02  tol=2.000e-02\n"
        "[PASS] laplacian-constants      residual=4.179e-06  tol=1.000e-01\n"
        "[PASS] exponent-table           residual=0.000e+00  tol=1.000e-12\n"
        "[PASS] zero-fixed-point         residual=0.000e+00  tol=1.000e-12\n"
        "9/9 checks passed"
    )


@pytest.mark.parametrize("seed", range(20))
def test_composition_checks_pass_for_every_seed(seed):
    # verify draws a fresh seed per call in the benchmark, so the draws of
    # any seed must pass at verify's tolerance, not just those of seed 7
    rng = random.Random(seed)
    for check in (harness.check_comp_int, harness.check_comp_derivs):
        result = check(0.02, rng)
        assert result.passed, result.line()


@pytest.mark.parametrize("argv,env", [
    (["verify", "--seed", "-1"], {}),
    (["verify"], {"FRACLAB_VERIFY_SEED": "-5"}),
    (["verify", "--tol", "-1"], {}),
    (["verify"], {"FRACLAB_VERIFY_TOL": "-1"}),
])
def test_negative_seed_exits_two(monkeypatch, capsys, argv, env):
    # a negative tolerance is refused the same way
    clear_fraclab_env(monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert harness.main(argv) == EXIT_BAD_CONFIG
    out, err = capsys.readouterr()
    bad_tol = "--tol" in argv or "FRACLAB_VERIFY_TOL" in env
    assert out == "" and err.startswith(
        "error: tolerance must be finite and nonnegative" if bad_tol
        else "error: seed must be nonnegative")
    assert err.count("\n") == 1
    # only verify reads the seed and the tolerance, so bad ones do not stop
    # other modes
    monkeypatch.setenv("FRACLAB_VERIFY_SEED", "-5")
    monkeypatch.setenv("FRACLAB_VERIFY_TOL", "-1")
    assert harness.main(["exponent"]) == 0


@pytest.mark.parametrize("flag,value,field,modes", [
    ("--tol", "0.5", "tol", ("verify",)),
    ("--seed", "5", "seed", ("verify",)),
    ("--jobs", "3", "jobs", ()),  # no mode takes it
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

    def skewed(eta, horizon, theta_d, steps):
        out = orig(eta, horizon, theta_d, steps)
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


@pytest.mark.parametrize("mode", ["sweep", "system-sweep"])
def test_sweep_rows_match_their_own_runs(monkeypatch, tmp_path, mode):
    # one march: the p = 3 row blows up hundreds of steps before the p = 1.5
    # row completes, and is stepped on, overflowing, until the march ends.
    # Every product is batched per component and every FFT is per row, so
    # each row and its trace are its own run's bit for bit (numpy 2.4.6,
    # OpenBLAS); an overflow warning from the stopped row fails the suite
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "rows.ini"
    ini.write_text("[sweep]\np_values = 1.5, 3\n[time]\nhorizon = 3.0\n"
                   "steps = 1000\n[space]\npoints = 64\n")
    spec, march, marches = build_spec(ns(mode=mode, config=str(ini))), solver.march, []

    def one_march(config, params):
        marches.append((config, params, march(config, params)))
        return marches[-1][2]

    with mock.patch.object(solver, "march", one_march):
        rows = sweep(spec)
    ((config, params, outcomes),) = marches
    assert [r.status for r in rows] == ["Completed", "BlowUp"]
    assert outcomes[1][0].steps_taken < 1000 - 200
    for row, pr, batched in zip(rows, params, outcomes):
        cfg = dataclasses.replace(config, params=pr)
        own = solver.run_system(cfg) if mode == "system-sweep" else (solver.run(cfg),)
        assert len(batched) == len(own)
        for b, o in zip(batched, own):
            assert (b.status, b.blowup_time, b.steps_taken) == (
                o.status, o.blowup_time, o.steps_taken)
            assert b.trace.grid == o.trace.grid
            assert np.array_equal(b.trace.values, o.trace.values)
        first = own[0]
        assert row == SweepRow(
            row.p, row.p_star, first.status,
            first.blowup_time if first.status == "BlowUp" else None,
            max(float(r.trace.values[-1]) for r in own))


def test_importing_the_harness_leaves_the_process_pool_unloaded(tmp_path):
    # nor does a sweep load it: its rows advance in one march, in this process
    src = str(pathlib.Path(harness.__file__).parents[1])
    ini = tmp_path / "tiny.ini"
    ini.write_text("[sweep]\np_values = 1.5, 2, 3\n[time]\nhorizon = 0.5\n"
                   "steps = 50\n[space]\npoints = 64\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACLAB_")}
    for code in ("import fraclab.harness",
                 "from fraclab.harness import main; main(['sweep', '--config', sys.argv[1]])"):
        code = ("import sys; " + code + "; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code, str(ini)], capture_output=True,
                             text=True, check=True, env={**env, "PYTHONPATH": src}).stdout
        assert out.splitlines()[-1] == "[]", code


def test_verify_leaves_numpy_random_unloaded():
    # verify's draws come from the standard library's random.Random, so the
    # numpy.random package (several MB resident) never loads; nor does
    # numpy.polynomial, since its Gauss rules come from fracops
    src = str(pathlib.Path(harness.__file__).parents[1])
    code = ("import sys, fraclab.harness; fraclab.harness.main(['verify']); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('numpy.random', 'numpy.polynomial'))))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACLAB_")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**env, "PYTHONPATH": src}).stdout
    assert out.splitlines()[-2:] == ["9/9 checks passed", "[]"]


def test_simulate_loads_only_what_it_runs():
    # identities and testfn serve only verify's checks
    src = str(pathlib.Path(harness.__file__).parents[1])
    code = ("import sys, fraclab.harness; fraclab.harness.main(['simulate']); "
            "print(sorted(m for m in sys.modules if m in "
            "('fraclab.identities', 'fraclab.testfn', 'numpy.polynomial', 'numpy.fft')))")
    env = {k: v for k, v in os.environ.items() if not k.startswith("FRACLAB_")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**env, "PYTHONPATH": src}).stdout
    assert out.splitlines()[0] == "status = BlowUp"
    assert out.splitlines()[-1] == "[]"


def test_importing_the_package_root_loads_no_submodule():
    # every name lives in its module; the root re-exports none of them
    src = str(pathlib.Path(harness.__file__).parents[1])
    code = "import sys, fraclab; print(sorted(m for m in sys.modules if m.startswith('fraclab.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_the_command_sets_blas_threads_before_numpy_loads():
    # the command sets the thread counts before numpy loads, by setdefault,
    # so a caller's value stands; importing it or the library sets none.
    # Each child prints the count numpy loaded with, then both names.
    src = str(pathlib.Path(harness.__file__).parents[1])
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items()
           if k not in names and not k.startswith("FRACLAB_")}
    spy = ("import contextlib, io, os, sys\n"
           "loads = []\n"
           "class Spy:\n"
           "    def find_spec(self, name, path=None, target=None):\n"
           "        if name == 'numpy':\n"
           "            loads.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
           "sys.meta_path.insert(0, Spy())\n")
    show = f"print(loads[0], *(os.environ.get(k) for k in {names!r}))"

    def child(code, **extra):
        return subprocess.run([sys.executable, "-c", spy + code + "\n" + show],
                              capture_output=True, text=True, check=True,
                              env={**env, "PYTHONPATH": src, **extra}).stdout.split()

    run = ("import fraclab.__main__\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert fraclab.__main__.main(['simulate']) == 0")
    short = {"FRACLAB_TIME_STEPS": "2", "FRACLAB_TIME_HORIZON": "0.002"}
    assert child(run, **short) == ["1", "1", "1"]
    large = "2" if os.cpu_count() >= 2 else "1"
    assert child(run, FRACLAB_PARAMS_DIM="2", FRACLAB_SPACE_POINTS="512", **short) == [large] * 3
    assert child(run, OPENBLAS_NUM_THREADS="3", **short) == ["3", "3", "1"]
    for module in ("fraclab.__main__", "fraclab.harness"):
        assert child(f"before = dict(os.environ)\nimport {module}, numpy\n"
                     "assert dict(os.environ) == before") == ["None", "None", "None"]


def test_blas_threads_follow_the_run_grid(monkeypatch, tmp_path):
    # two threads only for a run on 512 x 512 points or more, on two CPUs;
    # a command line or config that does not parse gets one
    clear_fraclab_env(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ini = tmp_path / "large.ini"
    ini.write_text("[params]\ndim = 2\n[space]\npoints = 512\n")
    for mode in ("simulate", "sweep", "system-sweep"):
        assert blas_threads([mode, "--config", str(ini)]) == 2
        assert blas_threads([mode, f"--config={ini}", "--out", "x.csv"]) == 2
    for argv in ([], ["verify", "--config", str(ini)], ["exponent", "--config", str(ini)],
                 ["simulate"], ["simulate", "--config"],
                 ["simulate", "--config", str(tmp_path / "missing.ini")]):
        assert blas_threads(argv) == 1
    monkeypatch.setenv("FRACLAB_PARAMS_DIM", "2")
    for points, threads in (("256", 1), ("512", 2), ("1024", 2), ("many", 1)):
        monkeypatch.setenv("FRACLAB_SPACE_POINTS", points)
        assert blas_threads(["simulate"]) == threads
    # a dimension the run refuses is not raised to a power here
    monkeypatch.setenv("FRACLAB_PARAMS_DIM", str(10**9))
    assert blas_threads(["simulate"]) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert blas_threads(["simulate", "--config", str(ini)]) == 1


def test_sweep_records_failures_as_rows(monkeypatch, tmp_path):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "f.ini"
    # two steps and a huge amplitude: the first step already crosses, which
    # the solver reports as a step-size failure, not a result
    ini.write_text(
        "[sweep]\np_values = 2\n[time]\nhorizon = 0.01\nsteps = 2\n"
        "[space]\npoints = 64\n[bump]\namplitude = 1e12\n"
    )
    rows = sweep(build_spec(ns(mode="sweep", config=str(ini))))
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
    rows = sweep(build_spec(ns(mode="sweep", config=str(ini))))
    assert [r.status for r in rows] == ["Failed", "Failed"]
    assert rows[0].message.startswith("run ended before step 2")
    assert harness.main(["sweep", "--config", str(ini)]) == EXIT_OK
    captured = capsys.readouterr()
    # the CSV is unchanged; each failure is one stderr line
    assert captured.out == render_csv(rows)
    assert captured.out.splitlines()[1] == "2,10,Failed,,nan"
    assert captured.err.splitlines() == [
        f"warning: p=2: {rows[0].message}", f"warning: p=3: {rows[1].message}",
    ]


def test_sweep_whose_shared_fit_fails_prints_a_failed_row_per_p(monkeypatch, capsys):
    # the rows share the first fold's L1 fit, which a vanishing Caputo order
    # cannot have: the whole march fails, and every row reports that failure
    clear_fraclab_env(monkeypatch)
    for key, value in {"PARAMS_MODE": "permissive", "PARAMS_ALPHA1": "1e-300",
                       "TIME_STEPS": "100", "TIME_HORIZON": "0.1"}.items():
        monkeypatch.setenv("FRACLAB_" + key, value)
    assert harness.main(["sweep"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        CSV_HEADER, "1.5,8,Failed,,nan", "2,8,Failed,,nan", "3,8,Failed,,nan"]
    lines = [line.split(": ", 2) for line in captured.err.splitlines()]
    assert [line[:2] for line in lines] == [["warning", f"p={p}"] for p in ("1.5", "2", "3")]
    for _, _, message in lines:
        assert message.startswith(
            "no sum-of-exponentials fit of the l1 weights of order 1e-300 "), message


def test_simulate_doubling_the_amplitude_through_main(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    for key, value in {"RUN_AMPLITUDE_POLICY": "double", "BUMP_AMPLITUDE": "0.5",
                       "TIME_STEPS": "200", "TIME_HORIZON": "2"}.items():
        monkeypatch.setenv("FRACLAB_" + key, value)
    assert harness.main(["simulate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    for line in ("amplitude = 16", "status = BlowUp", "steps_taken = 181"):
        assert line in lines, lines
    # a horizon too short for any of the doublings to blow up
    monkeypatch.setenv("FRACLAB_TIME_STEPS", "20")
    monkeypatch.setenv("FRACLAB_TIME_HORIZON", "0.02")
    assert harness.main(["simulate"]) == EXIT_NUMERICS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "numerical failure: no blow-up detected after 12 doublings from 0.5"]


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
           if not n.startswith("FRACLAB_")}
    env["FRACLAB_%s_%s" % (key[0].upper(), key[1].upper())] = raw
    err = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(harness, "sweep", side_effect=AssertionError("ran")), \
            contextlib.redirect_stderr(err):
        rc = harness.main(["system-sweep"])
    assert rc == EXIT_BAD_CONFIG, (key, raw)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (key, raw, lines)


def test_non_finite_flags_and_values_exit_two(monkeypatch, capsys):
    clear_fraclab_env(monkeypatch)
    for raw in ("nan", "inf", "-inf"):
        assert harness.main(["verify", "--tol=" + raw]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith("error: tolerance must be finite")
    monkeypatch.setenv("FRACLAB_SWEEP_P_VALUES", "1.5, nan")
    assert harness.main(["sweep"]) == EXIT_BAD_CONFIG
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


@pytest.mark.parametrize("mode,env,needle", [
    # the source overflows at the first step
    ("simulate", {"BUMP_AMPLITUDE": "1e300"}, "numerical failure: run ended"),
    ("system-sweep", {"BUMP_AMPLITUDE": "1e300", "SWEEP_P_VALUES": "2"},
     "warning: p=2: run ended"),
    # the update's factors overflow before the first step
    ("simulate", {"TIME_HORIZON": "1e300", "TIME_STEPS": "2"},
     "numerical failure: run ended"),
], ids=["amplitude", "amplitude-system", "horizon"])
def test_overflowing_run_prints_one_line_and_no_numpy_warning(monkeypatch, capsys,
                                                               mode, env, needle):
    # the march reports the non-finite state itself
    clear_fraclab_env(monkeypatch)
    for key, value in env.items():
        monkeypatch.setenv("FRACLAB_" + key, value)
    code = harness.main([mode])
    assert code == (EXIT_NUMERICS if mode == "simulate" else EXIT_OK)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(needle), lines


@pytest.mark.parametrize("mode,env,code,needle", [
    # 1 - gamma and 1 - alpha2 round to 1: every run mode refuses the key up front
    ("simulate", {"PARAMS_GAMMA": "1e-17"}, EXIT_BAD_CONFIG,
     "error: [params] gamma 1e-17 is too small: its memory order 1 - gamma rounds to 1"),
    ("simulate", {"PARAMS_MODE": "permissive", "PARAMS_ALPHA2": "1e-300"},
     EXIT_BAD_CONFIG,
     "error: [params] alpha2 1e-300 is too small: its memory order 1 - alpha2 rounds to 1"),
    # the L1 fit of a vanishing Caputo order cannot be built
    ("simulate", {"PARAMS_MODE": "permissive", "PARAMS_ALPHA1": "1e-300"},
     EXIT_NUMERICS, "numerical failure: no sum-of-exponentials fit of the l1 weights"),
    ("simulate", {"PARAMS_MODE": "permissive", "PARAMS_ALPHA1": "5e-324"},
     EXIT_NUMERICS, "numerical failure: no sum-of-exponentials fit of the l1 weights"),
    # 2 * half_length overflows, so the grid spacing would be inf
    ("simulate", {"SPACE_HALF_LENGTH": "1e308"}, EXIT_BAD_CONFIG,
     "error: half_length 1e+308 overflows the grid spacing"),
    ("sweep", {"SPACE_HALF_LENGTH": "1e308"}, EXIT_BAD_CONFIG,
     "error: half_length 1e+308 overflows the grid spacing"),
    # the default box of so narrow a bump: its largest squared wavenumber is inf
    ("simulate", {"BUMP_WIDTH": "1e-160"}, EXIT_BAD_CONFIG,
     "error: half_length 2e-159 is too small: the largest squared wavenumber overflows"),
    ("sweep", {"BUMP_WIDTH": "1e-160"}, EXIT_BAD_CONFIG,
     "error: half_length 2e-159 is too small: the largest squared wavenumber overflows"),
    ("sweep", {"PARAMS_GAMMA": "1e-17"}, EXIT_BAD_CONFIG,
     "error: [params] gamma 1e-17 is too small: its memory order 1 - gamma rounds to 1"),
    ("system-sweep", {"PARAMS_GAMMA": "1e-17"}, EXIT_BAD_CONFIG,
     "error: [params] gamma 1e-17 is too small: its memory order 1 - gamma rounds to 1"),
    ("system-sweep", {"SYSTEM_GAMMA2": "1e-17"}, EXIT_BAD_CONFIG,
     "error: [system] gamma2 1e-17 is too small: its memory order 1 - gamma2 rounds to 1"),
    # the first step already crosses the threshold
    ("simulate", {"RUN_THRESHOLD": "1e-300"}, EXIT_NUMERICS,
     "numerical failure: run ended before step 2; the step size is far too coarse "
     "for these data (reduce h or the amplitude), or the threshold 1e-300 is below "
     "the sup-norm 0.004 of step 1"),
], ids=["gamma", "alpha2", "alpha1", "alpha1-subnormal", "box", "box-sweep",
        "box-wavenumbers", "box-wavenumbers-sweep", "gamma-sweep", "gamma-system-sweep",
        "gamma2-system-sweep", "threshold"])
def test_extreme_orders_and_boxes_end_in_messages_not_tracebacks(monkeypatch, capsys,
                                                                  mode, env, code, needle):
    clear_fraclab_env(monkeypatch)
    for key, value in {"TIME_STEPS": "100", "TIME_HORIZON": "0.1", **env}.items():
        monkeypatch.setenv("FRACLAB_" + key, value)
    # no refused run gets as far as a row
    with mock.patch.object(solver, "march", side_effect=AssertionError("ran")) \
            if code == EXIT_BAD_CONFIG else contextlib.nullcontext():
        assert harness.main([mode]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(needle) and captured.out == "", lines


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


def test_a_centre_off_a_node_runs_as_its_node_and_says_so(monkeypatch, tmp_path, capsys):
    # 0.15625 is one cell of the default 256-point box, and the node nearest
    # 0.1: both print the same, and only the trace of the run off its node
    # names the offset of the grid its values sit on
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_TIME_HORIZON", "0.2")
    monkeypatch.setenv("FRACLAB_TIME_STEPS", "200")
    out = tmp_path / "trace.txt"
    runs = {}
    for center in ("0.1", "0.15625", "0"):
        monkeypatch.setenv("FRACLAB_BUMP_CENTER", center)
        assert harness.main(["simulate", "--out", str(out)]) == EXIT_OK
        runs[center] = capsys.readouterr().out, out.read_text().splitlines()
    (off, off_file), (node, node_file), (_, zero_file) = runs.values()
    assert off == node
    assert off_file[1] == node_file[1] + " origin=-0.05625"
    assert off_file[:1] + off_file[2:] == node_file[:1] + node_file[2:]
    assert not any("origin=" in line for line in node_file + zero_file)
    # a centre whose bump fits the box, but not from its nearest node, is refused
    monkeypatch.setenv("FRACLAB_SPACE_POINTS", "64")  # nodes 17.5, 18.125
    monkeypatch.setenv("FRACLAB_BUMP_CENTER", "17.9")
    assert harness.main(["simulate"]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, lines
    assert lines[0].startswith("error: bump support does not fit inside the box")


def test_main_sweep_writes_csv(monkeypatch, tmp_path, capsys):
    clear_fraclab_env(monkeypatch)
    ini = tmp_path / "sw.ini"
    ini.write_text(
        "[sweep]\np_values = 1.5\n[time]\nhorizon = 0.5\nsteps = 50\n"
        "[space]\npoints = 64\n[bump]\namplitude = 0.5\n"
    )
    out = tmp_path / "rows.csv"
    rc = harness.main(["sweep", "--config", str(ini),
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
    assert harness.main(["sweep", "--config", str(ini),
                         "--out", str(out)]) == EXIT_OK
    assert out.read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize("key,value,needle,mode", [
    (*setting, mode)
    for setting in (
        ("AMPLITUDE_POLICY", "double", "amplitude_policy 'double' applies to simulate only"),
        ("SNAPSHOT_EVERY", "5", "snapshot_every applies to simulate only"))
    for mode in ("sweep", "system-sweep", "verify", "exponent")
] + [("THRESHOLD", "5", "threshold applies to simulate and the sweeps only", mode)
     for mode in ("verify", "exponent")])
def test_sweeps_refuse_settings_they_would_drop(monkeypatch, capsys, tmp_path, mode,
                                                key, value, needle):
    # every mode but simulate would drop the amplitude policy and the
    # snapshots: the sweeps run each row at the configured amplitude without
    # snapshots; verify and exponent run nothing, so they drop a threshold too
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_RUN_" + key, value)
    for name in ("verify_all", "exponent_query", "sweep"):
        monkeypatch.setattr(harness, name, mock.Mock(side_effect=AssertionError("ran")))
    assert harness.main([mode]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + needle), lines
    # simulate honours every one of them, so it accepts them (snapshots need
    # --out), and the sweeps run at the threshold
    assert build_spec(ns("simulate", out=str(tmp_path / "run.txt"))).mode == "simulate"
    if key == "THRESHOLD":
        for sweep in ("sweep", "system-sweep"):
            assert build_spec(ns(sweep)).config.threshold == 5.0


@pytest.mark.parametrize("out", [[], ["--out", ""]])
def test_simulate_refuses_snapshots_without_out(monkeypatch, capsys, out):
    # simulate writes snapshots only to --out; without it they would be
    # stored for the whole run and then dropped
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_RUN_SNAPSHOT_EVERY", "5")
    monkeypatch.setattr(harness, "simulate", mock.Mock(side_effect=AssertionError("ran")))
    assert_exits_two_with_one_error(["simulate"] + out, capsys,
                                    "snapshot_every 5 needs --out")


@pytest.mark.parametrize("mode", harness._MODES)
def test_empty_out_is_refused_in_every_mode(monkeypatch, capsys, mode):
    # an empty --out would read as no --out, and the run would write nothing
    clear_fraclab_env(monkeypatch)
    for name in ("verify_all", "exponent_query", "simulate", "sweep"):
        monkeypatch.setattr(harness, name, mock.Mock(side_effect=AssertionError("ran")))
    assert_exits_two_with_one_error([mode, "--out", ""], capsys,
                                    "--out must name a file, got ''")


@pytest.mark.parametrize("value", ["weird", "permissive"])
def test_system_sweep_refuses_non_strict_mode(monkeypatch, capsys, value):
    # the system has strict orderings only, so any other [params] mode
    # would be silently dropped
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_PARAMS_MODE", value)
    monkeypatch.setattr(harness, "sweep", mock.Mock(side_effect=AssertionError("ran")))
    assert harness.main(["system-sweep"]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: system-sweep needs [params] mode 'strict' (the system has no "
        f"permissive mode), got {value!r}\n"
    )


def test_system_block_two_errors_name_their_block(monkeypatch, capsys):
    # [system] is checked as a ParamSet, so its message names ParamSet's fields
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_SYSTEM_GAMMA2", "0.4")
    monkeypatch.setattr(harness, "sweep", mock.Mock(side_effect=AssertionError("ran")))
    assert_exits_two_with_one_error(
        ["system-sweep"], capsys,
        "[system] block two: strict mode requires 0<gamma<alpha2<alpha1<1")


def test_system_keys_follow_paramset_fields():
    # build_spec passes [system] to ParamSet by position
    fields = [f.name for f in dataclasses.fields(ParamSet)]
    assert list(zip(harness._DEFAULTS["system"], fields)) == [
        ("beta1", "alpha1"), ("beta2", "alpha2"), ("gamma2", "gamma"),
        ("sigma2", "sigma"), ("delta2", "delta"), ("q", "p"),
    ]


def test_a_run_that_does_not_fit_in_memory_exits_two(monkeypatch, capsys):
    # never allocated for real: whether a huge request fails at once
    # depends on the host's overcommit setting
    clear_fraclab_env(monkeypatch)
    monkeypatch.setattr(harness.solver, "run",
                        mock.Mock(side_effect=MemoryError("Unable to allocate 32.0 GiB")))
    assert_exits_two_with_one_error(
        ["simulate"], capsys, "the run does not fit in memory: Unable to allocate 32.0 GiB")


@pytest.mark.parametrize("argv", [["simulate"], ["sweep"]])
def test_permissive_scalar_config_runs_from_the_cli(monkeypatch, capsys, argv):
    # gamma > alpha2 is outside the strict ordering; the scalar run modes
    # build no system block, so nothing applies the system's strict check
    clear_fraclab_env(monkeypatch)
    for key, value in (("PARAMS_MODE", "permissive"), ("PARAMS_GAMMA", "0.4"),
                       ("TIME_HORIZON", "0.5"), ("TIME_STEPS", "50"),
                       ("SPACE_POINTS", "64")):
        monkeypatch.setenv("FRACLAB_" + key, value)
    assert harness.main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_permissive_exponent_prints_the_scalar_table(monkeypatch, capsys):
    # the system block has strict orderings only: a permissive [params]
    # gets its scalar exponents and one line in place of the system's
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_PARAMS_MODE", "permissive")
    monkeypatch.setenv("FRACLAB_PARAMS_GAMMA", "0.4")
    assert harness.main(["exponent"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("inputs: alpha1=0.5 alpha2=0.3 gamma=0.4 ")
    assert "p_star = 6.25 (denominator = 0.8)" in lines
    assert lines[-1] == ("system: not evaluated; the system needs [params] mode "
                         "'strict', got 'permissive'")
    assert not any(line.startswith(("system inputs", "dimension_bound")) for line in lines)


def test_config_value_under_a_flag_is_still_checked(monkeypatch, capsys):
    # [verify] is read as a whole, and a value that is not a number stops
    # every mode, also when a flag overrides it
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_VERIFY_SEED", "abc")
    assert harness.main(["verify", "--seed", "3"]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [verify] seed must be an integer, got 'abc'\n"


@pytest.mark.parametrize("mode", ["exponent", "simulate"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_bad_out_refused_before_any_work(monkeypatch, capsys, tmp_path, mode, target):
    clear_fraclab_env(monkeypatch)
    monkeypatch.setattr(harness.solver, "run", mock.Mock(side_effect=AssertionError("ran")))
    out = str(tmp_path / "no" / "x.txt") if target == "missing" else str(tmp_path)
    assert harness.main([mode, "--out", out]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {out} must name a file in an existing directory\n")


def test_failed_out_write_exits_two(monkeypatch, capsys, tmp_path):
    # a write that fails after the up-front check is one error line too
    clear_fraclab_env(monkeypatch)

    def refuse(path, mode):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(harness, "open", refuse, raising=False)
    out = str(tmp_path / "x.txt")
    assert harness.main(["exponent", "--out", out]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: Permission denied\n"


def test_defaults_read_back_as_their_typed_values(monkeypatch):
    # the text load_config holds for each default converts back to it
    clear_fraclab_env(monkeypatch)
    cp = load_config(None)
    for sec, keys in harness._DEFAULTS.items():
        want = {key: None if v == "" else v for key, v in keys.items()}
        assert harness._section(cp, sec) == want


def test_readme_config_block_names_every_key():
    # README's configuration block has one "[section] ; ..." line per
    # section of the schema, naming every key of that section
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    lines = re.findall(r"^\[(\w+)\] +;(.*)$", block, flags=re.MULTILINE)
    assert sorted(sec for sec, _ in lines) == sorted(harness._DEFAULTS)
    for sec, doc in lines:
        words = set(re.findall(r"\w+", doc))
        missing = set(harness._DEFAULTS[sec]) - words
        assert not missing, (sec, missing)


@pytest.mark.parametrize("mode", ["simulate", "sweep", "system-sweep"])
@pytest.mark.parametrize("key,value,needle", [
    ("RUN_THRESHOLD", "-1", "threshold must be positive"),
    ("BUMP_AMPLITUDE", "-1", "the blow-up theorems assume nonnegative initial velocities"),
    ("SPACE_HALF_LENGTH", "1", "bump support does not fit inside the box"),
], ids=["threshold", "amplitude", "box"])
def test_run_modes_refuse_bad_run_config_up_front(monkeypatch, capsys, mode, key,
                                                  value, needle):
    # the solver would refuse these runs, so every run mode exits 2 before
    # one starts rather than reporting each sweep row as Failed
    clear_fraclab_env(monkeypatch)
    monkeypatch.setenv("FRACLAB_" + key, value)
    for name in ("run", "run_system", "march"):
        monkeypatch.setattr(harness.solver, name,
                            mock.Mock(side_effect=AssertionError("ran")))
    assert harness.main([mode]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + needle), lines
