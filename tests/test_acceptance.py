"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criteria with runtime budgets assert them.  Criteria
1-6 and 10 call the ``fraclab verify`` check functions with their own
settings, at least as strong as verify's, and the same bounds; criteria
7-9 have no verify counterpart.
"""

import random
import time

import numpy as np
import pytest

from fraclab import harness, identities, testfn
from fraclab.exponents import ParamSet
from fraclab.fraclap import SpaceGrid
from fraclab.fracops import TimeGrid, TimeSeries
from fraclab.solver import BumpSpec, SimConfig, run, tune_amplitude

PARAMS = ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0)


def report(num: int, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    return ok


def test_criterion_01_power_rule_oracle():
    t0 = time.perf_counter()
    r = harness.check_power_rule(0.01, None)
    elapsed = time.perf_counter() - t0
    assert report(
        1, r.passed and elapsed < 1.0,
        f"right-derivative power rule: rel err {r.residual:.2e} at n=4096, "
        f"decreasing from n=1024 at slope {r.slope:.2f}, {elapsed:.2f}s",
    )


def test_criterion_02_composition_identities_random():
    t0 = time.perf_counter()
    rng = random.Random(7)  # the generator fraclab verify draws from
    dint = harness.check_comp_int(0.02, rng, draws=20)
    dder = harness.check_comp_derivs(0.02, rng, draws=20)
    elapsed = time.perf_counter() - t0
    assert report(
        2, dint.passed and dder.passed and elapsed < 30.0,
        f"composition residuals over 20 draws: D(I)<={dint.residual:.2e} "
        f"slope>={dint.slope:.2f}, D(D)<={dder.residual:.2e} slope>={dder.slope:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_integration_by_parts():
    r = harness.check_ibp(0.01, None)
    # a constant f is exact for the discrete operators, so its residual is 0
    g = testfn.phi1(4.0, 1.0, 2**12)
    const = identities.check_ibp(
        TimeSeries.from_callable(g.grid, lambda t: np.full_like(t, 2.5)), g, 0.5
    )
    assert report(
        3, r.passed and const.residuals == (0.0, 0.0, 0.0),
        f"ibp residual {r.residual:.2e} for f=t^2; "
        f"constant f residuals {tuple(float(x) for x in const.residuals)}",
    )


def test_criterion_04_time_integral_scaling():
    r = harness.check_scaling(0.02, None, steps=2**14)
    assert report(4, r.passed, f"time-integral T-exponents off by at most {r.residual:.2e}")


def test_criterion_05_laplacian_cross_method():
    cross = harness.check_laplacian(0.02, None)
    constants = harness.check_kk(0.10, None)
    assert report(
        5, cross.passed and constants.passed,
        f"spectral vs singular off by {cross.residual:.2e}; bump constants "
        f"C1, C2 finite, drift under refinement {constants.residual:.2e}",
    )


def test_criterion_06_exponent_table():
    t0 = time.perf_counter()
    r = harness.check_exponents(1e-12, None)
    elapsed = time.perf_counter() - t0
    assert report(
        6, r.passed and elapsed < 1.0,
        f"7 table entries off by at most {r.residual:.1e}, {elapsed:.3f}s",
    )


SPACE = SpaceGrid(1, 20.0, 256)


@pytest.fixture(scope="module")
def blowup_runs():
    t0 = time.perf_counter()
    base = SimConfig(
        PARAMS, SPACE, TimeGrid(50.0, 50000), BumpSpec(4.0, 1.0),
        snapshot_every=25,
    )
    amp, res_h = tune_amplitude(base, 4.0)
    fine = SimConfig(
        PARAMS, SPACE, TimeGrid(50.0, 100000), BumpSpec(amp, 1.0),
    )
    res_h2 = run(fine)
    elapsed = time.perf_counter() - t0
    return {"amp": amp, "h": res_h, "h2": res_h2, "elapsed": elapsed}


def test_criterion_07_blowup_reproduction(blowup_runs):
    res_h, res_h2 = blowup_runs["h"], blowup_runs["h2"]
    amp = blowup_runs["amp"]
    elapsed = blowup_runs["elapsed"]
    ok = (
        res_h.status == "BlowUp" and res_h2.status == "BlowUp"
        and res_h.blowup_time < 50.0
        and abs(res_h.blowup_time - res_h2.blowup_time) / res_h2.blowup_time <= 0.10
        and elapsed < 300.0
    )
    assert report(
        7, ok,
        f"blow-up at amplitude {amp}: t*={res_h.blowup_time:.6f} (h=1e-3), "
        f"{res_h2.blowup_time:.6f} (h=5e-4), "
        f"rel diff {abs(res_h.blowup_time - res_h2.blowup_time) / res_h2.blowup_time:.2e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_08_weak_form_consistency(blowup_runs):
    window = 2.0
    snaps = [(t, f) for t, f in blowup_runs["h"].snapshots if t <= window + 1e-9]
    u1 = BumpSpec(blowup_runs["amp"], 1.0).render(SPACE)
    residuals = []
    for stride in (4, 2, 1):  # snapshot spacings 0.1, 0.05, 0.025
        sub = snaps[::stride]
        residuals.append(identities.weak_form_residual(sub, PARAMS, 8.0, window, u1))
    ok = residuals[-1] <= 0.05 and residuals[0] > residuals[1] > residuals[2]
    assert report(
        8, ok,
        "weak-form residual "
        + " > ".join(f"{r:.2%}" for r in residuals)
        + " under snapshot refinement",
    )


def test_criterion_09_scaling_probe_dominant_term():
    rep = testfn.scaling_exponent_probe(PARAMS, 8.0, 1.0)
    ok = (
        rep.predicted[0] == -2.0
        and abs(rep.measured[0] - rep.predicted[0]) <= 0.05
        and all(abs(m - q) <= 0.05 for m, q in zip(rep.measured, rep.predicted))
    )
    assert report(
        9, ok,
        f"dominant-term T-exponent {rep.measured[0]:.6f} vs predicted -2; "
        f"all terms {tuple(round(m, 6) for m in rep.measured)}",
    )


def test_criterion_10_zero_fixed_point_and_linear_stability():
    zero_ok = harness.check_zero(0.0, None, horizon=1.0, steps=200).passed
    rng = np.random.default_rng(7)
    bounded = 0
    for _ in range(20):
        while True:
            g, a2, a1 = np.sort(rng.uniform(0.05, 0.95, size=3))
            sg, dl = np.sort(rng.uniform(0.1, 0.9, size=2))
            if a1 - a2 > 0.02 and a2 - g > 0.02 and dl - sg > 0.05:
                break
        ps = ParamSet(a1, a2, g, sg, dl, float(rng.uniform(1.5, 4.0)))
        cfg = SimConfig(
            ps, SpaceGrid(1, 20.0, 64), TimeGrid(1.0, 200),
            BumpSpec(1.0, 1.0), nonlinearity=False,
        )
        r = run(cfg)
        if r.status == "Completed" and np.all(np.isfinite(r.trace.values)) \
                and np.max(r.trace.values) < 100.0:
            bounded += 1
    ok = zero_ok and bounded == 20
    assert report(
        10, ok,
        f"zero data exactly preserved: {zero_ok}; "
        f"{bounded}/20 linear strict-mode runs bounded",
    )
