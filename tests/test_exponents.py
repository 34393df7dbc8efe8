import math

import numpy as np
import pytest

from fraclab.errors import NoInteriorMinimumError, ParameterError
from fraclab.exponents import (
    ParamSet,
    SystemParamSet,
    critical_exponent,
    critical_exponent_scalar,
    global_decay_exponent,
    local_nonexistence_exponent,
    system_dimension_bound,
    t_natural,
)

BASE = dict(alpha1=0.5, alpha2=0.3, gamma=0.25, sigma=0.5, delta=0.7)


def test_paramset_validation():
    ok = ParamSet(p=2.0, **BASE)
    assert ok.p_prime == 2.0
    assert ok.theta == 3.0
    with pytest.raises(ParameterError, match="0<gamma<alpha2<alpha1<1"):
        ParamSet(0.5, 0.3, 0.4, 0.5, 0.7, 2.0)
    with pytest.raises(ParameterError, match="0<sigma<delta<1"):
        ParamSet(0.5, 0.3, 0.25, 0.7, 0.5, 2.0)
    with pytest.raises(ParameterError):
        ParamSet(1.5, 0.3, 0.25, 0.5, 0.7, 2.0)
    with pytest.raises(ParameterError):
        ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 1.0)
    with pytest.raises(ParameterError):
        ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=0)
    with pytest.raises(ParameterError):
        ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, mode="loose")


def test_permissive_mode_drops_orderings():
    p = ParamSet(0.5, 0.6, 0.7, 0.7, 0.5, 2.0, mode="permissive")
    assert p.mode == "permissive"
    # unit-interval bounds still apply
    with pytest.raises(ParameterError):
        ParamSet(0.5, 0.6, 1.2, 0.7, 0.5, 2.0, mode="permissive")


def test_critical_exponent_frozen_value():
    rep = critical_exponent_scalar(1, 0.5, 0.25, 0.5)
    assert rep.value == 10.0
    assert rep.denominator == 0.5
    assert not rep.critical_flag
    assert not rep.is_infinite


def test_critical_exponent_flag_and_side_condition():
    rep = critical_exponent_scalar(1, 0.5, 0.25, 0.5, p=10.0)
    assert rep.critical_flag
    assert "vacuous" in rep.proof_side_condition
    rep3 = critical_exponent_scalar(3, 0.5, 0.25, 0.5)
    flagged = critical_exponent_scalar(3, 0.5, 0.25, 0.5, p=rep3.value)
    assert flagged.critical_flag
    assert "1.5" in flagged.proof_side_condition
    # off-threshold power: no flag
    assert not critical_exponent_scalar(1, 0.5, 0.25, 0.5, p=9.0).critical_flag


def test_critical_exponent_infinite_branch():
    # theta = 1.5/0.6 = 2.5 exactly: the positive part vanishes
    rep = critical_exponent_scalar(1, 0.5, 0.25, 0.6)
    assert rep.is_infinite
    assert rep.denominator == 0.0
    # sigma = 0.7 pushes the denominator negative
    rep2 = critical_exponent_scalar(1, 0.5, 0.25, 0.7)
    assert rep2.is_infinite
    assert rep2.denominator < 0.0


def test_critical_exponent_from_paramset():
    rep = critical_exponent(ParamSet(p=10.0, **BASE))
    assert rep.value == 10.0
    assert rep.critical_flag


def test_system_bound_symmetric():
    s = SystemParamSet(
        0.5, 0.3, 0.25, 0.5, 0.7,
        0.5, 0.3, 0.25, 0.5, 0.7,
        p=2.0, q=2.0,
    )
    rep = system_dimension_bound(s)
    assert rep.branch_one == rep.branch_two
    assert np.isclose(rep.bound, 7.0 / 3.0, atol=1e-14)


def test_system_bound_swap_invariance():
    a = SystemParamSet(
        0.6, 0.4, 0.2, 0.45, 0.8,
        0.55, 0.35, 0.15, 0.4, 0.75,
        p=2.5, q=3.5,
    )
    b = SystemParamSet(
        0.55, 0.35, 0.15, 0.4, 0.75,
        0.6, 0.4, 0.2, 0.45, 0.8,
        p=3.5, q=2.5,
    )
    ra, rb = system_dimension_bound(a), system_dimension_bound(b)
    assert np.isclose(ra.branch_one, rb.branch_two, atol=1e-13)
    assert np.isclose(ra.branch_two, rb.branch_one, atol=1e-13)
    assert np.isclose(ra.bound, rb.bound, atol=1e-13)


def test_system_paramset_validation():
    with pytest.raises(ParameterError, match="block one"):
        SystemParamSet(0.5, 0.3, 0.4, 0.5, 0.7, 0.5, 0.3, 0.25, 0.5, 0.7, p=2.0, q=2.0)
    with pytest.raises(ParameterError, match="block two"):
        SystemParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 0.5, 0.3, 0.4, 0.5, 0.7, p=2.0, q=2.0)
    with pytest.raises(ParameterError, match="sigma<delta"):
        SystemParamSet(0.5, 0.3, 0.25, 0.7, 0.5, 0.5, 0.3, 0.25, 0.5, 0.7, p=2.0, q=2.0)
    with pytest.raises(ParameterError):
        SystemParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 0.5, 0.3, 0.25, 0.5, 0.7, p=1.0, q=2.0)
    s = SystemParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 0.6, 0.4, 0.2, 0.4, 0.8, p=2.0, q=3.0)
    assert s.q_prime == 1.5


def test_local_nonexistence_frozen_value():
    assert local_nonexistence_exponent(ParamSet(p=2.0, **BASE)) == -3.25


def test_global_decay_frozen_value():
    val = global_decay_exponent(ParamSet(p=2.0, **BASE))
    assert np.isclose(val, (14.0 / 15.0) * 3.25, atol=1e-14)


def test_sign_invariants_random_strict_draws(rng):
    # the local exponent is negative and the decay exponent positive for
    # every admissible strict parameter set
    for _ in range(100):
        g, a2, a1 = np.sort(rng.uniform(0.01, 0.99, size=3))
        sg, dl = np.sort(rng.uniform(0.01, 0.99, size=2))
        if not (g < a2 < a1 and sg < dl):
            continue
        p = rng.uniform(1.05, 6.0)
        ps = ParamSet(a1, a2, g, sg, dl, p)
        assert local_nonexistence_exponent(ps) < 0.0
        assert global_decay_exponent(ps) > 0.0
        rep = critical_exponent(ps)
        assert rep.value > 1.0 or rep.is_infinite


def test_t_natural_frozen_value():
    ps = ParamSet(p=5.0, **BASE)
    assert np.isclose(t_natural(ps, 1.0), 5.0 ** (8.0 / 15.0), atol=1e-14)
    assert np.isclose(t_natural(ps, 1.0), 2.3593045340150596, atol=1e-12)
    # radius enters through R^{2*delta/(1+alpha1)}
    assert np.isclose(t_natural(ps, 3.0), t_natural(ps, 1.0) * 3.0 ** (14.0 / 15.0))


def test_t_natural_no_interior_minimum():
    ps = ParamSet(p=2.0, **BASE)
    with pytest.raises(NoInteriorMinimumError, match="no interior minimum"):
        t_natural(ps, 1.0)
    with pytest.raises(NoInteriorMinimumError, match="-0.25"):
        t_natural(ps, 1.0)
    with pytest.raises(ParameterError):
        t_natural(ParamSet(p=5.0, **BASE), 0.0)
