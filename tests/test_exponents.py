import math

import numpy as np
import pytest

from fraclab.errors import NoInteriorMinimumError, ParameterError
from fraclab.exponents import (
    ParamSet,
    SystemParamSet,
    critical_exponent,
    global_decay_exponent,
    local_nonexistence_exponent,
    system_dimension_bound,
    t_natural,
)

BASE = dict(alpha1=0.5, alpha2=0.3, gamma=0.25, sigma=0.5, delta=0.7)
BLOCK = ParamSet(p=2.0, **BASE)


def test_paramset_validation():
    ok = ParamSet(p=2.0, **BASE)
    assert ok.p_prime == 2.0
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="power must be finite and exceed 1"):
            ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, bad)
        with pytest.raises(ParameterError, match="dimension must be a positive integer"):
            ParamSet(0.5, 0.3, 0.25, 0.5, 0.7, 2.0, dim=bad)


def test_permissive_mode_drops_orderings():
    p = ParamSet(0.5, 0.6, 0.7, 0.7, 0.5, 2.0, mode="permissive")
    assert p.mode == "permissive"
    # unit-interval bounds still apply
    with pytest.raises(ParameterError):
        ParamSet(0.5, 0.6, 1.2, 0.7, 0.5, 2.0, mode="permissive")


def test_critical_exponent_frozen_value():
    rep = critical_exponent(BLOCK)
    assert rep.value == 10.0
    assert rep.denominator == 0.5
    assert not rep.critical_flag
    assert not math.isinf(rep.value)


def test_critical_exponent_flag_and_side_condition():
    rep = critical_exponent(ParamSet(p=10.0, **BASE))
    assert rep.critical_flag
    assert "vacuous" in rep.proof_side_condition
    rep3 = critical_exponent(ParamSet(p=2.0, dim=3, **BASE))
    flagged = critical_exponent(ParamSet(p=rep3.value, dim=3, **BASE))
    assert flagged.critical_flag
    assert "1.5" in flagged.proof_side_condition
    # off-threshold power: no flag
    assert not critical_exponent(ParamSet(p=9.0, **BASE)).critical_flag


def test_critical_exponent_infinite_branch():
    # theta = 1.5/0.6 = 2.5 exactly: the positive part vanishes
    rep = critical_exponent(ParamSet(0.5, 0.3, 0.25, 0.6, 0.8, 2.0))
    assert math.isinf(rep.value)
    assert rep.denominator == 0.0
    # sigma = 0.7 pushes the denominator negative
    rep2 = critical_exponent(ParamSet(0.5, 0.3, 0.25, 0.7, 0.8, 2.0))
    assert math.isinf(rep2.value)
    assert rep2.denominator < 0.0


def test_critical_exponent_input_refuses_a_non_integer_dimension():
    # critical_exponent reads its dimension from a ParamSet, which refuses these
    for dim in (0, 1.5):
        with pytest.raises(ParameterError, match="dimension must be a positive integer"):
            critical_exponent(ParamSet(p=2.0, dim=dim, **BASE))


def test_critical_exponent_from_paramset():
    rep = critical_exponent(ParamSet(p=10.0, **BASE))
    assert rep.value == 10.0
    assert rep.critical_flag


def test_system_bound_symmetric():
    rep = system_dimension_bound(SystemParamSet(BLOCK, BLOCK))
    assert rep.branch_one == rep.branch_two
    assert np.isclose(rep.bound, 7.0 / 3.0, atol=1e-14)


def test_system_bound_swap_invariance():
    one = ParamSet(0.6, 0.4, 0.2, 0.45, 0.8, 2.5)
    two = ParamSet(0.55, 0.35, 0.15, 0.4, 0.75, 3.5)
    ra = system_dimension_bound(SystemParamSet(one, two))
    rb = system_dimension_bound(SystemParamSet(two, one))
    # one formula serves both branches, so the swap is exact
    assert ra.branch_one == rb.branch_two
    assert ra.branch_two == rb.branch_one
    assert ra.bound == rb.bound


def test_system_paramset_validation():
    s = SystemParamSet(BLOCK, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0))
    assert s.dim == 1 and s.second.p == 3.0
    # each block is checked as a ParamSet when it is built; the system
    # adds only that both are strict and share one dimension
    permissive = ParamSet(0.5, 0.6, 0.7, 0.7, 0.5, 2.0, mode="permissive")
    for first, second in ((permissive, BLOCK), (BLOCK, permissive)):
        with pytest.raises(ParameterError, match="two strict blocks"):
            SystemParamSet(first, second)
    with pytest.raises(ParameterError, match="disagree on dim: 1 and 2"):
        SystemParamSet(BLOCK, ParamSet(0.6, 0.4, 0.2, 0.4, 0.8, 3.0, dim=2))


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
        assert rep.value > 1.0 or math.isinf(rep.value)


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
