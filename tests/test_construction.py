"""Model objects are valid by construction: building a LevySpec, a
RegimeModel, a ConcavePayoff, a SimConfig or a ValueField either raises
ModelError or gives an object the solvers can use.

The box: n in 1-3 states; switch_rates of shape (0-4, 0-4), or a ragged
list, and discounts and levy of length 0-4, each of the right shape three
times in four; switch-jump keys (i, j) with i, j in -1..n; jump values
that are a mixture, () or no (weight, rate) pairs; and every number 0,
+-inf, NaN or of magnitude in [1e-300, 1e2].  The tiny magnitudes reach
three float64 limits that the checks name: a sigma or a mixture rate under
about 1e-154 underflows its square in psi, and a discount under about
1e-16 lambda_i rounds beta to 1.  Payoffs take 0-4 knots, values and tail slopes from the same
numbers, concave three times in four, with one value per knot unless a
draw mis-sizes them; SimConfig fields are valid three times in four each;
value fields take grids of 0-5 points from 0, or of any numbers, and values
of matching or any 1-d or 2-d shape.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from levybarrier import (ConcavePayoff, LevySpec, ModelError, RegimeModel,
                         SimConfig, ValueField, laplace_exponent)

POSITIVE = st.floats(1e-300, 1e2)
NEGATIVE = st.floats(-1e2, -1e-300)
NUMBERS = st.one_of(st.sampled_from([0.0, math.inf, -math.inf, math.nan]),
                    POSITIVE, NEGATIVE)
SETTINGS = settings(derandomize=True, max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _either(draw, good, bad):
    """A draw from bad about one time in four, else from good, so that a
    share of the specs and models build."""
    return draw(bad if draw(st.booleans()) and draw(st.booleans()) else good)


@st.composite
def mixtures(draw):
    """(weight, rate) pairs: a probability law, or any pairs of numbers."""
    weights = draw(st.sampled_from([(1.0,), (0.5, 0.5), (0.25, 0.75)]))
    law = st.tuples(*(st.tuples(st.just(w), POSITIVE) for w in weights))
    return _either(draw, law,
                   st.lists(st.tuples(NUMBERS, NUMBERS), max_size=3))


@st.composite
def spec_fields(draw):
    return (_either(draw, NEGATIVE, NUMBERS),
            _either(draw, POSITIVE, NUMBERS),
            _either(draw, POSITIVE, NUMBERS), tuple(draw(mixtures())))


SPECS = [LevySpec(drift_mu=-0.5, sigma=1.0),
         LevySpec(drift_mu=-0.5, sigma=0.4, jump_rate=1.0,
                  jump_mix=((1.0, 2.0),)),
         LevySpec(drift_mu=-1.0, jump_rate=1.0,
                  jump_mix=((0.25, 1.0), (0.75, 3.0)))]


@st.composite
def model_fields(draw):
    n = draw(st.integers(1, 3))
    sizes = st.integers(0, 4)
    rows, cols = _either(draw, st.just((n, n)), st.tuples(sizes, sizes))
    entries = _either(draw, st.just(POSITIVE), st.just(NUMBERS))
    rates = np.reshape([draw(entries) for _ in range(rows * cols)],
                       (rows, cols))
    if rows > 1 and _either(draw, st.just(False), st.booleans()):
        rates = [list(rates[0])] + [list(r[1:]) for r in rates[1:]]
    size = _either(draw, st.just(n), sizes)
    entries = _either(draw, st.just(POSITIVE), st.just(NUMBERS))
    discounts = [draw(entries) for _ in range(size)]
    size = _either(draw, st.just(n), sizes)
    levy = tuple(draw(st.sampled_from(SPECS)) for _ in range(size))
    index = _either(draw, st.just(st.integers(0, n - 1)),
                    st.just(st.integers(-1, n)))
    keys = draw(st.lists(st.tuples(index, index), max_size=3))
    # a jump is a mixture, () for none, or a value that is no mixture
    jumps = {k: _either(draw, st.one_of(st.just(()), mixtures()),
                        st.sampled_from(["gamma", 3.0, ((1.0,),)]))
             for k in keys}
    return dict(states=tuple(f"s{i}" for i in range(n)),
                switch_rates=rates, discounts=discounts, levy=levy,
                switch_jumps=jumps,
                phi=_either(draw, st.floats(1.001, 1e2), NUMBERS))


@st.composite
def payoff_fields(draw):
    """(xs, vals, slope_tail): a concave payoff, or any numbers, of 0-4
    knots, with a value per knot unless the draw mis-sizes them."""
    n = draw(st.integers(0, 4))
    if _either(draw, st.just(True), st.just(False)):
        gaps = [draw(POSITIVE) for _ in range(n - 1)]
        xs = np.concatenate(([0.0], np.cumsum(gaps)))[:n]
        slopes = sorted((draw(st.floats(-1e2, 1e2)) for _ in gaps),
                        reverse=True)
        vals = draw(st.floats(-1e2, 1e2)) + np.concatenate(
            ([0.0], np.cumsum(np.multiply(slopes, gaps))))[:n]
        tail = min(slopes, default=1.0) - draw(POSITIVE)
    else:
        xs = [draw(NUMBERS) for _ in range(n)]
        size = _either(draw, st.just(n), st.integers(0, 4))
        vals = [draw(NUMBERS) for _ in range(size)]
        tail = draw(NUMBERS)
    return np.array(xs), np.array(vals), tail


@st.composite
def sim_fields(draw):
    return dict(
        n_paths=_either(draw, st.integers(3, 10**6),
                        st.one_of(st.integers(-5, 5), NUMBERS)),
        dt=_either(draw, POSITIVE, NUMBERS),
        t_max=_either(draw, POSITIVE, NUMBERS),
        rng_seed=_either(draw, st.integers(0, 2**32),
                         st.one_of(st.integers(-5, 5), NUMBERS)),
        antithetic=_either(draw, st.booleans(),
                           st.sampled_from([0, 1, None, "yes"])))


@st.composite
def field_fields(draw):
    m = draw(st.integers(0, 5))
    grid = _either(draw, st.just(np.linspace(0.0, draw(POSITIVE), m)),
                   st.lists(NUMBERS, max_size=5).map(np.array))
    shape = _either(draw, st.just((draw(st.integers(1, 3)), len(grid))),
                    st.lists(st.integers(0, 5), min_size=1, max_size=2))
    return grid, np.full(shape, draw(NUMBERS))


def test_spec_is_valid_or_model_error():
    built = []

    @SETTINGS
    @given(spec_fields())
    def check(fields):
        try:
            spec = LevySpec(*fields)
        except ModelError:
            return
        built.append(spec)
        # psi(0) = jump_rate (sum_k w_k mu_k / mu_k - 1) is 0 up to the
        # 1e-12 tolerance on the weights' sum and the rounding of w mu / mu
        assert abs(laplace_exponent(spec, 0.0)) <= 2e-12 * spec.jump_rate

    check()
    assert len(built) >= 20


def test_model_is_valid_or_model_error():
    built = []

    @SETTINGS
    @given(model_fields())
    def check(fields):
        try:
            model = RegimeModel(**fields)
        except ModelError:
            return
        built.append(model)
        assert 0 <= model.beta < 1
        assert np.all(model.q > 0)

    check()
    assert len(built) >= 10


def test_float64_limits_fail_at_construction():
    # each built before and then failed in use: psi'(0) divided by a rate
    # squared to 0, and solve() met a contraction factor of 1
    with pytest.raises(ModelError, match="square underflows"):
        LevySpec(0.0, 1.0, 1.0, ((1.0, 2.9e-194),))
    with pytest.raises(ModelError, match="beta rounds to 1"):
        RegimeModel(states=("s0", "s1"), switch_rates=[[0.0, 1.0],
                                                       [1.0, 0.0]],
                    discounts=[1e-17, 1.0], levy=(SPECS[0], SPECS[0]),
                    switch_jumps={}, phi=2.0)


def test_payoff_is_valid_or_model_error():
    built = []

    @SETTINGS
    @given(payoff_fields())
    def check(fields):
        try:
            pw = ConcavePayoff(*fields)
        except ModelError:
            return
        built.append(pw)
        xs = np.append(pw.xs, pw.xs[-1] + np.array([1.0, 1e2]))
        assert np.all(np.isfinite(pw(xs)))
        with np.errstate(over="ignore"):
            rises = np.diff(pw.slopes)
        assert np.all(rises <= 1e-6)

    check()
    assert len(built) >= 50


def test_sim_config_is_valid_or_model_error():
    built = []

    @SETTINGS
    @given(sim_fields(), POSITIVE)
    def check(fields, q):
        try:
            config = SimConfig(**fields)
        except ModelError:
            return
        built.append(config)
        assert config.n_paths >= (3 if config.antithetic else 2)
        assert 0 < config.dt < math.inf and math.isfinite(config.t_max)
        np.random.SeedSequence(config.rng_seed)
        try:
            config.check(q)
        except ModelError:
            pass

    check()
    assert len(built) >= 50


def test_value_field_is_valid_or_model_error():
    built = []

    @SETTINGS
    @given(field_fields())
    def check(fields):
        try:
            f = ValueField(*fields)
        except ModelError:
            return
        built.append(f)
        assert f.grid.ndim == 1 and f.grid[0] == 0.0
        assert np.all(np.isfinite(f.grid)) and np.all(np.diff(f.grid) > 0)
        assert f.values.shape == (len(f.values), len(f.grid))

    check()
    assert len(built) >= 50
