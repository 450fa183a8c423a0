"""Tests for the single-resource regressors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, NotFittedError
from repro.model.regression import PolynomialRegressor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFitPredict:
    def test_recovers_linear_relationship(self, rng):
        u = rng.uniform(0, 1, 200)
        x = 0.005 + 0.01 * u
        reg = PolynomialRegressor(degree=1).fit(u, x)
        pred = reg.predict(u)
        np.testing.assert_allclose(pred, x, rtol=1e-8)

    def test_recovers_quadratic_relationship(self, rng):
        u = rng.uniform(0, 300, 300)
        x = 0.004 + 2e-5 * u + 1e-7 * u * u
        reg = PolynomialRegressor(degree=2).fit(u, x)
        np.testing.assert_allclose(reg.predict(u), x, rtol=1e-6)

    def test_noisy_fit_near_truth(self, rng):
        u = rng.uniform(0, 1, 2000)
        truth = 0.006 * (1 + 0.5 * u)
        x = truth * (1 + 0.02 * rng.standard_normal(2000))
        reg = PolynomialRegressor(degree=2).fit(u, x)
        grid = np.linspace(0.05, 0.95, 10)
        np.testing.assert_allclose(
            reg.predict(grid), 0.006 * (1 + 0.5 * grid), rtol=0.01
        )

    def test_scalar_prediction_shape(self, rng):
        reg = PolynomialRegressor(degree=1).fit([0, 1, 2], [0.0, 1.0, 2.0])
        out = reg.predict(1.5)
        assert out.shape == ()
        assert float(out) == pytest.approx(1.5)

    def test_matrix_prediction_shape(self):
        reg = PolynomialRegressor(degree=1).fit([0, 1, 2], [0.0, 1.0, 2.0])
        out = reg.predict(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert out.shape == (2, 2)

    def test_constant_feature_predicts_mean(self):
        # Degenerate profiling run: contention never varied.
        reg = PolynomialRegressor(degree=2).fit(
            np.full(10, 0.5), np.full(10, 0.007)
        )
        assert float(reg.predict(0.5)) == pytest.approx(0.007, rel=1e-6)

    @given(
        slope=st.floats(min_value=-5, max_value=5),
        intercept=st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=30, deadline=None)
    def test_exact_on_any_line(self, slope, intercept):
        u = np.linspace(0, 1, 50)
        x = intercept + slope * u
        reg = PolynomialRegressor(degree=1).fit(u, x)
        np.testing.assert_allclose(reg.predict(u), x, rtol=1e-7, atol=1e-9)


class TestBatchInvariance:
    """A prediction must not depend on which other inputs share its
    call: the performance matrix stacks many rows' contention into one
    batch and relies on getting each row's single-call value back."""

    @given(
        degree=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        u=st.lists(
            st.floats(min_value=0.0, max_value=300.0),
            min_size=1,
            max_size=300,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_prediction_equals_its_single_row_call(self, degree, seed, u):
        rng = np.random.default_rng(seed)
        train = rng.uniform(0, 300, 50)
        reg = PolynomialRegressor(degree=degree).fit(
            train, 0.004 + 2e-5 * train + 1e-7 * train**2 + rng.normal(0, 1e-4, 50)
        )
        u = np.asarray(u)
        batch = reg.predict(u)
        for i in range(u.size):
            np.testing.assert_array_equal(batch[i], reg.predict(u[i : i + 1])[0])


class TestValidation:
    def test_predict_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            PolynomialRegressor().predict(1.0)

    def test_coef_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            PolynomialRegressor().coef

    def test_too_few_samples_rejected(self):
        with pytest.raises(ModelError):
            PolynomialRegressor(degree=2).fit([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ModelError):
            PolynomialRegressor(degree=1).fit([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ModelError):
            PolynomialRegressor(degree=1).fit([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    def test_bad_degree_rejected(self):
        with pytest.raises(ModelError):
            PolynomialRegressor(degree=0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ModelError):
            PolynomialRegressor(ridge=-1.0)

    def test_is_fitted_flag(self):
        reg = PolynomialRegressor(degree=1)
        assert not reg.is_fitted
        reg.fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert reg.is_fitted
        assert reg.n_samples == 3
