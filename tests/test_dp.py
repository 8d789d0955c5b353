import numpy as np
import pytest
from scipy import stats

from recurjoint.dp import (
    posterior_stick_update,
    stick_to_weights,
    update_concentration,
)
from recurjoint.sampler import _categorical_columns


def draw_rows(scores, rows, rng):
    """``rows`` category draws from the softmax of one score vector."""
    return _categorical_columns(np.tile(np.asarray(scores, dtype=float)[:, None], (1, rows)),
                                rng.random(rows))


class TestStickToWeights:
    def test_two_sticks(self):
        w = stick_to_weights(np.array([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.5, 0.25, 0.25], atol=1e-15)

    def test_degenerate_truncation(self):
        np.testing.assert_array_equal(stick_to_weights(np.empty(0)), [1.0])

    def test_random_sticks_sum_to_one(self, rng):
        for _ in range(1000):
            k = int(rng.integers(1, 12))
            sticks = rng.uniform(1e-6, 1 - 1e-6, k - 1)
            w = stick_to_weights(sticks)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w >= 0)

    def test_bitwise_equal_to_append_times_cumprod(self, rng):
        # the plain-ufunc weights equal the textbook expression bit for bit,
        # sticks at the clip bounds 1e-12 and 1 - 1e-12 included
        edges = np.array([1e-12, 1.0 - 1e-12])
        for _ in range(500):
            k = int(rng.integers(1, 60))
            sticks = rng.uniform(0.0, 1.0, k - 1)
            if k > 1:
                at_edge = rng.random(k - 1) < 0.3
                sticks[at_edge] = rng.choice(edges, int(at_edge.sum()))
            expected = np.append(sticks, 1.0) * np.concatenate(([1.0], np.cumprod(1.0 - sticks)))
            assert stick_to_weights(sticks).tobytes() == expected.tobytes()

    def test_truncation_monotonicity(self, rng):
        base = rng.uniform(0.05, 0.95, 5)
        extra = rng.uniform(0.05, 0.95, 3)
        w_small = stick_to_weights(base)
        w_big = stick_to_weights(np.concatenate([base, extra]))
        np.testing.assert_allclose(w_small[:5], w_big[:5], atol=1e-15)
        assert w_small[5] == pytest.approx(w_big[5:].sum(), abs=1e-12)


class TestPosteriorStickUpdate:
    def test_prior_recovery_on_empty_counts(self, rng):
        draws = np.array([posterior_stick_update(np.zeros(3), 1.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.5, abs=0.01)

    def test_heavy_first_stick(self, rng):
        n = 5000
        counts = np.zeros(4)
        counts[0] = n
        draws = np.array([posterior_stick_update(counts, 1.0, rng)[0] for _ in range(2000)])
        assert draws.mean() == pytest.approx((n + 1) / (n + 2), abs=0.001)

    def test_beta_parameters_from_counts(self, rng):
        # stick 2 of counts (3, 2, 1) with unit concentration is Beta(3, 2)
        draws = np.array([posterior_stick_update(np.array([3.0, 2.0, 1.0]), 1.0, rng)[1]
                          for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.6, abs=0.01)

    def test_integer_counts_draw_the_float_counts_bits(self):
        # the sampler passes a bincount, the tests float counts
        counts = np.array([4, 0, 7, 2, 0, 1])
        ints, floats = (posterior_stick_update(c, 0.7, np.random.default_rng(5))
                        for c in (counts, counts.astype(float)))
        assert ints.tobytes() == floats.tobytes()

    @pytest.mark.parametrize("phi", [1e-8, 0.05, 1.0, 2.5, 40.0])
    def test_prior_draw_is_the_clipped_beta_bit_for_bit(self, phi):
        # zero counts draw Beta(1, phi) sticks: the same bits, and the same
        # stream afterwards, as one clipped rng.beta(1, phi, size=K-1)
        for k in range(1, 51):
            ours, reference = np.random.default_rng([k, 1]), np.random.default_rng([k, 1])
            sticks = posterior_stick_update(np.zeros(k), phi, ours)
            expected = np.clip(reference.beta(1.0, phi, size=k - 1), 1e-12, 1.0 - 1e-12)
            assert sticks.tobytes() == expected.tobytes(), (k, phi)
            assert ours.random() == reference.random(), (k, phi)

    def test_draws_rounding_to_the_boundary_are_clipped_inside(self, rng):
        # Beta(1, 1e-8) rounds to 1 nearly always, Beta(1, 1 + 1e300) to 0
        near_one = posterior_stick_update(np.zeros(200), 1e-8, rng)
        assert near_one.max() == 1.0 - 1e-12
        near_zero = posterior_stick_update(np.array([0.0, 1e300]), 1.0, rng)
        assert near_zero.tolist() == [1e-12]

    def test_composition_always_simplex(self, rng):
        for _ in range(200):
            counts = rng.integers(0, 30, size=6).astype(float)
            sticks = posterior_stick_update(counts, float(rng.uniform(0.2, 4.0)), rng)
            w = stick_to_weights(sticks)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_distribution_matches_analytic_beta(self, rng):
        counts = np.array([4.0, 7.0, 2.0, 0.0])
        phi = 1.3
        draws = np.array([posterior_stick_update(counts, phi, rng) for _ in range(10_000)])
        for stick_index, (a, b) in enumerate([(5.0, phi + 9.0), (8.0, phi + 2.0), (3.0, phi)]):
            p = stats.kstest(draws[:, stick_index], stats.beta(a, b).cdf).pvalue
            assert p > 0.01


class TestSampleAssignment:
    def test_deterministic_when_one_finite(self, rng):
        assert np.all(draw_rows([0.0, -np.inf, -np.inf], 50, rng) == 0)

    def test_uniform_scores(self, rng):
        draws = draw_rows(np.zeros(4), 100_000, rng)
        freqs = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_weighted_scores(self, rng):
        draws = draw_rows(np.log(np.array([0.7, 0.3])), 100_000, rng)
        assert (draws == 0).mean() == pytest.approx(0.7, abs=0.01)

    def test_all_minus_inf_rejected(self, rng):
        scores = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        with pytest.raises(ValueError, match="entirely -inf"):
            _categorical_columns(scores.T, rng.random(2))

    @pytest.mark.parametrize("nan_row", [[0.0, np.nan], [-np.inf, np.nan]])
    def test_nan_row_rejected(self, rng, nan_row):
        scores = np.array([[0.0, 1.0], nan_row])
        with pytest.raises(ValueError, match="contains NaN"):
            _categorical_columns(scores.T, rng.random(2))

    def test_frequencies_match_weights(self, rng):
        sticks = rng.uniform(0.2, 0.8, 4)
        weights = stick_to_weights(sticks)
        scores = np.log(weights) + 3.7  # constant likelihood
        draws = draw_rows(scores, 100_000, rng)
        observed = np.bincount(draws, minlength=5)
        p = stats.chisquare(observed, weights * draws.size).pvalue
        assert p > 0.001


class TestUpdateConcentration:
    def test_forced_gamma_parameters(self, rng):
        # one stick with 1 - s = exp(-1) gives Gamma(2, 2), mean 1
        sticks = np.array([1.0 - np.exp(-1.0)])
        draws = np.array([update_concentration(sticks, 1.0, 1.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_no_sticks_is_prior_draw(self, rng):
        draws = np.array([update_concentration(np.empty(0), 1.0, 1.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)
        assert draws.var() == pytest.approx(1.0, abs=0.05)

    def test_distribution_matches_analytic_gamma(self, rng):
        sticks = rng.uniform(0.05, 0.9, 6)
        shape = 1.0 + 6
        rate = 1.0 - np.log1p(-sticks).sum()
        draws = np.array([update_concentration(sticks, 1.0, 1.0, rng) for _ in range(10_000)])
        p = stats.kstest(draws, stats.gamma(shape, scale=1.0 / rate).cdf).pvalue
        assert p > 0.01

    def test_degenerate_stick_clamped(self, rng):
        value = update_concentration(np.array([1.0]), 1.0, 1.0, rng)
        assert np.isfinite(value) and value > 0
