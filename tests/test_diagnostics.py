import math

import mpmath
import numpy as np
import pytest

import oracles
from conftest import make_dataset, make_record
from recurjoint.diagnostics import (
    cpo_accumulate,
    cpo_lpml,
    gelman_rubin_psrf,
    replicate_aggregate,
    sorted_unique,
    summarize_columns,
    type7_quantiles,
)
from recurjoint.model import Hyperparams
from recurjoint.sampler import (
    _KAPPA_SORTED_BINS,
    ChainTrace,
    McmcConfig,
    SamplerEngine,
    _rank_bins,
)
from recurjoint.simulate import simulate_dataset
from recurjoint.study import build_summary, fit_manifest


def summarize(draws) -> dict:
    """The summary of one series: a one-column :func:`summarize_columns`."""
    return summarize_columns(np.reshape(draws, (-1, 1)))[0]


class TestPosteriorSummary:
    def test_constant_trace(self):
        s = summarize(np.full(50, 3.25))
        assert s["mean"] == 3.25
        assert s["q2.5"] == s["q97.5"] == 3.25

    def test_type7_quantiles(self):
        s = summarize(np.arange(1, 101, dtype=float))
        assert s["q50"] == pytest.approx(50.5)
        assert s["q2.5"] == pytest.approx(3.475)

    def test_normal_draws(self, rng):
        s = summarize(rng.standard_normal(100_000))
        assert s["mean"] == pytest.approx(0.0, abs=0.01)
        assert s["q97.5"] == pytest.approx(1.96, abs=0.03)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize(np.empty(0))

    def test_interval_contains_median(self, rng):
        for _ in range(50):
            s = summarize(rng.normal(rng.normal(), 1 + rng.random(), size=200))
            assert s["q2.5"] <= s["q50"] <= s["q97.5"]

    def test_named_selector(self):
        # a fit's summary names each column's summary by its trace column
        trace = ChainTrace(columns=["alpha0", "beta_1"],
                           draws=np.column_stack([np.zeros(3), [1.0, 2.0, 3.0]]),
                           neg_loglik_lse=np.empty(0), total_loglik=np.zeros(3),
                           acceptance={}, final_scales={}, chain_index=0, grid=None)
        config = McmcConfig(iterations=4, burn_in=1)
        summary = build_summary([trace], fit_manifest([trace], config, Hyperparams()))
        assert summary["parameters"]["beta_1"] == {**summarize([1.0, 2.0, 3.0]), "psrf": None}
        assert summary["parameters"]["beta_1"]["mean"] == 2.0


def assert_same_bits(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert (ours.dtype, ours.shape) == (reference.dtype, reference.shape)
    assert ours.tobytes() == reference.tobytes(), (ours, reference)


def random_matrix(rng, kind, columns, draws):
    """A columns x draws matrix of one of the shapes of input the
    quantile helper must reproduce numpy on."""
    x = rng.normal(size=(columns, draws)) * 10.0 ** rng.integers(-3, 4)
    if kind == "ties":
        x = np.round(x, 1)
    elif kind == "signed zeros":
        x = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(columns, draws))
    elif kind == "infinities":
        x[rng.random(x.shape) < 0.2] = np.inf
        x[rng.random(x.shape) < 0.2] = -np.inf
    elif kind == "nan column":
        x[rng.integers(columns), rng.integers(draws)] = np.nan
    elif kind == "special values":
        x = rng.choice([np.inf, -np.inf, np.nan, 0.0, 2.0], size=(columns, draws))
    return x


class TestExactHelpers:
    """The written-out quantile and unique equal numpy's bit for bit."""

    @pytest.mark.parametrize("kind", ["normal", "ties", "signed zeros", "infinities",
                                      "nan column", "special values"])
    @pytest.mark.parametrize("draws", [1, 2, 3, 40, 5000])
    def test_quantiles_match_numpy_along_axis_1(self, kind, draws):
        rng = np.random.default_rng(draws)
        probs = [0.025, 0.5, 0.975]
        for _ in range(20 if draws < 5000 else 2):
            x = random_matrix(rng, kind, int(rng.integers(1, 8)), draws)
            with np.errstate(invalid="ignore"):  # inf - inf, in numpy's lerp as in ours
                assert_same_bits(type7_quantiles(x, probs), np.quantile(x, probs, axis=1))

    def test_quantiles_match_numpy_at_grid_probabilities(self, rng):
        for n in (1, 2, 3, 7, 100, 1001):
            for g in (2, 3, 7, 20):
                x = np.round(rng.exponential(size=n), int(rng.integers(1, 4)))
                probs = np.arange(1, g) / g
                assert_same_bits(type7_quantiles(x, probs), np.quantile(x, probs))

    def test_quantiles_leave_input_alone(self, rng):
        x = rng.normal(size=(3, 50))
        before = x.copy()
        type7_quantiles(x, [0.5])
        assert_same_bits(x, before)

    def test_unique_matches_numpy_on_grid_inputs(self):
        for seed, decimals in ((1, None), (2, 1), (3, 0)):
            times = simulate_dataset(120, 6, seed=seed)[0].event_times
            if decimals is not None:  # tied times give tied cuts
                times = np.round(times, decimals)
            for g in (2, 5, 20, 60):
                cuts = np.quantile(times, np.arange(1, g) / g)
                candidate = np.concatenate(([0.0], cuts, [times.max()]))
                assert_same_bits(sorted_unique(candidate), np.unique(candidate))

    def test_unique_matches_numpy_on_rank_inputs(self):
        for m in (*range(1, 200), 1000, 4095):
            for bins in {1, 2, 3, min(_KAPPA_SORTED_BINS, max(1, m // 8)), _KAPPA_SORTED_BINS}:
                first = (0.5 * m * (1.0 - np.cos(np.arange(bins) * (np.pi / bins)))
                         ).astype(np.int64)
                assert_same_bits(sorted_unique(first), np.unique(first))
                assert_same_bits(_rank_bins(m, bins)[0], np.unique(first))

    def test_unique_of_unsorted_ties(self, rng):
        x = rng.integers(0, 20, size=300).astype(float)
        assert_same_bits(sorted_unique(x), np.unique(x))
        assert_same_bits(sorted_unique(x[:0]), np.unique(x[:0]))

    @pytest.mark.parametrize("tied", [False, True])
    def test_engine_grid_is_numpys(self, rng, tied):
        if tied:  # times from a few values, so many cuts coincide
            records = [make_record(followup=2.0, participant=i,
                                   times=np.sort(rng.choice([0.25, 0.5, 1.0, 1.5], size=k,
                                                            replace=False)))
                       for i, k in enumerate(rng.integers(0, 4, size=60))]
            dataset = make_dataset(records, 1)
        else:
            dataset = simulate_dataset(90, 3, seed=4)[0]
        times = dataset.event_times
        for g in (3, 20):
            eng = SamplerEngine(dataset, Hyperparams(grid_count=g), variant="BMZ-DP",
                                baseline_variant="piecewise")
            cuts = np.quantile(times, np.arange(1, g) / g)
            assert_same_bits(eng.grid, np.unique(np.concatenate(([0.0], cuts, [times.max()]))))


class TestGelmanRubin:
    def test_identical_chains(self):
        # B = 0, so the statistic is sqrt((n-1)/n): 1.0 up to the 1/n term
        x = np.arange(10_000, dtype=float)
        assert gelman_rubin_psrf([x, x]) == pytest.approx(1.0, abs=1e-3)
        assert gelman_rubin_psrf([np.full(10, 2.0), np.full(10, 2.0)]) == 1.0

    def test_offset_chains_diverge(self, rng):
        a = rng.standard_normal(500)
        b = a + 50.0
        assert gelman_rubin_psrf([a, b]) > 10.0

    def test_independent_normal_chains(self, rng):
        chains = [rng.standard_normal(10_000) for _ in range(2)]
        assert gelman_rubin_psrf(chains) < 1.01

    def test_split_half_converged_chain(self, rng):
        x = rng.standard_normal(20_000)
        assert gelman_rubin_psrf([x[:10_000], x[10_000:]]) < 1.05

    def test_requires_two_chains(self):
        with pytest.raises(ValueError, match="two chains"):
            gelman_rubin_psrf([np.arange(10.0)])


def streamed_cpo_lpml(ll):
    """log CPOs and LPML of a draws x participants matrix, folded in one
    draw at a time as a chain does."""
    lse = np.full(ll.shape[1], -np.inf)
    for s, row in enumerate(ll):
        cpo_accumulate(lse, row, s)
    return cpo_lpml(lse, ll.shape[0])


class TestCpoLpml:
    def test_constant_loglik(self):
        ll = np.full((40, 3), -1.7)
        log_cpo, lpml = streamed_cpo_lpml(ll)
        np.testing.assert_allclose(log_cpo, -1.7, atol=1e-12)
        assert lpml == pytest.approx(-3 * 1.7, abs=1e-10)

    def test_two_draw_harmonic_mean(self):
        ll = np.log(np.array([[1.0], [3.0]]))
        log_cpo, lpml = streamed_cpo_lpml(ll)
        assert math.exp(log_cpo[0]) == pytest.approx(1.5, abs=1e-12)

    def test_against_high_precision_oracle(self, rng):
        ll = rng.normal(-2.0, 1.5, size=(60, 8))
        log_cpo, lpml = streamed_cpo_lpml(ll)
        mpmath.mp.dps = 60
        for i in range(ll.shape[1]):
            inv = sum(mpmath.e ** (-mpmath.mpf(v)) for v in ll[:, i]) / ll.shape[0]
            expected = float(-mpmath.log(inv))
            assert log_cpo[i] == pytest.approx(expected, abs=1e-10)

    def test_matches_dense_oracle(self, rng):
        # spread over 80 nats, so the running maximum moves many times
        ll = rng.normal(-30.0, 20.0, size=(500, 25))
        log_cpo, lpml = streamed_cpo_lpml(ll)
        dense_cpo, dense_lpml = oracles.dense_cpo_lpml(ll)
        np.testing.assert_allclose(log_cpo, dense_cpo, rtol=1e-12)
        assert lpml == pytest.approx(dense_lpml, rel=1e-12)

    def test_nonfinite_entry_named(self):
        ll = np.zeros((4, 3))
        ll[2, 1] = np.inf
        with pytest.raises(ValueError, match="draw 2, participant 1"):
            streamed_cpo_lpml(ll)

    def test_order_invariance(self, rng):
        ll = rng.normal(-1.0, 0.7, size=(30, 6))
        _, base = streamed_cpo_lpml(ll)
        _, shuffled_draws = streamed_cpo_lpml(ll[rng.permutation(30)])
        _, shuffled_parts = streamed_cpo_lpml(ll[:, rng.permutation(6)])
        assert shuffled_draws == pytest.approx(base, abs=1e-10)
        assert shuffled_parts == pytest.approx(base, abs=1e-10)

    @pytest.mark.parametrize("lse, draws, message", [
        (np.zeros((2, 3)), 2, "one accumulated value per participant"),
        (np.zeros(3), 0, "at least one draw"),
        (np.array([0.0, -np.inf]), 4, "participant 1"),
    ])
    def test_malformed_input_rejected(self, lse, draws, message):
        with pytest.raises(ValueError, match=message):
            cpo_lpml(lse, draws)


class TestReplicateAggregate:
    def test_perfect_replicates(self):
        summaries = [{"mean": 0.4, "q2.5": 0.3, "q97.5": 0.5} for _ in range(10)]
        report = replicate_aggregate({"beta_1": summaries}, {"beta_1": 0.4})
        entry = report["beta_1"]
        assert entry["bias_pct"] == 0.0
        assert entry["coverage_pct"] == 100.0

    def test_ten_percent_bias(self):
        summaries = [{"mean": 0.44, "q2.5": 0.2, "q97.5": 0.6} for _ in range(5)]
        report = replicate_aggregate({"beta_1": summaries}, {"beta_1": 0.4})
        assert report["beta_1"]["bias_pct"] == pytest.approx(10.0, abs=1e-12)

    def test_coverage_counting(self):
        summaries = [{"mean": 0.4, "q2.5": 0.3, "q97.5": 0.5}] * 19
        summaries.append({"mean": 0.4, "q2.5": 0.45, "q97.5": 0.5})
        report = replicate_aggregate({"a": summaries}, {"a": 0.4})
        assert report["a"]["coverage_pct"] == pytest.approx(95.0)

    def test_zero_truth_flagged(self):
        summaries = [{"mean": 0.1, "q2.5": -0.1, "q97.5": 0.3}]
        report = replicate_aggregate({"a": summaries}, {"a": 0.0})
        assert "bias_flag" in report["a"]
        assert report["a"]["bias_absolute"] == pytest.approx(0.1)

    def test_unknown_parameters_skipped(self):
        report = replicate_aggregate({"a": [{"mean": 1, "q2.5": 0, "q97.5": 2}]}, {})
        assert report == {}
