import math

import numpy as np
import pytest

from ess import bulk_ess


def ar1(rho, chains, draws, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = noise[:, 0] / math.sqrt(1.0 - rho * rho)
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ar1_matches_known_ess(rho):
    x = ar1(rho, chains=4, draws=10_000, seed=7)
    expected = x.size * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(x) == pytest.approx(expected, rel=0.12)


def test_single_chain_is_split():
    x = ar1(0.5, chains=1, draws=20_000, seed=3)[0]
    assert bulk_ess(x) == pytest.approx(x.size / 3.0, rel=0.12)


def test_repeated_values_from_rejections():
    x = np.repeat(ar1(0.0, chains=1, draws=2000, seed=5)[0], 3)
    ess = bulk_ess(x)
    assert 0.0 < ess < x.size / 2.0


def test_constant_series_has_no_ess():
    assert math.isnan(bulk_ess(np.ones(100)))
