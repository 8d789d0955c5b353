"""Truncated stick-breaking machinery shared by the shape-parameter mixture
and the cluster-effect mixture.

All functions are pure given an explicit random generator; callers own the
sequencing of draws.  None checks its arguments: the sampler's counts come
from a bincount and its concentrations are positive draws, and
:meth:`recurjoint.sampler.SamplerEngine.load_state` checks a loaded state's
sticks.  The stick draw clips its sticks strictly inside (0, 1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stick_to_weights",
    "posterior_stick_update",
    "update_concentration",
]

_STICK_FLOOR = 1e-12


def stick_to_weights(sticks: np.ndarray) -> np.ndarray:
    """Map K-1 stick fractions to K mixture weights.

    ``w_k = s_k * prod_{h<k}(1 - s_h)`` with the final stick implicitly 1,
    so the weights always sum to one.
    """
    sticks = np.asarray(sticks, dtype=float)
    weights = np.empty(sticks.size + 1)
    weights[0] = 1.0
    np.multiply.accumulate(1.0 - sticks, out=weights[1:])
    weights[:-1] *= sticks
    return weights


def posterior_stick_update(counts: np.ndarray, concentration: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Conjugate Beta draw of the K-1 free stick fractions given the K atoms'
    assignment counts (zeros for a prior draw): stick ``l`` is drawn from
    ``Beta(1 + n_l, concentration + sum_{t>l} n_t)`` and clipped to
    [1e-12, 1 - 1e-12], as a draw can round to the closed boundary; the last
    stick stays fixed at 1 and is not returned."""
    counts = np.asarray(counts)
    above = counts[:0:-1].cumsum()[::-1]  # counts assigned past each stick
    sticks = rng.beta(1.0 + counts[:-1], concentration + above)
    return np.minimum(np.maximum(sticks, _STICK_FLOOR, out=sticks), 1.0 - _STICK_FLOOR,
                      out=sticks)


def update_concentration(raw_sticks: np.ndarray, a: float, b: float,
                         rng: np.random.Generator) -> float:
    """Conjugate Gamma draw of the concentration under Beta(1, phi) sticks.

    Posterior is ``Gamma(a + K - 1, b - sum log(1 - s_l))``; stick fractions
    are clamped away from 1 to keep the rate finite.
    """
    s = np.asarray(raw_sticks, dtype=float)
    rate = b - float(np.log(np.maximum(1.0 - s, _STICK_FLOOR)).sum())
    return float(rng.gamma(a + s.size, 1.0 / rate))
