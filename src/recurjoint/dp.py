"""Truncated stick-breaking machinery shared by the shape-parameter mixture
and the cluster-effect mixture.

All functions are pure given an explicit random generator; callers own the
sequencing of draws.  The public functions check their arguments; the
sampler, whose counts come from a bincount and whose sticks are clipped
inside (0, 1), calls the unchecked :func:`clip_sticks`, :func:`draw_sticks`
and :func:`weights_of` that they wrap.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stick_to_weights",
    "posterior_stick_update",
    "update_concentration",
]

_STICK_FLOOR = 1e-12


def stick_to_weights(raw_sticks: np.ndarray, truncation: int) -> np.ndarray:
    """Map K-1 stick fractions to K mixture weights.

    ``w_k = s_k * prod_{h<k}(1 - s_h)`` with the final stick implicitly 1,
    so the weights always sum to one.
    """
    s = np.asarray(raw_sticks, dtype=float)
    if s.size != truncation - 1:
        raise ValueError(f"expected {truncation - 1} stick fractions, got {s.size}")
    # minimum/maximum carry a NaN through, and NaN fails both comparisons
    if s.size and not (np.minimum.reduce(s) > 0.0 and np.maximum.reduce(s) < 1.0):
        raise ValueError("stick fractions must lie strictly inside (0, 1)")
    return weights_of(s)


def weights_of(sticks: np.ndarray) -> np.ndarray:
    """:func:`stick_to_weights` of a float array of sticks already known to
    lie strictly inside (0, 1), unchecked."""
    weights = np.empty(sticks.size + 1)
    weights[0] = 1.0
    np.multiply.accumulate(1.0 - sticks, out=weights[1:])
    weights[:-1] *= sticks
    return weights


def clip_sticks(sticks: np.ndarray) -> np.ndarray:
    """Clip Beta draws, which can round to the closed boundary, in place to
    [1e-12, 1 - 1e-12], strictly inside (0, 1)."""
    return np.minimum(np.maximum(sticks, _STICK_FLOOR, out=sticks), 1.0 - _STICK_FLOOR,
                      out=sticks)


def posterior_stick_update(assignment_counts: np.ndarray, concentration: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Conjugate Beta draw of the K-1 free stick fractions.

    Stick ``l`` is drawn from ``Beta(1 + n_l, concentration + sum_{t>l} n_t)``;
    the last stick stays fixed at 1 and is not returned.
    """
    counts = np.asarray(assignment_counts, dtype=float)
    if (counts < 0).any():
        raise ValueError("assignment counts must be nonnegative")
    if not concentration > 0:
        raise ValueError("concentration must be positive")
    return draw_sticks(counts, concentration, rng)


def draw_sticks(counts: np.ndarray, concentration: float,
                rng: np.random.Generator) -> np.ndarray:
    """:func:`posterior_stick_update` of nonnegative counts (floats or
    integers) and a positive concentration, unchecked."""
    if counts.size == 1:
        return np.empty(0)
    above = counts[:0:-1].cumsum()[::-1]  # counts assigned past each stick
    return rng.beta(1.0 + counts[:-1], concentration + above)


def update_concentration(raw_sticks: np.ndarray, a: float, b: float,
                         rng: np.random.Generator) -> float:
    """Conjugate Gamma draw of the concentration under Beta(1, phi) sticks.

    Posterior is ``Gamma(a + K - 1, b - sum log(1 - s_l))``; stick fractions
    are clamped away from 1 to keep the rate finite.
    """
    s = np.asarray(raw_sticks, dtype=float)
    rate = b - float(np.log(np.maximum(1.0 - s, _STICK_FLOOR)).sum())
    return float(rng.gamma(a + s.size, 1.0 / rate))
