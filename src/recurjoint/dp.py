"""Truncated stick-breaking machinery shared by the shape-parameter mixture
and the cluster-effect mixture.

All functions are pure given an explicit random generator; callers own the
sequencing of draws.
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
    if s.size and (np.any(s <= 0.0) or np.any(s >= 1.0)):
        raise ValueError("stick fractions must lie strictly inside (0, 1)")
    full = np.append(s, 1.0)
    remaining = np.concatenate(([1.0], np.cumprod(1.0 - s)))
    return full * remaining


def posterior_stick_update(assignment_counts: np.ndarray, concentration: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Conjugate Beta draw of the K-1 free stick fractions.

    Stick ``l`` is drawn from ``Beta(1 + n_l, concentration + sum_{t>l} n_t)``;
    the last stick stays fixed at 1 and is not returned.
    """
    counts = np.asarray(assignment_counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("assignment counts must be nonnegative")
    if not concentration > 0:
        raise ValueError("concentration must be positive")
    k = counts.size
    if k == 1:
        return np.empty(0)
    above = counts[::-1].cumsum()[::-1] - counts  # counts assigned past each stick
    return rng.beta(1.0 + counts[:-1], concentration + above[:-1])


def update_concentration(raw_sticks: np.ndarray, a: float, b: float,
                         rng: np.random.Generator) -> float:
    """Conjugate Gamma draw of the concentration under Beta(1, phi) sticks.

    Posterior is ``Gamma(a + K - 1, b - sum log(1 - s_l))``; stick fractions
    are clamped away from 1 to keep the rate finite.
    """
    s = np.asarray(raw_sticks, dtype=float)
    comp = np.clip(1.0 - s, _STICK_FLOOR, None)
    shape = a + s.size
    rate = b - float(np.log(comp).sum())
    return float(rng.gamma(shape, 1.0 / rate))
