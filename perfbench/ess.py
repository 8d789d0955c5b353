"""Bulk effective sample size in numpy (Vehtari et al. 2021, arXiv:1903.08008).

Draws are split in half per chain, pooled and rank-normalized, and the
autocorrelation of each split chain is estimated with an FFT.  The sum of
autocorrelations is truncated with Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_INV_CDF = NormalDist().inv_cdf


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array, ties sharing their average rank.

    Metropolis chains repeat values after every rejection, so ties are the
    rule rather than the exception."""
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    ends = np.append(starts[1:], x.size)
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    ranks = _average_ranks(chains.ravel())
    s = ranks.size
    z = np.array([_INV_CDF(p) for p in (ranks - 0.375) / (s + 0.25)])
    return z.reshape(chains.shape)


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) autocovariance of each row, via zero-padded FFT."""
    n = chains.shape[1]
    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _split(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, x.shape[1] - half:]])


def ess_from_chains(chains: np.ndarray) -> float:
    """Effective sample size of already split (and normalized) chains,
    shape (chains, draws), following Stan's estimator."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    mean_var = float(acov[:, 0].mean()) * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += float(chains.mean(axis=1).var(ddof=1))
    if not var_plus > 0:
        return math.nan
    rho_all = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus

    # Geyer's initial positive sequence: keep (even, odd) lag pairs while
    # their sum stays positive
    rho = np.zeros(n)
    rho[0] = 1.0
    rho[1] = rho_odd = rho_all[1]
    rho_even = 1.0
    t = 1
    while t < n - 5 and rho_even + rho_odd > 0:
        rho_even, rho_odd = rho_all[t + 1], rho_all[t + 2]
        if rho_even + rho_odd >= 0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t
    if rho_even > 0:
        rho[max_t + 1] = rho_even
    # ... made monotone: pair sums may not increase with the lag
    for t in range(1, max_t - 2, 2):
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
    total = m * n
    tau = -1.0 + 2.0 * float(rho[:max_t].sum()) + rho[max_t + 1]
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def bulk_ess(draws) -> float:
    """Bulk ESS of one parameter; ``draws`` is (draws,) or (chains, draws).

    Returns NaN for a series with no variation."""
    split = _split(draws)
    if split.shape[1] < 4:
        return math.nan
    if np.ptp(split) == 0:
        return math.nan
    return ess_from_chains(_rank_normalize(split))
