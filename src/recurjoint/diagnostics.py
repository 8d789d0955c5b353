"""Posterior summarization, convergence diagnostics, model comparison and
replicate-study aggregation.

Model comparison by LPML needs one number per participant from a chain:
the running ``log sum_s exp(-l_si)`` over the kept draws, folded in draw
by draw (:func:`cpo_accumulate`), so no draws-by-participants matrix is
ever held.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "summarize_columns",
    "gelman_rubin_psrf",
    "cpo_accumulate",
    "cpo_lpml",
    "replicate_aggregate",
]


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of ``values``, flattened and ascending: a sort
    and one comparison of neighbours, equal to ``np.unique`` on input
    without NaN.  A plain ``np.unique`` would import ``numpy.ma``, which
    nothing here uses."""
    x = np.sort(values, axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def type7_quantiles(values, probs) -> np.ndarray:
    """Type-7 quantiles (Hyndman & Fan 1996) of ``values`` along its last
    axis at each of ``probs`` (in [0, 1]), shaped ``(len(probs),) +
    values.shape[:-1]``: numpy's default ``linear`` method written out, equal
    bit for bit to ``np.quantile(values, probs, axis=-1)``, which would
    import ``numpy.ma``.

    As numpy does, it partitions a copy at the order statistics it needs,
    takes the virtual index ``(n - 1) p``, sets both neighbours of an index
    at or past ``n - 1`` to the last (so its weight is ``(n - 1) p + 1``),
    interpolates ``a + (b - a) t``, or ``b - (b - a)(1 - t)`` where
    ``t >= 0.5``, and gives a series holding NaN the NaN that sorts last.
    """
    arr = np.array(values, dtype=float)
    n = arr.shape[-1]
    virtual = (n - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= n - 1
    lo[top] = hi[top] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    arr.partition(sorted_unique(np.concatenate(([0, -1], lo, hi))), axis=-1)
    a, b, t = arr[..., lo], arr[..., hi], virtual - lo
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    last = arr[..., -1:]
    np.copyto(out, last, where=np.isnan(last))
    return np.moveaxis(out, -1, 0)


def summarize_columns(draws: np.ndarray) -> list:
    """Mean, sd and type-7 empirical 2.5/50/97.5% quantiles (numpy's
    default ``linear`` method, by :func:`type7_quantiles`) of every column
    of a draws-by-parameters matrix, one dict per column.

    The columns are reduced in one pass over the C-contiguous transpose, so
    each is summed as a contiguous series, exactly as a single column on
    its own would be.
    """
    x = np.ascontiguousarray(np.asarray(draws, dtype=float).T)
    if x.shape[1] == 0:
        raise ValueError("cannot summarize an empty trace")
    mean = x.mean(axis=1)
    sd = x.std(axis=1, ddof=1) if x.shape[1] > 1 else np.zeros(x.shape[0])
    q = type7_quantiles(x, [0.025, 0.5, 0.975])
    return [{"mean": float(mean[k]), "sd": float(sd[k]), "q2.5": float(q[0, k]),
             "q50": float(q[1, k]), "q97.5": float(q[2, k])} for k in range(x.shape[0])]


def gelman_rubin_psrf(chains) -> float:
    """Classic potential scale reduction factor over >= 2 equal-length
    scalar chains: ``sqrt(((n-1)/n * W + B/n) / W)``.

    Returns 1.0 by convention when every chain is constant.
    """
    series = [np.asarray(c, dtype=float) for c in chains]
    if len(series) < 2:
        raise ValueError("at least two chains are required")
    n = series[0].size
    if n < 2 or any(c.size != n for c in series):
        raise ValueError("chains must share a common length of at least 2")
    stacked = np.stack(series)
    within = float(stacked.var(axis=1, ddof=1).mean())
    means = stacked.mean(axis=1)
    between_over_n = float(means.var(ddof=1))  # B / n
    if within == 0.0:
        return 1.0
    pooled = (n - 1) / n * within + between_over_n
    return float(np.sqrt(pooled / within))


def log_add_exp(a, b, out=None) -> np.ndarray:
    """``log(exp(a) + exp(b))`` elementwise, as ``max(a, b) +
    log1p(exp(-|a - b|))``: the same guard against overflow as
    ``np.logaddexp`` in fewer passes.  ``out`` may be ``a``; at most one
    of ``a`` and ``b`` may be ``-inf`` at an entry."""
    tail = np.subtract(a, b)
    np.abs(tail, out=tail)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    out = np.maximum(a, b, out=out)
    out += tail
    return out


def cpo_accumulate(neg_loglik_lse: np.ndarray, loglik: np.ndarray, draw: int) -> np.ndarray:
    """Fold one posterior draw into each participant's running
    ``log sum_s exp(-l_si)``, in place, and return the running vector.

    Start from a vector of ``-inf``; :func:`log_add_exp` shifts by the
    larger term, so no ``exp`` overflows.  A non-finite entry of ``loglik``
    raises, naming ``draw`` and the participant.
    """
    ll = np.asarray(loglik, dtype=float)
    bad = ~np.isfinite(ll)
    if bad.any():
        raise ValueError(f"non-finite log likelihood at draw {draw}, "
                         f"participant {np.flatnonzero(bad)[0]}")
    return log_add_exp(neg_loglik_lse, -ll, out=neg_loglik_lse)


def cpo_lpml(neg_loglik_lse: np.ndarray, draws: int) -> tuple:
    """Harmonic-mean conditional predictive ordinates and their summed log.

    ``neg_loglik_lse`` holds each participant's ``log sum_s exp(-l_si)``
    over ``draws`` posterior draws, as :func:`cpo_accumulate` builds it;
    vectors of separate chains merge with ``np.logaddexp``.  Then
    ``log CPO_i = log S - log sum_s exp(-l_si)``.
    """
    lse = np.asarray(neg_loglik_lse, dtype=float)
    if lse.ndim != 1:
        raise ValueError("expected one accumulated value per participant")
    if draws < 1:
        raise ValueError("at least one draw is required")
    bad = ~np.isfinite(lse)
    if bad.any():
        raise ValueError(f"non-finite accumulated value for participant {np.flatnonzero(bad)[0]}")
    log_cpo = np.log(draws) - lse
    return log_cpo, float(log_cpo.sum())


def replicate_aggregate(replicates, truth: dict) -> dict:
    """Average posterior means, percentage bias and 95% interval coverage
    across replicates of one study cell.

    ``replicates`` maps parameter name to a list of per-replicate summaries
    (each with mean/q2.5/q97.5).  Parameters with zero truth report absolute
    bias and are flagged.
    """
    report = {}
    for name, summaries in replicates.items():
        if name not in truth or not summaries:
            continue
        true_value = float(truth[name])
        means = np.array([s["mean"] for s in summaries])
        lo = np.array([s["q2.5"] for s in summaries])
        hi = np.array([s["q97.5"] for s in summaries])
        avg = float(means.mean())
        covered = float(((lo <= true_value) & (true_value <= hi)).mean())
        entry = {
            "truth": true_value,
            "avg_mean": avg,
            "coverage_pct": 100.0 * covered,
            "replicates": int(means.size),
        }
        if true_value == 0.0:
            entry["bias_absolute"] = avg
            entry["bias_flag"] = "truth is zero; absolute bias reported"
        else:
            entry["bias_pct"] = 100.0 * (avg - true_value) / true_value
        report[name] = entry
    return report
