"""Host-speed probe: a fixed piece of work that does not touch the program,
timed in the benchmark process between the measured commands.

The benchmark runs on a few cores of a shared host whose speed changes by
up to half over tens of seconds, for every program alike.  Dividing a
command's wall time by the probe times taken just before and after it
removes that drift; multiplying by ``REFERENCE_S`` gives the seconds the
command would take on a host where the probe takes ``REFERENCE_S``.  The
work mixes what the sampler does: softmax, cumulative sums and categorical
draws over a 600 x 50 score matrix, a small matrix product, a short
Python loop, and a pass over a 16 MB array for memory traffic.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# probe seconds on the host the benchmark was defined on (2-vCPU Xeon VM,
# median of 60 probes); only a scale for the reported seconds
REFERENCE_S = 0.11
REPEATS = 200


@functools.lru_cache(maxsize=1)
def _inputs() -> dict:
    rng = np.random.default_rng(20220214)
    return {"scores": rng.standard_normal((600, 50)), "onehot": rng.random((20, 600)),
            "u": rng.random(600), "stream": rng.standard_normal(2**21),
            "out": np.empty(2**21)}


def probe_s() -> float:
    """Wall seconds of one probe."""
    x = _inputs()
    scores, onehot, u = x["scores"], x["onehot"], x["u"]
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        cdf = np.cumsum(w, axis=1)
        draws = (cdf < u[:, None] * cdf[:, -1:]).sum(axis=1)
        counts = np.bincount(draws, minlength=51)
        np.log(onehot @ w)
        total = 0.0
        for c in counts.tolist():
            total += c * 0.5
    for _ in range(4):
        np.multiply(x["stream"], 1.0001, out=x["out"])
        x["out"].sum()
    return time.perf_counter() - t0
