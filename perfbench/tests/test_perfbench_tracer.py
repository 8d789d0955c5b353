import time

import numpy as np

from checks import oracle_mismatches, load_oracles
from tracer import Tracer, self_times_ns


class Worker:
    def outer(self):
        self.inner()
        time.sleep(0.002)

    def inner(self):
        time.sleep(0.001)


def test_self_time_is_span_minus_children():
    spans = [[0, "a", 0, 100, -1, 0], [1, "b", 10, 40, 0, 0], [2, "c", 50, 60, 0, 0],
             [3, "d", 12, 20, 1, 0]]
    assert self_times_ns(spans) == {0: 60, 1: 22, 2: 10, 3: 8}


def test_wrap_records_nesting_and_restores():
    original = Worker.__dict__["inner"]
    tracer = Tracer(run_id=4)
    seen = []
    tracer.wrap(Worker, "outer", "outer")
    tracer.wrap(Worker, "inner", "inner", hook=lambda args, kwargs, result: seen.append(args[0]))
    worker = Worker()
    worker.outer()
    tracer.restore()
    assert Worker.__dict__["inner"] is original
    (outer, inner) = sorted(tracer.spans, key=lambda s: s[2])
    assert outer[1] == "outer" and inner[1] == "inner"
    assert inner[4] == outer[0] and outer[4] == -1 and inner[5] == 4
    assert seen == [worker]
    worker.outer()
    assert len(tracer.spans) == 2


def test_oracle_check_catches_a_stale_likelihood(pytestconfig):
    from recurjoint.model import Hyperparams
    from recurjoint.sampler import SamplerEngine
    from recurjoint.simulate import simulate_dataset

    oracles = load_oracles(pytestconfig.rootpath)
    dataset, _ = simulate_dataset(60, 6, "piecewise", seed=2)
    rng = np.random.default_rng(0)
    engine = SamplerEngine(dataset, Hyperparams())
    engine.init_state(rng)
    engine.sweep(rng)
    sample = np.arange(0, 60, 7)
    assert oracle_mismatches(oracles, engine, sample) == []
    engine.beta = engine.beta + 0.5  # caches now disagree with the state
    assert len(oracle_mismatches(oracles, engine, sample)) > 0
