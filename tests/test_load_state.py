"""SamplerEngine.load_state: the one place a parameter state is checked.

Every rule is pinned by one case that breaks only it, on a state that also
differs from the loaded one everywhere else, so that a rule checked after
some field was written shows as a changed engine."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import make_dp
from recurjoint.model import (
    BASELINE_VARIANTS,
    VARIANTS,
    Hyperparams,
    ParamState,
    PiecewiseConstantHazard,
    PowerLawHazard,
)
from recurjoint.sampler import _STATE_FIELDS, SamplerEngine
from recurjoint.simulate import simulate_dataset

N, J = 30, 3


def _dataset(baseline="piecewise"):
    return simulate_dataset(N, J, baseline, seed=2)[0]


def valid_state(dataset, variant, baseline="piecewise", shift=0):
    """A state every ``variant`` engine over ``dataset`` accepts; states of
    different ``shift`` differ in every field."""
    n, j = len(dataset), dataset.num_clusters
    s = 1.0 + 0.5 * shift
    no_events = np.diff(dataset.event_offsets) == 0
    effects = {"BZ-DP": None, "BMZ": np.linspace(-0.3, 0.3, j) * s}.get(
        variant, make_dp([-0.2 * s, 0.4 * s], (np.arange(j) + shift) % 2,
                         sticks=[0.3 + 0.2 * shift], concentration=s))
    if baseline == "piecewise":
        base = PiecewiseConstantHazard([0.0, 0.5, 1.0, 2.0], np.array([0.8, 1.1, 0.9]) * s)
    else:
        base = PowerLawHazard(1.2 * s)
    return ParamState(
        beta=0.1 * s * np.arange(1, dataset.dim_x + 1), alpha=-0.1 * s * np.ones(dataset.dim_z),
        alpha0=0.2 * s, xi1=0.3 * s, xi2=-0.4 * s, zeta=0.05 * s * np.ones(dataset.dim_u),
        gamma=np.linspace(0.5, 1.5, n) * s, tau2=np.full(j, 0.7 * s),
        unsusceptible=(no_events & (variant != "BM-DP") & bool(shift)).astype(np.int8),
        cluster_effects=effects,
        kappa_dp=make_dp([0.9 * s, 1.7 * s, 2.5 * s], (np.arange(n) + shift) % 3,
                         sticks=[0.4, 0.5 + 0.1 * shift], concentration=2.0 * s),
        baseline=base, sigma2_beta=s, sigma2_alpha=2.0 * s)


def _events_index(dataset, has_events=True):
    return int(np.flatnonzero((np.diff(dataset.event_offsets) > 0) == has_events)[0])


def _with(state, **fields):
    return dataclasses.replace(state, **fields)


def _with_mixture(state, name, **fields):
    return _with(state, **{name: dataclasses.replace(getattr(state, name), **fields)})


def _flags(state, pos, value):
    flags = np.array(state.unsusceptible)
    flags[pos] = value
    return _with(state, unsusceptible=flags)


def _entry(values, pos, value):
    out = np.array(values)
    out[pos] = value
    return out


# (case id, variant, edit(state, dataset) -> a state breaking one rule,
#  pattern the message must contain)
RULES = [
    ("form", "BMZ-DP", lambda st, ds: _with(st, cluster_effects=np.zeros(J)),
     "cluster_effects must be a TruncatedDP"),
    ("baseline-kind", "BMZ-DP", lambda st, ds: _with(st, baseline=PowerLawHazard(1.3)),
     "baseline variant"),
    ("zeta-missing", "BMZ-DP", lambda st, ds: _with(st, zeta=None), "no zeta"),
    ("beta-size", "BMZ-DP", lambda st, ds: _with(st, beta=np.zeros(4)), "beta has 4 entries"),
    ("alpha-size", "BMZ-DP", lambda st, ds: _with(st, alpha=np.zeros(2)), "alpha has 2 entries"),
    ("zeta-size", "BMZ-DP", lambda st, ds: _with(st, zeta=np.zeros(5)), "zeta has 5 entries"),
    ("gamma-size", "BMZ-DP", lambda st, ds: _with(st, gamma=np.ones(N - 1)), "gamma has 29"),
    ("unsusceptible-size", "BMZ-DP",
     lambda st, ds: _with(st, unsusceptible=np.zeros(N + 1)), "unsusceptible has 31"),
    ("tau2-size", "BMZ-DP", lambda st, ds: _with(st, tau2=np.ones(J + 2)), "tau2 has 5"),
    ("kappa-assignments-size", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", assignments=np.zeros(N - 2)),
     "shape-mixture assignments has 28"),
    ("mu-assignments-size", "BM-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", assignments=np.zeros(J + 1)),
     "cluster-effect assignments has 4"),
    ("mu-effects-size", "BMZ", lambda st, ds: _with(st, cluster_effects=np.zeros(J - 1)),
     "cluster-effect atoms has 2"),
    ("kappa-sticks-size", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", raw_sticks=[0.5]), "shape-mixture sticks has 1"),
    ("mu-sticks-size", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", raw_sticks=[0.5, 0.5]),
     "cluster-effect sticks has 2"),
    ("gamma-positive", "BMZ-DP",
     lambda st, ds: _with(st, gamma=_entry(st.gamma, 7, 0.0)), r"gamma\[7\]: must be positive"),
    ("tau2-positive", "BMZ-DP",
     lambda st, ds: _with(st, tau2=_entry(st.tau2, 1, np.nan)), r"tau2\[1\]: must be positive"),
    ("kappa-atoms-positive", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", atoms=[0.9, -1.0, 2.0]),
     r"shape-mixture atoms\[1\]: must be positive"),
    ("unsusceptible-binary", "BZ-DP",
     lambda st, ds: _flags(st, 2, 2), r"unsusceptible\[2\]: must be 0 or 1"),
    ("unsusceptible-half", "BMZ",
     lambda st, ds: _with(st, unsusceptible=np.full(N, 0.5)), r"unsusceptible\[0\]: must be 0"),
    ("unsusceptible-with-events", "BMZ-DP",
     lambda st, ds: _flags(st, _events_index(ds), 1),
     r"unsusceptible\[0\]: participants with recurrent events cannot be unsusceptible: "
     r"participant 0 in cluster 0"),
    ("unsusceptible-without-zero-inflation", "BM-DP",
     lambda st, ds: _flags(st, _events_index(ds, has_events=False), 1),
     r"unsusceptible\[1\]: must be 0 in the BM-DP variant, which has no zero-inflation, got 1"),
    ("kappa-sticks-range", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", raw_sticks=[0.5, 1.0]),
     r"shape-mixture sticks\[1\]: must lie in \(0, 1\)"),
    ("kappa-sticks-nan", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", raw_sticks=[np.nan, 0.5]),
     r"shape-mixture sticks\[0\]: must lie in \(0, 1\), got nan"),
    ("mu-sticks-range", "BM-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", raw_sticks=[0.0]),
     r"cluster-effect sticks\[0\]: must lie in \(0, 1\)"),
    ("kappa-assignments-range", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", assignments=_entry(np.zeros(N), 5, 3)),
     r"shape-mixture assignments\[5\]: must lie in \[0, 3\)"),
    ("mu-assignments-range", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", assignments=[0, -1, 1]),
     r"cluster-effect assignments\[1\]: must lie in \[0, 2\)"),
    ("mu-assignments-integer", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", assignments=[1, 1.7, 1]),
     r"cluster-effect assignments\[1\]: must be integers, got 1.7"),
    ("kappa-concentration", "BMZ-DP",
     lambda st, ds: _with_mixture(st, "kappa_dp", concentration=0.0),
     "shape-mixture concentration: must be positive"),
    ("mu-concentration", "BM-DP",
     lambda st, ds: _with_mixture(st, "cluster_effects", concentration=-1.0),
     "cluster-effect concentration: must be positive"),
    ("sigma2-beta-positive", "BMZ-DP", lambda st, ds: _with(st, sigma2_beta=0.0),
     "sigma2_beta: must be positive, got 0.0"),
    ("sigma2-alpha-nan", "BZ-DP", lambda st, ds: _with(st, sigma2_alpha=np.nan),
     "sigma2_alpha: must be positive, got nan"),
]


@pytest.mark.parametrize("variant, edit, pattern", [case[1:] for case in RULES],
                         ids=[case[0] for case in RULES])
def test_rejected_state_leaves_engine_unchanged(variant, edit, pattern):
    dataset = _dataset()
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant)
    eng.load_state(valid_state(dataset, variant))
    row, loglik = eng.trace_row(), eng.participant_loglik()
    other = valid_state(dataset, variant, shift=1)
    eng.load_state(other)
    assert not np.array_equal(eng.trace_row(), row)
    eng.load_state(valid_state(dataset, variant))
    with pytest.raises(ValueError, match=pattern):
        eng.load_state(edit(other, dataset))
    np.testing.assert_array_equal(eng.trace_row(), row)
    np.testing.assert_array_equal(eng.participant_loglik(), loglik)


def test_param_state_stores_fields_by_their_annotations():
    # arrays read-only and floats as floats; the flags keep their type
    state = _with(valid_state(_dataset(), "BMZ"), beta=[1, 2, 3], alpha0=np.float64(0.5),
                  xi1=2, sigma2_beta=np.array(3.0), unsusceptible=np.zeros(N, dtype=np.int64))
    assert state.beta.dtype == float and not state.beta.flags.writeable
    assert all(type(getattr(state, name)) is float for name in ("alpha0", "xi1", "sigma2_beta"))
    assert state.unsusceptible.dtype == np.int64
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, f.name


@pytest.mark.parametrize("name", ["alpha0", "xi2", "sigma2_alpha"])
@pytest.mark.parametrize("value", ["x", None, [1.0, 2.0]], ids=["text", "none", "list"])
def test_param_state_names_a_float_field_that_is_not_a_number(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
        _with(valid_state(_dataset(), "BMZ"), **{name: value})


@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_holds_the_plain_fields_under_their_state_names(variant):
    # each plain field of the table is a ParamState field.  The engine
    # shares the loaded state's own value, with no converted copy, except a
    # per-record array, which the blocks write in place: that it copies
    names = [name for name, *_ in _STATE_FIELDS]
    assert set(names) <= {f.name for f in dataclasses.fields(ParamState)}
    dataset = _dataset()
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant)
    state = valid_state(dataset, variant)
    eng.load_state(state)
    for name, axis, _ in _STATE_FIELDS:
        held, loaded = getattr(eng, name), getattr(state, name)
        if axis == "records":
            assert not np.shares_memory(held, loaded) and held.flags.writeable, name
            assert held.dtype == loaded.dtype, name
            np.testing.assert_array_equal(held, loaded, err_msg=name)
        else:
            assert held is loaded, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_cluster_effect_form_per_variant(variant):
    dataset = _dataset()
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant)
    state = valid_state(dataset, variant)
    forms = {"mixture": make_dp([0.1], np.zeros(J, dtype=int)), "array": np.zeros(J),
             "none": None}
    accepted = {"BMZ-DP": "mixture", "BM-DP": "mixture", "BMZ": "array", "BZ-DP": "none"}[variant]
    for form, effects in forms.items():
        candidate = _with(state, cluster_effects=effects)
        if form == accepted:
            eng.load_state(candidate)
        else:
            with pytest.raises(ValueError, match=f"cluster_effects must be .* for the {variant} "
                                                 "variant"):
                eng.load_state(candidate)


def test_bmz_loads_one_effect_per_cluster():
    dataset = _dataset()
    eng = SamplerEngine(dataset, Hyperparams(), variant="BMZ")
    effects = np.array([-0.5, 0.25, 1.0])
    eng.load_state(_with(valid_state(dataset, "BMZ"), cluster_effects=effects))
    np.testing.assert_array_equal(eng.eta, effects)
    np.testing.assert_array_equal(eng.m, np.arange(J))
    np.testing.assert_array_equal(eng.mu_rec, effects[dataset.cluster_index])


@pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_row_reports_loaded_state(variant, baseline):
    dataset = _dataset(baseline)
    eng = SamplerEngine(dataset, Hyperparams(), variant=variant, baseline_variant=baseline)
    eng.init_state(np.random.default_rng(5))
    state = valid_state(dataset, variant, baseline, shift=1)
    eng.load_state(state)

    expected = {f"beta_{i + 1}": v for i, v in enumerate(state.beta)}
    expected.update({f"alpha_{i + 1}": v for i, v in enumerate(state.alpha)})
    expected.update(alpha0=state.alpha0, xi1=state.xi1, xi2=state.xi2,
                    sigma2_beta=state.sigma2_beta, sigma2_alpha=state.sigma2_alpha)
    if variant != "BM-DP":
        expected.update({f"zeta_{i + 1}": v for i, v in enumerate(state.zeta)})
    if baseline == "piecewise":
        expected.update({f"lambda_0{i + 1}": v for i, v in enumerate(state.baseline.levels)})
    else:
        expected["psi"] = state.baseline.shape
    expected.update({f"tau2_{i + 1}": v for i, v in enumerate(state.tau2)})
    effects = state.cluster_effects
    if variant == "BMZ":
        expected.update({f"mu_{i + 1}": v for i, v in enumerate(effects)})
    elif variant != "BZ-DP":
        expected.update({f"mu_{i + 1}": effects.atoms[a] for i, a in enumerate(effects.assignments)})
        expected["phi_mu"] = effects.concentration
    # the mixture atoms are not traced: only the cluster effects they give
    # and the concentrations
    expected["phi_kappa"] = state.kappa_dp.concentration
    expected["n_unsusceptible"] = float(state.unsusceptible.sum())

    assert dict(zip(eng.trace_columns(), eng.trace_row())) == expected
    assert len(eng.trace_columns()) == len(expected)


@pytest.mark.parametrize("hyper", [Hyperparams(),
                                   Hyperparams(a_phi=0.05, b_phi=50.0, fixed_p=0.5,
                                               truncation_kappa=1)],
                         ids=["default", "tiny concentrations, fixed p, one shape atom"])
@pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_init_state_writes_one_state_that_load_state_accepts(monkeypatch, variant, baseline,
                                                             hyper):
    # the prior draw is written as one state through the writer load_state
    # uses, unchecked since it is valid by construction: every rule of the
    # check holds for it, and loading it into a fresh engine gives the same
    # engine, array for array
    dataset = _dataset(baseline)
    written = []
    write = SamplerEngine._set_state
    monkeypatch.setattr(SamplerEngine, "_set_state",
                        lambda self, state: write(self, written.append(state) or state))
    eng = SamplerEngine(dataset, hyper, variant=variant, baseline_variant=baseline)
    eng.init_state(np.random.default_rng(7))
    assert len(written) == 1
    fresh = SamplerEngine(dataset, hyper, variant=variant, baseline_variant=baseline)
    fresh.load_state(written[0])
    assert vars(eng).keys() == vars(fresh).keys()
    for name, value in vars(eng).items():
        if isinstance(value, np.ndarray):
            assert value.tobytes() == vars(fresh)[name].tobytes(), name
    assert eng.trace_row().tobytes() == fresh.trace_row().tobytes()
