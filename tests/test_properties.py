"""Property tests of the stacked outcome analysis and the bound chain."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qbound.bounds import bound_report
from qbound.qobjects import (PROB_FLOOR, Ensemble, Measurement, apply_measurement,
                             coarse_grain, random_instance)


@st.composite
def instances(draw):
    """Random instances of dims 2-6 with 1-8 members and 1-9 outcomes,
    optionally with a zero-probability member and a zero Kraus operator
    (an outcome of probability exactly 0)."""
    dim = draw(st.integers(2, 6))
    n_states = draw(st.integers(1, 8))
    n_outcomes = draw(st.integers(1, 9))
    pure = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    zero_member = n_states > 1 and draw(st.booleans())
    zero_kraus = n_outcomes > 1 and draw(st.booleans())
    ens, meas = random_instance(dim, n_states, n_outcomes - int(zero_kraus), pure, seed)
    if zero_member:
        probs = np.array(ens.probs)
        probs[0] = 0.0
        ens = Ensemble(probs / probs.sum(), ens.states)
    if zero_kraus:
        meas = Measurement(list(meas.kraus) + [np.zeros((dim, dim))])
    return ens, meas


def assert_views_match_kraus(a, ens, meas):
    """Every view equals A rho A† over its probability, formed here one
    operator at a time, and carries that state's spectrum."""
    for j, op in enumerate(meas.kraus):
        cond = [op @ s.matrix @ op.conj().T for s in ens.states]
        total = sum(p * c for p, c in zip(ens.probs, cond))
        view = a.post_states[j]
        if a.outcome_probs[j] < PROB_FLOOR:
            assert view is None
        else:
            np.testing.assert_allclose(view.matrix * a.outcome_probs[j], total, atol=1e-12)
            np.testing.assert_allclose(
                view.eigenvalues, np.linalg.eigvalsh(total / a.outcome_probs[j]), atol=1e-9)
        for i, c in enumerate(cond):
            view = a.cond_post_states[j][i]
            if a.cond_probs[j, i] < PROB_FLOOR:
                assert view is None
            else:
                np.testing.assert_allclose(view.matrix * a.cond_probs[j, i], c, atol=1e-12)
                np.testing.assert_allclose(
                    view.eigenvalues, np.linalg.eigvalsh(c / a.cond_probs[j, i]), atol=1e-9)


@given(instances())
def test_outcome_tables_and_views(instance):
    ens, meas = instance
    a = apply_measurement(meas, ens)
    assert abs(a.outcome_probs.sum() - 1.0) <= 1e-9
    bayes = a.outcome_probs[:, None] * a.posteriors - ens.probs * a.cond_probs
    assert np.max(np.abs(bayes)) <= 1e-9
    for j in a.effective_outcomes():
        mixture = sum(a.posteriors[j, i] * s.matrix
                      for i, s in enumerate(a.cond_post_states[j]) if s is not None)
        assert np.max(np.abs(mixture - a.post_states[j].matrix)) <= 1e-8
    assert_views_match_kraus(a, ens, meas)


@given(instances())
def test_bound_chain_routes_and_slacks(instance):
    ens, meas = instance
    rep = bound_report(ens, meas)
    assert abs(rep.sww - rep.sww_alt) <= 1e-9
    assert abs(rep.eqx - rep.sww) <= 1e-9
    assert abs(rep.dual - rep.info_f) <= 1e-9
    assert rep.spectrum_identity_dev <= 1e-9
    assert rep.min_slack() >= -1e-8


@given(instances(), st.data())
def test_coarse_grain_sums_its_groups(instance, data):
    ens, meas = instance
    group_of = data.draw(st.lists(st.integers(0, 2), min_size=meas.size,
                                  max_size=meas.size))
    groups = [[l for l, g in enumerate(group_of) if g == k] for k in sorted(set(group_of))]
    fine = apply_measurement(meas, ens)
    coarse = coarse_grain(Measurement(meas.kraus, groups=groups), ens)
    for k, group in enumerate(groups):
        q = fine.outcome_probs[group].sum()
        assert abs(coarse.outcome_probs[k] - q) <= 1e-12
        if q >= PROB_FLOOR:
            state = sum(fine.outcome_probs[l] * fine.post_matrices[l] for l in group)
            np.testing.assert_allclose(coarse.post_states[k].matrix * q, state, atol=1e-12)
