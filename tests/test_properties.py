"""Property tests of the stacked outcome analysis, the bound chain, the
subentropy and the saturation flags."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qbound.accinfo import povm_from_vectors
from qbound.bounds import (SaturationFlags, _coarse_terms, bound_report, bound_reports,
                           saturation_predicates)
from qbound.haarmc import haar_unitary
from qbound.infomeasures import (info_gain_f, mutual_information, shannon, subentropy,
                                 von_neumann)
from qbound.matrixcore import commutes, operator_rank
from qbound.qobjects import (PROB_FLOOR, DensityOperator, Ensemble, Measurement, _neg_xlogx,
                             apply_measurement, coarse_grain, ensemble_state, pure_state,
                             random_instance)
from qbound.scenarios import random_diagonal_classical


@st.composite
def instances(draw, dim=None):
    """Random instances of dims 2-6 (or ``dim``) with 1-8 members and 1-9
    outcomes, optionally with a zero-probability member and a zero Kraus
    operator (an outcome of probability exactly 0)."""
    dim = dim or draw(st.integers(2, 6))
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


def assert_arrays_match_kraus(a, ens, meas):
    """Every post matrix equals A rho A† over its probability, formed here one
    operator at a time, and carries that state's spectrum; below the floor
    its spectrum and entropy are 0."""
    for j, op in enumerate(meas.kraus):
        cond = [op @ s.matrix @ op.conj().T for s in ens.states]
        total = sum(p * c for p, c in zip(ens.probs, cond))
        if a.outcome_probs[j] < PROB_FLOOR:
            assert not a.post_spectra[j].any() and a.post_entropies[j] == 0.0
        else:
            np.testing.assert_allclose(a.post_matrices[j] * a.outcome_probs[j], total, atol=1e-12)
            np.testing.assert_allclose(
                a.post_spectra[j], np.linalg.eigvalsh(total / a.outcome_probs[j]), atol=1e-9)
        for i, c in enumerate(cond):
            if a.cond_probs[j, i] < PROB_FLOOR:
                assert not a.cond_post_spectra[j, i].any() and a.cond_post_entropies[j, i] == 0.0
            else:
                np.testing.assert_allclose(a.cond_post_matrices[j, i] * a.cond_probs[j, i], c,
                                           atol=1e-12)
                np.testing.assert_allclose(
                    a.cond_post_spectra[j, i], np.linalg.eigvalsh(c / a.cond_probs[j, i]),
                    atol=1e-9)


@given(instances())
def test_outcome_tables_and_views(instance):
    ens, meas = instance
    a = apply_measurement(meas, ens)
    assert abs(a.outcome_probs.sum() - 1.0) <= 1e-9
    bayes = a.outcome_probs[:, None] * a.posteriors - ens.probs * a.cond_probs
    assert np.max(np.abs(bayes)) <= 1e-9
    for j in a.effective_outcomes():
        mixture = sum(a.posteriors[j, i] * a.cond_post_matrices[j, i]
                      for i in range(ens.size) if a.cond_probs[j, i] >= PROB_FLOOR)
        assert np.max(np.abs(mixture - a.post_matrices[j])) <= 1e-8
        average = ensemble_state(a.posterior_ensemble(j)).matrix
        assert np.max(np.abs(average - a.post_matrices[j])) <= 1e-8
    assert_arrays_match_kraus(a, ens, meas)


@given(instances())
def test_bound_chain_routes_and_slacks(instance):
    ens, meas = instance
    rep = bound_report(ens, meas)
    assert abs(rep.sww - rep.sww_alt) <= 1e-9
    assert abs(rep.eqx - rep.sww) <= 1e-9
    assert abs(rep.dual - rep.info_f) <= 1e-9
    assert rep.spectrum_identity_dev <= 1e-9
    assert rep.min_slack() >= -1e-8


@st.composite
def batches(draw):
    """1-5 instances of one dimension and of mixed shapes."""
    return draw(st.lists(instances(draw(st.integers(2, 6))), min_size=1, max_size=5))


REPORT_KEYS = ("info_i", "info_f", "chi", "dual", "sww", "sww_alt", "eqx",
               "spectrum_identity_dev")


@given(batches())
def test_stacked_reports_match_reports_one_at_a_time(batch):
    stacked = bound_reports(batch, list(range(len(batch))))
    for k, (ens, meas) in enumerate(batch):
        one = bound_report(ens, meas, seed=k)
        assert stacked[k].seed == k and stacked[k].dim == one.dim
        assert stacked[k].flags == one.flags
        for key in REPORT_KEYS:
            assert abs(getattr(stacked[k], key) - getattr(one, key)) <= 1e-14, key
        for key, slack in one.slacks.items():
            assert abs(stacked[k].slacks[key] - slack) <= 1e-14, key


def draw_groups(data, size):
    group_of = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return [[l for l, g in enumerate(group_of) if g == k] for k in sorted(set(group_of))]


@given(instances(), st.data())
def test_coarse_grain_sums_its_groups(instance, data):
    ens, meas = instance
    groups = draw_groups(data, meas.size)
    fine = apply_measurement(meas, ens)
    coarse = coarse_grain(Measurement(meas.kraus, groups=groups), ens)
    for k, group in enumerate(groups):
        q = fine.outcome_probs[group].sum()
        assert abs(coarse.outcome_probs[k] - q) <= 1e-12
        if q >= PROB_FLOOR:
            state = sum(fine.outcome_probs[l] * fine.post_matrices[l] for l in group)
            np.testing.assert_allclose(coarse.post_matrices[k] * q, state, atol=1e-12)


@given(instances(), st.data())
def test_coarse_graining_loses_index_information(instance, data):
    ens, meas = instance
    groups = draw_groups(data, meas.size)
    fine = mutual_information(apply_measurement(meas, ens))
    coarse = mutual_information(coarse_grain(Measurement(meas.kraus, groups=groups), ens))
    assert coarse <= fine + 1e-9


def per_instance_info_i(a):
    """Test-side port of the per-instance formula ``mutual_information`` had
    before it ran the stacked kernel: shannon(P) - Q[live] @ H(post[live])."""
    live = a.effective_outcomes()
    h_post = a.outcome_probs[live] @ _neg_xlogx(a.posteriors[live])
    return shannon(a.ensemble.probs) - float(h_post)


def per_instance_info_f(a):
    """The same for ``info_gain_f``: S[rho] - Q @ S(post)."""
    return von_neumann(ensemble_state(a.ensemble)) - float(a.outcome_probs @ a.post_entropies)


@given(instances(), st.data())
def test_info_i_and_info_f_equal_the_per_instance_formulas_bit_for_bit(instance, data):
    ens, meas = instance
    groups = draw_groups(data, meas.size)
    coarse = coarse_grain(Measurement(meas.kraus, groups=groups), ens)
    for a in (apply_measurement(meas, ens), coarse):
        if ens.size < 8 or ens.probs.all():
            assert mutual_information(a) == per_instance_info_i(a)
        else:  # numpy sums 8 or more terms in 8 partial sums, so dropping a 0 reorders H[P]
            bound = ens.size * np.finfo(float).eps * shannon(ens.probs)
            assert abs(mutual_information(a) - per_instance_info_i(a)) <= bound
        assert info_gain_f(a) == per_instance_info_f(a)


@st.composite
def kraus_stacks(draw):
    """An ensemble of dim 2-4 and a (K, J, d, d) stack of K = 1-5 random
    measurements of J = 2-6 outcomes."""
    dim, n_outcomes = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=6))
    ens = random_instance(dim, draw(st.integers(1, 8)), 2, draw(st.booleans()), seeds[0])[0]
    kraus = np.stack([random_instance(dim, 1, n_outcomes, True, s)[1].kraus_stack
                      for s in seeds[1:]])
    return ens, kraus


@given(kraus_stacks(), st.data())
def test_stacked_coarse_terms_match_coarse_grain(instance, data):
    ens, kraus = instance
    groups = draw_groups(data, kraus.shape[1])
    info_i, info_f = _coarse_terms(ens, kraus, groups)
    for k, ops in enumerate(kraus):
        analysis = coarse_grain(Measurement(ops, groups=groups), ens)
        assert info_i[k] == mutual_information(analysis)
        assert info_f[k] == info_gain_f(analysis)


@given(instances(), st.integers(0, 2 ** 32 - 1))
def test_invariant_under_a_global_unitary(instance, seed):
    ens, meas = instance
    u = haar_unitary(ens.dim, np.random.default_rng(seed))
    turned = bound_report(Ensemble(ens.probs, [u @ s.matrix @ u.conj().T for s in ens.states]),
                          Measurement([u @ a @ u.conj().T for a in meas.kraus]))
    rep = bound_report(ens, meas)
    for key in ("info_i", "info_f", "chi", "dual", "sww", "sww_alt", "eqx"):
        assert abs(getattr(turned, key) - getattr(rep, key)) <= 1e-9, key
    assert turned.flags == rep.flags


@st.composite
def density_operators(draw):
    """States of dims 2-6 whose spectra may repeat, nearly repeat (gap 1e-7,
    the subentropy cluster scale) or contain zeros."""
    dim = draw(st.integers(2, 6))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0 + 1e-7, 2.0, 3.5]),
                            min_size=dim, max_size=dim).filter(lambda w: sum(w) > 0))
    u = haar_unitary(dim, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return DensityOperator((u * (np.array(weights) / sum(weights))) @ u.conj().T)


@given(density_operators())
def test_subentropy_is_bounded_by_the_maximally_mixed_value_and_the_entropy(rho):
    # 0 <= Q[rho] <= Q[I/N] <= ln N and Q[rho] <= S[rho]; Q[I/N] <= S[rho]
    # itself fails for pure states, where S[rho] = 0.
    n = rho.dim
    q_max = math.log(n) - sum(1.0 / k for k in range(2, n + 1))
    q = subentropy(rho)
    assert abs(subentropy(DensityOperator(np.eye(n) / n)) - q_max) <= 1e-12
    assert -1e-12 <= q <= q_max + 1e-12
    assert q_max <= math.log(n)
    assert q <= von_neumann(rho) + 1e-12


def per_pair_flags(ens, meas):
    """Saturation flags from one ``commutes``/``operator_rank`` call per
    pair or operator."""
    def pairwise(ops):
        return all(commutes(x, y) for k, x in enumerate(ops) for y in ops[k + 1:])

    povm = [a.conj().T @ a for a in meas.kraus]
    return SaturationFlags(
        povm_commuting=pairwise(povm),
        classical=pairwise([s.matrix for s in ens.states] + list(meas.kraus)),
        pure_ensemble=ens.is_pure,
        rank_one_povm=all(operator_rank(a) == 1 for a in meas.kraus))


@st.composite
def flag_instances(draw):
    """Generic instances, classical (diagonal) ones, classical ones with
    the first state turned by an angle near the commutation tolerance, and
    rank-one POVMs, some of them projective in the computational basis."""
    kind = draw(st.sampled_from(["generic", "classical", "near-classical", "rank-one"]))
    if kind == "generic":
        return draw(instances())
    dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "classical":
        return random_diagonal_classical(dim, seed)
    if kind == "near-classical":
        ens, meas = random_diagonal_classical(dim, seed)
        angle = draw(st.sampled_from([1e-10, 3e-9, 3e-8, 1e-6]))
        turn = np.eye(dim)
        turn[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        first = turn @ ens.states[0].matrix @ turn.T
        return Ensemble(ens.probs, [first] + [s.matrix for s in ens.states[1:]]), meas
    ens, _ = random_instance(dim, draw(st.integers(1, 4)), 2, draw(st.booleans()), seed)
    if draw(st.booleans()):
        return ens, povm_from_vectors(np.eye(dim))
    g = np.random.default_rng(seed).normal(size=(draw(st.integers(dim, dim * dim)), dim, 2))
    return ens, povm_from_vectors(g[..., 0] + 1j * g[..., 1])


@given(flag_instances())
def test_saturation_flags_match_per_pair_checks(instance):
    ens, meas = instance
    assert saturation_predicates(ens, meas) == per_pair_flags(ens, meas)


@st.composite
def near_annihilations(draw):
    """A complete measurement whose outcome 0 nearly annihilates member 0:
    E_0 = U diag(δ², ..., δ², s, ...) U† with δ² on the r columns of U that
    span member 0, δ log-uniform in [1e-8, 1e-3]. Member 0 is the pure state
    of U's first column (r = 1) or a state of rank r < d on them given as a
    matrix; the other 1-4 members are drawn pure or mixed; outcomes 1-4 complete the
    measurement as G_j S^(-1/2) (I - E_0)^(1/2). Returns the instance and the
    indices of the members made as pure states."""
    dim = draw(st.integers(2, 6))
    delta = 10.0 ** draw(st.floats(-8.0, -3.0))
    rank = draw(st.integers(1, dim - 1))
    pure_first = rank == 1 and draw(st.booleans())
    pure_rest = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    if pure_first:
        first = pure_state(u[:, 0])
    else:
        w = rng.uniform(0.2, 1.0, size=rank)
        first = DensityOperator((u[:, :rank] * (w / w.sum())) @ u[:, :rank].conj().T)
    rest = random_instance(dim, draw(st.integers(1, 4)), 1, pure_rest, seed)[0]
    probs = rng.uniform(0.2, 1.0, size=1 + rest.size)
    e = np.concatenate([np.full(rank, delta ** 2), rng.uniform(0.2, 0.8, size=dim - rank)])
    g = rng.normal(size=(draw(st.integers(1, 4)), dim, dim, 2)) @ [1.0, 1j]
    s, v = np.linalg.eigh((g.conj().swapaxes(1, 2) @ g).sum(axis=0))
    rest_ops = g @ (v / np.sqrt(s)) @ v.conj().T @ (u * np.sqrt(1.0 - e)) @ u.conj().T
    meas = Measurement([(u * np.sqrt(e)) @ u.conj().T, *rest_ops])
    ens = Ensemble(probs / probs.sum(), [first, *rest.states])
    pure = [0] * pure_first + [1 + i for i in range(rest.size) if pure_rest]
    return ens, meas, pure


@given(near_annihilations())
def test_a_nearly_annihilated_member_is_analysed_without_error(instance):
    ens, meas, pure = instance
    a = apply_measurement(meas, ens)
    rep = bound_report(ens, meas)
    assert abs(rep.sww - rep.sww_alt) <= 1e-9
    assert abs(rep.eqx - rep.sww) <= 1e-9
    assert abs(rep.dual - rep.info_f) <= 1e-9
    assert rep.spectrum_identity_dev <= 1e-9
    assert rep.min_slack() >= -1e-8
    one = [0.0] * (ens.dim - 1) + [1.0]
    for i in pure:
        for j in np.flatnonzero(a.cond_probs[:, i] >= PROB_FLOOR):
            assert a.cond_post_spectra[j, i].tolist() == one
            assert a.cond_post_entropies[j, i] == 0.0
