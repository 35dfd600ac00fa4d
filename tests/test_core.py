"""Reading-channel algebra: observed histograms, couplings, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qal.core import (
    LOST,
    BareDistribution,
    CouplingMatrix,
    QRuleParams,
    effective_distribution,
    effective_from_coupling,
    sample_readings,
    symmetric_coupling,
    symmetrizing_misreads,
)
from qal.errors import ChannelInfeasible, DimensionMismatch, NegativeEffectiveProbability

ATOL = 1e-12


def bare(probs, labels=None):
    probs = np.asarray(probs, dtype=float)
    if labels is None:
        labels = np.arange(probs.size, dtype=float)
    return BareDistribution(labels, probs)


def random_instance(rng, m_max=6, misreads=True):
    m = int(rng.integers(2, m_max + 1))
    probs = rng.dirichlet(np.full(m, 2.0))
    probs = np.maximum(probs, 1e-3)
    probs = probs / probs.sum()
    gamma = rng.uniform(0.0, 0.5, m)
    misr = np.zeros((m, m))
    if misreads:
        misr = rng.uniform(0.0, 0.5 / m, (m, m))
        np.fill_diagonal(misr, 0.0)
        # keep every column strictly sub-stochastic
        load = gamma + misr.sum(axis=0)
        misr = misr / np.maximum(load, 1.0)[None, :]
        gamma = gamma / np.maximum(load, 1.0)
    return bare(probs), QRuleParams(gamma, misr)


class TestTypes:
    def test_bare_validation(self):
        with pytest.raises(ValueError):
            bare([0.5, 0.5], labels=[1.0, 1.0])
        with pytest.raises(ValueError):
            bare([0.7, 0.31])
        with pytest.raises(ValueError):
            bare([1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            BareDistribution(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]))

    def test_qrule_validation(self):
        with pytest.raises(ValueError):
            QRuleParams(np.array([1.2, 0.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            QRuleParams(np.array([0.0, 0.0]), np.array([[0.1, 0.0], [0.0, 0.0]]))
        with pytest.raises(ChannelInfeasible):
            QRuleParams(np.array([0.9, 0.0]), np.array([[0.0, 0.0], [0.2, 0.0]]))

    def test_coupling_validation(self):
        with pytest.raises(ValueError):
            CouplingMatrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
        with pytest.raises(ValueError):
            CouplingMatrix(np.array([[0.0, -0.1], [-0.2, 0.0]]))


class TestEffectiveDistribution:
    def test_no_noise_is_identity(self):
        P = bare([0.5, 0.5])
        eff = effective_distribution(P, QRuleParams.lossless(2))
        assert np.allclose(eff.probs, [0.5, 0.5], atol=ATOL)
        assert eff.defect == pytest.approx(0.0, abs=ATOL)

    def test_pure_loss(self):
        P = bare([0.5, 0.5])
        eff = effective_distribution(P, QRuleParams.pure_loss([0.2, 0.2]))
        assert np.allclose(eff.probs, [0.4, 0.4], atol=ATOL)
        assert eff.defect == pytest.approx(0.2, abs=ATOL)

    def test_single_misread(self):
        P = bare([0.5, 0.3, 0.2])
        misr = np.zeros((3, 3))
        misr[0, 1] = 0.1  # outcome 2 read as outcome 1
        eff = effective_distribution(P, QRuleParams(np.zeros(3), misr))
        assert np.allclose(eff.probs, [0.53, 0.27, 0.2], atol=ATOL)
        assert eff.defect == pytest.approx(0.0, abs=ATOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_defect_identity(self, seed):
        rng = np.random.default_rng(seed)
        P, Q = random_instance(rng)
        eff = effective_distribution(P, Q)
        assert abs(eff.probs.sum() + (Q.loss_rates @ P.probs) - 1.0) <= ATOL
        assert abs(eff.defect - (Q.loss_rates @ P.probs)) <= ATOL

    def test_negative_from_coupling_rejected(self):
        P = bare([0.99, 0.01])
        d = symmetric_coupling(P, [1.0, 1.0])
        with pytest.raises(NegativeEffectiveProbability):
            effective_from_coupling(P, d)


class TestSymmetricCoupling:
    def test_zero_losses(self):
        P = bare([0.3, 0.7])
        d = symmetric_coupling(P, [0.0, 0.0])
        assert np.all(d.d == 0.0)

    def test_two_outcomes(self):
        P = bare([0.5, 0.5])
        d = symmetric_coupling(P, [0.2, 0.2])
        assert d.d[0, 1] == pytest.approx(-0.2, abs=ATOL)

    def test_three_uniform(self):
        P = bare(np.full(3, 1.0 / 3.0))
        d = symmetric_coupling(P, [0.3, 0.3, 0.3])
        off = d.d[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.15, atol=ATOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_structure_identity(self, seed):
        # sqrt(P_j P_l) d_jl must equal -(gamma_j P_j + gamma_l P_l) / (2 (M-1))
        rng = np.random.default_rng(seed)
        P, _ = random_instance(rng, misreads=False)
        gamma = rng.uniform(0.0, 1.0, P.m)
        d = symmetric_coupling(P, gamma)
        s = np.sqrt(P.probs)
        gp = gamma * P.probs
        expected = -(gp[:, None] + gp[None, :]) / (2.0 * (P.m - 1))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(np.outer(s, s) * d.d, expected, atol=ATOL)


class TestSymmetrizingMisreads:
    def test_two_outcomes(self):
        P = bare([0.5, 0.5])
        Q = symmetrizing_misreads(P, [0.2, 0.2])
        assert Q.misreads[0, 1] == pytest.approx(0.1, abs=ATOL)
        assert Q.misreads[1, 0] == pytest.approx(0.1, abs=ATOL)
        eff = effective_distribution(P, Q)
        assert np.allclose(eff.probs, [0.4, 0.4], atol=ATOL)

    def test_zero_losses(self):
        P = bare([0.4, 0.6])
        Q = symmetrizing_misreads(P, [0.0, 0.0])
        assert np.all(Q.misreads == 0.0)

    def test_infeasible_column(self):
        P = bare([0.99, 0.01])
        with pytest.raises(ChannelInfeasible):
            symmetrizing_misreads(P, [1.0, 1.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_coupling_route(self, seed):
        rng = np.random.default_rng(seed)
        P, _ = random_instance(rng, misreads=False)
        gamma = rng.uniform(0.0, 0.3, P.m)
        try:
            Q = symmetrizing_misreads(P, gamma)
        except ChannelInfeasible:
            return
        via_channel = effective_distribution(P, Q)
        via_coupling = effective_from_coupling(P, symmetric_coupling(P, gamma))
        assert np.allclose(via_channel.probs, via_coupling.probs, atol=ATOL)
        assert via_channel.defect == pytest.approx(via_coupling.defect, abs=ATOL)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sign_property(self, seed):
        # symmetric case: observed probabilities never exceed the bare ones
        rng = np.random.default_rng(seed)
        P, _ = random_instance(rng, misreads=False)
        gamma = rng.uniform(0.0, 0.3, P.m)
        d = symmetric_coupling(P, gamma)
        assert np.all(d.d <= ATOL)
        try:
            eff = effective_from_coupling(P, d)
        except NegativeEffectiveProbability:
            return
        assert np.all(eff.probs <= P.probs + ATOL)


def searchsorted_readings(P, Q, rng, size):
    """Oracle: the per-call sampler with searchsorted and per-column edge tables."""
    cum = np.cumsum(P.probs)
    cum[-1] = 1.0
    true_idx = np.searchsorted(cum, rng.random(size), side="right")
    m = Q.m
    others = np.empty((m - 1, m), dtype=np.intp)
    edges = np.empty((m, m))
    for l in range(m):
        rest = np.array([j for j in range(m) if j != l], dtype=np.intp)
        others[:, l] = rest
        edges[0, l] = Q.loss_rates[l]
        edges[1:, l] = Q.loss_rates[l] + np.cumsum(Q.misreads[rest, l])
    pos = (rng.random(size)[None, :] >= edges[:, true_idx]).sum(axis=0)
    out = np.where(pos == 0, LOST, true_idx)
    misread = (pos > 0) & (pos < m)
    out[misread] = others[pos[misread] - 1, true_idx[misread]]
    return out


class TestSampling:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shaped_call_equals_consecutive_calls_and_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        P, Q = random_instance(rng, m_max=4)
        rounds, n = int(rng.integers(1, 6)), int(rng.integers(1, 300))
        shaped = sample_readings(P, Q, np.random.default_rng(seed), (rounds, n))
        stream = np.random.default_rng(seed)
        consecutive = [sample_readings(P, Q, stream, n) for _ in range(rounds)]
        stream = np.random.default_rng(seed)
        oracle = [searchsorted_readings(P, Q, stream, n) for _ in range(rounds)]
        assert shaped.shape == (rounds, n)
        assert np.array_equal(shaped, consecutive)
        assert np.array_equal(shaped, oracle)

    def test_identity_channel_frequencies(self):
        P = bare([0.5, 0.3, 0.2])
        rng = np.random.default_rng(11)
        draws = sample_readings(P, QRuleParams.lossless(3), rng, 10**6)
        assert not np.any(draws == LOST)
        counts = np.bincount(draws, minlength=3)
        res = stats.chisquare(counts, P.probs * 10**6)
        assert res.pvalue > 0.01

    def test_lost_frequency(self):
        P = bare([0.5, 0.5])
        rng = np.random.default_rng(5)
        draws = sample_readings(P, QRuleParams.pure_loss([0.2, 0.2]), rng, 10**6)
        lost = float(np.mean(draws == LOST))
        # binomial standard error at p=0.2, n=1e6 is 4e-4
        assert abs(lost - 0.2) < 0.002

    def test_misread_histogram(self):
        P = bare([0.5, 0.3, 0.2])
        misr = np.zeros((3, 3))
        misr[0, 1] = 0.1
        Q = QRuleParams(np.zeros(3), misr)
        eff = effective_distribution(P, Q)
        rng = np.random.default_rng(17)
        n = 10**6
        draws = sample_readings(P, Q, rng, n)
        counts = np.bincount(draws, minlength=3)
        sigma = np.sqrt(eff.probs * (1.0 - eff.probs) * n)
        assert np.all(np.abs(counts - eff.probs * n) < 3.0 * sigma)

    def test_channel_consistency_chisquare(self):
        rng = np.random.default_rng(23)
        P, Q = random_instance(rng)
        eff = effective_distribution(P, Q)
        draws = sample_readings(P, Q, rng, 10**6)
        counts = np.bincount(draws[draws != LOST], minlength=P.m)
        counts = np.append(counts, int(np.sum(draws == LOST)))
        expected = np.append(eff.probs, eff.defect) * 10**6
        keep = expected > 0
        res = stats.chisquare(counts[keep], expected[keep])
        assert res.pvalue > 0.01

    def test_reproducible(self):
        P = bare([0.5, 0.3, 0.2])
        Q = QRuleParams.pure_loss([0.1, 0.2, 0.3])
        a = sample_readings(P, Q, np.random.default_rng(42), 1000)
        b = sample_readings(P, Q, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)
