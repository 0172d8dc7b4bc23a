import numpy as np
import pytest

from bellbound import (
    CorrelationData,
    TwoQubitState,
    correlation_data,
    pure_state,
    singlet,
    state_from_correlation,
    werner_state,
)
from bellbound.errors import OutOfRange
from bellbound.states import ID2, PAULI


def trace_oracle(state: TwoQubitState) -> CorrelationData:
    """Independent elementwise trace computation of (r, s, T)."""
    rho = state.rho
    r = np.zeros(3)
    s = np.zeros(3)
    t = np.zeros((3, 3))
    for i in range(3):
        r[i] = np.real(np.trace(np.kron(PAULI[i], ID2) @ rho))
        s[i] = np.real(np.trace(np.kron(ID2, PAULI[i]) @ rho))
        for j in range(3):
            t[i, j] = np.real(np.trace(np.kron(PAULI[i], PAULI[j]) @ rho))
    return CorrelationData(r=r, s=s, t=t)


def assert_valid(state: TwoQubitState):
    rho = state.rho
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    vals = np.linalg.eigvalsh(rho)
    assert vals[0] >= -1e-10


class TestPureState:
    def test_maximally_entangled(self):
        phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert np.max(np.abs(pure_state(np.pi / 4).rho - np.outer(phi, phi))) < 1e-15

    def test_product_endpoint(self):
        rho = pure_state(0.0).rho
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-15

    def test_purity(self):
        for theta in np.linspace(0, np.pi / 4, 7):
            assert abs(pure_state(theta).purity() - 1.0) <= 1e-12

    def test_correlation_matrix_signed(self):
        # T carries the signed trace values; the YY correlator is negative.
        theta = np.pi / 8
        data = correlation_data(pure_state(theta))
        oracle = trace_oracle(pure_state(theta))
        assert np.max(np.abs(data.t - oracle.t)) < 1e-14
        expected = np.diag([np.sqrt(2) / 2, -np.sqrt(2) / 2, 1.0])
        assert np.max(np.abs(data.t - expected)) < 1e-12

    def test_domain(self):
        with pytest.raises(OutOfRange):
            pure_state(-0.1)
        with pytest.raises(OutOfRange):
            pure_state(np.pi / 2)


class TestWernerState:
    def test_limits(self):
        assert np.max(np.abs(werner_state(1.0).rho - pure_state(np.pi / 4).rho)) < 1e-15
        data = correlation_data(werner_state(0.0))
        assert np.max(np.abs(werner_state(0.0).rho - np.eye(4) / 4)) < 1e-15
        assert np.max(np.abs(data.t)) < 1e-15

    def test_eigenvalues(self):
        p = 0.5
        vals = np.linalg.eigvalsh(werner_state(p).rho)
        expected = np.sort([(1 + 3 * p) / 4, (1 - p) / 4, (1 - p) / 4, (1 - p) / 4])
        assert np.max(np.abs(vals - expected)) < 1e-12

    def test_singular_values_scale_with_visibility(self):
        for p in np.linspace(0, 1, 11):
            sv = np.linalg.svd(correlation_data(werner_state(p)).t)[1]
            assert np.max(np.abs(sv - p)) <= 1e-12

    def test_signed_correlations(self):
        data = correlation_data(werner_state(0.7))
        assert np.max(np.abs(data.t - np.diag([0.7, -0.7, 0.7]))) < 1e-12

    def test_domain(self):
        with pytest.raises(OutOfRange):
            werner_state(-0.01)
        with pytest.raises(OutOfRange):
            werner_state(1.01)


class TestSinglet:
    def test_correlation_matrix(self):
        data = correlation_data(singlet())
        assert np.max(np.abs(data.t + np.eye(3))) <= 1e-12

    def test_no_local_bloch_vectors(self):
        data = correlation_data(singlet())
        assert np.max(np.abs(data.r)) < 1e-14
        assert np.max(np.abs(data.s)) < 1e-14

    def test_purity(self):
        assert abs(singlet().purity() - 1.0) <= 1e-12


class TestCorrelationData:
    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            q = rng.uniform()
            state = TwoQubitState(q * np.outer(vec, vec.conj()) + (1 - q) * np.eye(4) / 4)
            data = correlation_data(state)
            oracle = trace_oracle(state)
            assert np.max(np.abs(data.t - oracle.t)) < 1e-13
            assert np.max(np.abs(data.r - oracle.r)) < 1e-13
            assert np.max(np.abs(data.s - oracle.s)) < 1e-13
            assert np.max(np.abs(data.t)) <= 1 + 1e-10

    def test_round_trip_reconstruction(self):
        thetas = np.linspace(0, np.pi / 4, 20)
        ps = np.linspace(0, 1, 10)
        count = 0
        for theta in thetas:
            for p in ps:
                state = TwoQubitState(
                    p * pure_state(theta).rho + (1 - p) * np.eye(4) / 4
                )
                rebuilt = state_from_correlation(correlation_data(state))
                assert np.max(np.abs(rebuilt.rho - state.rho)) <= 1e-12
                count += 1
        assert count == 200


class TestValidation:
    def test_constructed_states_are_valid(self):
        for state in (singlet(), pure_state(0.3), werner_state(0.42)):
            assert_valid(state)

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            TwoQubitState(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_immutability(self):
        state = singlet()
        with pytest.raises((ValueError, AttributeError)):
            state.rho[0, 0] = 2.0


class TestJson:
    def test_round_trip(self):
        state = werner_state(0.35)
        again = TwoQubitState.from_json(state.to_json())
        assert np.max(np.abs(again.rho - state.rho)) < 1e-15

    def test_complex_entries(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        state = TwoQubitState(np.outer(vec, vec.conj()))
        again = TwoQubitState.from_json(state.to_json())
        assert np.max(np.abs(again.rho - state.rho)) < 1e-15
