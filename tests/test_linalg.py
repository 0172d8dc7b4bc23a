import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bellbound
from bellbound import linalg
from bellbound.errors import NonHermitianInput, NotPositiveDefinite
from bellbound.states import SIGMA_X, SIGMA_Y, SIGMA_Z


class TestHermitianEig:
    def test_identity(self):
        vals, _ = linalg.hermitian_eig(np.eye(2, dtype=complex))
        assert np.allclose(vals, [1.0, 1.0])

    def test_pauli_x_spectrum(self):
        vals, _ = linalg.hermitian_eig(SIGMA_X)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_random_hermitian_reconstruction(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (m + m.conj().T) / 2
        vals, vecs = linalg.hermitian_eig(m)
        rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(rebuilt - m)) < 1e-10
        assert np.all(np.diff(vals) >= -1e-14)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(2, 7)
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (m + m.conj().T) / 2
            vals, _ = linalg.hermitian_eig(m)
            assert abs(np.sum(vals) - np.real(np.trace(m))) < 1e-10

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 6))
        m = (m + m.T) / 2
        vals, vecs = linalg.hermitian_eig(m.astype(complex))
        for i in range(6):
            assert np.max(np.abs(m @ vecs[:, i] - vals[i] * vecs[:, i])) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NonHermitianInput):
            linalg.hermitian_eig(np.ones((2, 3)))


class TestSvd3:
    def test_pure_family_values(self):
        theta = np.pi / 8
        s2 = np.sin(2 * theta)
        dec = linalg.svd3(np.diag([s2, s2, 1.0]))
        assert np.allclose(dec.singular_values, [1.0, np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_negative_identity(self):
        dec = linalg.svd3(-np.eye(3))
        assert np.allclose(dec.singular_values, [1.0, 1.0, 1.0])

    def test_zero_matrix(self):
        dec = linalg.svd3(np.zeros((3, 3)))
        assert np.allclose(dec.singular_values, 0.0)
        # Completion still yields orthonormal bases.
        assert np.allclose(dec.left_vectors.T @ dec.left_vectors, np.eye(3), atol=1e-12)

    def test_seeded_random_invariants(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            t = rng.uniform(-1.0, 1.0, size=(3, 3))
            dec = linalg.svd3(t)
            rebuilt = (
                dec.left_vectors @ np.diag(dec.singular_values) @ dec.right_vectors.T
            )
            assert np.max(np.abs(rebuilt - t)) <= 1e-10
            assert np.all(dec.singular_values >= 0.0)
            assert np.all(np.diff(dec.singular_values) <= 1e-14)
            assert np.max(np.abs(dec.left_vectors.T @ dec.left_vectors - np.eye(3))) <= 1e-10
            assert np.max(np.abs(dec.right_vectors.T @ dec.right_vectors - np.eye(3))) <= 1e-10

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-1.0, 1.0, size=(3, 3))
        first = linalg.svd3(t)
        second = linalg.svd3(t.copy())
        assert np.array_equal(first.right_vectors, second.right_vectors)
        assert np.array_equal(first.left_vectors, second.left_vectors)
        for j in range(3):
            col = first.right_vectors[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] >= 0.0

    def test_matches_lapack_singular_values(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = rng.normal(size=(3, 3))
            dec = linalg.svd3(t)
            ref = np.linalg.svd(t, compute_uv=False)
            assert np.max(np.abs(dec.singular_values - ref)) < 1e-10


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_zz(self):
        assert np.allclose(linalg.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_elementwise_definition(self):
        # Independent expansion of the defining formula.
        a, b = SIGMA_X, SIGMA_Y
        out = linalg.kron(a, b)
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
        assert np.array_equal(out, expected)

    def test_associativity_exact_on_pauli_entries(self):
        # Entries from {0, +-1, +-i} multiply without rounding, so the
        # two association orders agree bit for bit.
        rng = np.random.default_rng(3)
        paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z, np.eye(2, dtype=complex)]
        for _ in range(30):
            ms = [paulis[rng.integers(4)] for _ in range(3)]
            left = linalg.kron(linalg.kron(ms[0], ms[1]), ms[2])
            right = linalg.kron(ms[0], linalg.kron(ms[1], ms[2]))
            assert np.array_equal(left, right)

    def test_associativity_random_complex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ms = [
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)
            ]
            left = linalg.kron(linalg.kron(ms[0], ms[1]), ms[2])
            right = linalg.kron(ms[0], linalg.kron(ms[1], ms[2]))
            assert np.allclose(left, right, rtol=1e-15, atol=0.0)


class TestSolveSpd:
    """Solving SPD systems with cholesky_spd and solve_cholesky."""

    @staticmethod
    def solve(a, b):
        return linalg.solve_cholesky(linalg.cholesky_spd(a), b)

    def test_identity(self):
        assert np.allclose(self.solve(np.eye(3), np.array([1.0, 2.0, 3.0])),
                           [1.0, 2.0, 3.0])

    def test_diagonal(self):
        x = self.solve(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
        assert np.allclose(x, [2.0, 3.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(2, 12)
            a = rng.normal(size=(n, n))
            a = a.T @ a + np.eye(n)
            b = rng.normal(size=n)
            x = self.solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-9 * (1 + np.linalg.norm(b))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky_spd(np.diag([1.0, -1.0]))

    def test_rejects_tiny_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky_spd(np.diag([1.0, 1e-14]))


# Reads the thread count of each OpenBLAS copy mapped into the process.
_THREADS_PROBE = """
import ctypes, json, os
import bellbound
getters = {"libscipy_openblas64_": "scipy_openblas_get_num_threads64_",
           "libscipy_openblas-": "scipy_openblas_get_num_threads"}
out = {}
with open("/proc/self/maps") as fh:
    for line in fh:
        name = os.path.basename(line.split()[-1])
        for stem, symbol in getters.items():
            if stem in name and symbol not in out:
                getter = getattr(ctypes.CDLL(line.split()[-1]), symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                out[symbol] = getter()
print(json.dumps(out))
"""


def _openblas_threads(**env_updates) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(bellbound.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    env.update(env_updates)
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the OpenBLAS copies")
    proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    threads = json.loads(proc.stdout)
    if len(threads) < 2:
        pytest.skip(f"found only the OpenBLAS copies {sorted(threads)}")
    return threads


class TestOpenblasPin:
    def test_import_pins_both_copies(self):
        threads = _openblas_threads()
        assert threads == {"scipy_openblas_get_num_threads64_": 1,
                           "scipy_openblas_get_num_threads": 1}

    def test_user_setting_is_left_alone(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS caps its threads at 1 anyway")
        threads = _openblas_threads(OPENBLAS_NUM_THREADS="2")
        assert set(threads.values()) == {2}
