import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import bellbound
from bellbound import linalg
from bellbound.states import SIGMA_X, SIGMA_Y, SIGMA_Z


class TestKron:
    """np.kron's index order, which the basis order |00>, |01>, |10>, |11>
    of states and Bell operators relies on."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_pauli_zz(self):
        assert np.allclose(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_elementwise_definition(self):
        # Independent expansion of the defining formula.
        a, b = SIGMA_X, SIGMA_Y
        out = np.kron(a, b)
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
            left = np.kron(np.kron(ms[0], ms[1]), ms[2])
            right = np.kron(ms[0], np.kron(ms[1], ms[2]))
            assert np.array_equal(left, right)

    def test_associativity_random_complex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ms = [
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)
            ]
            left = np.kron(np.kron(ms[0], ms[1]), ms[2])
            right = np.kron(ms[0], np.kron(ms[1], ms[2]))
            assert np.allclose(left, right, rtol=1e-15, atol=0.0)


class TestSolveSpd:
    """Solving SPD systems with np.linalg.cholesky and solve_cholesky."""

    @staticmethod
    def solve(a, b):
        return linalg.solve_cholesky(np.linalg.cholesky(a), b)

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

    def test_matches_scipy_triangular_solves(self):
        # The direct LAPACK calls give the bits of the scipy wrapper.
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 38, 300):
            a = rng.normal(size=(n, n))
            ell = np.linalg.cholesky(a @ a.T + n * np.eye(n))
            for b in (rng.normal(size=n), rng.normal(size=(n, 3)), np.eye(n)):
                lower = scipy.linalg.solve_triangular(ell, b, lower=True, check_finite=False)
                full = scipy.linalg.solve_triangular(ell.T, lower, lower=False,
                                                     check_finite=False)
                assert np.array_equal(linalg.solve_lower(ell, b), lower)
                assert np.array_equal(linalg.solve_cholesky(ell, b), full)

    def test_zero_pivot_raises(self):
        ell = np.linalg.cholesky(np.diag([4.0, 9.0, 16.0]))
        ell[1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            linalg.solve_cholesky(ell, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            linalg.solve_lower(ell, np.ones(3))


# Reads the thread count of each OpenBLAS copy mapped into the process after
# one SDP solve, the point by which bellbound has loaded and pinned scipy's.
_THREADS_PROBE = """
import ctypes, json, os
import bellbound
bellbound.solve(bellbound.gram_problem())
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
