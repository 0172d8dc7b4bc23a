"""
Two-qubit density matrices and their Bloch / correlation-matrix data.

Conventions, fixed once for the whole package:

* computational basis ordered |00>, |01>, |10>, |11>;
* Pauli ordering (sigma_1, sigma_2, sigma_3) = (X, Y, Z).

Correlation entries are reported signed, straight from the trace
t_ij = tr(sigma_i (x) sigma_j rho); no sign normalization is applied, so
e.g. the YY correlator of cos(theta)|00> + sin(theta)|11> comes out as
-sin(2 theta).  Singular values, the only input to the violation bound,
are unaffected by these signs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
ID2 = np.eye(2, dtype=complex)
# _PAULI_PAIRS[a, b] = sigma_a (x) sigma_b over (sigma_0, ..., sigma_3) = (I, X, Y, Z).
_PAULI_PAIRS = np.array([[np.kron(sa, sb) for sb in (ID2,) + PAULI] for sa in (ID2,) + PAULI])

EPS_TRACE = 1e-12
EPS_PSD = -1e-10  # minimum eigenvalue allowed, absorbs outer-product roundoff


class TwoQubitState:
    """A validated 4x4 density operator.

    Construction checks Hermiticity, unit trace and positive
    semidefiniteness (up to EPS_PSD).  Instances are immutable; ``rho`` is
    exposed as a read-only array.  The Pauli-correlation array that
    :func:`correlation_data` reads is computed on first use and kept in the
    ``_correlations`` slot, also read-only.
    """

    __slots__ = ("rho", "_correlations")

    def __init__(self, rho: np.ndarray):
        rho = np.array(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
        if not np.max(np.abs(rho - rho.conj().T)) <= 1e-12:  # NaN fails too
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > EPS_TRACE:
            raise ValueError(f"trace is {tr}, expected 1 within 1e-12")
        vals = np.linalg.eigvalsh(rho)
        if vals[0] < EPS_PSD:
            raise ValueError(f"minimum eigenvalue {vals[0]:.3e} below tolerance")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def to_json(self) -> str:
        """Serialize as a 4x4 row-major array of [re, im] pairs."""
        payload = [[[z.real, z.imag] for z in row] for row in self.rho]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TwoQubitState":
        """Inverse of :meth:`to_json`; ValueError unless the payload is a 4x4
        array of [re, im] number pairs."""
        payload = json.loads(text)
        pairs = np.array(payload, dtype=object)
        if pairs.shape != (4, 4, 2) or any(type(v) not in (int, float) for v in pairs.flat):
            raise ValueError("state JSON must be a 4x4 array of [re, im] number pairs")
        rho = np.array(
            [[complex(re, im) for re, im in row] for row in payload], dtype=complex
        )
        return cls(rho)


@dataclass(frozen=True, eq=False)
class CorrelationData:
    """Bloch vectors of both parties and the 3x3 correlation matrix."""

    r: np.ndarray  # Alice Bloch vector, (3,)
    s: np.ndarray  # Bob Bloch vector, (3,)
    t: np.ndarray  # correlation matrix, (3, 3)


def pure_state(theta: float) -> TwoQubitState:
    """Projector onto cos(theta)|00> + sin(theta)|11>, theta in [0, pi/4]."""
    if not 0.0 <= theta <= np.pi / 4 + 1e-15:
        raise OutOfRange(f"theta={theta} outside [0, pi/4]")
    psi = np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex)
    return TwoQubitState(np.outer(psi, psi.conj()))


def werner_state(p: float) -> TwoQubitState:
    """Isotropic mixture p |phi+><phi+| + (1-p) I/4 with p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p={p} outside [0, 1]")
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = p * np.outer(phi, phi.conj()) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return TwoQubitState(rho)


def singlet() -> TwoQubitState:
    """Projector onto (|01> - |10>)/sqrt(2); its correlation matrix is -I."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return TwoQubitState(np.outer(psi, psi.conj()))


def correlation_data(state: TwoQubitState) -> CorrelationData:
    """Extract (r, s, T) with r_i = tr((sigma_i (x) I) rho) and friends.

    The three are read-only views of the state's 4x4 array
    c_ab = tr(sigma_a (x) sigma_b rho), computed once per state.  Threads
    that fill it at the same time store equal arrays, so the race is benign.
    """
    try:
        c = state._correlations
    except AttributeError:
        # A real copy: the einsum's complex output need not be kept alive.
        c = np.einsum("abij,ji->ab", _PAULI_PAIRS, state.rho).real.copy()
        c.flags.writeable = False
        object.__setattr__(state, "_correlations", c)
    return CorrelationData(r=c[1:, 0], s=c[0, 1:], t=c[1:, 1:])


def state_from_correlation(data: CorrelationData) -> TwoQubitState:
    """Rebuild the density matrix from its Bloch/correlation data."""
    c = np.empty((4, 4))
    c[0, 0] = 1.0
    c[1:, 0], c[0, 1:], c[1:, 1:] = data.r, data.s, data.t
    return TwoQubitState(np.einsum("ab,abij->ij", c, _PAULI_PAIRS) / 4.0)
