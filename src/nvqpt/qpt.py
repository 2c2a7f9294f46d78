"""Standard single-qubit process tomography.

A process is carried as a 4x4 chi matrix over the normal operator basis
A_{2i+j+1} = |i><j|; in this basis chi coincides with the Choi matrix,
chi[2a+i, 2b+j] = E(|i><j|)[a, b].  chi_from_outputs builds it in one
reshape from the matrix-unit images, which follow from the four measured
outputs by linearity.  Each change of form (superop_from_chi, ptm, the
Bloch-affine map) and the CPTP verdict (cptp_verdict) is defined here once.
Kraus operators, the Jamiolkowski state, and the unphysicality norms
used to quantify the distance between an experimental chi and its
repaired counterpart also live here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tolerances
from .numkit import eig_hermitian, psd_factors
from .qstate import IDENTITY_2, PAULIS, checked


class ProcessError(ValueError):
    pass


def matrix_units() -> list[np.ndarray]:
    """|i><j| in row-major order: E00, E01, E10, E11."""
    return list(np.eye(4, dtype=complex).reshape(4, 2, 2))


_NORMAL_BASIS = np.array(matrix_units())

# Column n is vec(sigma_n^T) = sigma_n.ravel() (sigma_0 = I), so vec(rho) @ it is tr(rho sigma_n).
PAULI_READOUT = np.reshape((IDENTITY_2, *PAULIS), (4, 4)).T
# U = [vec(sigma_n) / sqrt(2)] is unitary: U^dag S U is the PTM of S, same norm.
_PTM_BASIS = PAULI_READOUT.conj() / np.sqrt(2)


def ptm(superop) -> np.ndarray:
    """R_mn = tr(sigma_m S(sigma_n))/2 of a column-stacked superoperator S, or of a stack."""
    return _PTM_BASIS.conj().T @ np.asarray(superop, dtype=complex) @ _PTM_BASIS


def superop_from_chi(chi: np.ndarray) -> np.ndarray:
    """The realignment P[a+2b, i+2j] = chi[2a+i, 2b+j]: column i+2j of P is vec E(|i><j|)."""
    return np.asarray(chi, dtype=complex).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def chi_from_superop(superop: np.ndarray) -> np.ndarray:
    """Inverse of superop_from_chi: chi[2a+i, 2b+j] = P[a+2b, i+2j]."""
    return np.reshape(superop, (2, 2, 2, 2)).transpose(1, 3, 0, 2).reshape(4, 4)


def input_states() -> list[np.ndarray]:
    """The canonical tomography inputs |0>, |1>, |+>, |+i> as densities."""
    kets = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ]
    return [np.outer(k, k.conj()) for k in kets]


# E(|0><1|) = E(rho_+) + i E(rho_+i) - (1+i)/2 (E(rho_0) + E(rho_1)) and its conjugate for
# E(|1><0|), by linearity: row k maps the outputs of input_states() to E(matrix_units()[k]).
_UNIT_MIX = np.array([[1, 0, 0, 0], [-(1 + 1j) / 2, -(1 + 1j) / 2, 1, 1j],
                      [-(1 - 1j) / 2, -(1 - 1j) / 2, 1, -1j], [0, 1, 0, 0]])


def matrix_unit_images(outputs: list[np.ndarray]) -> np.ndarray:
    """Images (4, 2, 2) of matrix_units() under the measured channel: _UNIT_MIX @ outputs."""
    if len(outputs) != 4:
        raise ProcessError("need exactly four outputs")
    return (_UNIT_MIX @ np.reshape(np.asarray(outputs, dtype=complex), (4, 4))).reshape(4, 2, 2)


def chi_from_outputs(outputs: list[np.ndarray]) -> np.ndarray:
    """chi[2a+i, 2b+j] = E(|i><j|)[a, b] from the outputs of input_states()."""
    return matrix_unit_images(outputs).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = sum_mn chi_mn A_m rho A_n^dag."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            out += chi[m, n] * _NORMAL_BASIS[m] @ rho @ _NORMAL_BASIS[n].conj().T
    return out


class KrausSet(NamedTuple):
    """Kraus operators with the chi eigenvalue weights absorbed, largest first."""

    operators: list[np.ndarray]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for e in self.operators:
            out += e @ rho @ e.conj().T
        return out

    def completeness_defect(self) -> float:
        s = sum(e.conj().T @ e for e in self.operators)
        return float(np.linalg.norm(s - IDENTITY_2))


def kraus_from_chi(chi: np.ndarray) -> KrausSet:
    ops, low = psd_factors(chi, _NORMAL_BASIS)
    if low < tolerances.get("min_eig_floor"):
        raise ProcessError(f"chi has eigenvalue {low:.3g}: not completely "
                           "positive -- repair it first (cpfit.project_to_cp)")
    return KrausSet(operators=ops)


class _AffineFields(NamedTuple):
    matrix: np.ndarray


@checked
class AffineMap(_AffineFields):
    """Bloch-space form of a trace-preserving qubit map: r -> E r + t,
    stored as the 4x4 real matrix acting on (1, rx, ry, rz)^T."""

    __slots__ = ()

    def __new__(cls, matrix):
        return super().__new__(cls, np.asarray(matrix, dtype=float))

    def _check(self):
        if self.matrix.shape != (4, 4):
            raise ProcessError("affine matrix must be 4x4")
        if not np.all(np.isfinite(self.matrix)):
            raise ProcessError("affine matrix has non-finite entries")
        if not np.array_equal(self.matrix[0], [1.0, 0.0, 0.0, 0.0]):
            raise ProcessError("affine first row must be exactly (1, 0, 0, 0)")

    @property
    def linear(self) -> np.ndarray:
        return self.matrix[1:, 1:]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[1:, 0]

    def apply(self, r) -> np.ndarray:
        """E r + t for Bloch vectors r of shape (..., 3)."""
        return np.asarray(r, dtype=float) @ self.linear.T + self.translation


def chi_to_affine(chi: np.ndarray) -> AffineMap:
    """(E | t) read off the real Pauli transfer matrix of chi, row 0 set to (1, 0, 0, 0)."""
    r = ptm(superop_from_chi(chi)).real
    r[0] = (1.0, 0.0, 0.0, 0.0)
    return AffineMap(r)


def affine_to_chi(affine: AffineMap) -> np.ndarray:
    """Inverse of chi_to_affine: the superoperator U R U^dag, realigned back into chi."""
    return chi_from_superop(_PTM_BASIS @ affine.matrix @ _PTM_BASIS.conj().T)


def chi_to_choi(chi: np.ndarray) -> np.ndarray:
    """Choi matrix C = sum_ij E(|i><j|) (x) |i><j|.  In the normal basis
    this reproduces chi itself; computed from the channel action as an
    independent cross-check."""
    c = np.zeros((4, 4), dtype=complex)
    for u in matrix_units():
        c += np.kron(apply_chi(chi, u), u)
    return c


def jamiolkowski_state(chi: np.ndarray) -> np.ndarray:
    """Characteristic state rho_E = C / d for a qubit channel (d = 2)."""
    return chi_to_choi(chi) / 2


def tp_sum(chi: np.ndarray) -> np.ndarray:
    """sum_mn chi_mn A_n^dag A_m; equals I for trace-preserving chi.

    For the normal basis A_n^dag A_m = delta(i_n, i_m) |j_n><j_m|, so the
    sum collapses to S[a, b] = sum_i chi[2i+b, 2i+a]."""
    chi = np.asarray(chi, dtype=complex)
    return (chi[:2, :2] + chi[2:, 2:]).T


def tp_defect(chi: np.ndarray) -> float:
    """Frobenius norm of sum_mn chi_mn A_n^dag A_m - I."""
    return float(np.linalg.norm(tp_sum(chi) - IDENTITY_2))


def cptp_verdict(chi: np.ndarray) -> tuple[float, float, bool]:
    """(smallest eigenvalue, TP defect, whether they meet `min_eig_floor` and
    `tp_defect_max`) of a Hermitian chi: the one test of physicality."""
    min_eig, defect = float(eig_hermitian(chi).eigenvalues[0]), tp_defect(chi)
    return min_eig, defect, (min_eig >= tolerances.get("min_eig_floor")
                             and defect <= tolerances.get("tp_defect_max"))


def unphysicality_norms(chi: np.ndarray, chi_tilde: np.ndarray) -> dict[str, float]:
    """Distance norms of X = chi - chi_tilde: induced 1-norm, spectral
    norm, Frobenius norm, and the process trace distance (half the
    Schatten-1 norm)."""
    x = np.asarray(chi, dtype=complex) - np.asarray(chi_tilde, dtype=complex)
    sv = np.linalg.svd(x, compute_uv=False)
    return {
        "p1": float(np.max(np.sum(np.abs(x), axis=0))),
        "p2": float(sv[0]),
        "fro": float(np.linalg.norm(x)),
        "d_pro": float(np.sum(sv) / 2),
    }


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly uniform points on the unit sphere."""
    if n < 1:
        raise ProcessError("need at least one sample point")
    i = np.arange(n)
    z = 1 - 2 * (i + 0.5) / n
    radius = np.sqrt(np.clip(1 - z**2, 0.0, None))
    theta = np.pi * (1 + np.sqrt(5)) * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def ellipsoid_samples(affine: AffineMap, n: int):
    """Map a Fibonacci-spiral sphere sample through the affine form.

    Returns (inputs, outputs, violation) where violation flags output
    vectors leaving the Bloch ball (trace-violating protrusions)."""
    pts = fibonacci_sphere(n)
    outs = affine.apply(pts)
    return pts, outs, np.linalg.norm(outs, axis=1) > 1 + tolerances.get("bloch_ball")
