"""Standard single-qubit process tomography.

A process is carried as a 4x4 chi matrix over the normal operator basis
A_{2i+j+1} = |i><j|; in this basis chi coincides with the Choi matrix,
chi[2a+i, 2b+j] = E(|i><j|)[a, b].  chi_from_outputs builds it in one
reshape from the matrix-unit images, which follow from the four measured
outputs by linearity.  The Bloch-affine form is the Pauli transfer matrix
of chi, reached in both directions through the PAULI_PAIRS constant.
Kraus operators, the Jamiolkowski state, and the unphysicality norms
used to quantify the distance between an experimental chi and its
repaired counterpart also live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .numkit import eig_hermitian
from .qstate import IDENTITY_2, PAULIS


class ProcessError(ValueError):
    pass


class NotCompletelyPositive(ProcessError):
    pass


def matrix_units() -> list[np.ndarray]:
    """|i><j| in row-major order: E00, E01, E10, E11."""
    return list(np.eye(4, dtype=complex).reshape(4, 2, 2))


_NORMAL_BASIS = tuple(matrix_units())

# PAULI_PAIRS[m, n] = sigma_m (x) sigma_n^T over (I, X, Y, Z): the Pauli
# transfer matrix of chi is R_mn = Re tr(PAULI_PAIRS[m, n] chi) / 2 and
# chi = sum_mn R_mn PAULI_PAIRS[m, n] / 2.
PAULI_PAIRS = np.array([[np.kron(a, b.T) for b in (IDENTITY_2, *PAULIS)]
                        for a in (IDENTITY_2, *PAULIS)])


def input_states() -> list[np.ndarray]:
    """The canonical tomography inputs |0>, |1>, |+>, |+i> as densities."""
    kets = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ]
    return [np.outer(k, k.conj()) for k in kets]


def matrix_unit_images(outputs: list[np.ndarray]) -> list[np.ndarray]:
    """Images of the four matrix units under the measured channel.

    Uses linearity: E(|0><1|) = E(rho_+) + i E(rho_+i)
    - (1+i)/2 (E(rho_0) + E(rho_1)), and the conjugate identity for
    E(|1><0|).  Output order matches matrix_units()."""
    if len(outputs) != 4:
        raise ProcessError("need exactly four outputs")
    e0, e1, ep, ei = (np.asarray(o, dtype=complex) for o in outputs)
    e01 = ep + 1j * ei - (1 + 1j) / 2 * (e0 + e1)
    e10 = ep - 1j * ei - (1 - 1j) / 2 * (e0 + e1)
    return [e0, e01, e10, e1]


def chi_from_outputs(outputs: list[np.ndarray]) -> np.ndarray:
    """chi[2a+i, 2b+j] = E(|i><j|)[a, b] from the outputs of input_states()."""
    images = np.array(matrix_unit_images(outputs))
    return images.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def apply_chi(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """E(rho) = sum_mn chi_mn A_m rho A_n^dag."""
    chi = np.asarray(chi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for m in range(4):
        for n in range(4):
            out += chi[m, n] * _NORMAL_BASIS[m] @ rho @ _NORMAL_BASIS[n].conj().T
    return out


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators with the chi eigenvalue weights absorbed."""

    operators: list[np.ndarray] = field(default_factory=list)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2, 2), dtype=complex)
        for e in self.operators:
            out += e @ rho @ e.conj().T
        return out

    def completeness_defect(self) -> float:
        s = sum(e.conj().T @ e for e in self.operators)
        return float(np.linalg.norm(s - IDENTITY_2))


def kraus_from_chi(chi: np.ndarray) -> KrausSet:
    res = eig_hermitian(chi)
    if res.eigenvalues[0] < tolerances.get("kraus_eig_floor"):
        raise NotCompletelyPositive(
            f"chi has eigenvalue {res.eigenvalues[0]:.3g}: not completely "
            "positive -- repair it first (cpfit.project_to_cp)"
        )
    ops = []
    dmax = max(res.eigenvalues[-1], 1.0)
    for i, d in enumerate(res.eigenvalues):
        if d < 1e-12 * dmax:
            continue
        ops.append(np.sqrt(d) * res.eigenvectors[:, i].reshape(2, 2))
    return KrausSet(operators=ops)


@dataclass(frozen=True)
class AffineMap:
    """Bloch-space form of a trace-preserving qubit map: r -> E r + t,
    stored as the 4x4 real matrix acting on (1, rx, ry, rz)^T."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ProcessError("affine matrix must be 4x4")
        if not np.all(np.isfinite(m)):
            raise ProcessError("affine matrix has non-finite entries")
        if not np.array_equal(m[0], [1.0, 0.0, 0.0, 0.0]):
            raise ProcessError("affine first row must be exactly (1, 0, 0, 0)")
        object.__setattr__(self, "matrix", m)

    @property
    def linear(self) -> np.ndarray:
        return self.matrix[1:, 1:]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[1:, 0]

    @classmethod
    def from_parts(cls, linear, translation) -> "AffineMap":
        m = np.eye(4)
        m[1:, 1:] = np.asarray(linear, dtype=float)
        m[1:, 0] = np.asarray(translation, dtype=float)
        return cls(m)

    def apply(self, r) -> np.ndarray:
        """E r + t for Bloch vectors r of shape (..., 3)."""
        return np.asarray(r, dtype=float) @ self.linear.T + self.translation


def chi_to_affine(chi: np.ndarray) -> AffineMap:
    """(E | t) read off the Pauli transfer matrix R_mn = tr(sigma_m E(sigma_n))/2."""
    r = np.einsum("mnij,ji->mn", PAULI_PAIRS, np.asarray(chi, dtype=complex)).real / 2
    return AffineMap.from_parts(r[1:, 1:], r[1:, 0])


def affine_to_chi(affine: AffineMap) -> np.ndarray:
    """Inverse of chi_to_affine: chi = sum_mn R_mn sigma_m (x) sigma_n^T / 2."""
    return np.einsum("mn,mnij->ij", affine.matrix, PAULI_PAIRS) / 2


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
