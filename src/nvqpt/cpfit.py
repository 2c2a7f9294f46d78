"""Repair of an experimental chi matrix to the nearest completely
positive, trace-preserving process.

The nearest CPTP chi~ in Frobenius norm is found by Dykstra's alternating
projection (Boyle and Dykstra 1986; Knee, Bolduc, Leach and Gauger 2018)
between the positive semidefinite cone (clip negative eigenvalues) and
the affine subspace tp_sum(chi) = I (shift both diagonal 2x2 blocks by
half the defect); a step is one eigh, the clip and one matvec.  It returns
the affine iterate, exactly trace-preserving and PSD once converged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import qpt
from .numkit import NumkitError, _clip_eigs, clip_negative_eigs, triangular_from_params
from .qstate import IDENTITY_2

# Dykstra converges once the PSD and affine iterates are this close (relative
# to max(1, |chi|)); reaching MAX_ITERATIONS first fails the projection.
CONVERGENCE_GAP = 1e-12
MAX_ITERATIONS = 1000


def chi_from_params(t: np.ndarray) -> np.ndarray:
    """chi~ = T^dag T: positive semidefinite for every parameter vector.
    T is lower triangular, from the 16 reals of triangular_from_params."""
    m = triangular_from_params(t, 4)
    return m.conj().T @ m


def tp_project(chi: np.ndarray) -> np.ndarray:
    """Nearest matrix with tp_sum = I: both diagonal 2x2 blocks shift by
    half the (transposed) defect."""
    out = np.array(chi, dtype=complex)
    shift = (qpt.tp_sum(out) - IDENTITY_2).T / 2
    out[:2, :2] -= shift
    out[2:, 2:] -= shift
    return out


# chi - tp_project(chi) as one matvec, read off tp_project.  Its a/2 + b/2 - 1/2 rounds as
# tp_project's (a + b - 1)/2 because halving is exact, except that a subnormal entry (below
# 2.2e-308) can differ by one subnormal ulp, because halving a subnormal is inexact.
_HALF_IDENTITY = tp_project(np.zeros((4, 4))).ravel()
_HALF_BLOCK_SUM = np.stack([(e - tp_project(e)).ravel() + _HALF_IDENTITY
                            for e in np.eye(16).reshape(16, 4, 4)], axis=1)


class ProjectionResult(NamedTuple):
    chi_tilde: np.ndarray
    iterations: int
    converged: bool
    min_eigenvalue: float
    tp_defect: float
    frobenius_distance: float
    success: bool


def project_to_cp(chi: np.ndarray) -> ProjectionResult:
    """Find the nearest CPTP chi~ to a Hermitian (possibly unphysical) chi.

    qpt.cptp_verdict judges the result: `success` is False when it fails
    or when the projection stops on its iteration budget.
    """
    chi = np.asarray(chi, dtype=complex)
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(chi))
    if scale == np.inf:  # an infinite gap tolerance would pass any iterate
        raise NumkitError("chi's Frobenius norm is beyond float range")
    gap_tol = CONVERGENCE_GAP * max(1.0, scale)
    psd = clip_negative_eigs(chi)
    correction = chi - psd
    for iterations in range(1, MAX_ITERATIONS + 1):
        chi_tilde = psd - (_HALF_BLOCK_SUM @ psd.ravel() - _HALF_IDENTITY).reshape(4, 4)
        # y is Hermitian and finite because the checked chi is, so the
        # clip skips eig_hermitian's checks but symmetrizes alike
        y = chi_tilde + correction
        psd = _clip_eigs(*np.linalg.eigh((y + y.conj().T) / 2))
        correction = y - psd
        converged = float(np.linalg.norm(chi_tilde - psd)) <= gap_tol
        if converged:
            break
    min_eig, defect, cptp = qpt.cptp_verdict(chi_tilde)
    return ProjectionResult(
        chi_tilde=chi_tilde,
        iterations=iterations,
        converged=converged,
        min_eigenvalue=min_eig,
        tp_defect=defect,
        frobenius_distance=float(np.linalg.norm(chi_tilde - chi)),
        success=converged and cptp,
    )
