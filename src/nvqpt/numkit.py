"""Dense complex linear algebra and optimization kernel.

Everything here operates on small (dimension <= 16) numpy arrays and is a
pure function of its inputs.  Matrix decompositions are delegated to
numpy/scipy; the Levenberg-Marquardt least-squares solver and Richardson
extrapolation are implemented locally, so importing the package never
pulls in scipy.optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from . import tolerances


class NumkitError(ValueError):
    pass


class PrincipalLogUndefined(NumkitError):
    pass


class ObjectiveDiverged(NumkitError):
    pass


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumkitError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NumkitError(f"{name} has non-finite entries")
    return a


@dataclass(frozen=True)
class EigResult:
    """Hermitian eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def eig_hermitian(m) -> EigResult:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M^dag)/2 before decomposing; inputs
    whose anti-Hermitian part exceeds the `hermitian_input` tolerance are
    rejected.
    """
    a = _as_square(m)
    defect = np.linalg.norm(a - a.conj().T)
    if defect > tolerances.get("hermitian_input") * max(1.0, np.linalg.norm(a)):
        raise NumkitError(f"matrix is not Hermitian (defect {defect:.3g})")
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    return EigResult(eigenvalues=w, eigenvectors=v)


def clip_negative_eigs(m) -> np.ndarray:
    """Zero out negative eigenvalues, keeping eigenvectors: the nearest
    positive semidefinite matrix in Frobenius norm."""
    res = eig_hermitian(m)
    v = res.eigenvectors
    return (v * np.clip(res.eigenvalues, 0.0, None)) @ v.conj().T


def _strict_lower(n: int) -> tuple[list[int], list[int]]:
    """Indices of the strictly lower triangle: (1,0), (2,1), ..., (2,0), ..."""
    pairs = [(i, i - k) for k in range(1, n) for i in range(k, n)]
    return [i for i, _ in pairs], [j for _, j in pairs]


def triangular_from_params(x, n: int) -> np.ndarray:
    """Lower-triangular n x n matrix from n^2 reals: the real diagonal,
    then (Re, Im) pairs of the strictly lower entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n * n,):
        raise NumkitError(f"expected {n * n} real parameters")
    m = np.diag(x[:n]).astype(complex)
    m[_strict_lower(n)] = x[n::2] + 1j * x[n + 1::2]
    return m


def params_from_triangular(m) -> np.ndarray:
    """Inverse of triangular_from_params; the upper triangle is ignored."""
    m = np.asarray(m, dtype=complex)
    low = m[_strict_lower(len(m))]
    return np.concatenate([np.diag(m).real, np.column_stack([low.real, low.imag]).ravel()])


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring (scipy.linalg.expm)."""
    return scipy.linalg.expm(_as_square(m))


def matrix_log_principal(m) -> np.ndarray:
    """Principal matrix logarithm.

    Raises PrincipalLogUndefined when an eigenvalue sits on (or within
    `log_branch` of) the closed negative real axis, where the principal
    branch is ambiguous -- for propagators this means the decoherence
    time is too long for an unambiguous branch.
    """
    a = _as_square(m)
    w = np.linalg.eigvals(a)
    branch = tolerances.get("log_branch")
    for lam in w:
        if abs(lam) < branch or (lam.real < 0 and abs(lam.imag) < branch):
            raise PrincipalLogUndefined(
                "principal log undefined: eigenvalue on the negative real axis "
                "(decoherence time too long for unambiguous branch)"
            )
    out = scipy.linalg.logm(a)
    residual = np.linalg.norm(scipy.linalg.expm(out) - a)
    if residual > tolerances.get("log_roundtrip") * max(1.0, np.linalg.norm(a)):
        raise PrincipalLogUndefined(f"log round-trip residual {residual:.3g}")
    return out


MAX_EVALUATIONS = 2000


def levenberg_marquardt(residuals, x0) -> tuple[np.ndarray, float, int, bool]:
    """Minimize sum(residuals(x)**2); returns (x_best, cost, evaluations,
    converged).

    Forward-difference Jacobian with step 1e-6 * max(|x_i|, 1e-2), so a
    parameter at exactly zero still moves; damping lam * max(diag J^T J).
    Converges on a relative cost change <= 1e-15 or a step below 1e-12
    relative to x; stops unconverged before a Jacobian or trial step that
    would exceed MAX_EVALUATIONS calls.
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1:
        raise NumkitError("x0 must be a 1-D real vector")
    evals = 0

    def f(x: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal evals
        evals += 1
        r = np.asarray(residuals(x), dtype=float)
        if not np.all(np.isfinite(r)):
            raise ObjectiveDiverged(f"objective diverged at {x}")
        return r, float(r @ r)

    r, cost = f(x)
    lam = 1e-3
    while evals + len(x) < MAX_EVALUATIONS:
        h = 1e-6 * np.maximum(np.abs(x), 1e-2)
        jac = np.column_stack([(f(x + h[i] * e)[0] - r) / h[i]
                               for i, e in enumerate(np.eye(len(x)))])
        jtj, grad = jac.T @ jac, jac.T @ r
        damping = max(np.max(np.diag(jtj)), np.finfo(float).tiny) * np.eye(len(x))
        while evals < MAX_EVALUATIONS:  # raise lam until a step lowers the cost
            step = np.linalg.solve(jtj + lam * damping, -grad)
            if np.linalg.norm(step) <= 1e-12 * (np.linalg.norm(x) + 1e-12):
                return x, cost, evals, True
            r_new, cost_new = f(x + step)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            break
        x, r, lam, cost_old, cost = x + step, r_new, max(lam / 10, 1e-12), cost, cost_new
        if cost_old - cost <= 1e-15 * cost_old:
            return x, cost, evals, True
    return x, cost, evals, False


def richardson_derivative(samples: Sequence[np.ndarray], base_value, t1: float) -> np.ndarray:
    """Derivative at 0 of a matrix function from samples at t1, 2*t1, 4*t1.

    First divided differences D0(h) = (F(h) - F(0))/h at h in
    {t1, 2t1, 4t1} are combined twice: D1(h) = 2 D0(h) - D0(2h), then
    D2 = (4 D1(t1) - D1(2t1)) / 3.  Exact for F polynomial of degree <= 3;
    truncation error O(t1^3) for analytic F.
    """
    if t1 <= 0:
        raise NumkitError("t1 must be positive")
    if len(samples) != 3:
        raise NumkitError("need exactly three samples at the doubling schedule")
    f0 = np.asarray(base_value, dtype=complex)
    fs = [np.asarray(s, dtype=complex) for s in samples]
    if any(s.shape != f0.shape for s in fs):
        raise NumkitError("sample shapes do not match the base value")
    d0 = [(fs[i] - f0) / (2**i * t1) for i in range(3)]
    d1_a = 2 * d0[0] - d0[1]
    d1_b = 2 * d0[1] - d0[2]
    return (4 * d1_a - d1_b) / 3
