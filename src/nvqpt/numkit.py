"""Dense complex linear algebra and optimization kernel.

Everything here operates on small (dimension <= 16) numpy arrays and is a
pure function of its inputs.  Eigendecompositions, QR and linear solves
come from numpy.linalg.  The matrix exponential (Pade-13 scaling and
squaring, also of stacks), the principal logarithm (inverse scaling and
squaring), the Levenberg-Marquardt least-squares solver over the
positive semidefinite cone (analytic Jacobian) and Richardson
extrapolation are implemented here, so the package needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tolerances


class NumkitError(ValueError):
    pass


class PrincipalLogUndefined(NumkitError):
    pass


class ObjectiveDiverged(NumkitError):
    pass


def _as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise NumkitError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
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
    h = a.conj().T
    skew = a - h
    defect = math.sqrt(np.vdot(skew, skew).real)
    if defect > tolerances.get("hermitian_input") * max(1.0, math.sqrt(np.vdot(a, a).real)):
        raise NumkitError(f"matrix is not Hermitian (defect {defect:.3g})")
    return EigResult(*np.linalg.eigh((a + h) / 2))


def clip_negative_eigs(m) -> np.ndarray:
    """Zero out negative eigenvalues, keeping eigenvectors: the nearest
    positive semidefinite matrix in Frobenius norm."""
    res = eig_hermitian(m)
    return _clip_eigs(res.eigenvalues, res.eigenvectors)


def _clip_eigs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V max(w, 0) V^dag from an eigendecomposition (w, V): the clip
    without eig_hermitian's checks, for iterates that are Hermitian and
    finite by construction."""
    return (v * np.maximum(w, 0.0)) @ v.conj().T


@functools.cache
def _strict_lower(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the strictly lower triangle: (1,0), (2,1), ..., (2,0), ...
    Built once per n and shared by every caller, so read-only."""
    pairs = np.array([(i, i - k) for k in range(1, n) for i in range(k, n)],
                     dtype=np.intp).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs[:, 0], pairs[:, 1]


def triangular_from_params(x, n: int) -> np.ndarray:
    """Lower-triangular n x n matrix from n^2 reals: the real diagonal,
    then (Re, Im) pairs of the strictly lower entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n * n,):
        raise NumkitError(f"expected {n * n} real parameters")
    m = np.diag(x[:n]).astype(complex)
    m[_strict_lower(n)] = x[n::2] + 1j * x[n + 1::2]
    return m


@functools.cache
def hermitian_basis(n: int) -> np.ndarray:
    """Frobenius-orthonormal basis B_k of n x n Hermitian matrices, laid out as
    triangular_from_params (E_ii; (E_ij + E_ji)/sqrt(2), i(E_ij - E_ji)/sqrt(2)
    per lower (i, j)), so components tr(B_k a) are real.  Shared, read-only."""
    low = np.array([triangular_from_params(e, n) for e in np.eye(n * n)])
    basis = low + low.conj().swapaxes(1, 2)
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    basis.flags.writeable = False
    return basis


def _from_components(c: np.ndarray) -> np.ndarray:
    n = math.isqrt(len(c))
    return (c @ hermitian_basis(n).reshape(n * n, n * n)).reshape(n, n)


def _to_components(a: np.ndarray) -> np.ndarray:
    return (hermitian_basis(len(a)).reshape(a.size, a.size).conj() @ a.ravel()).real


# Pade [13/13] coefficients and the 1-norm bound theta_13 (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# 7-point Gauss-Legendre rule on [0, 1]: sum_j w_j X (I + n_j X)^-1 is the
# [7/7] Pade approximant of log(I + X), accurate to unit roundoff for
# |X|_1 <= 0.25 (Higham, SIAM J. Matrix Anal. Appl. 22, 1126 (2001)).
_GL_NODES = np.array([0.0254460438286207377, 0.1292344072003027801,
                      0.2970774243113014165, 0.5, 0.7029225756886985835,
                      0.8707655927996972199, 0.9745539561713792623])
_GL_WEIGHTS = np.array([0.0647424830844348466, 0.1398526957446383340,
                        0.1909150252525594725, 0.2089795918367346939,
                        0.1909150252525594725, 0.1398526957446383340,
                        0.0647424830844348466])


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=-2).max(initial=0.0))


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by Pade-13 scaling and squaring (Higham 2005); a
    stack (..., n, n) shares one scaling exponent, set by its largest 1-norm."""
    a = _as_square(m, stack=True)
    norm = _norm1(a)
    eye = np.eye(a.shape[-1], dtype=complex)
    if norm == 0.0:
        return np.broadcast_to(eye, a.shape).copy()
    s = max(0, math.ceil(math.log2(norm / _THETA13)))
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    # an overflow leaves inf or nan, which the next kernel call rejects, unprinted
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def matrix_log_principal(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring.

    Raises PrincipalLogUndefined when an eigenvalue sits on (or within
    `log_branch` of) the closed negative real axis, where the principal
    branch is ambiguous -- for propagators this means the decoherence
    time is too long for an unambiguous branch.

    Product-form Denman-Beavers square roots bring A^(1/2^k) within
    |A^(1/2^k) - I|_1 <= 0.25; the Gauss-Legendre [7/7] Pade approximant of
    log(I + X) then gives log A = 2^k log(I + X) (Cheng, Higham, Kenney and
    Laub, SIAM J. Matrix Anal. Appl. 22, 1112 (2001)).  No eigenvector
    basis is formed, so defective input such as a Jordan block is fine.
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
    eye = np.eye(len(a), dtype=complex)
    y, k = a, 0
    while _norm1(y - eye) > 0.25 and k < 64:
        # y -> y^(1/2) while mk -> I, quadratically: the step taken once
        # |mk - I|_1 <= 1e-8 brings y to roundoff.  Far from I, each step is
        # scaled by mu = |det mk|^(-1/2n), which keeps |det mk| at 1.
        mk, k = y, k + 1
        for _ in range(100):
            mk_inv = np.linalg.inv(mk)
            gap = _norm1(mk - eye)
            mu = abs(np.linalg.det(mk)) ** (-0.5 / len(a)) if gap > 1e-2 else 1.0
            y = mu * y @ (eye + mk_inv / mu**2) / 2
            mk = (eye + (mu**2 * mk + mk_inv / mu**2) / 2) / 2
            if gap <= 1e-8:
                break
    x = y - eye
    terms = np.linalg.solve(eye + _GL_NODES[:, None, None] * x, np.broadcast_to(x, (7, *x.shape)))
    out = 2.0**k * np.tensordot(_GL_WEIGHTS, terms, axes=1)
    residual = np.linalg.norm(matrix_exp(out) - a)
    if residual > tolerances.get("log_roundtrip") * max(1.0, np.linalg.norm(a)):
        raise PrincipalLogUndefined(f"log round-trip residual {residual:.3g}")
    return out


MAX_EVALUATIONS = 2000


def psd_model_step(metric, grad, c) -> np.ndarray:
    """Components (in hermitian_basis) of the PSD y minimizing the model
    (y - c)^T metric (y - c) / 2 + grad^T (y - c): the unconstrained
    minimizer if PSD, else the clipped iterate of over-relaxed ADMM (Boyd et
    al., Found. Trends Mach. Learn. 3, 1 (2011)): up to 500 rounds of a solve
    with the cached (metric + rho I)^-1, rho = sqrt(lambda_min lambda_max),
    and one eigenvalue clip, stopping on 1e-13 primal and dual residuals,
    relative as in OSQP (Stellato et al., Math. Prog. Comp. 12, 637 (2020))."""
    y = c - np.linalg.solve(metric, grad)
    if np.linalg.eigvalsh(_from_components(y))[0] >= 0:
        return y
    lam = np.linalg.eigvalsh(metric)
    rho = math.sqrt(lam[0] * lam[-1])
    inv = np.linalg.inv(metric + rho * np.eye(len(c)))
    q = metric @ c - grad
    z, u = c, -grad / rho  # start at c, with the scaled multiplier that fits it
    for _ in range(500):
        y = inv @ (q + rho * (z - u))
        relaxed = 1.8 * y - 0.8 * z
        w, v = np.linalg.eigh(_from_components(relaxed + u))
        z_old, z = z, _to_components(_clip_eigs(w, v))
        u += relaxed - z
        prim, dual = y - z, rho * (z - z_old)
        if (prim @ prim <= 1e-26 * max(y @ y, z @ z)
                and dual @ dual <= 1e-26 * max(q @ q, rho * rho * (u @ u))):
            break
    return z


def levenberg_marquardt(residuals, jacobian, a0) -> tuple[np.ndarray, float, int, int, bool]:
    """Minimize sum(residuals(a)**2) over PSD a from a0 (clipped to PSD),
    given jacobian(a) = d residuals / dc for the components c of a in
    hermitian_basis; returns (a_best, cost, evaluations, jacobians, converged).

    Each step minimizes the Gauss-Newton model, damped by lam * max(diag
    J^T J), on the PSD cone (psd_model_step).  Converges on a relative cost
    change <= 1e-15 or a step below 1e-12 relative to c.  Each Jacobian is
    charged len(c) evaluations against MAX_EVALUATIONS, the price of a
    finite-difference one; the solver stops unconverged before a Jacobian
    or trial step that would exceed the budget.
    """
    c = _to_components(clip_negative_eigs(a0))
    evals = jacs = 0

    def f(c: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal evals
        evals += 1
        r = np.asarray(residuals(_from_components(c)), dtype=float)
        if not np.all(np.isfinite(r)):
            raise ObjectiveDiverged(f"objective diverged at components {c}")
        return r, float(r @ r)

    r, cost = f(c)
    lam, eye = 1e-3, np.eye(len(c))
    while evals + len(c) * (jacs + 1) < MAX_EVALUATIONS:
        jac, jacs = np.asarray(jacobian(_from_components(c)), dtype=float), jacs + 1
        jtj, grad = jac.T @ jac, jac.T @ r
        damping = max(jtj.diagonal().max(), np.finfo(float).tiny) * eye
        while evals + len(c) * jacs < MAX_EVALUATIONS:  # raise lam until a step lowers the cost
            y = psd_model_step(jtj + lam * damping, grad, c)
            if np.linalg.norm(y - c) <= 1e-12 * (np.linalg.norm(c) + 1e-12):
                return _from_components(c), cost, evals, jacs, True
            r_new, cost_new = f(y)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            break
        c, r, lam, cost_old, cost = y, r_new, max(lam / 10, 1e-12), cost, cost_new
        if cost_old - cost <= 1e-15 * cost_old:
            return _from_components(c), cost, evals, jacs, True
    return _from_components(c), cost, evals, jacs, False


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
