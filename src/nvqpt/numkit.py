"""Dense complex linear algebra and optimization kernel.

Everything here operates on small (dimension <= 16) numpy arrays and is a
pure function of its inputs.  Eigendecompositions, QR and linear solves
come from numpy.linalg.  The matrix exponential (one Pade 3-13 evaluation, scaled
and squared only above theta_13, also of stacks, real for float64), the principal
logarithm (inverse scaling and squaring) and the Levenberg-Marquardt
least-squares solver over the positive semidefinite cone (the model
supplies its Jacobian) are implemented here, so the package needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances


class NumkitError(ValueError):
    pass


class PrincipalLogUndefined(NumkitError):
    pass


class ObjectiveDiverged(NumkitError):
    pass


def _as_square(m, stack: bool = False, dtype=complex) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise NumkitError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumkitError("matrix has non-finite entries")
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


def triangular_from_params(x, n: int) -> np.ndarray:
    """Lower-triangular n x n matrix from n^2 reals: the real diagonal, then
    (Re, Im) pairs of the strictly lower entries in np.tril_indices order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n * n,):
        raise NumkitError(f"expected {n * n} real parameters")
    m = np.diag(x[:n]).astype(complex)
    m[np.tril_indices(n, -1)] = x[n::2] + 1j * x[n + 1::2]
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


# Pade [m/m] coefficients b_k = (2m-k)!/(k!(m-k)!), k = 0..m, keyed by the 1-norm bound
# theta_m to which degree m is accurate to unit roundoff (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005), Table 2.3), lowest first; above theta_13 the matrix is scaled.
_PADE = {theta: tuple(float(math.perm(2 * m - k, m) // math.factorial(k)) for k in range(m + 1))
         for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                          (13, 5.371920351148152e0))}
MAX_SQUARINGS = 26  # each can double the relative error, and 2^26 u < 1e-8 (u = 2^-53)

# 7-point Gauss-Legendre rule on [0, 1]: sum_j w_j X (I + n_j X)^-1 is the
# [7/7] Pade approximant of log(I + X), accurate to unit roundoff for
# |X|_1 <= 0.25 (Higham, SIAM J. Matrix Anal. Appl. 22, 1126 (2001)).  The eigenpairs
# (x, v) of the Legendre Jacobi matrix, off-diagonal k/sqrt(4k^2 - 1), give the nodes
# (x + 1)/2 and weights v_0^2 (Golub and Welsch, Math. Comp. 23, 221 (1969)).
_x, _v = np.linalg.eigh(np.diag([k / math.sqrt(4 * k * k - 1) for k in range(1, 7)], -1))
_GL_NODES, _GL_WEIGHTS = (_x + 1) / 2, _v[0] ** 2


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=-2).max(initial=0.0))


def _finite_norm1(a: np.ndarray) -> float:
    """_norm1 without a warning: NumkitError where finite entries pass float range."""
    with np.errstate(over="ignore"):
        norm = _norm1(a)
    if norm == math.inf:
        raise NumkitError("matrix 1-norm is beyond float range")
    return norm


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by Higham's (2005) scaling and squaring: the lowest Pade
    degree in {3, 5, 7, 9, 13} whose theta_m bounds the 1-norm, and only above
    theta_13 up to MAX_SQUARINGS squarings.  A stack (..., n, n) shares one degree and
    scaling, set by its largest 1-norm.  Real for a float64 array, else complex."""
    a = _as_square(m, stack=True, dtype=float if getattr(m, "dtype", 0) == np.float64 else complex)
    norm, s = _finite_norm1(a), 0
    for theta, b in _PADE.items():
        if norm <= theta:
            break
    else:  # above theta_13: scale by 2^-s into it, and square s times below
        s = math.ceil(math.log2(norm / theta))
        if s > MAX_SQUARINGS:
            raise NumkitError(f"matrix exponential needs {s} squarings, past {MAX_SQUARINGS}")
        a = a / 2.0**s
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    powers = [a @ a]  # a^2, a^4, ..., a^(m-1) carry both polynomials
    while len(powers) < len(b) // 2 - 1:
        powers.append(powers[-1] @ powers[0])
    u = a @ sum((c * p for c, p in zip(b[3::2], powers)), b[1] * eye)
    v = sum((c * p for c, p in zip(b[2::2], powers)), b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    if s:  # an overflow leaves inf or nan, which the next kernel call rejects, unprinted
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
    _finite_norm1(a)  # NumkitError, not numpy warnings, where the 1-norm passes float range
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
        # scaled by mu = |det mk|^(-1/2n), from slogdet (det overflows), to keep |det mk| 1.
        mk, k = y, k + 1
        for _ in range(100):
            mk_inv = np.linalg.inv(mk)
            gap = _norm1(mk - eye)
            mu = math.exp(-0.5 / len(a) * np.linalg.slogdet(mk)[1]) if gap > 1e-2 else 1.0
            y = mu * y @ (eye + mk_inv / mu**2) / 2
            mk = (eye + (mu**2 * mk + mk_inv / mu**2) / 2) / 2
            if gap <= 1e-8:
                break
    x = y - eye
    terms = np.linalg.solve(eye + _GL_NODES[:, None, None] * x, np.broadcast_to(x, (7, *x.shape)))
    out = 2.0**k * np.tensordot(_GL_WEIGHTS, terms, axes=1)
    with np.errstate(over="ignore"):  # inf, not a warning, past entries of about 1e154
        residual, size = np.linalg.norm(matrix_exp(out) - a), np.linalg.norm(a)
    if size == math.inf or not residual <= tolerances.get("log_roundtrip") * max(1.0, size):
        raise PrincipalLogUndefined(f"log round-trip residual {residual:.3g} at norm {size:.3g}")
    return out


MAX_EVALUATIONS = 200


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


def levenberg_marquardt(model, a0) -> tuple[np.ndarray, float, int, bool]:
    """Minimize sum(r(c)**2) over the components c in hermitian_basis of PSD
    matrices, from a0 clipped to PSD, given model(c) = (r(c), d r / dc) for c
    a 1-D float vector of length n^2; returns (a_best, cost, evaluations,
    converged), a_best the matrix of the best c.

    Each step minimizes the Gauss-Newton model, damped by lam * max(diag
    J^T J), on the PSD cone (psd_model_step).  Converges before evaluating a
    trial step y when the undamped model |r + J (y - c)|^2 lowers the cost
    by <= 1e-15 of it, or y - c is below 1e-12 relative to c.  An accepted
    trial brings its own J.  The solver stops unconverged before a trial
    step that would exceed MAX_EVALUATIONS."""
    c, evals = _to_components(clip_negative_eigs(a0)), 0

    def f(c: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        nonlocal evals
        evals += 1
        r, jac = (np.asarray(x, dtype=float) for x in model(c))
        if not np.all(np.isfinite(r)):
            raise ObjectiveDiverged(f"objective diverged at components {c}")
        return r, float(r @ r), jac

    r, cost, jac = f(c)
    lam, eye = 1e-3, np.eye(len(c))
    while True:
        jtj, grad = jac.T @ jac, jac.T @ r
        damping = max(jtj.diagonal().max(), np.finfo(float).tiny) * eye
        while evals < MAX_EVALUATIONS:  # raise lam until a step lowers the cost
            y = psd_model_step(jtj + lam * damping, grad, c)
            linear = r + jac @ (y - c)  # the linearized residual at y
            if (cost - linear @ linear <= 1e-15 * cost
                    or np.linalg.norm(y - c) <= 1e-12 * (np.linalg.norm(c) + 1e-12)):
                return _from_components(c), cost, evals, True
            r_new, cost_new, jac_new = f(y)
            if cost_new < cost:
                break
            lam *= 10.0
        else:
            return _from_components(c), cost, evals, False
        c, r, jac, lam, cost = y, r_new, jac_new, max(lam / 10, 1e-12), cost_new

