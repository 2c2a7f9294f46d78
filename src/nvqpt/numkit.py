"""Dense complex linear algebra and optimization kernel.

Everything here operates on small (dimension <= 16) numpy arrays and is a pure function of
its inputs.  Eigendecompositions, QR and linear solves come from numpy.linalg.  The matrix
exponential (one Pade 3-13 evaluation, scaled and squared only above theta_13, also of
stacks, real for float64), the principal logarithm (inverse scaling and squaring, a 13-point
Gauss-Legendre rule) and the Levenberg-Marquardt least-squares solver over the positive
semidefinite cone (each step a semismooth Newton solve; the model supplies its Jacobian) are
implemented here, so the package needs numpy only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tolerances


class NumkitError(ValueError):
    pass


class PrincipalLogUndefined(NumkitError):
    pass


def _as_square(m, stack: bool = False, dtype=complex) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise NumkitError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumkitError("matrix has non-finite entries")
    return a


def hermitian_defect(a: np.ndarray) -> float:
    """|A - A^dag|_F / max(1, |A|_F) of a finite array (a matrix or stack), a Python float.
    Norms are taken by np.vdot (inf or nan past float range, not a warning); where |A|_F is not
    below 2^510, on A / max(max|Re A_ij|, max|Im A_ij|), so |A - A^dag|_F stays below 2^511."""
    size = math.sqrt(np.vdot(a, a).real)
    if not size < 2.0 ** 510:
        a = a / max(np.abs(a.real).max(), np.abs(a.imag).max())
        size = math.sqrt(np.vdot(a, a).real)
    skew = a - a.conj().swapaxes(-1, -2)
    return math.sqrt(np.vdot(skew, skew).real) / max(1.0, size)


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix: numpy's EighResult, `eigenvalues` real and
    ascending, `eigenvectors` unitary, in columns; a hermitian_defect above `hermitian_input` is
    rejected, and the rest are symmetrized as M/2 + M^dag/2, halved first so nothing overflows."""
    a = _as_square(m)
    defect = hermitian_defect(a)
    if defect > tolerances.get("hermitian_input"):
        raise NumkitError(f"matrix is not Hermitian (relative defect {defect:.3g})")
    half = a / 2
    return np.linalg.eigh(half + half.conj().T)


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


def psd_factors(m, basis) -> tuple[list[np.ndarray], float]:
    """(factors, smallest eigenvalue) of Hermitian m over operators basis_k: factors[i] =
    sqrt(d_i) sum_k V_ki basis_k for m's eigenpairs (d_i, V_i), largest first, dropping each
    d_i <= 0 or below 1e-12 d_max.  The caller judges the smallest eigenvalue."""
    res, basis = eig_hermitian(m), np.asarray(basis)
    d = np.clip(res.eigenvalues, 0.0, None)
    ops = ((np.sqrt(d) * res.eigenvectors).T @ basis.reshape(len(d), -1)).reshape(basis.shape)
    keep = [i for i in reversed(range(len(d))) if d[i] > 0 and d[i] >= 1e-12 * d[-1]]
    return [ops[i] for i in keep], float(res.eigenvalues[0])


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

# 13-point Gauss-Legendre rule on [0, 1]: sum_j w_j X (I + n_j X)^-1 is the [13/13] Pade
# approximant of log(I + X) (Higham, SIAM J. Matrix Anal. Appl. 22, 1126 (2001)), its error at
# most the scalar one at -|X|_1 (Kenney and Laub, Int. J. Control 50, 707 (1989)): 2.2e-17
# at 0.6.  The eigenpairs (x, v) of the Legendre Jacobi matrix, off-diagonal k/sqrt(4k^2 - 1),
# give the nodes (x + 1)/2 and weights v_0^2 (Golub and Welsch, Math. Comp. 23, 221 (1969)).
_x, _v = np.linalg.eigh(np.diag([k / math.sqrt(4 * k * k - 1) for k in range(1, 13)], -1))
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

    Raises PrincipalLogUndefined when an eigenvalue sits on (or within `log_branch` of) the
    closed negative real axis, where the principal branch is ambiguous -- for propagators
    this means the decoherence time is too long for an unambiguous branch.

    Product-form Denman-Beavers square roots (none while |A - I|_1 <= 0.6) bring A^(1/2^k)
    within |A^(1/2^k) - I|_1 <= 0.6; the Gauss-Legendre [13/13] Pade approximant of
    log(I + X) then gives log A = 2^k log(I + X) (Cheng, Higham, Kenney and Laub, SIAM J.
    Matrix Anal. Appl. 22, 1112 (2001)).  No eigenvector basis is formed, so defective
    input such as a Jordan block is fine.
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
    while _norm1(y - eye) > 0.6 and k < 64:
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
    terms = np.linalg.solve(eye + _GL_NODES[:, None, None] * x, np.broadcast_to(x, (13, *x.shape)))
    out = 2.0**k * np.tensordot(_GL_WEIGHTS, terms, axes=1)
    with np.errstate(over="ignore"):  # inf, not a warning, past entries of about 1e154
        residual, size = np.linalg.norm(matrix_exp(out) - a), np.linalg.norm(a)
    if size == math.inf or not residual <= tolerances.get("log_roundtrip") * max(1.0, size):
        raise PrincipalLogUndefined(f"log round-trip residual {residual:.3g} at norm {size:.3g}")
    return out


MAX_EVALUATIONS = 200
MAX_NEWTON_STEPS = 100


def psd_projection_jacobian(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Generalized Jacobian, on hermitian_basis components, of the PSD clip at V diag(w) V^dag:
    divided differences of max(w, 0) (1 or 0 on ties, by sign) in the eigenbasis V."""
    pos, gap = np.maximum(w, 0.0), w[:, None] - w
    omega = np.divide(pos[:, None] - pos, gap, out=(w[:, None] > 0) + 0.0 * gap, where=gap != 0)
    b = (v.conj().T @ hermitian_basis(len(w)) @ v).reshape(len(w) ** 2, -1)
    return (b.conj() * omega.ravel() @ b.T).real


def psd_model_step(metric, grad, c) -> tuple[np.ndarray, bool]:
    """(y, converged): components y in hermitian_basis of the PSD minimizer of the model
    q(y) = (y - c)^T metric (y - c) / 2 + grad^T (y - c): the unconstrained minimizer if PSD,
    else semismooth Newton from its clip on F(y) = y - P(y - q'(y) / s), P the clip and
    s = |metric|_F (Zhao, Sun and Toh, SIAM J. Optim. 20, 1737 (2010)), halving steps until
    the envelope falls (Stella, Themelis and Patrinos, Comput. Optim. Appl. 67, 443 (2017)).
    Returns the PSD P(...) once |F|^2 <= 1e-26 (|y|^2 + |q'(y) / s|^2), or unconverged
    after MAX_NEWTON_STEPS clips."""
    y = c - np.linalg.solve(metric, grad)
    w, v = np.linalg.eigh(_from_components(y))
    if w[0] >= 0:
        return y, True
    scale, eye = np.linalg.norm(metric), np.eye(len(c))  # > lambda_max: Newton steps descend
    metric, grad, y = metric / scale, grad / scale, _to_components(_clip_eigs(w, v))
    d = y_grad = np.zeros(len(c))  # the start's step is 0, and its envelope +inf
    t, envelope, slope = 0.0, math.inf, 0.0
    for _ in range(MAX_NEWTON_STEPS):
        trial = y + t * d
        q_grad = metric @ (trial - c) + grad
        w, v = np.linalg.eigh(_from_components(trial - q_grad))
        z = _to_components(_clip_eigs(w, v))
        f = trial - z
        if f @ f <= 1e-26 * (trial @ trial + q_grad @ q_grad):
            return z, True
        merit = f @ f / 2 - q_grad @ f  # (envelope - q) / s; q's change is exact below
        if t * (y_grad @ d + t / 2 * d @ metric @ d) + merit - envelope > 1e-4 * t * slope:
            t /= 2  # the envelope fell by less than 1e-4 of its slope
            continue
        y, y_grad, envelope = trial, q_grad, merit
        d = -np.linalg.solve(eye - psd_projection_jacobian(w, v) @ (eye - metric), f)
        t, slope = 1.0, (f - metric @ f) @ d
    return z, False


def levenberg_marquardt(model, a0) -> tuple[np.ndarray, float, int, bool]:
    """Minimize sum(r(c)**2) over the components c in hermitian_basis of PSD matrices, from
    a0 clipped to PSD, given model(c) = (r(c), d r / dc) for c a 1-D float vector of length
    n^2; returns (a_best, cost, evaluations, converged), a_best the matrix of the best c.

    Each step minimizes the Gauss-Newton model, damped by lam * max(diag J^T J), on the PSD
    cone (psd_model_step).  Converges before evaluating a trial step y when the undamped
    model |r + J (y - c)|^2 lowers the cost by <= 1e-15 of it, or y - c is below 1e-12
    relative to c.  An accepted trial brings its own J.  The solver stops unconverged before
    a trial step that would exceed MAX_EVALUATIONS, or on an unconverged model step."""
    c, evals = _to_components(clip_negative_eigs(a0)), 0

    def f(c: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        nonlocal evals
        evals += 1
        r, jac = (np.asarray(x, dtype=float) for x in model(c))
        if not np.all(np.isfinite(r)):
            raise NumkitError(f"objective diverged at components {c}")
        return r, float(r @ r), jac

    r, cost, jac = f(c)
    lam, eye = 1e-3, np.eye(len(c))
    while True:
        jtj, grad = jac.T @ jac, jac.T @ r
        damping = max(jtj.diagonal().max(), np.finfo(float).tiny) * eye
        while evals < MAX_EVALUATIONS:  # raise lam until a step lowers the cost
            y, solved = psd_model_step(jtj + lam * damping, grad, c)
            if not solved:
                return _from_components(c), cost, evals, False
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

