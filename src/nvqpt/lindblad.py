"""Markovian process tomography in Liouville space.

Density matrices are column-stacked into 4-vectors, so vec(A X B) =
(B^T (x) A) vec X writes every commutator and GKS term as Kronecker
products, and a measured channel's superpropagator is the realignment
P[a+2b, i+2j] = chi[2a+i, 2b+j] of its chi (Choi) matrix.  The
relaxation generator is estimated from propagators at a doubling time
schedule (matrix-log and symmetric-BCH/Richardson routes), clipped to a
PSD GKS matrix, refined by a Levenberg-Marquardt fit of that matrix on the
PSD cone to the propagators, with the exact Jacobian (block-triangular
exponentials), and diagonalized into Lindblad operators with contributions.

Units: time in ns, rates in 1/ns, Hamiltonians in rad/ns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qpt, tolerances
from .numkit import (
    clip_negative_eigs,
    eig_hermitian,
    hermitian_basis,
    levenberg_marquardt,
    matrix_exp,
    matrix_log_principal,
    richardson_derivative,
    triangular_from_params,
)
from .qstate import IDENTITY_2, PAULIS, PauliExpectations

# Trace-orthonormal traceless basis: F_alpha = sigma_alpha / sqrt(2).
F_BASIS = tuple(s / np.sqrt(2) for s in PAULIS)


class LindbladError(ValueError):
    pass


def vectorize(rho) -> np.ndarray:
    """Column-stack a 2x2 matrix; |0><0| -> (1,0,0,0)^T."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise LindbladError("expected a 2x2 matrix")
    return rho.reshape(4, order="F")


def devectorize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (4,):
        raise LindbladError("expected a 4-vector")
    return v.reshape(2, 2, order="F")


def superop_from_action(action) -> np.ndarray:
    """Assemble a superoperator column-by-column from its action on the
    matrices behind each vectorized basis vector (a definition-level
    oracle for the closed forms below)."""
    return np.column_stack([vectorize(action(devectorize(e))) for e in np.eye(4)])


def detuning_hamiltonian(delta: float) -> np.ndarray:
    """Rotating-frame qubit Hamiltonian (delta/2) sigma_z, rad/ns."""
    if not np.isfinite(delta):
        raise LindbladError("detuning must be finite")
    return delta / 2 * PAULIS[2]


def hamiltonian_superop(h) -> np.ndarray:
    """Commutator superoperator: devec(H_hat vec(rho)) = H rho - rho H,
    i.e. H_hat = I (x) H - H^T (x) I."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (2, 2) or not np.isfinite(h).all() or np.linalg.norm(h - h.conj().T) > 1e-9:
        raise LindbladError("Hamiltonian must be 2x2 Hermitian with finite entries")
    out = np.zeros((2, 2, 2, 2), dtype=complex)  # out[a, i, b, j] is entry (2a+i, 2b+j)
    out[[0, 1], :, [0, 1]] = h                   # I (x) H: delta_ab H_ij
    out[:, [0, 1], :, [0, 1]] -= h.T             # H^T (x) I: H_ba delta_ij
    return out.reshape(4, 4)


@dataclass(frozen=True)
class TimeSchedule:
    """Doubling schedule t_m = 2^m t1, m = 0..count-1 (ns)."""

    t1: float
    count: int = 3

    def __post_init__(self):
        if not 0 < self.t1 < np.inf:
            raise LindbladError("t1 must be positive and finite")
        if self.count < 1:
            raise LindbladError("count must be at least 1")
        try:
            math.ldexp(self.t1, self.count - 1)  # the last time, t1 * 2^(count-1)
        except OverflowError:
            raise LindbladError(
                f"last time t1*2^{self.count - 1} ns is beyond float range") from None

    def times(self) -> list[float]:
        # ldexp scales exactly, as t1 * 2**m does, but never converts 2**m
        return [math.ldexp(self.t1, m) for m in range(self.count)]

    @classmethod
    def from_times(cls, times) -> "TimeSchedule":
        times = [float(t) for t in times]
        if len(times) < 1 or times[0] <= 0:
            raise LindbladError("need positive, strictly doubling times")
        for a, b in zip(times, times[1:]):
            if abs(b - 2 * a) > 1e-9 * max(1.0, abs(b)):
                raise LindbladError(f"times {times} are not strictly doubling")
        return cls(t1=times[0], count=len(times))


def propagator_from_outputs(outputs: list[np.ndarray]) -> np.ndarray:
    """Superpropagator of the channel behind the four measured outputs
    (inputs ordered as qpt.input_states()): column i+2j is vec E(|i><j|),
    the realignment P[a+2b, i+2j] = chi[2a+i, 2b+j]."""
    chi = qpt.chi_from_outputs(outputs)
    return chi.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)


def propagator_from_superop(generator: np.ndarray, t: float) -> np.ndarray:
    return matrix_exp(-generator * t)


def generator_log_estimate(prop: np.ndarray, h_super: np.ndarray, t: float) -> np.ndarray:
    """R_hat = -i H_hat - log(P_hat)/t (principal branch)."""
    return -1j * np.asarray(h_super, complex) - matrix_log_principal(prop) / t


def generator_bch_estimate(
    props: list[np.ndarray], h_super: np.ndarray, schedule: TimeSchedule
) -> np.ndarray:
    """Richardson estimate of R_hat via the symmetric BCH identity.

    F(t_m) = exp(i t_m H/2) P_m exp(i t_m H/2) equals exp(-t_m R) up to
    O(t^3); the derivative of F at 0 is extrapolated from the first three
    schedule times t1, 2 t1, 4 t1 and negated."""
    if schedule.count < 3 or len(props) != schedule.count:
        raise LindbladError("need one propagator per time, at three or more doubling times")
    times = np.array(schedule.times()[:3])[:, None, None]
    half = matrix_exp(1j * times / 2 * np.asarray(h_super, dtype=complex))
    samples = half @ np.asarray(props[:3], complex) @ half
    dfdt = richardson_derivative(samples, np.eye(4, dtype=complex), schedule.t1)
    return -dfdt


def gks_matrix(x: np.ndarray) -> np.ndarray:
    """a = X^dag X for X = triangular_from_params(x, 3): PSD by construction."""
    m = triangular_from_params(x, 3)
    return m.conj().T @ m


# _DISSIPATOR_TENSOR[a, b] is the superoperator of the elementary GKS term
# rho -> F_a rho F_b - (F_b F_a rho + rho F_b F_a) / 2.
_DISSIPATOR_TENSOR = np.array([
    [np.kron(fb.T, fa) - np.kron(IDENTITY_2, fb @ fa) / 2
     - np.kron((fb @ fa).T, IDENTITY_2) / 2 for fb in F_BASIS]
    for fa in F_BASIS
])


def dissipator_superop(a: np.ndarray) -> np.ndarray:
    """Relaxation superoperator R_hat of a GKS matrix a (or a stack) over the F basis.

    -R_hat acts as rho -> (1/2) sum a_ab ([F_a rho, F_b] + [F_a, rho F_b]);
    the trace row of R_hat vanishes, so exp(-R_hat t) preserves trace."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (3, 3) or (np.linalg.norm(a - a.conj().swapaxes(-1, -2))
                                  > 1e-9 * max(1.0, np.linalg.norm(a))):
        raise LindbladError("GKS matrix must be 3x3 Hermitian")
    return -np.einsum("...ab,abij->...ij", a, _DISSIPATOR_TENSOR)


def _real_view(m) -> np.ndarray:
    """Re and Im of a complex array, raveled into one real vector."""
    m = np.asarray(m, dtype=complex).ravel()
    return np.concatenate([m.real, m.imag])


# R_hat of each fit basis matrix (its constant derivatives) and their design matrix.
_BASIS_SUPEROPS = dissipator_superop(hermitian_basis(3))
_GKS_DESIGN = np.column_stack([_real_view(d) for d in _BASIS_SUPEROPS])


def gks_start_from_generator(r_estimate: np.ndarray) -> np.ndarray:
    """The fit's start: the GKS matrix a whose R_hat(a) is nearest an
    unconstrained generator estimate in least squares, clipped to PSD."""
    comps, *_ = np.linalg.lstsq(_GKS_DESIGN, _real_view(r_estimate), rcond=None)
    return clip_negative_eigs(np.tensordot(comps, hermitian_basis(3), 1))


@dataclass(frozen=True)
class GeneratorFit:
    gks: np.ndarray            # fitted PSD GKS matrix
    relaxation: np.ndarray     # fitted R_hat superoperator
    residual: float
    evaluations: int           # fit_objective calls
    jacobians: int             # fit_jacobian calls
    converged: bool           # False when the fit stopped on numkit.MAX_EVALUATIONS


def fit_objective(a: np.ndarray, props, h_super, schedule: TimeSchedule) -> np.ndarray:
    """Real residual vector of exp(-(iH_hat + R_hat(a)) t) - P_t over the
    schedule; its squared norm is the fit cost."""
    gen = 1j * np.asarray(h_super, complex) + dissipator_superop(a)
    # TimeSchedule guarantees t_{m+1} = 2 t_m, so P(t_{m+1}) = P(t_m)^2:
    # one exponential per evaluation, then squarings.
    p_t = [propagator_from_superop(gen, schedule.t1)]
    for _ in range(1, schedule.count):
        p_t.append(p_t[-1] @ p_t[-1])
    return _real_view(np.array(p_t) - np.asarray(props, complex))


def fit_jacobian(a: np.ndarray, h_super, schedule: TimeSchedule) -> np.ndarray:
    """Exact Jacobian of fit_objective (column k: d residuals / dc_k for the
    components c of a in hermitian_basis(3)).

    dG_k = R_hat(B_k); the derivative of exp(-G t1) along it is the upper-right
    block of exp([[-G t1, -dG_k t1], [0, -G t1]]) (Najfeld and Havel, Adv.
    Appl. Math. 16, 321 (1995)); dP_{m+1} = dP_m P_m + P_m dP_m."""
    gen = 1j * np.asarray(h_super, complex) + dissipator_superop(a)
    blocks = np.zeros((9, 8, 8), dtype=complex)
    blocks[:, :4, :4] = blocks[:, 4:, 4:] = -gen * schedule.t1
    blocks[:, :4, 4:] = -_BASIS_SUPEROPS * schedule.t1
    blocks = matrix_exp(blocks)
    p, dps = blocks[0, :4, :4], [blocks[:, :4, 4:]]
    for _ in range(1, schedule.count):
        dps.append(dps[-1] @ p + p @ dps[-1])
        p = p @ p
    dps = np.stack(dps, axis=1).reshape(9, -1)  # row k: d vec(P_t) / dc_k
    return np.concatenate([dps.real, dps.imag], axis=1).T


def fit_generator(
    props: list[np.ndarray],
    h_super: np.ndarray,
    schedule: TimeSchedule,
    start: np.ndarray,
) -> GeneratorFit:
    """Least-squares fit of the PSD GKS matrix to measured propagators at
    every schedule time, from the GKS matrix `start`, by Levenberg-Marquardt
    on the PSD cone with the exact Jacobian."""
    if len(props) != schedule.count:
        raise LindbladError("propagator count does not match schedule")
    props = np.asarray(props, dtype=complex)
    a, residual, evals, jacs, converged = levenberg_marquardt(
        lambda a: fit_objective(a, props, h_super, schedule),
        lambda a: fit_jacobian(a, h_super, schedule), start
    )
    return GeneratorFit(gks=a, relaxation=dissipator_superop(a), residual=residual,
                        evaluations=evals, jacobians=jacs, converged=converged)


@dataclass(frozen=True)
class LindbladSet:
    """Lindblad operators with relative Frobenius-weight contributions."""

    operators: list[np.ndarray]
    contributions: list[float]


def lindblads_from_gks(a: np.ndarray) -> LindbladSet:
    """Diagonalize the GKS matrix: L_i = sqrt(d_i) sum_j U_ji F_j, dropping
    negligible eigenvalues; contributions are |L_i|_Fro^2 normalized."""
    res = eig_hermitian(a)
    if res.eigenvalues[0] < tolerances.get("min_eig_floor"):
        raise LindbladError(
            f"GKS matrix has negative eigenvalue {res.eigenvalues[0]:.3g}"
        )
    d = np.clip(res.eigenvalues, 0.0, None)
    ops = [
        np.sqrt(d[i]) * sum(res.eigenvectors[j, i] * F_BASIS[j] for j in range(3))
        for i in (2, 1, 0)  # descending eigenvalue order
        if d[i] > 0 and d[i] >= 1e-12 * d[2]
    ]
    contributions = contributions_from_operators(ops)
    return LindbladSet(operators=ops if contributions else [], contributions=contributions)


def contributions_from_operators(operators) -> list[float]:
    """Relative contribution |L_i|_Fro^2 / sum_j |L_j|_Fro^2; [] if all vanish."""
    weights = [float(np.linalg.norm(np.asarray(op)) ** 2) for op in operators]
    total = sum(weights)
    return [w / total for w in weights] if total else []


# Column k is vec(sigma_k^T), so vec(rho) @ _BLOCH_READOUT = tr(rho sigma_k).
_BLOCH_READOUT = np.column_stack([vectorize(s.T) for s in PAULIS])


def predict_expectations(
    r_hat: np.ndarray, h_super: np.ndarray, rho0, times
) -> list[PauliExpectations]:
    """Evolve a state under exp(-(iH_hat + R_hat)t) and read out Pauli
    expectations at each requested time (one stacked exponential)."""
    gen = 1j * np.asarray(h_super, complex) + np.asarray(r_hat, complex)
    v0 = vectorize(np.asarray(rho0, dtype=complex))
    props = matrix_exp(-gen * np.asarray(times, dtype=float)[:, None, None])
    bloch = np.clip((props @ v0 @ _BLOCH_READOUT).real, -1.0, 1.0)
    return [PauliExpectations(*r) for r in bloch.tolist()]
