"""Markovian process tomography in Liouville space.

Density matrices are column-stacked into 4-vectors, so vec(A X B) =
(B^T (x) A) vec X writes every commutator and GKS term as Kronecker
products, and a measured channel's superpropagator is qpt.superop_from_chi
of its chi (Choi) matrix.  The
relaxation generator is estimated from propagators at a doubling time
schedule (matrix log; symmetric BCH with closed-form Richardson weights),
clipped to a PSD GKS matrix, refined by a Levenberg-Marquardt fit of it on
the PSD cone to the propagators (exact Jacobian from block-triangular
exponentials), and diagonalized into Lindblad operators with contributions.
analyze owns that sequence, from measured outputs to predicted expectations.

The API stays in Liouville form; the start, the fit and the predictions work on real
Pauli transfer matrices (PTMs), qpt.ptm's R_mn = tr(sigma_m S(sigma_n))/2 (Boulant 2003).

Units: time in ns, rates in 1/ns, Hamiltonians in rad/ns.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import qpt, tolerances
from .numkit import (_from_components, clip_negative_eigs, hermitian_basis, hermitian_defect,
                     levenberg_marquardt, matrix_exp, matrix_log_principal, psd_factors,
                     triangular_from_params)
from .qstate import IDENTITY_2, PAULIS, PauliExpectations, checked

# Trace-orthonormal traceless basis: F_alpha = sigma_alpha / sqrt(2).
F_BASIS = np.array(PAULIS) / np.sqrt(2)


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
    if h.shape != (2, 2) or not np.isfinite(h).all() or hermitian_defect(h) > 1e-9:
        raise LindbladError("Hamiltonian must be 2x2 Hermitian with finite entries")
    out = np.zeros((2, 2, 2, 2), dtype=complex)  # out[a, i, b, j] is entry (2a+i, 2b+j)
    out[[0, 1], :, [0, 1]] = h                   # I (x) H: delta_ab H_ij
    out[:, [0, 1], :, [0, 1]] -= h.T             # H^T (x) I: H_ba delta_ij
    return out.reshape(4, 4)


def same_time(t: float, ref: float) -> bool:
    """Whether a time t (ns) matches ref, to 1e-9 of |ref|."""
    return abs(t - ref) <= 1e-9 * abs(ref)


@checked
class TimeSchedule(NamedTuple):
    """Doubling schedule t_m = 2^m t1, m = 0..count-1 (ns)."""

    t1: float
    count: int = 3

    def _check(self):
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
            if not same_time(2 * a, b):
                raise LindbladError(f"times {times} are not strictly doubling")
        return cls(t1=times[0], count=len(times))


def propagator_from_outputs(outputs: list[np.ndarray]) -> np.ndarray:
    """Superpropagator of the channel behind the four measured outputs
    (inputs ordered as qpt.input_states()): column i+2j is vec E(|i><j|),
    the realignment qpt.superop_from_chi of the channel's chi."""
    return qpt.superop_from_chi(qpt.chi_from_outputs(outputs))


def propagator_from_superop(generator: np.ndarray, t: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exp rejects inf and nan
        exponent = -generator * t
    return matrix_exp(exponent)


def generator_log_estimate(prop: np.ndarray, h_super: np.ndarray, t: float) -> np.ndarray:
    """R_hat = -i H_hat - log(P_hat)/t (principal branch)."""
    return -1j * np.asarray(h_super, complex) - matrix_log_principal(prop) / t


def generator_bch_estimate(
    props: list[np.ndarray], h_super: np.ndarray, schedule: TimeSchedule
) -> np.ndarray:
    """Richardson estimate of R_hat via the symmetric BCH identity.

    F(t_m) = exp(i t_m H/2) P_m exp(i t_m H/2) equals exp(-t_m R) up to
    O(t^3), and F(0) = I.  R_hat = -(32 F(t1) - 12 F(2 t1) + F(4 t1) - 21 I)
    / (12 t1) is -F'(0) extrapolated from the first three schedule times:
    exact when F is a cubic in t, with error O(t1^3) for analytic F."""
    if schedule.count < 3 or len(props) != schedule.count:
        raise LindbladError("need at least three timepoints on a doubling schedule, "
                            "one propagator each")
    times = np.array(schedule.times()[:3])[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exp rejects inf and nan
        half = matrix_exp(1j * times / 2 * np.asarray(h_super, dtype=complex))
    f1, f2, f4 = half @ np.asarray(props[:3], complex) @ half
    return -(32 * f1 - 12 * f2 + f4 - 21 * np.eye(4)) / (12 * schedule.t1)


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
    if a.shape[-2:] != (3, 3) or not np.isfinite(a).all():
        raise LindbladError("GKS matrix must be 3x3 Hermitian with finite entries")
    if hermitian_defect(a) > 1e-9:
        raise LindbladError("GKS matrix must be 3x3 Hermitian")
    return -np.einsum("...ab,abij->...ij", a, _DISSIPATOR_TENSOR)


# Row k is the real PTM of R_hat(B_k), B_k = hermitian_basis(3)[k], first (trace) row exactly 0:
# c @ _BASIS_PTMS is R_hat(a)'s for a's components c, and _GKS_START inverts its rows 1-3.
_BASIS_PTMS = qpt.ptm(dissipator_superop(hermitian_basis(3))).real * [[0.0], [1.0], [1.0], [1.0]]
_BASIS_NORM1 = np.abs(_BASIS_PTMS).sum(axis=1).max()
_GKS_START = np.linalg.pinv(_BASIS_PTMS[:, 1:].reshape(9, 12).T)


def gks_start_from_generator(r_estimate: np.ndarray) -> np.ndarray:
    """The fit's start: the GKS matrix a whose R_hat(a) is nearest an
    unconstrained generator estimate in least squares, clipped to PSD."""
    return clip_negative_eigs(_from_components(_GKS_START @ qpt.ptm(r_estimate)[1:].real.ravel()))


class GeneratorFit(NamedTuple):
    gks: np.ndarray            # fitted PSD GKS matrix
    relaxation: np.ndarray     # fitted R_hat superoperator
    residual: float            # sum over the schedule of |exp(-G t) - P_t|_F^2
    evaluations: int           # fit_objective calls, each residuals and Jacobian
    converged: bool           # False on numkit.MAX_EVALUATIONS or MAX_NEWTON_STEPS


def fit_objective(c: np.ndarray, ptms: np.ndarray, h_ptm: np.ndarray, schedule: TimeSchedule):
    """(residuals, Jacobian) of the fit at the components c in hermitian_basis(3) of a GKS
    matrix a: rows 1-3 (row 0 is (1, 0, 0, 0) for every a) of exp(-G t) - R_t over the
    schedule, for the generator's real PTM G = h_ptm + PTM(R_hat(a)) and the real measured
    PTMs R_t, and their derivatives d/dc_k (columns).  With dG_k = PTM(R_hat(B_k)),
    exp([[-G t1, -dG_k t1], [0, -G t1]]) holds exp(-G t1) upper left and its derivative
    along dG_k upper right (Najfeld and Havel, Adv. Appl. Math. 16, 321 (1995)); the
    schedule doubles, so its square is the next time's.  The derivative is linear in its
    direction, so the directions are scaled by 2^-k to the 1-norm of -G t1, or to 2^-6
    (about theta_3) if smaller, as at G = 0: the blocks then take the Pade degree of
    -G t1, unsquared, and the power of two is undone."""
    gen = h_ptm + (c @ _BASIS_PTMS.reshape(9, 16)).reshape(4, 4)
    blocks = np.zeros((9, 8, 8))
    blocks[:, :4, :4] = blocks[:, 4:, 4:] = g = -gen * schedule.t1
    ratio = _BASIS_NORM1 * schedule.t1 / max(np.abs(g).sum(axis=0).max(), 2.0**-6)
    scale = math.ldexp(1.0, -max(0, math.frexp(ratio)[1]))  # 2^-k with ratio 2^-k < 1
    blocks[:, :4, 4:] = -_BASIS_PTMS * (schedule.t1 * scale)
    blocks = [matrix_exp(blocks)]
    for _ in range(1, schedule.count):
        blocks.append(blocks[-1] @ blocks[-1])
    blocks = np.array(blocks)[:, :, 1:4]  # rows 1-3, (time, direction, row, column)
    dps = blocks[..., 4:].transpose(1, 0, 2, 3).reshape(9, -1)  # row k: d P_t[1:] / dc_k
    return (blocks[:, 0, :, :4] - ptms[:, 1:]).ravel(), dps.T / scale


def fit_generator(props: list[np.ndarray], h_super: np.ndarray, schedule: TimeSchedule,
                  start: np.ndarray) -> GeneratorFit:
    """Least-squares fit of the PSD GKS matrix to measured propagators at
    every schedule time, from the GKS matrix `start`, by Levenberg-Marquardt
    on the PSD cone with the exact Jacobian, in PTM form (fit_objective)."""
    if len(props) != schedule.count:
        raise LindbladError("propagator count does not match schedule")
    ptms, h_ptm = qpt.ptm(props), qpt.ptm(1j * np.asarray(h_super, complex)).real
    # the cost's parts that no a moves: row 0 (exp(-G t) keeps (1, 0, 0, 0)) and Im
    fixed = np.sum(ptms.imag**2) + np.sum((ptms.real[:, 0] - np.eye(4)[0])**2)
    a, cost, evals, converged = levenberg_marquardt(
        lambda c: fit_objective(c, ptms.real, h_ptm, schedule), start)
    return GeneratorFit(gks=a, relaxation=dissipator_superop(a), residual=cost + float(fixed),
                        evaluations=evals, converged=converged)


class LindbladSet(NamedTuple):
    """Lindblad operators with relative Frobenius-weight contributions."""

    operators: list[np.ndarray]
    contributions: list[float]


def lindblads_from_gks(a: np.ndarray) -> LindbladSet:
    """Diagonalize the GKS matrix: L_i = sqrt(d_i) sum_j U_ji F_j, largest first, dropping
    negligible eigenvalues (numkit.psd_factors); contributions are |L_i|_Fro^2 normalized."""
    ops, low = psd_factors(a, F_BASIS)
    if low < tolerances.get("min_eig_floor"):
        raise LindbladError(f"GKS matrix has negative eigenvalue {low:.3g}")
    contributions = contributions_from_operators(ops)
    return LindbladSet(operators=ops if contributions else [], contributions=contributions)


def contributions_from_operators(operators) -> list[float]:
    """Relative contribution |L_i|_Fro^2 / sum_j |L_j|_Fro^2; [] if all vanish."""
    weights = [float(np.linalg.norm(np.asarray(op)) ** 2) for op in operators]
    total = sum(weights)
    return [w / total for w in weights] if total else []


def predict_expectations(r_hat: np.ndarray, h_super: np.ndarray, rho0,
                         times) -> list[PauliExpectations]:
    """Evolve a state under exp(-(iH_hat + R_hat)t) and read out Pauli
    expectations at each requested time: rows 1-3 of R_t (1, r), for the real
    PTMs R_t (one stacked exponential, cached) and rho0's Pauli vector (1, r)."""
    with np.errstate(over="ignore", invalid="ignore"):  # matrix_exp rejects inf and nan
        gen = 1j * np.asarray(h_super, complex) + np.asarray(r_hat, complex)
        exponent = -gen * np.asarray(times, dtype=float)[:, None, None]
        props = _propagators(exponent.shape, exponent.tobytes())
    pauli = (vectorize(rho0) @ qpt.PAULI_READOUT).real
    bloch = np.clip((props @ pauli)[:, 1:], -1.0, 1.0)
    return [PauliExpectations(*r) for r in bloch.tolist()]


@functools.lru_cache(maxsize=1)
def _propagators(shape: tuple, data: bytes) -> np.ndarray:
    """Real PTM exponentials of the Liouville stack `shape` in `data`; shared, read-only."""
    props = matrix_exp(qpt.ptm(np.frombuffer(data, dtype=complex).reshape(shape)).real)
    props.flags.writeable = False
    return props


class Analysis(NamedTuple):
    log_estimate: np.ndarray   # generator_log_estimate at t1, the branch check
    start: np.ndarray          # the BCH start, clipped to a PSD GKS matrix
    fit: GeneratorFit
    lindblads: LindbladSet
    predicted: list            # [i][k]: PauliExpectations of input_states()[k] at time i


def analyze(outputs, h_super: np.ndarray, schedule: TimeSchedule) -> Analysis:
    """Fit the generator to outputs[i], the four output densities (inputs ordered as
    qpt.input_states()) at the schedule's i-th time (Boulant et al., PRA 67, 042322
    (2003)).  The BCH start comes first, so that fewer than three times raise its
    LindbladError; PrincipalLogUndefined from the log estimate at t1 then propagates."""
    props = [propagator_from_outputs(out) for out in outputs]
    start = gks_start_from_generator(generator_bch_estimate(props, h_super, schedule))
    log_estimate = generator_log_estimate(props[0], h_super, schedule.t1)
    fit = fit_generator(props, h_super, schedule, start)
    lindblads = lindblads_from_gks(fit.gks)
    per_input = [predict_expectations(fit.relaxation, h_super, rho0, schedule.times())
                 for rho0 in qpt.input_states()]
    return Analysis(log_estimate, start, fit, lindblads, list(zip(*per_input)))
