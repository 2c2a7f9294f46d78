"""Synthetic NV-qubit experiment generator.

Serves as the end-to-end oracle for the analysis pipeline: canonical
input preparation by ideal (or slightly miscalibrated) pulses, ground
truth Markovian decoherence from a standard T1/T2 channel, and Pauli
expectation readout with Gaussian shot noise after reference
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lindblad
from .numkit import matrix_exp
from .qstate import PAULIS, PauliExpectations, density_to_bloch


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    t1_ns: float = 1e6            # longitudinal relaxation time
    t2_ns: float = 2000.0         # transverse relaxation time
    detuning: float = 0.0         # rad/ns
    polarization: float = 0.4     # pseudopure alpha
    rabi_frequency: float = 0.1   # rad/ns, metadata only
    shots: int = 10000            # 0 disables readout noise
    seed: int | None = None

    def __post_init__(self):
        if not (self.t1_ns > 0 and self.t2_ns > 0):
            raise SimulationError("relaxation times must be positive")
        if not np.isfinite(self.detuning):
            raise SimulationError("detuning must be finite")
        if self.t2_ns > 2 * self.t1_ns + 1e-12:
            raise SimulationError("unphysical T1/T2: T2 must not exceed 2*T1")
        if not 0 <= self.polarization <= 1:
            raise SimulationError("polarization must lie in [0, 1]")
        if self.shots < 0:
            raise SimulationError("shots must be non-negative")


INPUT_LABELS = ("z+", "z-", "x+", "y+")

# (axis on the Bloch sphere, rotation angle) turning |0> into each input.
_PULSES = (
    (None, 0.0),
    (np.array([1.0, 0, 0]), np.pi),
    (np.array([0, 1.0, 0]), np.pi / 2),
    (np.array([1.0, 0, 0]), -np.pi / 2),
)


def _pulse_unitary(axis: np.ndarray, angle: float) -> np.ndarray:
    n_dot_sigma = sum(axis[i] * PAULIS[i] for i in range(3))
    return matrix_exp(-1j * angle / 2 * n_dot_sigma)


def prepare_inputs(
    cfg: SimConfig, pulse_error: float = 0.0, fold_polarization: bool = False
) -> list[np.ndarray]:
    """The four tomography inputs produced by pulses on |0><0|.

    `pulse_error` scales each rotation angle by (1 + pulse_error); with
    `fold_polarization` the pseudopure identity component is kept, scaling
    every Bloch vector by the polarization alpha (normally it is dropped
    and the inputs are treated as pure).
    """
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    states = []
    for axis, angle in _PULSES:
        if axis is None:
            rho = rho0.copy()
        else:
            u = _pulse_unitary(axis, (1 + pulse_error) * angle)
            rho = u @ rho0 @ u.conj().T
        if fold_polarization:
            rho = (1 - cfg.polarization) / 2 * np.eye(2) + cfg.polarization * rho
        states.append(rho)
    return states


def true_gks_matrix(cfg: SimConfig) -> np.ndarray:
    """Ground-truth GKS matrix: amplitude damping toward |0> at 1/T1 plus
    pure dephasing at 1/T2 - 1/(2 T1)."""
    gamma = 1.0 / cfg.t1_ns
    g_phi = 1.0 / cfg.t2_ns - 1.0 / (2 * cfg.t1_ns)
    if g_phi < -1e-15:
        raise SimulationError("unphysical T1/T2 pair")
    # damping operator |0><1| = (F1 + i F2) / sqrt(2)
    c = np.array([1.0, 1j, 0.0]) * np.sqrt(gamma / 2)
    a = np.outer(c, c.conj())
    a[2, 2] += max(g_phi, 0.0)
    return a


def true_generator(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """(H_hat, R_hat) for the configured detuning and T1/T2 channel."""
    h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(cfg.detuning))
    r_hat = lindblad.dissipator_superop(true_gks_matrix(cfg))
    return h_super, r_hat


def evolve(rho, cfg: SimConfig, t: float) -> np.ndarray:
    h_super, r_hat = true_generator(cfg)
    gen = 1j * h_super + r_hat
    out = lindblad.devectorize(matrix_exp(-gen * t) @ lindblad.vectorize(rho))
    return (out + out.conj().T) / 2


def measure_expectations(
    rho, cfg: SimConfig, rng: np.random.Generator | None = None
) -> PauliExpectations:
    """Pauli readout with additive Gaussian noise of sd 1/sqrt(shots)
    (binomial shot noise after reference normalization), clamped to
    [-1, 1].  shots == 0 means noise-free."""
    r = density_to_bloch(rho)
    if cfg.shots > 0:
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        r = r + rng.normal(0.0, 1.0 / np.sqrt(cfg.shots), size=3)
    r = np.clip(r, -1.0, 1.0)
    return PauliExpectations(sx=float(r[0]), sy=float(r[1]), sz=float(r[2]))


@dataclass(frozen=True)
class ExperimentRecord:
    schedule: lindblad.TimeSchedule
    expectations: dict[str, dict[float, PauliExpectations]]
    config: SimConfig
    reference_nutation: dict[str, float] = field(default_factory=dict)

    def to_record_dict(self) -> dict:
        """Serialize to the qpt-record/1 JSON schema."""
        exp = {}
        for label, per_time in self.expectations.items():
            exp[label] = {
                repr(float(t)): {"sx": e.sx, "sy": e.sy, "sz": e.sz}
                for t, e in per_time.items()
            }
        return {
            "schema": "qpt-record/1",
            "times_ns": self.schedule.times(),
            "inputs": list(INPUT_LABELS),
            "expectations": exp,
            "config": {
                "t1_ns": self.config.t1_ns,
                "t2_ns": self.config.t2_ns,
                "detuning": self.config.detuning,
                "polarization": self.config.polarization,
                "rabi_frequency": self.config.rabi_frequency,
                "shots": self.config.shots,
                "reference_nutation": self.reference_nutation,
            },
            "seed": self.config.seed,
        }


def run_experiment(cfg: SimConfig, schedule: lindblad.TimeSchedule) -> ExperimentRecord:
    """Evolve each canonical input under the true generator, measure at
    every schedule time, and package the record for the CLI pipeline."""
    rng = np.random.default_rng(cfg.seed)
    inputs = prepare_inputs(cfg)
    expectations: dict[str, dict[float, PauliExpectations]] = {}
    for label, rho in zip(INPUT_LABELS, inputs):
        per_time: dict[float, PauliExpectations] = {}
        for t in schedule.times():
            per_time[t] = measure_expectations(evolve(rho, cfg, t), cfg, rng)
        expectations[label] = per_time
    reference = {"rabi_frequency": cfg.rabi_frequency, "contrast": 1.0}
    return ExperimentRecord(
        schedule=schedule,
        expectations=expectations,
        config=cfg,
        reference_nutation=reference,
    )
