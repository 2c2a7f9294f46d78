"""Synthetic NV-qubit experiment generator.

Serves as the end-to-end oracle for the analysis pipeline: canonical
input preparation by ideal pulses, ground truth Markovian decoherence
from a standard T1/T2 channel, Pauli expectation readout with Gaussian
shot noise after reference normalization, and the qpt-record/1
expectation table.
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
    polarization: float = 0.4     # pseudopure alpha, recorded in the record's config
                                  # only; inputs are prepared pure
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
        if self.seed is not None and self.seed < 0:
            raise SimulationError("seed must be non-negative")


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


def prepare_inputs() -> list[np.ndarray]:
    """The four tomography inputs produced by ideal pulses on |0><0|."""
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    states = []
    for axis, angle in _PULSES:
        if axis is None:
            states.append(rho0.copy())
        else:
            u = _pulse_unitary(axis, angle)
            states.append(u @ rho0 @ u.conj().T)
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


def expectation_table(times, rows) -> dict:
    """The qpt-record/1 expectations object, input label -> repr(time) ->
    {sx, sy, sz}, from rows[i][k], the PauliExpectations of input
    INPUT_LABELS[k] at times[i]."""
    table: dict[str, dict] = {label: {} for label in INPUT_LABELS}
    for t, row in zip(times, rows):
        for label, e in zip(INPUT_LABELS, row):
            table[label][repr(float(t))] = {"sx": e.sx, "sy": e.sy, "sz": e.sz}
    return table


@dataclass(frozen=True)
class ExperimentRecord:
    schedule: lindblad.TimeSchedule
    expectations: dict[str, dict[float, PauliExpectations]]
    config: SimConfig
    reference_nutation: dict[str, float] = field(default_factory=dict)

    def to_record_dict(self) -> dict:
        """Serialize to the qpt-record/1 JSON schema."""
        times = self.schedule.times()
        rows = [[self.expectations[label][t] for label in INPUT_LABELS] for t in times]
        return {
            "schema": "qpt-record/1",
            "times_ns": times,
            "inputs": list(INPUT_LABELS),
            "expectations": expectation_table(times, rows),
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
    # evolve() per (input, time), with the generator built once and one
    # propagator per time; the label-major loop keeps the RNG draw order
    h_super, r_hat = true_generator(cfg)
    gen = 1j * h_super + r_hat
    times = schedule.times()
    props = [matrix_exp(-gen * t) for t in times]
    expectations: dict[str, dict[float, PauliExpectations]] = {}
    for label, rho in zip(INPUT_LABELS, prepare_inputs()):
        vec = lindblad.vectorize(rho)
        per_time: dict[float, PauliExpectations] = {}
        for t, prop in zip(times, props):
            out = lindblad.devectorize(prop @ vec)
            per_time[t] = measure_expectations((out + out.conj().T) / 2, cfg, rng)
        expectations[label] = per_time
    reference = {"rabi_frequency": cfg.rabi_frequency, "contrast": 1.0}
    return ExperimentRecord(
        schedule=schedule,
        expectations=expectations,
        config=cfg,
        reference_nutation=reference,
    )
