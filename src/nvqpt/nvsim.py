"""Synthetic NV-qubit experiment generator.

Serves as the end-to-end oracle for the analysis pipeline: the canonical
inputs of qpt.input_states(), ground truth Markovian decoherence from a
standard T1/T2 channel, Pauli expectation readout with Gaussian shot noise
after reference normalization, and the qpt-record/1 expectation table.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from . import lindblad, qpt, tolerances
from .numkit import NumkitError, matrix_exp
from .qstate import PauliExpectations, checked


class SimulationError(ValueError):
    pass


@checked
class SimConfig(NamedTuple):
    t1_ns: float = 1e6            # longitudinal relaxation time
    t2_ns: float = 2000.0         # transverse relaxation time
    detuning: float = 0.0         # rad/ns
    polarization: float = 0.4     # pseudopure alpha, recorded in the record's config
                                  # only; inputs are prepared pure
    shots: int = 10000            # 0 disables readout noise
    seed: int | None = None

    def _check(self):
        if not (0 < self.t1_ns < math.inf and 0 < self.t2_ns < math.inf):
            raise SimulationError("relaxation times must be positive and finite")
        if min(self.t1_ns, self.t2_ns) <= 1 / sys.float_info.max:  # where 1/T is inf
            raise SimulationError("relaxation rates 1/T1, 1/T2 are beyond float range")
        if not np.isfinite(self.detuning):
            raise SimulationError("detuning must be finite")
        if self.t2_ns > 2 * self.t1_ns + 1e-12:
            raise SimulationError("unphysical T1/T2: T2 must not exceed 2*T1")
        if not 0 <= self.polarization <= 1:
            raise SimulationError("polarization must lie in [0, 1]")
        if self.shots < 0:
            raise SimulationError("shots must be non-negative")
        if self.shots > sys.float_info.max:
            raise SimulationError("shots is beyond float range")
        if self.seed is not None and self.seed < 0:
            raise SimulationError("seed must be non-negative")


RECORD_SCHEMA = "qpt-record/1"
INPUT_LABELS = ("z+", "z-", "x+", "y+")
AXES = PauliExpectations._fields


def true_gks_matrix(cfg: SimConfig) -> np.ndarray:
    """Ground-truth GKS matrix: amplitude damping toward |0> at 1/T1 plus
    pure dephasing at 1/T2 - 1/(2 T1)."""
    gamma = 1.0 / cfg.t1_ns
    g_phi = 1.0 / cfg.t2_ns - 1.0 / (2 * cfg.t1_ns)
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


def measure_expectations(bloch, cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Pauli readout of Bloch vectors (..., 3) with additive Gaussian noise of
    sd 1/sqrt(shots) (binomial shot noise after reference normalization),
    drawn from rng in one call in C order, and clipped to [-1, 1].  shots == 0
    means noise-free."""
    r = np.asarray(bloch, dtype=float)
    if cfg.shots > 0:
        r = r + rng.normal(0.0, 1.0 / math.sqrt(cfg.shots), size=r.shape)
    return np.clip(r, -1.0, 1.0)


def expectation_table(times, rows) -> dict:
    """The qpt-record/1 expectations object, input label -> repr(time) ->
    {sx, sy, sz}, from rows[i][k], the PauliExpectations of input
    INPUT_LABELS[k] at times[i]."""
    table: dict[str, dict] = {label: {} for label in INPUT_LABELS}
    for t, row in zip(times, rows):
        for label, e in zip(INPUT_LABELS, row):
            table[label][repr(float(t))] = e._asdict()
    return table


class ExperimentRecord(NamedTuple):
    schedule: lindblad.TimeSchedule
    expectations: dict[str, dict[float, PauliExpectations]]
    config: SimConfig

    def to_record_dict(self) -> dict:
        """Serialize to the qpt-record/1 JSON schema."""
        times = self.schedule.times()
        rows = [[self.expectations[label][t] for label in INPUT_LABELS] for t in times]
        return {
            "schema": RECORD_SCHEMA,
            "times_ns": times,
            "inputs": list(INPUT_LABELS),
            "expectations": expectation_table(times, rows),
            "config": {k: v for k, v in self.config._asdict().items() if k != "seed"},
            "seed": self.config.seed,
        }


def run_experiment(cfg: SimConfig, schedule: lindblad.TimeSchedule) -> ExperimentRecord:
    """Evolve each input of qpt.input_states() under the true generator and measure it at every
    schedule time.  Raises SimulationError when a propagator's qpt.tp_defect exceeds
    `tp_defect_max` or cannot be bounded: tiny T1, T2, or an exponent -G t past float range."""
    times = schedule.times()
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # matrix_exp rejects inf and nan
            h_super, r_hat = true_generator(cfg)
            props = np.array([matrix_exp(-(1j * h_super + r_hat) * t) for t in times])
    except NumkitError as exc:
        raise SimulationError(f"propagator trace defect cannot be bounded: {exc}") from exc
    defect = max(qpt.tp_defect(qpt.chi_from_superop(p)) for p in props)
    if not defect <= tolerances.get("tp_defect_max"):
        raise SimulationError(f"propagator trace defect {defect:.3g} exceeds tp_defect_max")
    # states[k, m] = P(times[m]) vec(rho_k), input k at times[m]; noise drawn label-major
    vecs = np.array([lindblad.vectorize(rho) for rho in qpt.input_states()])
    states = (props @ vecs[:, None, :, None])[..., 0]
    bloch = measure_expectations((states @ qpt.PAULI_READOUT[:, 1:]).real, cfg,
                                 np.random.default_rng(cfg.seed))
    expectations = {label: {t: PauliExpectations(*r) for t, r in zip(times, rows)}
                    for label, rows in zip(INPUT_LABELS, bloch.tolist())}
    return ExperimentRecord(schedule=schedule, expectations=expectations, config=cfg)
