import json

import numpy as np
import pytest

from nvqpt import cpfit, lindblad, nvsim, qpt
from nvqpt.nvsim import (
    INPUT_LABELS,
    ExperimentRecord,
    SimConfig,
    SimulationError,
    evolve,
    measure_expectations,
    prepare_inputs,
    run_experiment,
    true_generator,
    true_gks_matrix,
)
from nvqpt.qstate import bloch_to_density, density_to_bloch, validate_density


class TestConfig:
    def test_defaults_valid(self):
        SimConfig()

    def test_rejects_t2_above_twice_t1(self):
        with pytest.raises(SimulationError):
            SimConfig(t1_ns=100.0, t2_ns=500.0)

    def test_accepts_t2_equal_twice_t1(self):
        SimConfig(t1_ns=100.0, t2_ns=200.0)

    def test_rejects_negative_shots(self):
        with pytest.raises(SimulationError):
            SimConfig(shots=-1)

    def test_rejects_bad_polarization(self):
        with pytest.raises(SimulationError):
            SimConfig(polarization=1.2)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(SimulationError):
            SimConfig(t1_ns=0.0)


class TestPreparation:
    def test_ideal_pulses_give_canonical_inputs(self):
        states = prepare_inputs()
        for got, want in zip(states, qpt.input_states()):
            assert np.allclose(got, want, atol=1e-12)

    def test_labels_match_bloch_directions(self):
        states = prepare_inputs()
        directions = {"z+": [0, 0, 1], "z-": [0, 0, -1], "x+": [1, 0, 0], "y+": [0, 1, 0]}
        for label, rho in zip(INPUT_LABELS, states):
            assert np.allclose(density_to_bloch(rho), directions[label], atol=1e-12)


class TestGroundTruth:
    def test_gks_matrix_structure(self):
        cfg = SimConfig(t1_ns=4000.0, t2_ns=1000.0)
        a = true_gks_matrix(cfg)
        gamma = 1 / 4000.0
        g_phi = 1 / 1000.0 - 1 / 8000.0
        assert np.isclose(a[0, 0], gamma / 2)
        assert np.isclose(a[1, 1], gamma / 2)
        assert np.isclose(a[0, 1], -1j * gamma / 2)
        assert np.isclose(a[2, 2], g_phi)
        assert np.linalg.eigvalsh(a).min() >= -1e-15

    def test_coherence_decays_at_t2(self):
        cfg = SimConfig(t1_ns=4000.0, t2_ns=800.0, shots=0)
        rho = evolve(bloch_to_density([1, 0, 0]), cfg, 100.0)
        assert np.isclose(density_to_bloch(rho)[0], np.exp(-100.0 / 800.0), atol=1e-10)

    def test_population_relaxes_toward_ground(self):
        cfg = SimConfig(t1_ns=500.0, t2_ns=100.0, shots=0)
        rho = evolve(bloch_to_density([0, 0, -1]), cfg, 200.0)
        expected_z = 1 - 2 * np.exp(-200.0 / 500.0)
        assert np.isclose(density_to_bloch(rho)[2], expected_z, atol=1e-10)

    def test_detuning_rotates_equator(self):
        cfg = SimConfig(detuning=0.05, t1_ns=1e9, t2_ns=1e9, shots=0)
        rho = evolve(bloch_to_density([1, 0, 0]), cfg, 10.0)
        r = density_to_bloch(rho)
        assert np.isclose(np.hypot(r[0], r[1]), 1.0, atol=1e-6)
        assert np.isclose(r[0], np.cos(0.05 * 10.0), atol=1e-6)

    def test_evolution_stays_physical(self, rng):
        cfg = SimConfig(t1_ns=300.0, t2_ns=150.0, shots=0)
        for _ in range(10):
            r = rng.uniform(-1, 1, 3)
            r = r / max(1.0, np.linalg.norm(r))
            rho = evolve(bloch_to_density(r), cfg, rng.uniform(0, 500))
            validate_density(rho)
            assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)


class TestMeasurement:
    def test_noise_free(self):
        cfg = SimConfig(shots=0)
        e = measure_expectations(bloch_to_density([0.3, 0.0, 0.4]), cfg)
        assert e.as_tuple() == pytest.approx((0.3, 0.0, 0.4), abs=1e-12)

    def test_noise_scale(self):
        cfg = SimConfig(shots=10000)
        rng = np.random.default_rng(7)
        rho = bloch_to_density([0.0, 0.0, 0.0])
        draws = np.array(
            [measure_expectations(rho, cfg, rng).as_tuple() for _ in range(400)]
        )
        sd = draws.std()
        assert 0.8 / np.sqrt(10000) < sd < 1.2 / np.sqrt(10000)

    def test_clamped_to_valid_range(self):
        cfg = SimConfig(shots=4)  # huge noise
        rng = np.random.default_rng(0)
        rho = bloch_to_density([0, 0, 1])
        for _ in range(50):
            e = measure_expectations(rho, cfg, rng)
            assert all(-1 <= v <= 1 for v in e.as_tuple())


class TestRecord:
    def test_schema_and_determinism(self):
        cfg = SimConfig(seed=42, shots=1000)
        schedule = lindblad.TimeSchedule(t1=20.0)
        doc1 = run_experiment(cfg, schedule).to_record_dict()
        doc2 = run_experiment(cfg, schedule).to_record_dict()
        assert doc1 == doc2
        assert doc1["schema"] == "qpt-record/1"
        assert doc1["times_ns"] == [20.0, 40.0, 80.0]
        assert doc1["inputs"] == list(INPUT_LABELS)
        for label in INPUT_LABELS:
            for t in (20.0, 40.0, 80.0):
                entry = doc1["expectations"][label][repr(t)]
                assert set(entry) == {"sx", "sy", "sz"}

    def test_different_seeds_differ(self):
        schedule = lindblad.TimeSchedule(t1=20.0)
        d1 = run_experiment(SimConfig(seed=1), schedule).to_record_dict()
        d2 = run_experiment(SimConfig(seed=2), schedule).to_record_dict()
        assert d1["expectations"] != d2["expectations"]


class TestRunExperiment:
    @staticmethod
    def per_state_record(cfg, schedule):
        """The record of evolve() and one measurement per (input, time),
        drawn label-major from one generator seeded like run_experiment."""
        rng = np.random.default_rng(cfg.seed)
        expectations = {
            label: {t: measure_expectations(evolve(rho, cfg, t), cfg, rng)
                    for t in schedule.times()}
            for label, rho in zip(INPUT_LABELS, prepare_inputs())
        }
        reference = {"rabi_frequency": cfg.rabi_frequency, "contrast": 1.0}
        return ExperimentRecord(schedule, expectations, cfg, reference).to_record_dict()

    @pytest.mark.parametrize("cfg, schedule", [
        (SimConfig(seed=3), lindblad.TimeSchedule(t1=20.0)),
        (SimConfig(shots=0), lindblad.TimeSchedule(t1=20.0)),
        (SimConfig(t1_ns=4000.0, t2_ns=400.0, detuning=0.03, shots=400, seed=11),
         lindblad.TimeSchedule(t1=15.0, count=4)),
        (SimConfig(t1_ns=300.0, t2_ns=90.0, detuning=-0.05, shots=0),
         lindblad.TimeSchedule(t1=7.5, count=4)),
    ])
    def test_equals_per_state_loop(self, cfg, schedule):
        record = run_experiment(cfg, schedule).to_record_dict()
        assert json.dumps(record) == json.dumps(self.per_state_record(cfg, schedule))

    def test_equals_per_state_loop_on_random_configs(self, rng):
        for _ in range(100):
            t1 = float(rng.uniform(100.0, 1e6))
            cfg = SimConfig(t1_ns=t1, t2_ns=float(rng.uniform(10.0, 2 * t1)),
                            detuning=float(rng.uniform(-0.05, 0.05)),
                            shots=int(rng.choice([0, 100, 10_000, 100_000])),
                            seed=int(rng.integers(2**31)))
            schedule = lindblad.TimeSchedule(t1=float(rng.uniform(1.0, 200.0)),
                                             count=int(rng.integers(1, 6)))
            record = run_experiment(cfg, schedule).to_record_dict()
            assert json.dumps(record) == json.dumps(self.per_state_record(cfg, schedule))


def _reconstruct_chi(record, t):
    from nvqpt.qstate import PauliExpectations, maxent_reconstruct

    outputs = []
    for label in INPUT_LABELS:
        e = record.expectations[label][t]
        outputs.append(maxent_reconstruct(e))
    return qpt.chi_from_outputs(outputs)


class TestPipelineStatistics:
    def test_unphysical_fraction_grows_with_noise(self):
        """Finite shot noise pushes the raw chi outside the CP cone; the
        fraction of unphysical reconstructions grows as shots shrink."""
        schedule = lindblad.TimeSchedule(t1=20.0, count=1)
        fractions = {}
        for shots in (0, 40000, 400):
            bad = 0
            n = 25 if shots else 1
            for seed in range(n):
                cfg = SimConfig(t1_ns=4000.0, t2_ns=60.0, shots=shots, seed=seed)
                record = run_experiment(cfg, schedule)
                chi = _reconstruct_chi(record, 20.0)
                chi = (chi + chi.conj().T) / 2
                if np.linalg.eigvalsh(chi).min() < -1e-9:
                    bad += 1
            fractions[shots] = bad / n
        assert fractions[0] == 0.0
        assert fractions[0] < fractions[40000] <= fractions[400]

    def test_noisy_fit_recovers_rates(self):
        """With ~0.5% readout noise the fitted GKS matrix stays within 10%
        (median over seeds) of the ground truth."""
        schedule = lindblad.TimeSchedule(t1=20.0)
        errors = []
        for seed in range(8):
            cfg = SimConfig(t1_ns=4000.0, t2_ns=400.0, shots=40000, seed=seed)
            record = run_experiment(cfg, schedule)
            props = []
            for t in schedule.times():
                outputs = [
                    _maxent(record.expectations[label][t]) for label in INPUT_LABELS
                ]
                props.append(lindblad.propagator_from_outputs(outputs))
            h_super, _ = true_generator(cfg)
            x0 = lindblad.gks_start_from_generator(
                lindblad.generator_bch_estimate(props, h_super, schedule)
            )
            fit = lindblad.fit_generator(props, h_super, schedule, x0)
            truth = true_gks_matrix(cfg)
            errors.append(np.linalg.norm(fit.gks - truth) / np.linalg.norm(truth))
        assert float(np.median(errors)) < 0.10


def _maxent(e):
    from nvqpt.qstate import maxent_reconstruct

    return maxent_reconstruct(e)
