import functools
import json

import numpy as np
import pytest

from nvqpt import cpfit, lindblad, numkit, nvsim, qpt
from nvqpt.nvsim import (
    INPUT_LABELS,
    ExperimentRecord,
    SimConfig,
    SimulationError,
    evolve,
    measure_expectations,
    run_experiment,
    true_generator,
    true_gks_matrix,
)
from nvqpt.numkit import hermitian_basis
from nvqpt.qstate import PauliExpectations, bloch_to_density, density_to_bloch, validate_density


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
    def test_labels_match_bloch_directions(self):
        states = qpt.input_states()
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
    def test_noise_free(self, rng):
        bloch = [[0.3, 0.0, 0.4], [1.0, -1.0, 0.0]]
        e = measure_expectations(bloch, SimConfig(shots=0), rng)
        assert e.tolist() == bloch

    def test_noise_scale(self):
        cfg = SimConfig(shots=10000)
        draws = measure_expectations(np.zeros((400, 3)), cfg, np.random.default_rng(7))
        assert draws.shape == (400, 3)
        assert 0.8 / np.sqrt(10000) < draws.std() < 1.2 / np.sqrt(10000)

    def test_clamped_to_valid_range(self):
        cfg = SimConfig(shots=4)  # huge noise
        draws = measure_expectations(np.tile([0.0, 0.0, 1.0], (50, 1)), cfg,
                                     np.random.default_rng(0))
        assert draws.min() >= -1 and draws.max() <= 1
        assert (draws[:, 2] == 1.0).any()


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

    def test_config_keys(self):
        doc = run_experiment(SimConfig(seed=1), lindblad.TimeSchedule(t1=20.0)).to_record_dict()
        assert list(doc["config"]) == ["t1_ns", "t2_ns", "detuning", "polarization", "shots"]

    @pytest.mark.parametrize("t1_ns", [1e-12, 1e-150])
    def test_rejects_propagators_that_lose_trace(self, t1_ns):
        # exp(-G t) at t / T1 ~ 1e13 and beyond: Pade squaring loses the trace
        cfg = SimConfig(t1_ns=t1_ns, t2_ns=t1_ns, shots=0)
        with pytest.raises(SimulationError, match="trace defect"):
            run_experiment(cfg, lindblad.TimeSchedule(t1=20.0))

    def test_reports_the_propagators_tp_defect(self, monkeypatch):
        # 1.01 P scales every output trace by 1.01: tp_sum is 1.01 I, a defect of 0.01 sqrt(2)
        monkeypatch.setattr(nvsim, "matrix_exp", lambda a: 1.01 * numkit.matrix_exp(a))
        with pytest.raises(SimulationError, match="trace defect 0.0141 exceeds tp_defect_max"):
            run_experiment(SimConfig(shots=0), lindblad.TimeSchedule(t1=20.0))

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

        def measure(rho):
            return PauliExpectations(*measure_expectations(density_to_bloch(rho), cfg, rng).tolist())

        expectations = {
            label: {t: measure(evolve(rho, cfg, t)) for t in schedule.times()}
            for label, rho in zip(INPUT_LABELS, qpt.input_states())
        }
        return ExperimentRecord(schedule, expectations, cfg).to_record_dict()

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

    @pytest.mark.parametrize("t1_ns, t2_ns, detuning", [
        (1e6, 2000.0, 0.0),
        (4000.0, 400.0, 0.03),
        (300.0, 90.0, -0.05),
        (50.0, 100.0, 0.2),
        (1e9, 1e3, -1.3),
    ])
    def test_noise_free_record_matches_closed_forms(self, t1_ns, t2_ns, detuning):
        """Relaxation toward z+ at 1/T1, and the equator precessing at the
        detuning while it decays at 1/T2."""
        schedule = lindblad.TimeSchedule(t1=7.5, count=4)
        record = run_experiment(SimConfig(t1_ns=t1_ns, t2_ns=t2_ns, detuning=detuning,
                                          shots=0), schedule)
        for t in schedule.times():
            relax, decay, phase = np.exp(-t / t1_ns), np.exp(-t / t2_ns), detuning * t
            want = {"z+": (0.0, 0.0, 1.0), "z-": (0.0, 0.0, 1 - 2 * relax),
                    "x+": (decay * np.cos(phase), decay * np.sin(phase), 1 - relax),
                    "y+": (-decay * np.sin(phase), decay * np.cos(phase), 1 - relax)}
            for label, e in want.items():
                assert record.expectations[label][t].as_tuple() == pytest.approx(e, abs=1e-12)

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
        errors = []
        for cfg, _, fit in _noisy_fits():
            truth = true_gks_matrix(cfg)
            errors.append(np.linalg.norm(fit.gks - truth) / np.linalg.norm(truth))
        assert float(np.median(errors)) < 0.10

    def test_fit_stops_when_the_model_sees_no_progress(self):
        """The synthetic-pipeline record (seed 7, 40k shots): the fit stops
        once the model predicts no decrease, rather than evaluating trial
        steps the cost cannot tell apart until the damping shrinks them."""
        cfg, _, fit = _noisy_fits()[7]
        assert cfg.seed == 7 and fit.converged
        assert fit.evaluations <= 6

    def test_noisy_fit_is_first_order_optimal(self):
        """KKT on the PSD cone: the Hermitian gradient S of the cost is PSD
        and orthogonal to the fitted a, to 1e-8 of |J|_F |r|.  (At a
        noise-free optimum r is at roundoff, so only noisy fits test this.)"""
        for _, (props, h_super, schedule), fit in _noisy_fits():
            a = fit.gks
            ptms, h_ptm = qpt.ptm(props).real, qpt.ptm(1j * h_super).real
            r, jac = lindblad.fit_objective(numkit._to_components(a), ptms, h_ptm, schedule)
            grad = np.tensordot(2 * jac.T @ r, hermitian_basis(3), 1)
            scale = np.linalg.norm(jac) * np.linalg.norm(r)
            assert fit.converged
            assert np.linalg.eigvalsh(grad).min() >= -1e-8 * scale
            assert abs(np.trace(grad @ a)) <= 1e-8 * scale * np.linalg.norm(a)


@functools.cache
def _noisy_fits():
    """(config, (props, h_super, schedule), fit) for 8 seeded 40k-shot records."""
    schedule = lindblad.TimeSchedule(t1=20.0)
    out = []
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
        start = lindblad.gks_start_from_generator(
            lindblad.generator_bch_estimate(props, h_super, schedule)
        )
        fit = lindblad.fit_generator(props, h_super, schedule, start)
        out.append((cfg, (props, h_super, schedule), fit))
    return out


def _maxent(e):
    from nvqpt.qstate import maxent_reconstruct

    return maxent_reconstruct(e)
