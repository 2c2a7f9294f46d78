import functools
import json
import sys
import warnings

import numpy as np
import pytest

from nvqpt import cpfit, lindblad, numkit, nvsim, qpt
from nvqpt.nvsim import (
    INPUT_LABELS,
    ExperimentRecord,
    SimConfig,
    SimulationError,
    measure_expectations,
    run_experiment,
    true_generator,
    true_gks_matrix,
)
from nvqpt.numkit import hermitian_basis
from nvqpt.qstate import PauliExpectations, bloch_to_density

from conftest import density_to_bloch, is_physical, record_outputs


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

    @pytest.mark.parametrize("field", ["t1_ns", "t2_ns"])
    def test_rejects_infinite_times(self, field):
        # an infinite time would reach the record's config as Infinity, which is not JSON
        with pytest.raises(SimulationError, match="relaxation times must be positive and finite"):
            SimConfig(**{field: np.inf})

    @pytest.mark.parametrize("t1_ns, t2_ns", [(5e-324, 5e-324), (1.0, 5e-324),
                                              (1 / sys.float_info.max, 1 / sys.float_info.max)])
    def test_rejects_rates_past_float_range(self, t1_ns, t2_ns):
        # 1 / (1 / float max) rounds to inf
        with pytest.raises(SimulationError, match="1/T1, 1/T2 are beyond float range"):
            SimConfig(t1_ns=t1_ns, t2_ns=t2_ns)

    def test_accepts_the_least_time_with_a_finite_rate(self):
        t = np.nextafter(1 / sys.float_info.max, 1.0)
        assert 1 / float(t) < np.inf
        SimConfig(t1_ns=t, t2_ns=t)


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

    def test_evolution_stays_physical(self, rng):
        h_super, r_hat = true_generator(SimConfig(t1_ns=300.0, t2_ns=150.0, shots=0))
        for _ in range(10):
            r = rng.uniform(-1, 1, 3)
            r = r / max(1.0, np.linalg.norm(r))
            prop = lindblad.propagator_from_superop(1j * h_super + r_hat, rng.uniform(0, 500))
            rho = lindblad.devectorize(prop @ lindblad.vectorize(bloch_to_density(r)))
            assert is_physical(rho)
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

    @pytest.mark.parametrize("fields", [dict(detuning=1e307), dict(t1_ns=1e-307, t2_ns=1e-307),
                                        dict(t1_ns=5e-324, t2_ns=5e-324)],
                             ids=["detuning", "rates", "infinite-rates"])
    def test_rejects_exponents_past_float_range(self, fields):
        # -G t overflows at t = 20 ns, and 1/T1 = 1/T2 = inf at 5e-324 ns: an error, not a warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimulationError, match="non-finite entries|beyond float range"):
                run_experiment(SimConfig(**fields), lindblad.TimeSchedule(t1=20.0))
        assert not caught

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
        """The record of one propagator product and one measurement per
        (input, time), drawn label-major from one generator seeded like
        run_experiment."""
        rng = np.random.default_rng(cfg.seed)
        h_super, r_hat = true_generator(cfg)

        def measure(rho, t):
            prop = lindblad.propagator_from_superop(1j * h_super + r_hat, t)
            out = lindblad.devectorize(prop @ lindblad.vectorize(rho))
            bloch = density_to_bloch((out + out.conj().T) / 2)
            return PauliExpectations(*measure_expectations(bloch, cfg, rng).tolist())

        expectations = {
            label: {t: measure(rho, t) for t in schedule.times()}
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
                assert tuple(record.expectations[label][t]) == pytest.approx(e, abs=1e-12)

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
                chi = qpt.chi_from_outputs(record_outputs(record, [20.0])[0])
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

    def test_noise_free_fit_takes_near_gauss_newton_steps(self):
        """On records consistent with one generator the BCH start is O(t1^3) from the
        optimum, and the damping starts at 1e-6, the trusted-start value: 24 fixed
        noise-free fits each converge to the true GKS matrix, in at most 3 evaluations
        on average (about 3.5 with a start of 1e-3)."""
        rng = np.random.default_rng(2004)
        schedule = lindblad.TimeSchedule(t1=20.0)
        evaluations = []
        for _ in range(24):
            t1 = float(10 ** rng.uniform(np.log10(500.0), 5.0))
            cfg = SimConfig(t1_ns=t1, t2_ns=float(10 ** rng.uniform(2.0, np.log10(2 * t1))),
                            detuning=float(rng.uniform(-0.02, 0.02)), shots=0)
            outputs = record_outputs(run_experiment(cfg, schedule), schedule.times())
            fit = lindblad.analyze(outputs, true_generator(cfg)[0], schedule).fit
            assert fit.converged
            assert np.linalg.norm(fit.gks - true_gks_matrix(cfg)) <= 1e-6
            evaluations.append(fit.evaluations)
        assert np.mean(evaluations) <= 3.0

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
        outputs = record_outputs(run_experiment(cfg, schedule), schedule.times())
        h_super, _ = true_generator(cfg)
        props = [lindblad.propagator_from_outputs(row) for row in outputs]
        fit = lindblad.analyze(outputs, h_super, schedule).fit
        out.append((cfg, (props, h_super, schedule), fit))
    return out
