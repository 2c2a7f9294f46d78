import math

import numpy as np
import pytest

from nvqpt import lindblad, numkit, qpt
from nvqpt.lindblad import (
    F_BASIS,
    LindbladError,
    TimeSchedule,
    contributions_from_operators,
    detuning_hamiltonian,
    devectorize,
    dissipator_superop,
    fit_generator,
    fit_jacobian,
    fit_objective,
    generator_bch_estimate,
    generator_log_estimate,
    gks_matrix,
    gks_start_from_generator,
    hamiltonian_superop,
    lindblads_from_gks,
    predict_expectations,
    propagator_from_outputs,
    propagator_from_superop,
    superop_from_action,
    vectorize,
)
from nvqpt.numkit import NumkitError, hermitian_basis, matrix_exp
from nvqpt.qstate import PAULIS, bloch_to_density, density_to_bloch

from conftest import random_hermitian

TRACE_ROW = np.array([1.0, 0.0, 0.0, 1.0])


def channel_outputs(generator, t):
    """Exact outputs of the canonical inputs under exp(-generator * t)."""
    prop = propagator_from_superop(generator, t)
    return [devectorize(prop @ vectorize(s)) for s in qpt.input_states()]


class TestVectorization:
    def test_ket0_column_stacking(self):
        v = vectorize(np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.array_equal(v, [1, 0, 0, 0])

    def test_round_trip(self, rng):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(devectorize(vectorize(m)), m)

    def test_superop_of_identity_action(self):
        assert np.allclose(superop_from_action(lambda m: m), np.eye(4))

    def test_superop_left_multiplication(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sup = superop_from_action(lambda m: a @ m)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(devectorize(sup @ vectorize(rho)), a @ rho)


class TestHamiltonians:
    def test_detuning_hamiltonian(self):
        assert np.allclose(detuning_hamiltonian(0.4), 0.2 * PAULIS[2])

    def test_commutator_superop(self, rng):
        h = detuning_hamiltonian(0.3)
        sup = hamiltonian_superop(h)
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(devectorize(sup @ vectorize(rho)), h @ rho - rho @ h)

    def test_closed_form_matches_oracle(self, rng):
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = m + m.conj().T
            oracle = superop_from_action(lambda rho: h @ rho - rho @ h)
            assert np.max(np.abs(hamiltonian_superop(h) - oracle)) <= 1e-15

    def test_equals_kronecker_form(self, rng):
        eye = np.eye(2, dtype=complex)
        for scale in np.logspace(-4, 2, 300):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = scale * (m + m.conj().T)
            assert np.array_equal(hamiltonian_superop(h), np.kron(eye, h) - np.kron(h.T, eye))

    def test_rejects_non_hermitian(self):
        with pytest.raises(LindbladError):
            hamiltonian_superop(np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(LindbladError, match="finite"):
            hamiltonian_superop(np.array([[bad, 0], [0, 0]]))
        with pytest.raises(LindbladError, match="finite"):
            detuning_hamiltonian(bad)


class TestSchedule:
    def test_doubling_times(self):
        assert TimeSchedule(t1=20.0).times() == [20.0, 40.0, 80.0]

    def test_from_times_round_trip(self):
        s = TimeSchedule.from_times([20.0, 40.0, 80.0])
        assert s.t1 == 20.0 and s.count == 3

    def test_from_times_rejects_non_doubling(self):
        with pytest.raises(LindbladError):
            TimeSchedule.from_times([20.0, 40.0, 60.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(LindbladError):
            TimeSchedule(t1=0.0)

    def test_rejects_overflowing_last_time(self):
        for t1, count in [(1e308, 2), (20.0, 1100), (1e-300, 3000)]:
            with pytest.raises(LindbladError, match="beyond float range"):
                TimeSchedule(t1=t1, count=count)

    def test_times_scale_exactly_past_float_range_of_2_to_the_m(self):
        # 2**1099 alone is no float, but 1e-300 * 2**1099 is
        times = TimeSchedule(t1=1e-300, count=1100).times()
        assert times[:3] == [1e-300, 2e-300, 4e-300]
        assert times[-1] == math.ldexp(1e-300, 1099) and math.isfinite(times[-1])


class TestPropagators:
    def test_identity_channel(self):
        assert np.allclose(propagator_from_outputs(qpt.input_states()), np.eye(4))

    def test_matches_superop_route(self):
        gen = dissipator_superop(np.diag([0.0, 0.0, 0.01]))
        outputs = channel_outputs(gen, 20.0)
        prop = propagator_from_outputs(outputs)
        assert np.allclose(prop, propagator_from_superop(gen, 20.0), atol=1e-10)

    def test_realignment_matches_oracle(self, rng):
        # any linear map, given by its outputs on the canonical inputs
        g = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))

        def channel(m):
            return sum(k @ m @ k.conj().T for k in g)

        prop = propagator_from_outputs([channel(s) for s in qpt.input_states()])
        assert np.max(np.abs(prop - superop_from_action(channel))) <= 1e-12


class TestDissipator:
    def test_pure_dephasing_decay_rate(self):
        g = 0.01
        r_hat = dissipator_superop(np.diag([0.0, 0.0, g]))
        t = 30.0
        aff = self._affine_of(r_hat, t)
        decay = np.exp(-g * t)
        assert np.allclose(aff.linear, np.diag([decay, decay, 1.0]), atol=1e-10)
        assert np.allclose(aff.translation, 0, atol=1e-10)

    def test_isotropic_decay_rate(self):
        g = 0.005
        r_hat = dissipator_superop(g * np.eye(3))
        t = 40.0
        aff = self._affine_of(r_hat, t)
        assert np.allclose(aff.linear, np.exp(-2 * g * t) * np.eye(3), atol=1e-10)

    def test_trace_row_vanishes(self, rng):
        a = self._random_gks(rng)
        r_hat = dissipator_superop(a)
        assert np.allclose(TRACE_ROW @ r_hat, 0, atol=1e-12)

    def test_tensor_matches_oracle(self):
        for a, fa in enumerate(F_BASIS):
            for b, fb in enumerate(F_BASIS):
                oracle = superop_from_action(
                    lambda rho: fa @ rho @ fb - (fb @ fa @ rho + rho @ fb @ fa) / 2
                )
                diff = lindblad._DISSIPATOR_TENSOR[a, b] - oracle
                assert np.max(np.abs(diff)) <= 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(LindbladError):
            dissipator_superop(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    def test_hermitian_check_is_relative(self, rng):
        # X^dag X at scale 1e4 carries roundoff far above an absolute 1e-9
        for _ in range(200):
            dissipator_superop(gks_matrix(1e4 * rng.normal(size=9)))

    def test_rejects_non_hermitian_at_scale(self, rng):
        a = gks_matrix(1e4 * rng.normal(size=9))
        skew = 1e-6 * np.linalg.norm(a) * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(LindbladError):
            dissipator_superop(a + skew)

    @staticmethod
    def _affine_of(r_hat, t):
        outputs = channel_outputs(r_hat, t)
        return qpt.chi_to_affine(qpt.chi_from_outputs(outputs))

    @staticmethod
    def _random_gks(rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return 0.01 * x @ x.conj().T


def _gks_components(a):
    """Components of a GKS matrix in the fit's basis, hermitian_basis(3)."""
    return np.einsum("kij,ij->k", hermitian_basis(3).conj(), a).real


class TestGKSParameterization:
    def test_matrix_always_psd(self, rng):
        for _ in range(50):
            a = gks_matrix(rng.normal(size=9))
            assert np.linalg.eigvalsh(a).min() >= -1e-12

    def test_params_round_trip(self, rng):
        a = TestDissipator._random_gks(rng)
        c = _gks_components(a)
        assert np.linalg.norm(np.tensordot(c, hermitian_basis(3), 1) - a) <= 1e-15
        assert np.isclose(np.linalg.norm(c), np.linalg.norm(a), rtol=1e-14)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rank_deficient_round_trip(self, rng, rank):
        # the start recovers a rank-deficient GKS matrix from its dissipator
        g = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
        a = 0.01 * g @ g.conj().T
        start = gks_start_from_generator(dissipator_superop(a))
        assert np.linalg.norm(start - a) < 1e-12
        assert np.linalg.matrix_rank(start, tol=1e-12) == rank

    def test_identity_closed_form(self):
        assert np.allclose(_gks_components(np.eye(3)), [1, 1, 1, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_diagonal_closed_form(self):
        # diagonal entries directly; off-diagonal Re/Im scaled by sqrt(2)
        a = np.diag([4.0, 9.0, 1.0]).astype(complex)
        a[1, 0], a[0, 1] = 1 + 2j, 1 - 2j
        expected = [4, 9, 1, math.sqrt(2), 2 * math.sqrt(2), 0, 0, 0, 0]
        assert np.allclose(_gks_components(a), expected, atol=1e-14)

    def test_indefinite_start_is_clipped(self):
        start = gks_start_from_generator(dissipator_superop(np.diag([1.0, 0.5, -1e-6])))
        assert np.allclose(start, np.diag([1.0, 0.5, 0.0]), atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(NumkitError):
            gks_matrix(np.zeros(8))


def _bch_per_time(props, h_super, schedule):
    """generator_bch_estimate with one exponential per time."""
    samples = []
    for p, t in zip(props, schedule.times()[:3]):
        half = matrix_exp(1j * t / 2 * h_super)
        samples.append(half @ p @ half)
    return -numkit.richardson_derivative(samples, np.eye(4, dtype=complex), schedule.t1)


def _jacobian_block_assembly(a, h_super, schedule):
    """fit_jacobian with its nine 8x8 blocks assembled by np.block."""
    gen = 1j * h_super + dissipator_superop(a)
    g = np.broadcast_to(-gen * schedule.t1, (9, 4, 4))
    da = dissipator_superop(hermitian_basis(3))
    blocks = matrix_exp(np.block([[g, -da * schedule.t1], [0 * g, g]]))
    p, dps = blocks[0, :4, :4], [blocks[:, :4, 4:]]
    for _ in range(1, schedule.count):
        dps.append(dps[-1] @ p + p @ dps[-1])
        p = p @ p
    dps = np.stack(dps, axis=1).reshape(9, -1)
    return np.concatenate([dps.real, dps.imag], axis=1).T


class TestGeneratorEstimates:
    def make_problem(self, rng, detuning=0.02):
        # rates ~1e-3/ns so the 20/40/80 ns schedule sits in the regime
        # where the O(t^3) BCH truncation is actually small
        a = 0.1 * TestDissipator._random_gks(rng)
        h_super = hamiltonian_superop(detuning_hamiltonian(detuning))
        r_hat = dissipator_superop(a)
        gen = 1j * h_super + r_hat
        return a, h_super, r_hat, gen

    def test_log_estimate_exact(self, rng):
        _, h_super, r_hat, gen = self.make_problem(rng)
        prop = propagator_from_superop(gen, 20.0)
        est = generator_log_estimate(prop, h_super, 20.0)
        assert np.linalg.norm(est - r_hat) < 1e-8

    def test_bch_estimate_close(self, rng):
        _, h_super, r_hat, gen = self.make_problem(rng)
        schedule = TimeSchedule(t1=20.0)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        est = generator_bch_estimate(props, h_super, schedule)
        assert np.linalg.norm(est - r_hat) < 1e-3

    def test_bch_equals_per_time_exponentials(self, rng):
        schedule = TimeSchedule(t1=20.0)
        for detuning in (0.0, 0.003, -0.02, 0.1):  # |i t H/2|_1 <= theta_13: one exponent
            _, h_super, _, gen = self.make_problem(rng, detuning)
            props = [propagator_from_superop(gen, t) for t in schedule.times()]
            assert np.array_equal(generator_bch_estimate(props, h_super, schedule),
                                  _bch_per_time(props, h_super, schedule))
        # 20/40/80 ns at 1 rad/ns take scaling exponents 1, 2 and 3 in separate
        # calls but 3 in the stacked one; Richardson divides the differences of
        # samples near the identity by t1, so bound the error in the samples
        _, h_super, _, gen = self.make_problem(rng, 1.0)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        diff = generator_bch_estimate(props, h_super, schedule) - _bch_per_time(
            props, h_super, schedule)
        assert 0 < schedule.t1 * np.linalg.norm(diff) <= 1e-12

    def test_bch_needs_three_props(self, rng):
        _, h_super, _, gen = self.make_problem(rng)
        with pytest.raises(LindbladError):
            generator_bch_estimate(
                [propagator_from_superop(gen, 20.0)], h_super, TimeSchedule(t1=20.0)
            )

    def test_gks_start_recovers_exact(self, rng):
        a, _, r_hat, _ = self.make_problem(rng)
        assert np.linalg.norm(gks_start_from_generator(r_hat) - a) < 1e-9

    def test_fit_recovers_ground_truth(self, rng):
        a, h_super, _, gen = self.make_problem(rng)
        schedule = TimeSchedule(t1=20.0)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        start = gks_start_from_generator(generator_bch_estimate(props, h_super, schedule))
        fit = fit_generator(props, h_super, schedule, start)
        assert np.linalg.norm(fit.gks - a) < 1e-6
        assert fit.residual < 1e-12
        assert fit.converged

    @pytest.mark.parametrize("count", [3, 4])
    def test_fit_objective_matches_per_time_exponentials(self, rng, count):
        _, h_super, _, gen = self.make_problem(rng)
        schedule = TimeSchedule(t1=20.0, count=count)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        a = gks_start_from_generator(generator_bch_estimate(props, h_super, schedule))
        a = a + 1e-5 * random_hermitian(rng, 3)
        fit_gen = 1j * h_super + dissipator_superop(a)
        diff = np.array([propagator_from_superop(fit_gen, t) - p
                         for p, t in zip(props, schedule.times())])
        expected = np.concatenate([diff.real.ravel(), diff.imag.ravel()])
        out = fit_objective(a, props, h_super, schedule)
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) <= 1e-12

    @pytest.mark.parametrize("count", [3, 4])
    def test_fit_jacobian_matches_central_differences(self, rng, count):
        schedule = TimeSchedule(t1=20.0, count=count)
        for _ in range(3):
            a, h_super, _, gen = self.make_problem(rng)
            props = [propagator_from_superop(gen, t) for t in schedule.times()]
            a = a + 1e-5 * random_hermitian(rng, 3)
            jac = fit_jacobian(a, h_super, schedule)
            central = np.empty_like(jac)
            h = 1e-6 * np.linalg.norm(a)
            for k, e in enumerate(hermitian_basis(3)):
                central[:, k] = (fit_objective(a + h * e, props, h_super, schedule)
                                 - fit_objective(a - h * e, props, h_super, schedule)) / (2 * h)
            assert np.linalg.norm(jac - central) <= 1e-6 * np.linalg.norm(central)

    @pytest.mark.parametrize("count", [3, 4])
    def test_fit_jacobian_equals_block_assembly(self, rng, count):
        schedule = TimeSchedule(t1=20.0, count=count)
        for _ in range(5):
            a, h_super, _, _ = self.make_problem(rng, rng.uniform(-0.02, 0.02))
            a = a + 1e-5 * random_hermitian(rng, 3)
            assert np.array_equal(fit_jacobian(a, h_super, schedule),
                                  _jacobian_block_assembly(a, h_super, schedule))

    def test_budget_stop_reported(self, rng, monkeypatch):
        _, h_super, _, gen = self.make_problem(rng)
        schedule = TimeSchedule(t1=20.0)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        monkeypatch.setattr(numkit, "MAX_EVALUATIONS", 10)
        fit = fit_generator(props, h_super, schedule, gks_matrix(np.full(9, 0.01)))
        assert not fit.converged
        assert fit.evaluations + 9 * fit.jacobians <= 10

    def test_fit_rejects_count_mismatch(self, rng):
        _, h_super, _, gen = self.make_problem(rng)
        with pytest.raises(LindbladError):
            fit_generator(
                [propagator_from_superop(gen, 20.0)],
                h_super,
                TimeSchedule(t1=20.0),
                np.zeros((3, 3)),
            )


class TestLindbladDecomposition:
    def test_pure_dephasing_single_operator(self):
        g = 0.01
        lset = lindblads_from_gks(np.diag([0.0, 0.0, g]))
        assert len(lset.operators) == 1
        assert np.allclose(np.abs(lset.operators[0]), np.sqrt(g) * np.abs(F_BASIS[2]))
        assert np.isclose(lset.contributions[0], 1.0)

    def test_contributions_sorted_and_normalized(self, rng):
        a = TestDissipator._random_gks(rng)
        lset = lindblads_from_gks(a)
        assert np.isclose(sum(lset.contributions), 1.0)
        assert lset.contributions == sorted(lset.contributions, reverse=True)

    def test_operators_rebuild_dissipator(self, rng):
        a = TestDissipator._random_gks(rng)
        lset = lindblads_from_gks(a)

        def action(rho):
            out = np.zeros((2, 2), dtype=complex)
            for op in lset.operators:
                out += (
                    op @ rho @ op.conj().T
                    - (op.conj().T @ op @ rho + rho @ op.conj().T @ op) / 2
                )
            return out

        assert np.allclose(
            superop_from_action(action), -dissipator_superop(a), atol=1e-10
        )

    def test_negative_gks_rejected(self):
        with pytest.raises(LindbladError):
            lindblads_from_gks(np.diag([1.0, 0.0, -0.1]))

    def test_zero_gks_empty(self):
        lset = lindblads_from_gks(np.zeros((3, 3)))
        assert lset.operators == [] and lset.contributions == []

    def test_contributions_of_vanishing_operators_empty(self):
        assert contributions_from_operators([]) == []
        assert contributions_from_operators([np.zeros((2, 2))]) == []


class TestPrediction:
    def test_dephasing_coherence_decay(self):
        g = 0.01
        r_hat = dissipator_superop(np.diag([0.0, 0.0, g]))
        h_super = hamiltonian_superop(detuning_hamiltonian(0.0))
        rho0 = bloch_to_density([1.0, 0.0, 0.0])
        times = [10.0, 20.0, 40.0]
        out = predict_expectations(r_hat, h_super, rho0, times)
        for e, t in zip(out, times):
            assert np.isclose(e.sx, np.exp(-g * t), atol=1e-9)
            assert np.isclose(e.sz, 0.0, atol=1e-9)

    def test_detuning_precession(self):
        delta = 0.05
        r_hat = np.zeros((4, 4))
        h_super = hamiltonian_superop(detuning_hamiltonian(delta))
        rho0 = bloch_to_density([1.0, 0.0, 0.0])
        t = 15.0
        (e,) = predict_expectations(r_hat, h_super, rho0, [t])
        assert np.isclose(e.sx, np.cos(delta * t), atol=1e-9)
        assert np.isclose(abs(e.sy), abs(np.sin(delta * t)), atol=1e-9)

    def test_matches_per_time_exponentials(self, rng):
        _, h_super, r_hat, gen = TestGeneratorEstimates().make_problem(rng)
        rho0 = bloch_to_density([0.6, -0.3, 0.5])
        times = [3.0, 20.0, 40.0, 80.0, 250.0]
        out = predict_expectations(r_hat, h_super, rho0, times)
        for e, t in zip(out, times):
            rho = devectorize(matrix_exp(-gen * t) @ vectorize(rho0))
            expected = density_to_bloch((rho + rho.conj().T) / 2)
            assert np.max(np.abs(np.array(e.as_tuple()) - expected)) <= 1e-14

    def test_readout_equals_density_loop(self, rng):
        times = [20.0, 40.0, 80.0, 250.0]
        clipped = 0
        for _ in range(10):
            _, h_super, r_hat, _ = TestGeneratorEstimates().make_problem(
                rng, rng.uniform(-0.02, 0.02))
            for r in (r_hat, -r_hat):  # -r_hat pushes Bloch vectors past 1
                gen = 1j * h_super + r
                props = matrix_exp(-gen * np.array(times)[:, None, None])
                for rho0 in [*qpt.input_states(), bloch_to_density(rng.uniform(-0.5, 0.5, 3))]:
                    expected = []
                    for prop in props:
                        rho = devectorize(prop @ vectorize(rho0))
                        bloch = density_to_bloch((rho + rho.conj().T) / 2)
                        clipped += np.any(np.abs(bloch) > 1)
                        expected.append(np.clip(bloch, -1, 1))
                    out = predict_expectations(r, h_super, rho0, times)
                    assert np.array_equal([e.as_tuple() for e in out], expected)
        assert clipped
