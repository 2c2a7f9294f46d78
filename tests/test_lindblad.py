import math
import warnings

import numpy as np
import pytest

from nvqpt import lindblad, numkit, nvsim, qpt
from nvqpt.lindblad import (
    F_BASIS,
    LindbladError,
    TimeSchedule,
    analyze,
    contributions_from_operators,
    detuning_hamiltonian,
    devectorize,
    dissipator_superop,
    fit_generator,
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
from nvqpt.qstate import PAULIS, bloch_to_density

from conftest import density_to_bloch, random_hermitian, record_outputs
from test_acceptance import PIPELINE_GRID
from test_nvsim import _noisy_fits

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

    @pytest.mark.parametrize("bad", [np.eye(4), np.zeros(4), np.zeros((2, 3))])
    def test_vectorize_rejects_wrong_shape(self, bad):
        with pytest.raises(LindbladError, match="2x2"):
            vectorize(bad)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.eye(2), np.zeros(16)])
    def test_devectorize_rejects_wrong_shape(self, bad):
        with pytest.raises(LindbladError, match="4-vector"):
            devectorize(bad)

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

    def test_rejects_non_hermitian_near_float_max(self):
        # h - h^dag overflowed here, a RuntimeWarning before the verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LindbladError):
                hamiltonian_superop(np.array([[0, 1e308], [-1e308, 0]]))

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
        # the tolerance is relative, also below 1 ns; no time at all, or a zero one, is refused
        for times in ([20.0, 40.0, 60.0], [1e-10, 5e-10, 3e-10], [], [0.0, 0.0, 0.0]):
            with pytest.raises(LindbladError):
                TimeSchedule.from_times(times)

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

    @pytest.mark.parametrize("generator, t", [(1e307 * np.eye(4), 80.0),
                                              (np.eye(4), math.inf),
                                              (np.full((4, 4), 1e300), 1e300)])
    def test_exponent_past_float_range_raises(self, generator, t):
        # -G t passes float range: NumkitError from matrix_exp, not a RuntimeWarning
        with pytest.raises(NumkitError, match="non-finite"):
            propagator_from_superop(generator, t)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(LindbladError):
            dissipator_superop(np.diag([1.0, bad, 0.0]))

    def test_hermitian_check_near_float_range(self):
        # entries near 1e300: the check's norms must not overflow (a numpy
        # RuntimeWarning fails the suite)
        a = 1e300 * (np.diag([1.0, 2.0, 3.0]) + np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]]))
        assert np.isfinite(dissipator_superop(a)).all()
        with pytest.raises(LindbladError):
            dissipator_superop(a + 1e292 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))

    @staticmethod
    def _affine_of(r_hat, t):
        outputs = channel_outputs(r_hat, t)
        return qpt.chi_to_affine(qpt.chi_from_outputs(outputs))

    @staticmethod
    def _random_gks(rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return 0.01 * x @ x.conj().T


class TestGKSParameterization:
    def test_matrix_always_psd(self, rng):
        for _ in range(50):
            a = gks_matrix(rng.normal(size=9))
            assert np.linalg.eigvalsh(a).min() >= -1e-12

    def test_params_round_trip(self, rng):
        a = TestDissipator._random_gks(rng)
        c = numkit._to_components(a)
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
        assert np.allclose(numkit._to_components(np.eye(3)), [1, 1, 1, 0, 0, 0, 0, 0, 0],
                           atol=1e-15)

    def test_diagonal_closed_form(self):
        # diagonal entries directly; off-diagonal Re/Im scaled by sqrt(2)
        a = np.diag([4.0, 9.0, 1.0]).astype(complex)
        a[1, 0], a[0, 1] = 1 + 2j, 1 - 2j
        expected = [4, 9, 1, math.sqrt(2), 2 * math.sqrt(2), 0, 0, 0, 0]
        assert np.allclose(numkit._to_components(a), expected, atol=1e-14)

    def test_indefinite_start_is_clipped(self):
        start = gks_start_from_generator(dissipator_superop(np.diag([1.0, 0.5, -1e-6])))
        assert np.allclose(start, np.diag([1.0, 0.5, 0.0]), atol=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(NumkitError):
            gks_matrix(np.zeros(8))


def _bch_per_time(props, h_super, schedule):
    """generator_bch_estimate with one exponential per time and staged Richardson:
    divided differences D0(h) = (F(h) - I) / h, then D1(h) = 2 D0(h) - D0(2h),
    then (4 D1(t1) - D1(2 t1)) / 3."""
    d0 = []
    for p, t in zip(props, schedule.times()[:3]):
        half = matrix_exp(1j * t / 2 * h_super)
        d0.append((half @ p @ half - np.eye(4)) / t)
    d1 = [2 * d0[0] - d0[1], 2 * d0[1] - d0[2]]
    return -(4 * d1[0] - d1[1]) / 3


def _h_ptm(h_super):
    """The real PTM of i H_hat, as fit_generator passes it to fit_objective."""
    return qpt.ptm(1j * np.asarray(h_super)).real


def _ptm_data(props, h_super):
    """fit_objective's data from Liouville propagators and H_hat: the real PTMs."""
    return qpt.ptm(props).real, _h_ptm(h_super)


def _jacobian_block_assembly(c, h_super, schedule, scaled=True):
    """fit_objective's Jacobian with its nine 8x8 real PTM blocks assembled by np.block;
    unscaled, the directions enter at their own norm, as before the 2^-k scaling."""
    gen = _h_ptm(h_super) + (c @ lindblad._BASIS_PTMS.reshape(9, 16)).reshape(4, 4)
    g = np.broadcast_to(-gen * schedule.t1, (9, 4, 4))
    da = lindblad._BASIS_PTMS
    k = 0
    if scaled:
        target = max(np.abs(g[0]).sum(axis=0).max(), 2.0**-6)
        while np.abs(da).sum(axis=1).max() * schedule.t1 * 2.0**-k >= target:
            k += 1
    blocks = [matrix_exp(np.block([[g, -da * (schedule.t1 * 2.0**-k)], [0 * g, g]]))]
    for _ in range(1, schedule.count):
        blocks.append(blocks[-1] @ blocks[-1])
    dps = np.array([b[:, 1:4, 4:] for b in blocks]).transpose(1, 0, 2, 3)
    return dps.reshape(9, -1).T / 2.0**-k


def _matrix_route_objective(a, ptms, h_ptm, schedule):
    """fit_objective as it was when it took the GKS matrix a: the generator's PTM from
    a.ravel() through the complex (9, 16) PTMs of the elementary GKS terms (first row
    zeroed), and the directions mapped from those through hermitian_basis(3)."""
    term_ptms = qpt.ptm(-lindblad._DISSIPATOR_TENSOR) * [[0.0], [1.0], [1.0], [1.0]]
    term_ptms = term_ptms.reshape(9, 16)
    basis_ptms = (hermitian_basis(3).reshape(9, 9) @ term_ptms).real.reshape(9, 4, 4)
    gen = h_ptm + (np.asarray(a).ravel() @ term_ptms).real.reshape(4, 4)
    blocks = np.zeros((9, 8, 8))
    blocks[:, :4, :4] = blocks[:, 4:, 4:] = g = -gen * schedule.t1
    norm1 = np.abs(basis_ptms).sum(axis=1).max()
    ratio = norm1 * schedule.t1 / max(np.abs(g).sum(axis=0).max(), 2.0**-6)
    scale = math.ldexp(1.0, -max(0, math.frexp(ratio)[1]))
    blocks[:, :4, 4:] = -basis_ptms * (schedule.t1 * scale)
    blocks = [matrix_exp(blocks)]
    for _ in range(1, schedule.count):
        blocks.append(blocks[-1] @ blocks[-1])
    blocks = np.array(blocks)[:, :, 1:4]
    dps = blocks[..., 4:].transpose(1, 0, 2, 3).reshape(9, -1)
    return (blocks[:, 0, :, :4] - ptms[:, 1:]).ravel(), dps.T / scale


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
        # Richardson divides the differences of samples near the identity by
        # t1, so bound the error in the samples.  Below theta_13 the stacked
        # call takes the Pade degree of its largest time, the separate calls
        # their own
        schedule = TimeSchedule(t1=20.0)
        for detuning in (0.0, 0.003, -0.02, 0.1):
            _, h_super, _, gen = self.make_problem(rng, detuning)
            props = [propagator_from_superop(gen, t) for t in schedule.times()]
            diff = generator_bch_estimate(props, h_super, schedule) - _bch_per_time(
                props, h_super, schedule)
            assert schedule.t1 * np.linalg.norm(diff) <= 1e-12
        # 20/40/80 ns at 1 rad/ns take scaling exponents 1, 2 and 3 in separate
        # calls but 3 in the stacked one
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
        diff = np.array([qpt.ptm(propagator_from_superop(fit_gen, t) - p).real
                         for p, t in zip(props, schedule.times())])
        expected = diff[:, 1:].ravel()  # rows 1-3: 12 residuals per time
        out = fit_objective(numkit._to_components(a), *_ptm_data(props, h_super), schedule)[0]
        assert out.shape == expected.shape == (12 * count,)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_fit_objective_equals_matrix_route(self, rng):
        # the components route against the matrix route it replaced, at random
        # problems near their truth, the noisy fits and the criterion-05 grid:
        # residuals to 1e-15, the Jacobian to 1e-15 relative
        cases = []
        for count in (3, 4):
            schedule = TimeSchedule(t1=20.0, count=count)
            for _ in range(5):
                a, h_super, _, gen = self.make_problem(rng, rng.uniform(-0.02, 0.02))
                props = [propagator_from_superop(gen, t) for t in schedule.times()]
                cases.append((a + 1e-5 * random_hermitian(rng, 3), props, h_super, schedule))
        cases += [(fit.gks, *data) for _, data, fit in _noisy_fits()]
        for t1_ns, t2_ns, delta in PIPELINE_GRID:
            cfg = nvsim.SimConfig(t1_ns=t1_ns, t2_ns=t2_ns, detuning=delta)
            cases.append((nvsim.true_gks_matrix(cfg), np.zeros((3, 4, 4)),
                          nvsim.true_generator(cfg)[0], TimeSchedule(t1=20.0)))
        for a, props, h_super, schedule in cases:
            data = _ptm_data(props, h_super)
            r, jac = fit_objective(numkit._to_components(a), *data, schedule)
            r_old, jac_old = _matrix_route_objective(a, *data, schedule)
            assert np.max(np.abs(r - r_old)) <= 1e-15
            assert np.linalg.norm(jac - jac_old) <= 1e-15 * np.linalg.norm(jac_old)

    @pytest.mark.parametrize("count", [3, 4])
    def test_fit_jacobian_matches_central_differences(self, rng, count):
        schedule = TimeSchedule(t1=20.0, count=count)
        for _ in range(3):
            a, h_super, _, gen = self.make_problem(rng)
            props = [propagator_from_superop(gen, t) for t in schedule.times()]
            c = numkit._to_components(a + 1e-5 * random_hermitian(rng, 3))
            data = _ptm_data(props, h_super)
            jac = fit_objective(c, *data, schedule)[1]
            central = np.empty_like(jac)
            h = 1e-6 * np.linalg.norm(c)
            for k, e in enumerate(np.eye(9)):
                central[:, k] = (fit_objective(c + h * e, *data, schedule)[0]
                                 - fit_objective(c - h * e, *data, schedule)[0]) / (2 * h)
            assert np.linalg.norm(jac - central) <= 1e-6 * np.linalg.norm(central)

    @pytest.mark.parametrize("count", [3, 4])
    def test_fit_jacobian_equals_block_assembly(self, rng, count):
        schedule = TimeSchedule(t1=20.0, count=count)
        props = np.zeros((count, 4, 4))  # the Jacobian does not depend on the data
        for _ in range(5):
            a, h_super, _, _ = self.make_problem(rng, rng.uniform(-0.02, 0.02))
            c = numkit._to_components(a + 1e-5 * random_hermitian(rng, 3))
            assert np.array_equal(fit_objective(c, props, _h_ptm(h_super), schedule)[1],
                                  _jacobian_block_assembly(c, h_super, schedule))

    def test_fit_jacobian_matches_unscaled_directions(self):
        # the 2^-k direction scaling against the blocks at the directions' own
        # norm (Pade 13 and squarings), on the criterion-05 grid and at G = 0
        schedule = TimeSchedule(t1=20.0)
        cases = [(nvsim.true_gks_matrix(nvsim.SimConfig(t1_ns=t1, t2_ns=t2)),
                  hamiltonian_superop(detuning_hamiltonian(delta)))
                 for t1, t2, delta in PIPELINE_GRID]
        cases.append((np.zeros((3, 3)), np.zeros((4, 4))))
        props = np.zeros((3, 4, 4))
        for a, h_super in cases:
            c = numkit._to_components(a)
            jac = fit_objective(c, props, _h_ptm(h_super), schedule)[1]
            expected = _jacobian_block_assembly(c, h_super, schedule, scaled=False)
            assert np.isfinite(jac).all()
            assert np.linalg.norm(jac - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_generator_ptm_is_real_with_zero_first_row(self, rng):
        # the fit's generator, the PTM of i H_hat plus the linear dissipator
        # term, is the PTM of the Liouville generator: real to 1e-15, and with
        # an exactly zero first (trace) row
        for _ in range(50):
            a = rng.uniform(0.01, 100) * TestDissipator._random_gks(rng)
            h_super = hamiltonian_superop(detuning_hamiltonian(rng.uniform(-1, 1)))
            basis_ptms = lindblad._BASIS_PTMS.reshape(9, 16)
            gen = qpt.ptm(1j * h_super) + (numkit._to_components(a) @ basis_ptms).reshape(4, 4)
            oracle = qpt.ptm(1j * h_super + dissipator_superop(a))
            assert np.array_equal(gen[0], np.zeros(4))
            assert np.abs(gen.imag).max() <= 1e-15 * max(1.0, np.abs(gen).max())
            assert np.abs(gen - oracle).max() <= 1e-15 * max(1.0, np.abs(gen).max())
        assert np.array_equal(lindblad._BASIS_PTMS[:, 0], np.zeros((9, 4)))

    def test_residual_is_the_liouville_cost(self):
        # GeneratorFit.residual = sum_t |exp(-G t) - P_t|_F^2 in Liouville form.
        # The two sides differ by roundoff e (|e| <= 1e-14) in the exponentials,
        # which moves |d|^2 by <= 2 |d| |e| + |e|^2: 1e-12 relative on the noisy
        # fits, while the noise-free grid's residual is itself roundoff
        schedule = TimeSchedule(t1=20.0)
        cases = [(props, h_super, fit, False) for _, (props, h_super, _), fit in _noisy_fits()]
        for t1_ns, t2_ns, delta in PIPELINE_GRID:
            cfg = nvsim.SimConfig(t1_ns=t1_ns, t2_ns=t2_ns, detuning=delta, shots=0)
            outputs = record_outputs(nvsim.run_experiment(cfg, schedule), schedule.times())
            h_super = nvsim.true_generator(cfg)[0]
            fit = analyze(outputs, h_super, schedule).fit
            cases.append(([propagator_from_outputs(o) for o in outputs], h_super, fit, True))
        for props, h_super, fit, noise_free in cases:
            gen = 1j * h_super + fit.relaxation
            cost = sum(np.linalg.norm(propagator_from_superop(gen, t) - p) ** 2
                       for p, t in zip(props, schedule.times()))
            roundoff = 2e-14 * math.sqrt(cost) + 1e-28 if noise_free else 0.0
            assert abs(fit.residual - cost) <= 1e-12 * cost + roundoff

    def test_budget_stop_reported(self, rng, monkeypatch):
        _, h_super, _, gen = self.make_problem(rng)
        schedule = TimeSchedule(t1=20.0)
        props = [propagator_from_superop(gen, t) for t in schedule.times()]
        monkeypatch.setattr(numkit, "MAX_EVALUATIONS", 1)
        fit = fit_generator(props, h_super, schedule, gks_matrix(np.full(9, 0.01)))
        assert not fit.converged
        assert fit.evaluations == 1  # the start, and no trial step

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
        # -1e-7 is below the min_eig_floor of -1e-9
        for gks in (np.diag([1.0, 0.0, -0.1]), np.diag([0.01, 0.0, -1e-7])):
            with pytest.raises(LindbladError):
                lindblads_from_gks(gks)

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
            assert np.max(np.abs(np.array(tuple(e)) - expected)) <= 1e-14

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
                    diff = np.array([tuple(e) for e in out]) - expected
                    assert np.max(np.abs(diff)) <= 1e-14
        assert clipped

    def test_cache_follows_the_generator(self, rng):
        # the one-entry propagator cache, with generators A, B, A, then A
        # again: each result is bit-equal to the uncached exponential of the
        # exponent's real PTM, and only the repeated call hits
        times = [20.0, 40.0, 80.0]
        rho0 = bloch_to_density([0.6, -0.3, 0.5])
        pauli = (vectorize(rho0) @ qpt.PAULI_READOUT).real
        assert np.allclose(pauli, [1.0, 0.6, -0.3, 0.5], rtol=0, atol=1e-15)
        problem = TestGeneratorEstimates().make_problem
        (_, h_a, r_a, _), (_, h_b, r_b, _) = problem(rng, 0.01), problem(rng, -0.02)
        lindblad._propagators.cache_clear()
        for h_super, r_hat in ((h_a, r_a), (h_b, r_b), (h_a, r_a), (h_a, r_a)):
            exponent = -(1j * h_super + r_hat) * np.array(times)[:, None, None]
            props = matrix_exp(qpt.ptm(exponent).real)
            assert props.dtype == np.float64
            expected = np.clip((props @ pauli)[:, 1:], -1, 1)
            out = predict_expectations(r_hat, h_super, rho0, times)
            assert np.array_equal([tuple(e) for e in out], expected)
        info = lindblad._propagators.cache_info()
        assert (info.hits, info.misses) == (1, 3)
        cached = lindblad._propagators(exponent.shape, exponent.tobytes())
        assert np.array_equal(cached, props)
        assert not cached.flags.writeable

    @pytest.mark.parametrize("r_hat, error, match", [
        (np.zeros((3, 3)), ValueError, "broadcast"),
        (np.zeros((4, 5)), ValueError, "broadcast"),
        (np.full((4, 4), np.nan), NumkitError, "non-finite"),
        (1e307 * np.eye(4), NumkitError, "non-finite"),  # -G t passes float range
    ])
    def test_bad_generator_raises_on_every_call(self, r_hat, error, match):
        # an error is never cached: the same call raises again, and a good
        # call after it still predicts
        h_super = hamiltonian_superop(detuning_hamiltonian(0.01))
        rho0 = bloch_to_density([1.0, 0.0, 0.0])
        for _ in range(2):
            with pytest.raises(error, match=match):
                predict_expectations(r_hat, h_super, rho0, [20.0, 40.0])
        (e,) = predict_expectations(np.zeros((4, 4)), h_super, rho0, [20.0])
        assert np.isclose(e.sx, np.cos(0.01 * 20.0), atol=1e-12)
