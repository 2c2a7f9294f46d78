import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvqpt import lindblad, numkit, nvsim, tolerances
from nvqpt.numkit import NumkitError, ObjectiveDiverged, PrincipalLogUndefined

from conftest import THETAS, random_hermitian, record_outputs


class TestEigHermitian:
    def test_diagonal(self):
        res = numkit.eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(res.eigenvalues, [1.0, 3.0])
        # eigenvectors are the standard basis, permuted
        assert np.allclose(np.abs(res.eigenvectors), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        res = numkit.eig_hermitian(sx)
        assert np.allclose(res.eigenvalues, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        m = random_hermitian(rng, 4)
        res = numkit.eig_hermitian(m)
        v, w = res.eigenvectors, res.eigenvalues
        assert np.linalg.norm((v * w) @ v.conj().T - m) <= 1e-10 * max(1, np.linalg.norm(m))
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10

    def test_eigenvalue_sum_is_trace(self, rng):
        for _ in range(10):
            m = random_hermitian(rng, 4)
            res = numkit.eig_hermitian(m)
            assert abs(np.sum(res.eigenvalues) - np.trace(m).real) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(NumkitError):
            numkit.eig_hermitian(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(NumkitError):
            numkit.eig_hermitian(np.array([[np.nan, 0], [0, 1]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumkitError):
            numkit.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("norm", [0.1, 1e6])
    def test_hermitian_check_is_relative(self, rng, norm):
        # the anti-Hermitian part may reach hermitian_input * max(1, |a|):
        # half of that passes, twice that is rejected
        h = random_hermitian(rng, 4)
        h *= norm / np.linalg.norm(h)
        skew = 1j * random_hermitian(rng, 4)
        bound = tolerances.get("hermitian_input") * max(1.0, norm)
        for factor, accepted in ((0.5, True), (2.0, False)):
            a = h + skew * (factor * bound / np.linalg.norm(2 * skew))
            if accepted:
                res = numkit.eig_hermitian(a)
                assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(h), atol=1e-9 * norm)
            else:
                with pytest.raises(NumkitError, match="not Hermitian"):
                    numkit.eig_hermitian(a)

    @pytest.mark.parametrize("m", [[[0.0, 1e200], [0.0, 0.0]], [[1e160, 1e160], [0.0, 1e160]]])
    def test_rejects_non_hermitian_past_norm_overflow(self, m):
        # both Frobenius norms overflow to inf, and inf > 1e-8 * inf is False: the
        # relative test must run on a / max|a_ij|, or these decompose to +-5e199 and
        # [5e159, 1.5e160]
        with pytest.raises(NumkitError, match="not Hermitian"):
            numkit.eig_hermitian(m)

    def test_hermitian_past_norm_overflow_decomposes(self):
        res = numkit.eig_hermitian(1e200 * np.eye(2))
        assert np.array_equal(res.eigenvalues, [1e200, 1e200])
        assert np.linalg.norm(res.eigenvectors.conj().T @ res.eigenvectors - np.eye(2)) <= 1e-15

    @pytest.mark.parametrize("m", [[[0.0, 1.5e308], [-1.5e308, 0.0]],
                                   [[0.0, 1e308], [-1e308, 0.0]]])
    def test_rejects_non_hermitian_near_float_max(self, m):
        # a - a^dag overflowed here, a RuntimeWarning instead of the verdict
        with pytest.raises(NumkitError, match="not Hermitian"):
            numkit.eig_hermitian(m)

    @pytest.mark.parametrize("m, eigenvalues", [
        ([[1e308, 1e308], [1e308, -1e308]], [-math.sqrt(2) * 1e308, math.sqrt(2) * 1e308]),
        ([[0.0, 1.5e308], [1.5e308, 0.0]], [-1.5e308, 1.5e308]),
        (1.5e308 * np.eye(2), [1.5e308, 1.5e308]),
    ])
    def test_hermitian_near_float_max_decomposes(self, m, eigenvalues):
        # (a + a^dag) / 2 overflowed here: a is halved before the sum
        res = numkit.eig_hermitian(m)
        np.testing.assert_allclose(res.eigenvalues, eigenvalues, rtol=1e-15)
        assert np.linalg.norm(res.eigenvectors.conj().T @ res.eigenvectors - np.eye(2)) <= 1e-15

    def test_halving_keeps_the_symmetrized_input(self, rng):
        # a/2 + a^dag/2 is (a + a^dag)/2 bit for bit away from float max and subnormals
        for _ in range(100):
            a = random_hermitian(rng, 4) + 1e-12 * rng.normal(size=(4, 4))
            res = numkit.eig_hermitian(a)
            w, v = np.linalg.eigh((a + a.conj().T) / 2)
            assert np.array_equal(res.eigenvalues, w) and np.array_equal(res.eigenvectors, v)

    def test_rejects_infinite_imaginary_part(self):
        # complex(0, inf): writing 1j * np.inf would give nan + inf j
        m = np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]])
        for f in (numkit.eig_hermitian, numkit.matrix_exp, numkit.matrix_log_principal):
            with pytest.raises(NumkitError, match="non-finite"):
                f(m)


def _normal_with_norm(rng, norm):
    """A random normal 4x4 matrix of the given 1-norm and its exponential by
    the eigenvector route."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    lam = rng.normal(size=4) + 1j * rng.normal(size=4)
    scale = norm / np.abs((q * lam) @ q.conj().T).sum(axis=0).max()
    return (q * (scale * lam)) @ q.conj().T, (q * np.exp(scale * lam)) @ q.conj().T


class TestMatrixExp:
    def test_zero_is_identity_exact(self):
        assert np.array_equal(numkit.matrix_exp(np.zeros((3, 3))), np.eye(3))
        stack = numkit.matrix_exp(np.zeros((5, 3, 3)))
        assert np.array_equal(stack, np.broadcast_to(np.eye(3), (5, 3, 3)))

    def test_diagonal(self):
        out = numkit.matrix_exp(np.diag([-1.0, -2.0]))
        assert np.allclose(out, np.diag([np.exp(-1), np.exp(-2)]))

    def test_nilpotent(self):
        out = numkit.matrix_exp(np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.allclose(out, [[1, 1], [0, 1]])

    def test_matches_eig_route(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, v = np.linalg.eig(m)
        expected = (v * np.exp(w)) @ np.linalg.inv(v)
        assert np.linalg.norm(numkit.matrix_exp(m) - expected) <= 1e-9

    @pytest.mark.parametrize("theta", [1e-9, 0.3, np.pi / 2, np.pi, 5.0, 40.0])
    def test_rotation_closed_form(self, theta):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * sx
        out = numkit.matrix_exp(-1j * theta / 2 * sx)
        assert np.linalg.norm(out - expected) <= 1e-13

    def test_large_norm_runs_squaring(self, rng):
        # normal matrix with |A|_1 = 50, so the Pade step is followed by s = 4 squarings
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        lam = np.array([-3.0 + 20j, 1.0 - 7j, -12.0, 2.5 + 0.5j])
        a = (q * lam) @ q.conj().T
        scale = 50.0 / np.abs(a).sum(axis=0).max()
        a, lam = scale * a, scale * lam
        expected = (q * np.exp(lam)) @ q.conj().T
        out = numkit.matrix_exp(a)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_degree_boundaries_match_eig_route(self, rng, theta, side):
        # just below theta_m runs degree m, just above the next degree (or,
        # past theta_13, one squaring)
        for _ in range(5):
            a, expected = _normal_with_norm(rng, theta * side)
            out = numkit.matrix_exp(a)
            assert np.linalg.norm(out - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_stack_matches_loop(self, rng):
        # 1-norms of about 0.01 to 70 need scaling exponents 0 to 4 on their
        # own; the stack takes the largest for every matrix
        stack = np.array([scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
                          for scale in (1e-3, 0.5, 3.0, 12.0)])
        # 1-norms either side of theta_5: degree 5 alone, 7 in the stack
        straddle = np.array([_normal_with_norm(rng, THETAS[1] * f)[0] for f in (0.9, 1.1)])
        for stack in (stack, straddle):
            out = numkit.matrix_exp(stack)
            assert out.shape == stack.shape
            for m, e in zip(stack, out):
                expected = numkit.matrix_exp(m)
                assert np.linalg.norm(e - expected) <= 1e-14 * np.linalg.norm(expected)
        zeros = numkit.matrix_exp(np.zeros((2, 3, 3)))
        assert np.array_equal(zeros, np.broadcast_to(np.eye(3), (2, 3, 3)))

    def test_inverse_is_exp_of_negative(self, rng):
        for scale in (1e-3, 0.5, 3.0):
            a = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            e_pos, e_neg = numkit.matrix_exp(a), numkit.matrix_exp(-a)
            bound = 1e-13 * np.linalg.norm(e_pos) * np.linalg.norm(e_neg)
            assert np.linalg.norm(e_pos @ e_neg - np.eye(4)) <= bound
        # anti-Hermitian with |A|_1 of a few tens: exp(A) is unitary, and the
        # squarings must not lose the inverse
        a = 10j * random_hermitian(rng, 4)
        prod = numkit.matrix_exp(a) @ numkit.matrix_exp(-a)
        assert np.linalg.norm(prod - np.eye(4)) <= 1e-12

    def test_overflowing_norm_rejected(self):
        # finite entries whose 1-norm is beyond float range: a NumkitError,
        # with no numpy warning (pyproject.toml makes warnings errors)
        for m in (np.full((2, 2), 1e308), np.full((3, 2, 2), 1e308j)):
            with pytest.raises(NumkitError, match="1-norm"):
                numkit.matrix_exp(m)

    def test_squarings_past_budget_rejected(self):
        # each squaring can double the relative error: a 1-norm of 3e8 needs
        # MAX_SQUARINGS = 26 squarings, and its error stays near |A| u = 3e-8,
        # the condition of the phase; 4e8 needs 27 and 1e17 needs 55, each a
        # NumkitError with no numpy warning
        assert numkit.MAX_SQUARINGS == 26
        out = numkit.matrix_exp(3e8j * np.diag([1.0, -1.0]))
        expected = np.diag(np.exp([3e8j, -3e8j]))
        assert np.linalg.norm(out - expected) <= 1e-7 * np.linalg.norm(expected)
        for norm in (4e8, 1e17):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumkitError, match="needs [0-9]+ squarings"):
                    numkit.matrix_exp(norm * 1j * np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("norm", [THETAS[0] / 2, *THETAS, 1.5 * THETAS[-1], 50.0, 200.0])
    def test_real_input_stays_real(self, rng, norm):
        # a float64 input runs the same Pade degree and squarings in real
        # arithmetic: float64 out, within 1e-14 of the complex route, at every
        # degree, in the squaring regime and on a stack
        for _ in range(5):
            m = rng.normal(size=(4, 4))
            m *= norm / np.abs(m).sum(axis=0).max()
            stack = np.array([m, m / 3, -m / 7])
            for a in (m, stack):
                out = numkit.matrix_exp(a)
                expected = numkit.matrix_exp(a.astype(complex))
                assert out.dtype == np.float64 and expected.dtype == np.complex128
                err = np.linalg.norm(out - expected, axis=(-2, -1))
                assert np.all(err <= 1e-14 * np.linalg.norm(expected, axis=(-2, -1)))

    @pytest.mark.parametrize("norm", [THETAS[0] / 2, *THETAS, 50.0])
    def test_complex_input_keeps_the_complex_route(self, rng, norm):
        # bit-equal to the Pade evaluation written out in complex arithmetic,
        # for complex matrices, complex stacks and (cast to complex) integers
        for _ in range(5):
            m = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
            m *= norm / np.abs(m).sum(axis=-2).max()
            for a in (m, m[0]):
                assert np.array_equal(numkit.matrix_exp(a), _complex_pade_exp(a))
        ints = np.array([[0, 1], [-1, 0]])
        assert np.array_equal(numkit.matrix_exp(ints), _complex_pade_exp(ints.astype(complex)))


def _complex_pade_exp(a):
    """matrix_exp's scaling, Pade and squaring steps in complex arithmetic."""
    norm, s = np.abs(a).sum(axis=-2).max(), 0
    for theta, b in numkit._PADE.items():
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        a = a / 2.0**s
    eye = np.eye(a.shape[-1], dtype=complex)
    powers = [a @ a]
    while len(powers) < len(b) // 2 - 1:
        powers.append(powers[-1] @ powers[0])
    u = a @ sum((c * p for c, p in zip(b[3::2], powers)), b[1] * eye)
    v = sum((c * p for c, p in zip(b[2::2], powers)), b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def propagator_at_gap(rng, gap):
    """(A, exp(A)) for a random complex 4x4 A, scaled by bisection so that
    |exp(A) - I|_1 = gap to 1e-12."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a /= np.abs(a).sum(axis=0).max()
    lo, hi = 0.0, 2.0
    while hi - lo > 1e-12 * hi:
        mid = (lo + hi) / 2
        gap_mid = np.abs(numkit.matrix_exp(mid * a) - np.eye(4)).sum(axis=0).max()
        lo, hi = (mid, hi) if gap_mid < gap else (lo, mid)
    return lo * a, numkit.matrix_exp(lo * a)


class TestMatrixLog:
    def test_identity(self):
        assert np.allclose(numkit.matrix_log_principal(np.eye(3)), 0)

    def test_overflowing_norm_rejected(self):
        # the 1-norm is beyond float range: a NumkitError before any numpy
        # warning (pyproject.toml makes warnings errors)
        m = np.array([[1e308, 1e308], [0.0, 1e308]])
        with pytest.raises(NumkitError, match="1-norm"):
            numkit.matrix_log_principal(m)

    @pytest.mark.parametrize("size", [1e160, 1e200])
    def test_entries_past_1e154_rejected_without_warning(self, size):
        # the 1-norm is finite, but det and the round trip's Frobenius norm
        # would overflow: a NumkitError and no numpy warning
        m = size * np.array([[1.0, 1.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumkitError):
                numkit.matrix_log_principal(m)

    def test_gauss_legendre_rule_integrates_monomials(self):
        # 13 nodes integrate x^k exactly on [0, 1] for every k <= 25
        assert len(numkit._GL_NODES) == 13
        k = np.arange(26)
        integrals = numkit._GL_NODES ** k[:, None] @ numkit._GL_WEIGHTS
        assert np.abs(integrals - 1 / (k + 1)).max() <= 1e-15

    def test_diagonal(self):
        out = numkit.matrix_log_principal(np.diag([np.exp(-2.0), np.exp(-3.0)]))
        assert np.allclose(out, np.diag([-2.0, -3.0]))

    def test_round_trip(self, rng):
        # spectrum confined to the strip |Im| < pi
        a = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = numkit.matrix_exp(a)
        assert np.linalg.norm(numkit.matrix_log_principal(m) - a) <= 1e-8

    @pytest.mark.parametrize("gap", [0.24, 0.26, 0.59, 0.61, 1.5])
    def test_round_trip_at_threshold_norms(self, monkeypatch, gap):
        # |P - I|_1 = gap: the 13-point rule alone up to 0.6, square roots above it
        a, p = propagator_at_gap(np.random.default_rng(61), gap)
        assert abs(np.abs(p - np.eye(4)).sum(axis=0).max() - gap) <= 1e-9
        roots = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: roots.append(1) or inv(m))
        out = numkit.matrix_log_principal(p)
        assert bool(roots) == (gap > 0.6)
        assert np.linalg.norm(out - a) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(numkit.matrix_exp(out) - p) <= 1e-14 * np.linalg.norm(p)

    def test_negative_axis_rejected(self):
        with pytest.raises(PrincipalLogUndefined):
            numkit.matrix_log_principal(np.diag([-1.0, 1.0]))

    def test_singular_rejected(self):
        with pytest.raises(PrincipalLogUndefined):
            numkit.matrix_log_principal(np.diag([0.0, 1.0]))

    def test_jordan_block(self):
        out = numkit.matrix_log_principal(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.linalg.norm(out - np.array([[0, 1], [0, 0]])) <= 1e-14

    def test_near_defective_propagator(self):
        # exp([[a, b], [0, a]]) = e^a [[1, b], [0, 1]]: a repeated eigenvalue with
        # a single eigenvector, so no route through an eigenvector basis works
        gen = np.array([[-0.1, 1e-3], [0.0, -0.1]])
        prop = np.exp(-0.1) * np.array([[1.0, 1e-3], [0.0, 1.0]])
        assert np.linalg.norm(numkit.matrix_log_principal(prop) - gen) <= 1e-15

    def test_many_square_roots(self, rng):
        # eigenvalues e^-8, e^(2.5 i) and e^(-1 - 2.5 i): the log takes several
        # square roots before |A^(1/2^k) - I|_1 <= 0.25
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        lam = np.array([-8.0, 2.5j, -2.5j - 1.0])
        m = (q * np.exp(lam)) @ q.T
        expected = (q * lam) @ q.T
        out = numkit.matrix_log_principal(m)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_eigenvalue_near_branch_floor(self):
        # eigenvalue e^-15: without determinant scaling the square roots
        # lose up to 2.6e-10 (relative) here; with it, at most 2.2e-11
        worst = 0.0
        for seed in range(20):
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            lam = np.array([-15.0, 2.5j, -2.5j - 1.0])
            expected = (q * lam) @ q.T
            out = numkit.matrix_log_principal((q * np.exp(lam)) @ q.T)
            worst = max(worst, np.linalg.norm(out - expected) / np.linalg.norm(expected))
        assert worst <= 5e-11


def _rosenbrock(c):
    # 100 (a11 - a00^2)^2 + (1 - a00)^2 as a sum of squares of the components
    # c of a, with its Jacobian; the off-diagonal components are pinned to
    # zero, so the minimum diag(1, 1) is PSD
    jac = np.eye(4)
    jac[:2, :2] = [[-20 * c[0], 10.0], [-1.0, 0.0]]
    return np.array([10 * (c[1] - c[0] ** 2), 1 - c[0], c[2], c[3]]), jac


def _identity_model(residuals):
    """The model (residuals(c), I) of residuals linear in the components c."""
    return lambda c: (residuals(c), np.eye(len(c)))


class TestTriangular:
    def test_equals_index_list_form(self, rng):
        # the strictly lower entries row by row, np.tril_indices(n, -1)'s order
        for n in range(1, 6):
            pairs = [(i, j) for i in range(n) for j in range(i)]
            rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
            for _ in range(20):
                x = rng.normal(size=n * n)
                expected = np.diag(x[:n]).astype(complex)
                expected[rows, cols] = x[n::2] + 1j * x[n + 1::2]
                assert np.array_equal(numkit.triangular_from_params(x, n), expected)


class TestHermitianBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthonormal_hermitian(self, n):
        basis = numkit.hermitian_basis(n)
        assert basis.shape == (n * n, n, n)
        assert np.array_equal(basis, basis.conj().swapaxes(1, 2))
        gram = np.einsum("kij,lij->kl", basis.conj(), basis)
        assert np.allclose(gram, np.eye(n * n), atol=1e-15)

    def test_components_round_trip(self, rng):
        for n in range(1, 5):
            a = random_hermitian(rng, n)
            c = numkit._to_components(a)
            assert np.linalg.norm(np.tensordot(c, numkit.hermitian_basis(n), 1) - a) <= 1e-14
            assert abs(np.linalg.norm(c) - np.linalg.norm(a)) <= 1e-14

    def test_shared_and_read_only(self):
        basis = numkit.hermitian_basis(3)
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 2.0
        assert numkit.hermitian_basis(3) is basis


def assert_model_step_kkt(metric, g, c, y):
    """KKT of the model step: Y PSD, the model gradient G = M (y - c) + g PSD,
    and tr(G Y) = 0."""
    basis = numkit.hermitian_basis(math.isqrt(len(c)))
    ymat = np.tensordot(y, basis, 1)
    gmat = np.tensordot(metric @ (y - c) + g, basis, 1)
    scale = np.linalg.norm(metric) * max(np.linalg.norm(c), np.linalg.norm(y))
    assert np.linalg.eigvalsh(ymat).min() >= -1e-14
    assert np.linalg.eigvalsh(gmat).min() >= -1e-12 * scale
    assert abs(np.trace(gmat @ ymat)) <= 1e-12 * scale * np.linalg.norm(y)


def leaves_the_cone(metric, g, c):
    """Whether the unconstrained minimizer of the model step is not PSD."""
    y = c - np.linalg.solve(metric, g)
    return np.linalg.eigvalsh(np.tensordot(y, numkit.hermitian_basis(math.isqrt(len(c))), 1))[0] < 0


def admm_model_steps(metric, grad, c, rounds=500):
    """The model step psd_model_step solved by over-relaxed ADMM before its Newton
    step (Boyd et al., Found. Trends Mach. Learn. 3, 1 (2011)), batched over a stack
    of constrained problems of one size: (z, stopped) per problem.  Each round solves
    with the cached (metric + rho I)^-1, rho = sqrt(lambda_min lambda_max), and clips
    once; a problem freezes at its last clip z once its primal and dual residuals
    reach 1e-13, relative as in OSQP (Stellato et al., Math. Prog. Comp. 12, 637
    (2020)), and stays unstopped at the round cap."""
    count, m = c.shape
    n = math.isqrt(m)
    basis = numkit.hermitian_basis(n).reshape(m, m)
    lam = np.linalg.eigvalsh(metric)
    rho = np.sqrt(lam[:, :1] * lam[:, -1:])
    inv = np.linalg.inv(metric + rho[:, :, None] * np.eye(m))
    q = np.einsum("kij,kj->ki", metric, c) - grad
    z, u, stopped = c, -grad / rho, np.zeros(count, dtype=bool)
    for _ in range(rounds):
        y = np.einsum("kij,kj->ki", inv, q + rho * (z - u))
        relaxed = 1.8 * y - 0.8 * z
        w, v = np.linalg.eigh(((relaxed + u) @ basis).reshape(count, n, n))
        clip = (v * np.maximum(w, 0.0)[:, None, :]) @ v.conj().swapaxes(1, 2)
        z_new = (clip.reshape(count, m) @ basis.conj().T).real
        u_new = u + relaxed - z_new
        prim, dual = y - z_new, rho * (z_new - z)
        stop = ((np.sum(prim**2, axis=1) <= 1e-26 * np.maximum(np.sum(y**2, axis=1),
                                                               np.sum(z_new**2, axis=1)))
                & (np.sum(dual**2, axis=1) <= 1e-26 * np.maximum(
                    np.sum(q**2, axis=1), rho[:, 0]**2 * np.sum(u_new**2, axis=1))))
        z = np.where(stopped[:, None], z, z_new)
        u = np.where(stopped[:, None], u, u_new)
        stopped |= stop
        if stopped.all():
            break
    return z, stopped


def grid_model_steps():
    """The (metric, grad, c) of every model step in the criterion-05 grid's fits."""
    from test_acceptance import PIPELINE_GRID

    steps, solve = [], numkit.psd_model_step
    schedule = lindblad.TimeSchedule(t1=20.0)

    def recorded(metric, grad, c):
        steps.append((metric, grad, c))
        return solve(metric, grad, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numkit, "psd_model_step", recorded)
        for t1_ns, t2_ns, delta in PIPELINE_GRID:
            cfg = nvsim.SimConfig(t1_ns=t1_ns, t2_ns=t2_ns, detuning=delta, shots=0)
            outputs = record_outputs(nvsim.run_experiment(cfg, schedule), schedule.times())
            lindblad.analyze(outputs, nvsim.true_generator(cfg)[0], schedule)
    return steps


class TestPsdModelStep:
    def test_identity_metric_is_the_clip(self, rng):
        # (y - c)^2 / 2 + g (y - c) is |y - (c - g)|^2 / 2 up to a constant
        for n in (2, 3):
            for _ in range(20):
                c, g = numkit._to_components(random_hermitian(rng, n)), rng.normal(size=n * n)
                oracle = numkit._to_components(numkit.clip_negative_eigs(
                    np.tensordot(c - g, numkit.hermitian_basis(n), 1)))
                y, converged = numkit.psd_model_step(np.eye(n * n), g, c)
                assert converged and np.linalg.norm(y - oracle) <= 1e-12

    def test_optimality(self, rng):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
            metric = (q * rng.uniform(1.0, 10.0, 9)) @ q.T
            c, g = rng.normal(size=9), rng.normal(size=9)
            y, converged = numkit.psd_model_step(metric, g, c)
            assert converged
            assert_model_step_kkt(metric, g, c, y)

    def test_halved_steps_stop_a_newton_cycle(self):
        # on this metric of condition number 1e6 (one of 47 in 3,000 such seeds),
        # full Newton steps on F cycle; halving them on the envelope converges
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        metric = (q * np.logspace(0, 6, 4)) @ q.T
        c, g = rng.normal(size=4), rng.normal(size=4)
        m, h = metric / np.linalg.norm(metric), g / np.linalg.norm(metric)
        y = numkit._to_components(numkit.clip_negative_eigs(
            np.tensordot(c - np.linalg.solve(metric, g), numkit.hermitian_basis(2), 1)))
        for _ in range(numkit.MAX_NEWTON_STEPS):  # full steps from the same start
            w, v = np.linalg.eigh(np.tensordot(y - m @ (y - c) - h, numkit.hermitian_basis(2), 1))
            f = y - numkit._to_components(numkit._clip_eigs(w, v))
            jac = numkit.psd_projection_jacobian(w, v)
            y = y - np.linalg.solve(np.eye(4) - jac @ (np.eye(4) - m), f)
        assert f @ f > 1e-6
        y, converged = numkit.psd_model_step(metric, g, c)
        assert converged
        assert_model_step_kkt(metric, g, c, y)

    def test_psd_unconstrained_step_is_taken(self, rng):
        metric, c = np.diag(rng.uniform(1.0, 2.0, 9)), numkit._to_components(np.eye(3))
        g = 0.01 * rng.normal(size=9)
        y, converged = numkit.psd_model_step(metric, g, c)
        assert converged and np.allclose(y, c - g / np.diag(metric), rtol=0, atol=1e-15)


class TestNewtonAgainstAdmm:
    """psd_model_step against the ADMM solve it replaced, on constrained problems:
    seeded metrics of condition number 1 to 1e6 (n = 2 and 3), and every
    constrained model step of the criterion-05 grid's fits."""

    @staticmethod
    def constrained(rng, n, count):
        m, problems = n * n, []
        while len(problems) < count:
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            cond = 10 ** rng.uniform(0, 6)
            lam = cond ** rng.uniform(0, 1, m)
            lam[:2] = 1.0, cond
            metric, c, g = (q * lam) @ q.T, rng.normal(size=m), rng.normal(size=m)
            if leaves_the_cone(metric, g, c):
                problems.append((metric, g, c))
        return problems

    def test_matches_admm(self):
        rng = np.random.default_rng(2010)
        grid = [step for step in grid_model_steps() if leaves_the_cone(*step)]
        assert len(grid) >= 5
        compared = 0
        for problems in (self.constrained(rng, 2, 360), self.constrained(rng, 3, 360), grid):
            metric, g, c = (np.array(x) for x in zip(*problems))
            reference, stopped = admm_model_steps(metric, g, c)
            for problem, z, z_stopped in zip(problems, reference, stopped):
                y, converged = numkit.psd_model_step(*problem)
                assert converged
                assert_model_step_kkt(*problem, y)
                # ADMM stalls on some metrics of condition number past 1e4, within 3% of
                # the solution at its cap; where it stopped on its residuals, it is the
                # reference
                if z_stopped:
                    assert np.linalg.norm(y - z) <= 1e-9 * max(1.0, np.linalg.norm(y))
            compared += int(stopped.sum())
        assert stopped.all()  # every grid step compares
        assert compared >= 500


class TestLevenbergMarquardt:
    def test_parabola(self):
        a, f, _, converged = numkit.levenberg_marquardt(
            _identity_model(lambda c: c - 2), np.zeros((1, 1)))
        assert abs(a[0, 0] - 2) <= 1e-8
        assert f <= 1e-16
        assert converged

    def test_rosenbrock(self):
        a, f, _, converged = numkit.levenberg_marquardt(
            _rosenbrock, np.diag([-1.2, 1.0]))  # clipped to diag(0, 1)
        assert f < 1e-12
        assert np.allclose(a, np.eye(2), atol=1e-6)
        assert converged

    def test_clips_to_nearest_psd(self, rng):
        # min |a - T|_F over PSD a is the eigenvalue clip of T; the fit stops
        # once the model predicts a decrease below 1e-15 of the cost, so the
        # point is only as close as the cost can tell (|a - a*|^2 ~ 1e-15 f),
        # and the bound scales with sqrt(f) as the targets grow
        for scale in np.repeat([1, 10, 100], 10):
            target = scale * random_hermitian(rng, 3)
            a, f, _, converged = numkit.levenberg_marquardt(
                _identity_model(lambda c: c - numkit._to_components(target)), np.eye(3))
            w = np.linalg.eigvalsh(target)
            assert f <= float(w[w < 0] @ w[w < 0]) * (1 + 1e-14)
            assert np.linalg.norm(a - numkit.clip_negative_eigs(target)) <= 1e-7 * max(
                1.0, math.sqrt(f))
            assert converged

    def test_constant_objective_takes_one_jacobian(self):
        a0 = np.diag([1.0, 2.0, 3.0])
        a, f, evals, converged = numkit.levenberg_marquardt(
            lambda c: (np.array([7.0, 1.0]), np.zeros((2, 9))), a0)
        assert np.allclose(a, a0, rtol=0, atol=1e-15)
        assert f == 50.0
        assert evals == 1  # the start point, with its Jacobian
        assert converged  # a zero gradient gives a zero step

    def test_never_worse_than_start(self, rng):
        def bumpy(c):
            return (np.concatenate([c, [np.sin(5 * c[0])]]),
                    np.vstack([np.eye(4), [5 * np.cos(5 * c[0]), 0.0, 0.0, 0.0]]))

        for _ in range(5):
            a0 = numkit.clip_negative_eigs(random_hermitian(rng, 2))
            _, f, _, _ = numkit.levenberg_marquardt(bumpy, a0)
            assert f <= float(np.sum(bumpy(numkit._to_components(a0))[0] ** 2))

    def test_zero_parameter_moves_on_exact_jacobian(self):
        # the start a = 0 sits on the boundary of the cone
        a, f, _, _ = numkit.levenberg_marquardt(
            _identity_model(lambda c: c - 0.3), np.zeros((1, 1)))
        assert abs(a[0, 0] - 0.3) <= 1e-8

    def test_diverging_objective(self):
        with pytest.raises(ObjectiveDiverged):
            numkit.levenberg_marquardt(_identity_model(lambda a: np.array([np.inf])),
                                       np.zeros((1, 1)))

    def test_budget_charges_each_evaluation(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(1)
            return _rosenbrock(c)

        monkeypatch.setattr(numkit, "MAX_EVALUATIONS", 1)
        a, f, evals, converged = numkit.levenberg_marquardt(counted, np.diag([-1.2, 1.0]))
        assert evals == len(calls) == 1  # the start, and no trial step
        assert f > 1e-6  # stopped on the budget, far from the minimum
        assert not converged

    def test_each_point_is_evaluated_once(self):
        # an accepted trial brings its own Jacobian, so no point is revisited
        points = []

        def recorded(c):
            points.append(c.tobytes())
            return _rosenbrock(c)

        _, f, evals, converged = numkit.levenberg_marquardt(recorded, np.diag([-1.2, 1.0]))
        assert converged and f < 1e-12
        assert evals == len(points) == len(set(points))

    def test_rejected_step_raises_damping(self):
        # r = c^2 - 4 from c = 0.01: the undamped Gauss-Newton step lands near
        # c = 200, whose cost far exceeds the start's, so the step is refused
        # and lam raised before the fit reaches c = 2
        costs = []

        def recorded(c):
            costs.append(float((c[0] ** 2 - 4) ** 2))
            return np.array([c[0] ** 2 - 4]), np.array([[2 * c[0]]])

        a, _, _, converged = numkit.levenberg_marquardt(recorded, np.array([[0.01]]))
        assert max(costs[1:]) > costs[0]
        assert converged
        assert abs(a[0, 0] - 2) <= 1e-8

    def test_rejects_non_hermitian_start(self):
        for a0 in (np.zeros((2, 3)), np.array([[0.0, 1.0], [0.0, 0.0]])):
            with pytest.raises(NumkitError):
                numkit.levenberg_marquardt(_identity_model(lambda c: c), a0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_takes_a_real_component_vector(self, rng, n):
        # the model sees the coordinates of its Jacobian: n^2 real components
        seen, target = [], numkit._to_components(random_hermitian(rng, n))

        def recorded(c):
            seen.append(c)
            return c - target, np.eye(n * n)

        numkit.levenberg_marquardt(recorded, np.eye(n))
        assert len(seen) >= 2
        for c in seen:
            assert type(c) is np.ndarray and c.dtype == np.float64 and c.shape == (n * n,)


def _richardson(f, t1):
    """-R_hat from generator_bch_estimate with no Hamiltonian: F'(0) extrapolated
    from F(t1), F(2 t1), F(4 t1) by the closed-form Richardson weights (F(0) = I)."""
    schedule = lindblad.TimeSchedule(t1=t1)
    props = [f(t) for t in schedule.times()]
    return -lindblad.generator_bch_estimate(props, np.zeros((4, 4)), schedule)


class TestRichardson:
    def test_linear_exact(self, rng):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = _richardson(lambda t: np.eye(4) + 3.0 * t * b, 0.1)
        assert np.linalg.norm(out - 3.0 * b) < 1e-12 * np.linalg.norm(b)

    @given(st.tuples(*[st.floats(-2, 2) for _ in range(3)]))
    @settings(max_examples=30, deadline=None)
    def test_cubic_exact(self, coeffs):
        shapes = np.random.default_rng(0).normal(size=(3, 4, 4))
        b, c, d = (x * m for x, m in zip(coeffs, shapes))
        out = _richardson(lambda t: np.eye(4) + b * t + c * t**2 + d * t**3, 0.1)
        assert np.linalg.norm(out - b) < 1e-10

    def test_exponential(self):
        # analytic derivative of e^{3t} at 0 is 3; truncation is O(t1^3)
        out = _richardson(lambda t: np.exp(3 * t) * np.eye(4), 0.01)
        assert np.linalg.norm(out - 3.0 * np.eye(4)) < 1e-4

    def test_matrix_exponential(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = _richardson(lambda t: numkit.matrix_exp(a * t), 0.01)
        assert np.linalg.norm(out - a) <= 1e-4 * np.linalg.norm(a)
