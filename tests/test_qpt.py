import numpy as np
import pytest

from nvqpt import lindblad, tolerances
from nvqpt.numkit import eig_hermitian
from nvqpt.qpt import (
    AffineMap,
    ProcessError,
    affine_to_chi,
    apply_chi,
    chi_from_outputs,
    chi_from_superop,
    chi_to_affine,
    chi_to_choi,
    ellipsoid_samples,
    fibonacci_sphere,
    input_states,
    jamiolkowski_state,
    kraus_from_chi,
    matrix_unit_images,
    matrix_units,
    cptp_verdict,
    ptm,
    superop_from_chi,
    tp_defect,
    tp_sum,
    unphysicality_norms,
)
from nvqpt.qstate import IDENTITY_2, PAULIS, SIGMA_X, SIGMA_Z, bloch_to_density

from conftest import density_to_bloch, random_hermitian

CHI_IDENTITY = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)


def kraus_channel(kraus):
    def channel(rho):
        return sum(e @ rho @ e.conj().T for e in kraus)

    return channel


def chi_of_kraus(kraus):
    return chi_from_outputs([kraus_channel(kraus)(s) for s in input_states()])


def dephasing_kraus(p):
    return [np.sqrt(1 - p) * IDENTITY_2, np.sqrt(p) * SIGMA_Z]


def amplitude_damping_kraus(gamma):
    e0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    e1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return [e0, e1]


def random_channel_kraus(rng):
    """Random CPTP channel from a Haar-ish 4x2 isometry."""
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    q, _ = np.linalg.qr(g)
    return [q[0:2, :], q[2:4, :]]


def build_beta():
    """The paper's linear-inversion tensor: row (j, k), column (m, n) holds
    the coefficient of matrix unit k in A_m rho_j A_n^dag, with A the
    matrix units and rho_j the canonical inputs."""
    beta = np.zeros((16, 16), dtype=complex)
    for j, rho in enumerate(input_states()):
        for m, am in enumerate(matrix_units()):
            for n, an in enumerate(matrix_units()):
                beta[4 * j: 4 * j + 4, 4 * m + n] = (am @ rho @ an.conj().T).reshape(4)
    return beta


def chi_by_inversion(outputs):
    """chi = reshape(pinv(beta) . vec(lambda)), lambda's row j the entries of
    output j."""
    lam = np.array([np.asarray(o, dtype=complex).reshape(4) for o in outputs])
    return (np.linalg.pinv(build_beta()) @ lam.reshape(16)).reshape(4, 4)


def affine_by_definition(chi):
    """Push the Bloch basis through apply_chi to read off (E | t)."""
    t = density_to_bloch(apply_chi(chi, bloch_to_density([0.0, 0.0, 0.0])))
    m = np.eye(4)
    m[1:, 0] = t
    m[1:, 1:] = np.column_stack([
        density_to_bloch(apply_chi(chi, bloch_to_density(r))) - t for r in np.eye(3)
    ])
    return AffineMap(m)


def noisy_outputs(rng, scale=0.05):
    """Outputs of a random channel plus Hermitian noise: unphysical in general."""
    outputs = [kraus_channel(random_channel_kraus(rng))(s) for s in input_states()]
    noise = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    return [o + scale * (h + h.conj().T) for o, h in zip(outputs, noise)]


class TestBases:
    def test_matrix_units_order(self):
        units = matrix_units()
        assert np.array_equal(units[0], [[1, 0], [0, 0]])
        assert np.array_equal(units[1], [[0, 1], [0, 0]])
        assert np.array_equal(units[2], [[0, 0], [1, 0]])
        assert np.array_equal(units[3], [[0, 0], [0, 1]])

    def test_input_states(self):
        s = input_states()
        assert np.allclose(s[0], [[1, 0], [0, 0]])
        assert np.allclose(s[1], [[0, 0], [0, 1]])
        assert np.allclose(s[2], np.ones((2, 2)) / 2)
        assert np.allclose(s[3], [[0.5, -0.5j], [0.5j, 0.5]])


class TestBeta:
    def test_entry_alphabet(self):
        beta = build_beta()
        allowed = {0, 1, 0.5}
        for v in beta.flatten():
            assert round(abs(v.real), 12) in allowed
            assert round(abs(v.imag), 12) in allowed

    def test_full_rank(self):
        assert np.linalg.matrix_rank(build_beta()) == 16

    def test_identity_channel_inverts(self):
        chi = chi_from_outputs(input_states())
        assert np.allclose(chi, CHI_IDENTITY, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.0, 0.05])
    def test_matches_linear_inversion(self, rng, scale):
        for _ in range(20):
            outputs = noisy_outputs(rng, scale)
            assert np.abs(chi_from_outputs(outputs) - chi_by_inversion(outputs)).max() <= 1e-12


class TestLambda:
    def test_wrong_count_rejected(self):
        with pytest.raises(ProcessError):
            chi_from_outputs(input_states()[:3])

    def test_matrix_unit_images_identity(self):
        images = matrix_unit_images(input_states())
        for got, want in zip(images, matrix_units()):
            assert np.allclose(got, want, atol=1e-12)

    def test_matrix_unit_images_linearity(self, rng):
        kraus = random_channel_kraus(rng)
        channel = kraus_channel(kraus)
        images = matrix_unit_images([channel(s) for s in input_states()])
        for got, u in zip(images, matrix_units()):
            assert np.allclose(got, channel(u), atol=1e-10)


class TestChi:
    def test_unitary_z(self):
        chi = chi_of_kraus([SIGMA_Z])
        assert np.allclose(chi, np.outer([1, 0, 0, -1], [1, 0, 0, -1]), atol=1e-12)

    def test_bit_flip(self):
        chi = chi_of_kraus([SIGMA_X])
        assert np.allclose(chi, np.outer([0, 1, 1, 0], [0, 1, 1, 0]), atol=1e-12)

    def test_apply_chi_matches_kraus(self, rng):
        kraus = random_channel_kraus(rng)
        chi = chi_of_kraus(kraus)
        channel = kraus_channel(kraus)
        for s in input_states():
            assert np.allclose(apply_chi(chi, s), channel(s), atol=1e-10)

    def test_chi_is_hermitian_psd_for_channels(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        assert np.linalg.norm(chi - chi.conj().T) < 1e-10
        assert np.linalg.eigvalsh(chi).min() > -1e-10


class TestKraus:
    def test_round_trip(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        ks = kraus_from_chi(chi)
        for s in input_states():
            assert np.allclose(ks.apply(s), apply_chi(chi, s), atol=1e-9)
        assert ks.completeness_defect() < 1e-9

    def test_pure_channel_single_operator(self):
        ks = kraus_from_chi(CHI_IDENTITY)
        assert len(ks.operators) == 1
        assert np.allclose(np.abs(ks.operators[0]), np.eye(2))

    def test_unphysical_rejected(self):
        chi = CHI_IDENTITY.copy()
        chi[1, 1] = -0.2
        with pytest.raises(ProcessError, match="not completely positive"):
            kraus_from_chi(chi)

    @pytest.mark.parametrize("e, cp", [(-5e-9, False), (-5e-10, True)])
    def test_floor_is_the_cptp_verdicts(self, e, cp):
        # CHI_IDENTITY's eigenvalues are (0, 0, 0, 2); chi[1, 1] = e adds the eigenvalue e
        chi = CHI_IDENTITY.copy()
        chi[1, 1] = e
        assert cptp_verdict(chi)[2] is cp
        if cp:
            assert len(kraus_from_chi(chi).operators) == 1
        else:
            with pytest.raises(ProcessError, match="not completely positive"):
                kraus_from_chi(chi)

    def test_cut_off_is_the_lindblad_operators(self):
        # 7e-13 sits above 1e-12 of the largest eigenvalue, 0.5, and both keep it
        kraus = kraus_from_chi(np.diag([0.5, 7e-13, 0.0, 0.0])).operators
        assert len(kraus) == len(lindblad.lindblads_from_gks(np.diag([0.5, 7e-13, 0.0])).operators)
        assert len(kraus) == 2

    def test_largest_first(self, rng):
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            norms = [np.linalg.norm(e) for e in kraus_from_chi(g @ g.conj().T).operators]
            assert len(norms) == 4 and norms == sorted(norms, reverse=True)


class TestAffine:
    def test_first_row_enforced(self):
        m = np.eye(4)
        m[0, 1] = 0.1
        with pytest.raises(ProcessError):
            AffineMap(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        m = np.eye(4)
        m[2, 3] = value
        with pytest.raises(ProcessError):
            AffineMap(m)

    def test_identity_channel(self):
        aff = chi_to_affine(CHI_IDENTITY)
        assert np.allclose(aff.matrix, np.eye(4), atol=1e-12)

    def test_dephasing_closed_form(self):
        p = 0.3
        chi = chi_of_kraus(dephasing_kraus(p))
        aff = chi_to_affine(chi)
        assert np.allclose(aff.linear, np.diag([1 - 2 * p, 1 - 2 * p, 1.0]), atol=1e-10)
        assert np.allclose(aff.translation, 0, atol=1e-10)

    def test_amplitude_damping_closed_form(self):
        g = 0.25
        chi = chi_of_kraus(amplitude_damping_kraus(g))
        aff = chi_to_affine(chi)
        s = np.sqrt(1 - g)
        assert np.allclose(aff.linear, np.diag([s, s, 1 - g]), atol=1e-10)
        assert np.allclose(aff.translation, [0, 0, g], atol=1e-10)

    def test_affine_round_trip(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        aff = chi_to_affine(chi)
        assert np.allclose(affine_to_chi(aff), chi, atol=1e-9)

    @pytest.mark.parametrize("scale", [0.0, 0.05])
    def test_matches_bloch_definition(self, rng, scale):
        for _ in range(20):
            chi = chi_from_outputs(noisy_outputs(rng, scale))
            chi = (chi + chi.conj().T) / 2
            aff = affine_by_definition(chi)
            assert np.abs(chi_to_affine(chi).matrix - aff.matrix).max() <= 1e-12
            # the one Hermitian, trace-preserving chi with this Bloch action
            back = affine_to_chi(aff)
            assert np.abs(back - back.conj().T).max() <= 1e-12
            assert tp_defect(back) <= 1e-12
            assert np.abs(affine_by_definition(back).matrix - aff.matrix).max() <= 1e-12

    def test_apply(self):
        aff = AffineMap(np.array([[1, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.5, 0],
                                 [0.5, 0, 0, 0.5]]))  # E = I/2, t = (0, 0, 1/2)
        assert np.allclose(aff.apply([0, 0, 1]), [0, 0, 1.0])
        assert np.allclose(aff.apply([0, 0, -1]), [0, 0, 0.0])


class TestSuperopAndPtm:
    def test_chi_from_superop_inverts_superop_from_chi(self, rng):
        for _ in range(50):
            chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.array_equal(chi_from_superop(superop_from_chi(chi)), chi)

    def test_superop_from_chi_matches_channel_action(self, rng):
        # any Hermitian chi, physical or not: the realignment is the channel's action
        for k in range(120):
            chi = random_hermitian(rng, 4) * 10.0 ** (k % 3 - 1)
            oracle = lindblad.superop_from_action(lambda m: apply_chi(chi, m))
            assert np.abs(superop_from_chi(chi) - oracle).max() <= 1e-14

    @staticmethod
    def _ptm_by_definition(superop):
        """R_mn = tr(sigma_m S(sigma_n)) / 2 over (I, X, Y, Z), S acting on column stacks."""
        paulis = (IDENTITY_2, *PAULIS)
        return np.array([[np.trace(sm @ lindblad.devectorize(superop @ lindblad.vectorize(sn))) / 2
                          for sn in paulis] for sm in paulis])

    def test_ptm_matches_definition(self, rng):
        # 50 single superoperators, then a (3, 4, 4) stack
        for shape in [(4, 4)] * 50 + [(3, 4, 4)]:
            s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            want = np.array([self._ptm_by_definition(x) for x in s.reshape(-1, 4, 4)])
            assert np.abs(ptm(s) - want.reshape(shape)).max() <= 1e-14


class TestCptpVerdict:
    def test_reports_eigenvalue_and_defect(self, rng):
        chi = random_hermitian(rng, 4)
        min_eig, defect, cptp = cptp_verdict(chi)
        assert min_eig == eig_hermitian(chi).eigenvalues[0]
        assert defect == tp_defect(chi)
        assert not cptp

    def test_min_eig_floor_from_both_sides(self):
        floor = tolerances.get("min_eig_floor")
        # CHI_IDENTITY has eigenvalues (0, 0, 0, 2); diag(0, m, m, 0) moves two
        # zeros to m and shifts tp_sum by m I, far below tp_defect_max
        for m, expected in ((floor / 2, True), (2 * floor, False)):
            min_eig, defect, cptp = cptp_verdict(CHI_IDENTITY + np.diag([0, m, m, 0]))
            assert min_eig == pytest.approx(m, rel=1e-6)
            assert defect <= 1e-8
            assert cptp is expected

    def test_tp_defect_max_from_both_sides(self):
        tp_max = tolerances.get("tp_defect_max")
        # s CHI_IDENTITY keeps the eigenvalues (0, 0, 0, 2s) and has tp_sum s I,
        # a defect of sqrt(2) |s - 1|
        for defect_wanted, expected in ((tp_max / 2, True), (2 * tp_max, False)):
            s = 1 + defect_wanted / np.sqrt(2)
            min_eig, defect, cptp = cptp_verdict(s * CHI_IDENTITY)
            assert min_eig >= tolerances.get("min_eig_floor")
            assert defect == pytest.approx(defect_wanted, rel=1e-9)
            assert cptp is expected


class TestChoi:
    def test_choi_equals_chi_in_normal_basis(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        assert np.allclose(chi_to_choi(chi), chi, atol=1e-10)

    def test_jamiolkowski_is_a_state(self, rng):
        rho = jamiolkowski_state(chi_of_kraus(random_channel_kraus(rng)))
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-10)
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-10


class TestTracePreservation:
    def test_tp_sum_identity_for_channel(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        assert np.allclose(tp_sum(chi), np.eye(2), atol=1e-10)
        assert tp_defect(chi) < 1e-10

    def test_tp_sum_matches_definition(self, rng):
        chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        units = matrix_units()
        direct = sum(
            chi[m, n] * units[n].conj().T @ units[m]
            for m in range(4)
            for n in range(4)
        )
        assert np.allclose(tp_sum(chi), direct, atol=1e-12)

    def test_tp_sum_equals_einsum_form(self, rng):
        # S[a, b] = sum_i chi[2i+b, 2i+a], summed the same way
        for _ in range(100):
            chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert np.array_equal(tp_sum(chi), np.einsum("ibia->ab", chi.reshape(2, 2, 2, 2)))

    def test_defect_detects_leakage(self):
        assert tp_defect(0.9 * CHI_IDENTITY) > 0.1


class TestNorms:
    def test_diagonal_closed_form(self):
        chi = np.diag([0.3, 0.0, 0.0, -0.4]).astype(complex)
        norms = unphysicality_norms(chi, np.zeros((4, 4)))
        assert np.isclose(norms["p1"], 0.4)
        assert np.isclose(norms["p2"], 0.4)
        assert np.isclose(norms["fro"], 0.5)
        assert np.isclose(norms["d_pro"], 0.35)

    def test_zero_for_equal(self, rng):
        chi = chi_of_kraus(random_channel_kraus(rng))
        norms = unphysicality_norms(chi, chi)
        assert all(v == 0 for v in norms.values())

    def test_norm_ordering(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        norms = unphysicality_norms(a, np.zeros((4, 4)))
        # spectral <= Frobenius <= Schatten-1 = 2 * d_pro
        assert norms["p2"] <= norms["fro"] + 1e-12
        assert norms["fro"] <= 2 * norms["d_pro"] + 1e-12


class TestEllipsoid:
    def test_sphere_points_on_unit_sphere(self):
        pts = fibonacci_sphere(200)
        assert pts.shape == (200, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_sphere_deterministic(self):
        assert np.array_equal(fibonacci_sphere(50), fibonacci_sphere(50))

    def test_sphere_rejects_zero(self):
        with pytest.raises(ProcessError):
            fibonacci_sphere(0)

    def test_identity_map_no_violations(self):
        aff = AffineMap(np.eye(4))
        _, outs, violation = ellipsoid_samples(aff, 100)
        assert not violation.any()
        assert np.allclose(np.linalg.norm(outs, axis=1), 1.0, atol=1e-12)

    def test_translation_flags_protrusion(self):
        aff = AffineMap(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                 [0.2, 0, 0, 1]]))  # E = I, t = (0, 0, 0.2)
        _, outs, violation = ellipsoid_samples(aff, 100)
        assert violation.any()
        assert not violation.all()
        assert np.array_equal(violation, np.linalg.norm(outs, axis=1) > 1 + 1e-9)
