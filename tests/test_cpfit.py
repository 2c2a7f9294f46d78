import numpy as np
import pytest

from nvqpt import cpfit, qpt, reference, tolerances
from nvqpt.cpfit import (
    chi_from_params,
    clip_negative_eigs,
    project_to_cp,
    tp_project,
)
from nvqpt.numkit import NumkitError, _clip_eigs, triangular_from_params

from conftest import random_hermitian

CHI_IDENTITY = np.outer([1, 0, 0, 1], [1, 0, 0, 1]).astype(complex)


class TestParameterization:
    def test_matrix_is_lower_triangular(self, rng):
        t = rng.normal(size=16)
        m = triangular_from_params(t, 4)
        assert np.allclose(np.triu(m, 1), 0)
        # real diagonal first, then Re/Im of the strictly lower entries row by
        # row, np.tril_indices(4, -1)'s order
        assert np.array_equal(np.diag(m).real, t[:4])
        low = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
        assert np.array_equal([m[ij] for ij in low], t[4::2] + 1j * t[5::2])

    def test_diagonal_is_real(self, rng):
        m = triangular_from_params(rng.normal(size=16), 4)
        assert np.allclose(np.diag(m).imag, 0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            triangular_from_params(np.zeros(15), 4)

    def test_chi_always_psd(self, rng):
        for _ in range(50):
            chi = chi_from_params(rng.normal(size=16))
            assert np.linalg.norm(chi - chi.conj().T) < 1e-12
            assert np.linalg.eigvalsh(chi).min() >= -1e-12


class TestClipAndStart:
    def test_clip_leaves_psd_alone(self):
        assert np.allclose(clip_negative_eigs(CHI_IDENTITY), CHI_IDENTITY)

    def test_clip_removes_negative_part(self):
        chi = np.diag([1.0, -0.3, 0.5, 0.0]).astype(complex)
        clipped = clip_negative_eigs(chi)
        assert np.allclose(clipped, np.diag([1.0, 0.0, 0.5, 0.0]))

    def test_start_reproduces_chi(self, rng):
        # a PSD input is its own eigenvalue clip, the projection's start
        chi = chi_from_params(rng.normal(size=16))
        assert np.linalg.norm(clip_negative_eigs(chi) - chi) < 1e-8


class TestUncheckedSteps:
    """project_to_cp checks its input once and runs each Dykstra step on
    the unchecked clip; the results must equal the loop that checks every
    step, bit for bit."""

    @staticmethod
    def checked_dykstra(chi):
        chi = np.asarray(chi, dtype=complex)
        gap_tol = cpfit.CONVERGENCE_GAP * max(1.0, float(np.linalg.norm(chi)))
        psd = clip_negative_eigs(chi)
        correction = chi - psd
        for iterations in range(1, cpfit.MAX_ITERATIONS + 1):
            chi_tilde = tp_project(psd)
            psd = clip_negative_eigs(chi_tilde + correction)
            correction = chi_tilde + correction - psd
            converged = float(np.linalg.norm(chi_tilde - psd)) <= gap_tol
            if converged:
                break
        return chi_tilde, iterations, converged

    def assert_equal_to_checked(self, chi):
        result = project_to_cp(chi)
        chi_tilde, iterations, converged = self.checked_dykstra(chi)
        assert np.array_equal(result.chi_tilde, chi_tilde)
        assert (result.iterations, result.converged) == (iterations, converged)
        return result

    @staticmethod
    def unphysical_chis(rng, count):
        """Reference processes plus Hermitian noise, kept when a negative
        eigenvalue makes them unphysical."""
        base = [qpt.affine_to_chi(a)
                for a in reference.affine_experimental(reference.load()).values()]
        chis = []
        while len(chis) < count:
            chi = base[len(chis) % 3] + rng.uniform(0.01, 0.4) * random_hermitian(rng, 4)
            if np.linalg.eigvalsh(chi)[0] < 0:
                chis.append(chi)
        return base, chis

    def test_equals_checked_steps(self, rng):
        base, chis = self.unphysical_chis(rng, 1000)
        steps = [self.assert_equal_to_checked(chi).iterations for chi in base + chis]
        assert steps[:3] == [23, 25, 22] and max(steps) > 30

    def test_budget_stop_equals_checked_steps(self, monkeypatch, rng):
        monkeypatch.setattr(cpfit, "MAX_ITERATIONS", 5)
        for chi in self.unphysical_chis(rng, 20)[1]:
            result = self.assert_equal_to_checked(chi)
            assert result.iterations == 5 and not result.converged and not result.success

    def test_input_is_still_checked(self):
        bad = CHI_IDENTITY.copy()
        bad[0, 3] = np.nan
        with pytest.raises(NumkitError, match="non-finite"):
            project_to_cp(bad)
        # an anti-Hermitian part twice the hermitian_input bound
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 3], skew[3, 0] = 1.0, -1.0
        bound = tolerances.get("hermitian_input") * np.linalg.norm(CHI_IDENTITY)
        with pytest.raises(NumkitError, match="not Hermitian"):
            project_to_cp(CHI_IDENTITY + bound * skew / np.linalg.norm(skew))

    def test_clip_equals_core(self, rng):
        for scale in (1e-6, 1.0, 1e3):
            for _ in range(100):
                h = scale * random_hermitian(rng, 4)
                core = _clip_eigs(*np.linalg.eigh((h + h.conj().T) / 2))
                assert np.array_equal(clip_negative_eigs(h), core)


class TestTraceProjection:
    def test_lands_on_trace_preserving_set(self, rng):
        chi = chi_from_params(rng.normal(size=16))
        assert qpt.tp_defect(tp_project(chi)) < 1e-12

    def test_fixes_trace_preserving_input(self):
        assert np.allclose(tp_project(CHI_IDENTITY), CHI_IDENTITY)

    def test_is_orthogonal(self, rng):
        # the move is normal to the affine set: orthogonal to any
        # difference of two trace-preserving matrices
        a = tp_project(chi_from_params(rng.normal(size=16)))
        b = tp_project(chi_from_params(rng.normal(size=16)))
        chi = chi_from_params(rng.normal(size=16))
        move = chi - tp_project(chi)
        assert abs(np.vdot(move, a - b)) < 1e-10

    def test_equals_kronecker_form(self, rng):
        # the in-place shift of the two diagonal blocks is exactly
        # chi - I (x) shift, and leaves its input alone
        for _ in range(100):
            chi = random_hermitian(rng, 4)
            before = chi.copy()
            shift = (qpt.tp_sum(chi) - np.eye(2)).T / 2
            assert np.array_equal(tp_project(chi), chi - np.kron(np.eye(2), shift))
            assert np.array_equal(chi, before)


class TestProjection:
    def test_cptp_input_is_fixed_point(self):
        result = project_to_cp(CHI_IDENTITY)
        assert result.success
        assert result.frobenius_distance < 1e-3
        assert result.tp_defect < 1e-3
        assert result.min_eigenvalue >= -1e-9

    def test_repairs_negative_eigenvalue(self):
        chi = CHI_IDENTITY.copy()
        chi[1, 1] = -0.05
        chi[2, 2] = -0.05
        result = project_to_cp(chi)
        assert result.success
        assert result.min_eigenvalue >= -1e-9
        assert result.tp_defect <= 1e-3
        # the clip is already trace-preserving here, so the repair stops at it
        assert result.frobenius_distance <= np.linalg.norm(chi - clip_negative_eigs(chi)) + 1e-6

    def test_failure_reported_not_hidden(self, monkeypatch, rng):
        # one step of a slightly perturbed identity channel already meets
        # both thresholds but has not converged: the budget stop still fails
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = CHI_IDENTITY + 1e-10 * (h + h.conj().T)
        monkeypatch.setattr(cpfit, "MAX_ITERATIONS", 1)
        result = project_to_cp(chi)
        assert result.min_eigenvalue >= -1e-9 and result.tp_defect <= 1e-3
        assert result.iterations == 1 and not result.converged
        assert not result.success
        assert result.tp_defect <= 1e-12  # the returned iterate is the affine one

    def test_reference_projections_exactly_trace_preserving(self):
        data = reference.load()
        for key, affine in reference.affine_experimental(data).items():
            result = project_to_cp(qpt.affine_to_chi(affine))
            assert result.success and result.converged, key
            assert result.tp_defect <= 1e-12, key
            assert result.min_eigenvalue >= -1e-9, key
            assert result.iterations < cpfit.MAX_ITERATIONS, key

    def test_reference_iteration_counts(self):
        # the Dykstra iterates on the published processes; a kernel change
        # that moves them changes these counts
        data = reference.load()
        counts = {key: project_to_cp(qpt.affine_to_chi(affine)).iterations
                  for key, affine in reference.affine_experimental(data).items()}
        assert counts == {"20": 23, "40": 25, "80": 22}

    def test_projection_is_idempotent(self):
        chi = qpt.affine_to_chi(reference.affine_experimental(reference.load())["40"])
        once = project_to_cp(chi).chi_tilde
        twice = project_to_cp(once)
        assert twice.frobenius_distance < 1e-9

    def test_reference_dataset_projection(self):
        """Projection of a published unphysical process lands within the
        reported discrepancy plus printing tolerance."""
        data = reference.load()
        affine = reference.affine_experimental(data)["20"]
        chi = qpt.affine_to_chi(affine)
        result = project_to_cp(chi)
        assert result.success
        reported = reference.discrepancy_norms(data)["20"]["fro"]
        assert result.frobenius_distance <= reported + 0.01
