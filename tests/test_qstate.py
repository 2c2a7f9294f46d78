import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvqpt import qstate
from nvqpt.qstate import (
    IDENTITY_2,
    PauliExpectations,
    StateError,
    bloch_to_density,
    bures,
    c_metric,
    fidelity,
    maxent_reconstruct,
    trace_distance,
)

from conftest import density_to_bloch, is_physical

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
MIXED = IDENTITY_2 / 2

unit_ball = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda r: np.linalg.norm(r) <= 1)


class TestBlochConversions:
    def test_north_pole_is_ket0(self):
        assert np.allclose(bloch_to_density([0, 0, 1]), KET0)

    def test_south_pole_is_ket1(self):
        assert np.allclose(bloch_to_density([0, 0, -1]), KET1)

    def test_origin_is_maximally_mixed(self):
        assert np.allclose(bloch_to_density([0, 0, 0]), MIXED)

    def test_x_plus(self):
        rho = bloch_to_density([1, 0, 0])
        assert np.allclose(rho, np.ones((2, 2)) / 2)

    @given(unit_ball)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, r):
        assert np.allclose(density_to_bloch(bloch_to_density(r)), r, atol=1e-12)

    def test_outside_ball_rejected(self):
        with pytest.raises(StateError):
            bloch_to_density([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("r", [[0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 1.0]]])
    def test_wrong_length_rejected(self, r):
        with pytest.raises(StateError, match="three components"):
            bloch_to_density(r)

    def test_nan_rejected(self):
        # NaN compares False with every bound, so a "norm > bound" guard passes it
        with pytest.raises(StateError):
            bloch_to_density([np.nan, 0.0, 0.0])

    def test_slightly_outside_clamped(self):
        rho = bloch_to_density([0, 0, 1 + 1e-12])
        assert np.allclose(rho, KET0)
        assert is_physical(rho)


class TestPauliExpectations:
    def test_range_validated(self):
        with pytest.raises(StateError):
            PauliExpectations(sx=1.5)

    def test_none_allowed(self):
        e = PauliExpectations(sz=0.3)
        assert tuple(e) == (None, None, 0.3)


class TestMaxEnt:
    def test_full_data_reproduces_state(self):
        rho = bloch_to_density([0.3, -0.2, 0.5])
        assert np.allclose(maxent_reconstruct(PauliExpectations(*density_to_bloch(rho))), rho)

    def test_unmeasured_axis_dropped(self):
        rho = maxent_reconstruct(PauliExpectations(sz=0.8))
        assert np.allclose(density_to_bloch(rho), [0, 0, 0.8])

    def test_no_data_gives_maximally_mixed(self):
        assert np.allclose(maxent_reconstruct(PauliExpectations()), MIXED)

    def test_outside_ball_scaled_to_sphere(self):
        rho = maxent_reconstruct(PauliExpectations(sx=1.0, sz=1.0))
        r = density_to_bloch(rho)
        assert np.isclose(np.linalg.norm(r), 1.0)
        assert np.isclose(r[0], r[2])
        assert is_physical(rho)

    def test_always_physical(self, rng):
        for _ in range(20):
            vals = rng.uniform(-1, 1, size=3)
            rho = maxent_reconstruct(PauliExpectations(*vals))
            assert is_physical(rho)


class TestMetrics:
    def test_trace_distance_orthogonal(self):
        assert np.isclose(trace_distance(KET0, KET1), 1.0)

    def test_trace_distance_diag_example(self):
        assert np.isclose(trace_distance(np.diag([0.7, 0.3]), MIXED), 0.2)

    def test_trace_distance_self(self):
        assert trace_distance(MIXED, MIXED) == 0.0

    def test_fidelity_pure_vs_mixed(self):
        assert np.isclose(fidelity(KET0, MIXED), 0.5, atol=1e-9)

    def test_fidelity_orthogonal(self):
        assert np.isclose(fidelity(KET0, KET1), 0.0, atol=1e-9)

    def test_fidelity_self(self):
        assert np.isclose(fidelity(MIXED, MIXED), 1.0, atol=1e-9)

    def test_fidelity_rejects_zero_trace(self):
        for a, b in [(np.zeros((2, 2)), MIXED), (MIXED, np.zeros((2, 2)))]:
            with pytest.raises(StateError, match="nonzero trace"):
                fidelity(a, b)

    def test_fidelity_symmetric(self, rng):
        a = bloch_to_density(rng.uniform(-0.5, 0.5, 3))
        b = bloch_to_density(rng.uniform(-0.5, 0.5, 3))
        assert np.isclose(fidelity(a, b), fidelity(b, a), atol=1e-10)

    def test_bures_pure_vs_mixed(self):
        assert np.isclose(bures(KET0, MIXED), np.sqrt(2 - np.sqrt(2)), atol=1e-9)

    def test_c_metric_pure_vs_mixed(self):
        assert np.isclose(c_metric(KET0, MIXED), np.sqrt(0.5), atol=1e-9)

    @given(unit_ball, unit_ball)
    @settings(max_examples=30, deadline=None)
    def test_fuchs_van_de_graaf(self, r1, r2):
        a, b = bloch_to_density(r1), bloch_to_density(r2)
        d = trace_distance(a, b)
        f = fidelity(a, b)
        assert 1 - np.sqrt(f) <= d + 1e-9
        assert d <= np.sqrt(1 - f) + 1e-9
