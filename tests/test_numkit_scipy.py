"""numkit.matrix_exp against scipy.linalg.expm, an independent implementation
of the same algorithm, and numkit.matrix_log_principal against
scipy.linalg.logm.  Skipped where scipy is not installed: the package and the
rest of the suite need numpy only."""

import numpy as np
import pytest

from nvqpt import numkit

from conftest import THETAS

linalg = pytest.importorskip("scipy.linalg")


def test_matches_scipy_expm():
    rng = np.random.default_rng(2005)
    norms = np.concatenate([10 ** rng.uniform(-4, np.log10(50), 200),
                            np.outer(THETAS, [1 - 1e-3, 1, 1 + 1e-3]).ravel()])
    for norm in norms:
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m *= norm / np.abs(m).sum(axis=0).max()
        expected = linalg.expm(m)
        out = numkit.matrix_exp(m)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected), norm


@pytest.mark.parametrize("gap", [0.24, 0.26, 0.59, 0.61, 1.5])
def test_log_matches_scipy_logm(gap):
    # |P - I|_1 = gap on both sides of the 0.6 threshold below which the
    # 13-point rule runs without square roots
    rng = np.random.default_rng(int(gap * 100))
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a /= np.abs(a).sum(axis=0).max()
        lo, hi = 0.0, 2.0  # bisect the scale s of a for |expm(s a) - I|_1 = gap
        while hi - lo > 1e-12 * hi:
            mid = (lo + hi) / 2
            if np.abs(linalg.expm(mid * a) - np.eye(4)).sum(axis=0).max() < gap:
                lo = mid
            else:
                hi = mid
        p = linalg.expm(lo * a)
        expected = linalg.logm(p)
        out = numkit.matrix_log_principal(p)
        assert np.linalg.norm(out - expected) <= 1e-13 * np.linalg.norm(expected), gap
