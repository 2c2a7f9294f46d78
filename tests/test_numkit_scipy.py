"""numkit.matrix_exp against scipy.linalg.expm, an independent implementation
of the same algorithm.  Skipped where scipy is not installed: the package
and the rest of the suite need numpy only."""

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
