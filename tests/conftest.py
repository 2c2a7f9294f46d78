import numpy as np
import pytest

from nvqpt import tolerances
from nvqpt.numkit import eig_hermitian
from nvqpt.nvsim import INPUT_LABELS
from nvqpt.qstate import PAULIS, maxent_reconstruct

# 1-norm bounds theta_m of the Pade degrees m = 3, 5, 7, 9, 13 (Higham, SIAM
# J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3)
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068, 5.371920351148152)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def record_outputs(record, times):
    """outputs[i][k]: the maxent output density of input k at times[i] of a record."""
    return [[maxent_reconstruct(record.expectations[k][t]) for k in INPUT_LABELS] for t in times]


def density_to_bloch(rho):
    """The Bloch vector tr(rho sigma), written apart from qpt.PAULI_READOUT."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def is_physical(rho):
    """Unit trace, and no eigenvalue below the min_eig_floor tolerance."""
    return (abs(np.trace(rho) - 1) <= 1e-9
            and eig_hermitian(rho).eigenvalues[0] >= tolerances.get("min_eig_floor"))
