import numpy as np
import pytest

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

