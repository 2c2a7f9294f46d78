import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2

