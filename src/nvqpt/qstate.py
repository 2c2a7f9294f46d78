"""Single-qubit states: the density matrix of a Bloch vector, maximum-entropy
reconstruction from partial Pauli data, and distance metrics.

Pole convention throughout the package: |0> sits at Bloch z = +1.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import tolerances
from .numkit import _clip_eigs, eig_hermitian

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class StateError(ValueError):
    pass


def checked(cls):
    """Class decorator for a NamedTuple record: every construction (a call, _make, _replace,
    unpickling, copy.replace) runs the record's _check, which raises on invalid fields."""
    new, make = cls.__new__, cls._make.__func__

    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(functools.wraps(new)(checked_new))  # keeps the field signature
    cls._make = classmethod(lambda cls, iterable: cls(*make(cls, iterable)))  # make checks arity
    return cls


def bloch_to_density(r) -> np.ndarray:
    """rho = (I + r.sigma)/2.  Vectors within tolerance of the unit sphere
    are radially clamped onto it."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise StateError("Bloch vector must have three components")
    if not math.hypot(*r.tolist()) <= 1 + tolerances.get("bloch_ball"):  # NaN fails too
        raise StateError(f"Bloch vector norm {np.linalg.norm(r)} exceeds 1")
    return _clamped_density(*r.tolist())


def _clamped_density(x: float, y: float, z: float) -> np.ndarray:
    s = max(1.0, math.hypot(x, y, z))  # radially onto the unit sphere from outside it
    x, y, z = x / s, y / s, z / s
    return np.array([[(1 + z) / 2, complex(x, -y) / 2], [complex(x, y) / 2, (1 - z) / 2]])


@checked
class PauliExpectations(NamedTuple):
    """Measured Pauli expectation values; None marks an unmeasured axis."""

    sx: float | None = None
    sy: float | None = None
    sz: float | None = None

    def _check(self):
        for name, v in zip(self._fields, self):
            if v is not None and not -1 <= v <= 1:
                raise StateError(f"{name} = {v} outside [-1, 1]")


def maxent_reconstruct(e: PauliExpectations) -> np.ndarray:
    """Closest physical state matching the measured expectations, with
    maximal entropy.

    Unmeasured Bloch components are zero (no constraint -> entropy
    maximization drops them); if the measured components alone leave the
    Bloch ball, they are scaled radially onto the unit sphere.
    """
    return _clamped_density(*(0.0 if v is None else v for v in e))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    res = eig_hermitian(m)
    return _clip_eigs(np.sqrt(np.clip(res.eigenvalues, 0.0, None)), res.eigenvectors)


def trace_distance(rho1, rho2) -> float:
    """D = (1/2) tr sqrt((rho1-rho2)^dag (rho1-rho2))."""
    x = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    sv = np.linalg.svd(x, compute_uv=False)
    return float(np.sum(sv) / 2)


def _root_infidelity(rho1, rho2) -> float:
    """1 - sqrt(F) for the unit-trace states rho1 / tr rho1 and rho2 / tr rho2.

    Taken from the Bures form G = ||X - Y U||_F^2 = t1 + t2 - 2 ||X Y||_1,
    with X, Y the PSD square roots, t = ||X||_F^2, ||Y||_F^2 and U the polar
    factor of (X Y)^dag.  G is small exactly when the states are close, so
    1 - sqrt(F) = (G - (sqrt t1 - sqrt t2)^2) / (2 sqrt(t1 t2)) keeps its
    relative precision where 1 - (tr sqrt(...))^2 would cancel against 1,
    and trace rounding enters only squared.  Clamped to [0, 1].
    """
    x = _psd_sqrt(np.asarray(rho1, dtype=complex))
    y = _psd_sqrt(np.asarray(rho2, dtype=complex))
    t1, t2 = np.linalg.norm(x) ** 2, np.linalg.norm(y) ** 2
    if t1 == 0 or t2 == 0:
        raise StateError("fidelity needs states of nonzero trace")
    w, _, vh = np.linalg.svd(x @ y)
    gap = np.linalg.norm(x - y @ (w @ vh).conj().T) ** 2
    root1, root2 = np.sqrt(t1), np.sqrt(t2)
    skew = ((t1 - t2) / (root1 + root2)) ** 2
    return float(min(max((gap - skew) / (2 * root1 * root2), 0.0), 1.0))


def fidelity(rho1, rho2) -> float:
    """F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 of the trace-normalized
    states.

    F is rounded toward zero from 1 - F, so 1 - F never understates the
    infidelity and distinct states do not round to F == 1.
    """
    delta = _root_infidelity(rho1, rho2)
    infidelity = delta * (2 - delta)
    f = 1.0 - infidelity
    if 1.0 - f < infidelity:
        f = float(np.nextafter(f, 0.0))
    return f


def bures(rho1, rho2) -> float:
    """sqrt(2 - 2 sqrt(F))."""
    return float(np.sqrt(2 * _root_infidelity(rho1, rho2)))


def c_metric(rho1, rho2) -> float:
    """sqrt(1 - F)."""
    delta = _root_infidelity(rho1, rho2)
    return float(np.sqrt(delta * (2 - delta)))
