"""Table of the package's named numerical tolerances.

DEFAULTS holds the thresholds of the linear algebra kernel's input checks
(Hermitian input, log branch, log round trip) and the physical thresholds
for processes, states and GKS matrices; each check of those reads its
threshold here.  The values are fixed.  The four Hermitian checks share
numkit.hermitian_defect, each with its own bound: eig_hermitian reads
`hermitian_input`, lindblad's two checks use 1e-9 and the CLI's process
reader 1e-6; the optimizers keep their own stopping rules."""

from __future__ import annotations

DEFAULTS: dict[str, float] = {
    # linear algebra kernel
    "hermitian_input": 1e-8,        # allowed anti-Hermitian part before symmetrizing
    "log_branch": 1e-8,             # distance of eigenvalues from negative real axis
    "log_roundtrip": 1e-8,
    # physical thresholds for processes and states
    "tp_defect_max": 1e-3,          # accepted trace-preservation defect after repair
    "min_eig_floor": -1e-9,         # smallest accepted eigenvalue: CP chi, density, GKS matrix
    "bloch_ball": 1e-9,             # |r| may exceed 1 by this much before rejection
}


def table() -> dict[str, float]:
    """Return the tolerance table."""
    return DEFAULTS


def get(name: str) -> float:
    return DEFAULTS[name]
