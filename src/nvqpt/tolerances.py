"""Central table of numerical tolerances.

Every tolerance used across the package lives in DEFAULTS, so each check
reads its threshold from one place.  The values are fixed.
"""

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
