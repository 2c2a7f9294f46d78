"""Central table of numerical tolerances.

Every tolerance used across the package lives here so that a single
override applies consistently.  NVQPT_TOLERANCES may name a JSON file
holding an object of finite numeric overrides for a subset of the DEFAULTS
keys, each on its default's side of zero; any problem with that file
raises ToleranceError.
"""

from __future__ import annotations

import json
import math
import os

DEFAULTS: dict[str, float] = {
    # linear algebra kernel
    "hermitian_input": 1e-8,        # allowed anti-Hermitian part before symmetrizing
    "log_branch": 1e-8,             # distance of eigenvalues from negative real axis
    "log_roundtrip": 1e-8,
    # process physics thresholds
    "tp_defect_max": 1e-3,          # accepted trace-preservation defect after repair
    "min_eig_floor": -1e-9,         # accepted smallest eigenvalue: repaired chi, density, GKS matrix
    # state-space tolerances
    "bloch_ball": 1e-9,             # |r| may exceed 1 by this much before rejection
    "kraus_eig_floor": -1e-8,       # chi eigenvalues below this are not CP
}

_TABLE: dict[str, float] | None = None


class ToleranceError(ValueError):
    pass


def table() -> dict[str, float]:
    """Return the active tolerance table, applying any env-var override once."""
    global _TABLE
    if _TABLE is None:
        values = dict(DEFAULTS)
        path = os.environ.get("NVQPT_TOLERANCES")
        if path:
            try:
                with open(path) as fh:
                    overrides = json.load(fh)
                if not isinstance(overrides, dict):
                    raise ToleranceError("expected a JSON object")
                unknown = sorted(set(overrides) - set(DEFAULTS))
                if unknown:
                    raise ToleranceError(f"unknown keys {unknown}")
                for key, value in overrides.items():
                    # json reads NaN, Infinity and true; a NaN bound disables its
                    # check, and type() rejects a bool, which is an int subclass
                    if type(value) not in (int, float) or not math.isfinite(value):
                        raise ToleranceError(f"{key} must be a finite number, got {value!r}")
                    # an override keeps its default's sign: a tolerance of zero or below
                    # fails its checks on valid input, and a positive eigenvalue floor
                    # rejects every rank-deficient PSD matrix, a pure state among them
                    if (value > 0) != (DEFAULTS[key] > 0):
                        raise ToleranceError(f"{key} must {'' if DEFAULTS[key] > 0 else 'not '}"
                                             f"be positive, got {value!r}")
                    values[key] = float(value)
            except (OSError, ValueError, TypeError, OverflowError) as exc:
                raise ToleranceError(f"NVQPT_TOLERANCES={path}: {exc}") from exc
        _TABLE = values
    return _TABLE


def get(name: str) -> float:
    return table()[name]
