"""Span tracer that wraps nvqpt's public functions from outside the package.

Each traced call appends one span (name, parent span, item, start, end) to
flat integer arrays, so a traced pass of a few hundred thousand calls stays
at a few tens of megabytes.  Aggregates (calls, total and self time per
name) are computed once the pass ends; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Layer functions whose calls are recorded, as "<module>.<function>" under
# the nvqpt package.  A name missing from the module (removed by a later
# version of the program) is skipped and reads as zero calls.
TRACED = (
    "cpfit.project_to_cp",
    "cpfit.deviation",
    "numkit.nelder_mead",
    "numkit.cholesky_lower",
    "numkit.eig_hermitian",
    "numkit.matrix_exp",
    "numkit.matrix_log_principal",
    "numkit.pseudoinverse",
    "qpt.tp_defect",
    "qpt.build_beta",
    "qpt.chi_from_outputs",
    "qpt.chi_to_affine",
    "qpt.affine_to_chi",
    "qpt.apply_chi",
    "qpt.jamiolkowski_state",
    "qpt.unphysicality_norms",
    "qstate.maxent_reconstruct",
    "qstate.fidelity",
    "lindblad.fit_generator",
    "lindblad.fit_objective",
    "lindblad.generator_bch_estimate",
    "lindblad.generator_log_estimate",
    "lindblad.gks_start_from_generator",
    "lindblad.predict_expectations",
    "nvsim.run_experiment",
)

ITEM = "bench.item"
SETUP = -1  # item id of spans recorded outside any item


class Tracer:
    """Records spans while installed; `install`/`uninstall` rebind the
    traced functions in every loaded nvqpt module."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.item = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_item = SETUP
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, start_ns: int | None = None) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.item.append(self.current_item)
        self.start.append(time.perf_counter_ns() if start_ns is None else start_ns)
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int, end_ns: int | None = None) -> None:
        self.end[sid] = time.perf_counter_ns() if end_ns is None else end_ns
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        nid = self.name_id(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self) -> None:
        """Rebind each traced function on its module and on every nvqpt
        module that imported it by name (`from .numkit import nelder_mead`)."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nvqpt" or n.startswith("nvqpt.")]
        for qualname in TRACED:
            mod_name, fn_name = qualname.split(".")
            home = importlib.import_module(f"nvqpt.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def extend(self, spans: dict[str, np.ndarray], parent_sid: int) -> None:
        """Append spans recorded in a child process; its roots become
        children of `parent_sid` (perf_counter_ns is CLOCK_MONOTONIC, shared
        by every process on the host)."""
        offset = len(self.start)
        remap = np.array([self.name_id(str(n)) for n in spans["names"]], dtype=np.int64)
        parent = np.where(spans["parent"] < 0, parent_sid, spans["parent"] + offset)
        self.parent.extend(parent.tolist())
        self.name.extend(remap[spans["name"]].tolist())
        self.item.extend([self.current_item] * len(spans["start"]))
        self.start.extend(spans["start"].tolist())
        self.end.extend(spans["end"].tolist())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the durations of its direct children (ns)."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child.astype(np.int64)


def aggregate(spans: dict[str, np.ndarray], mask: np.ndarray) -> dict[str, dict[str, float]]:
    """calls / total_ms / self_ms per span name over the masked spans."""
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    n = len(spans["names"])
    name = spans["name"][mask]
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur[mask], minlength=n)
    selft = np.bincount(name, weights=own[mask], minlength=n)
    return {
        str(spans["names"][i]): {
            "calls": int(calls[i]),
            "total_ms": float(total[i]) / 1e6,
            "self_ms": float(selft[i]) / 1e6,
        }
        for i in range(n)
    }


def nesting_errors(spans: dict[str, np.ndarray]) -> list[str]:
    """Spans that end before they start, leave their parent's interval or
    item, or have negative self time."""
    errors = []
    start, end, parent, item = spans["start"], spans["end"], spans["parent"], spans["item"]
    if np.any(end < start):
        errors.append(f"{int(np.sum(end < start))} spans end before they start")
    has = parent >= 0
    p = parent[has]
    outside = (start[has] < start[p]) | (end[has] > end[p]) | (item[has] != item[p])
    if np.any(outside):
        errors.append(f"{int(np.sum(outside))} spans leave their parent")
    if np.any(self_times(spans) < 0):
        errors.append("negative self time")
    return errors
