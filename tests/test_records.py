"""The package's result and configuration records: immutable, built by keyword, and the four
validating types check their fields however they are built."""

import copy
import inspect
import pickle
import sys

import numpy as np
import pytest

from nvqpt import cpfit, lindblad, nvsim, qpt, qstate


def _fit():
    return lindblad.GeneratorFit(gks=np.zeros((3, 3)), relaxation=np.zeros((4, 4)),
                                 residual=0.0, evaluations=1, converged=True)


# (record type, a keyword factory of valid fields, (field, bad value, error) or None)
RECORDS = [
    (cpfit.ProjectionResult, lambda: dict(
        chi_tilde=np.eye(4) / 2, iterations=1, converged=True, min_eigenvalue=0.5,
        tp_defect=0.0, frobenius_distance=0.0, success=True), None),
    (qpt.KrausSet, lambda: dict(operators=[np.eye(2)]), None),
    (lindblad.GeneratorFit, lambda: _fit()._asdict(), None),
    (lindblad.LindbladSet, lambda: dict(operators=[], contributions=[]), None),
    (lindblad.Analysis, lambda: dict(
        log_estimate=np.zeros((4, 4)), start=np.zeros((3, 3)), fit=_fit(),
        lindblads=lindblad.LindbladSet([], []), predicted=[]), None),
    (nvsim.ExperimentRecord, lambda: dict(
        schedule=lindblad.TimeSchedule(20.0), expectations={}, config=nvsim.SimConfig()), None),
    (qstate.PauliExpectations, lambda: dict(sx=0.1, sy=None, sz=-1.0),
     ("sz", 5.0, qstate.StateError)),
    (qpt.AffineMap, lambda: dict(matrix=np.eye(4)), ("matrix", np.eye(3), qpt.ProcessError)),
    (lindblad.TimeSchedule, lambda: dict(t1=20.0, count=4), ("t1", 0.0, lindblad.LindbladError)),
    (nvsim.SimConfig, lambda: dict(t1_ns=100.0, t2_ns=50.0, detuning=0.01, polarization=0.5,
                                   shots=0, seed=3), ("t1_ns", -1.0, nvsim.SimulationError)),
]


@pytest.mark.parametrize("cls, fields, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, bad):
    values = fields()
    rec = cls(**values)
    assert type(rec) is cls and rec._fields == tuple(values)
    assert tuple(inspect.signature(cls).parameters) == rec._fields
    for name, value in values.items():
        assert getattr(rec, name) is value  # kept as given, not copied
    assert cls(**rec._asdict()) == rec
    for name in (rec._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    if bad is not None:
        name, value, error = bad
        args = [value if field == name else v for field, v in values.items()]
        builds = [lambda: cls(*args), lambda: cls(**{**values, name: value}),
                  lambda: cls._make(args), lambda: rec._replace(**{name: value})]
        if sys.version_info >= (3, 13):
            builds.append(lambda: copy.replace(rec, **{name: value}))
        for build in builds:
            with pytest.raises(error):
                build()
        unpickled = pickle.loads(pickle.dumps(rec))
        assert type(unpickled) is cls
        assert all(np.array_equal(a, b) for a, b in zip(unpickled, rec, strict=True))


@pytest.mark.parametrize("matrix", [np.eye(4).tolist(), np.eye(4, dtype=int),
                                    np.eye(4, dtype=complex)], ids=["list", "int", "complex"])
def test_affine_map_takes_only_a_float64_array(matrix):
    rec = qpt.AffineMap(np.eye(4))
    builds = [lambda: qpt.AffineMap(matrix), lambda: qpt.AffineMap(matrix=matrix),
              lambda: qpt.AffineMap._make([matrix]), lambda: rec._replace(matrix=matrix)]
    if sys.version_info >= (3, 13):
        builds.append(lambda: copy.replace(rec, matrix=matrix))
    for build in builds:
        with pytest.raises(qpt.ProcessError, match="float64 numpy array"):
            build()


def test_affine_map_is_a_plain_named_tuple():
    assert qpt.AffineMap.__mro__[1] is tuple  # no shadow base class between them


def test_kraus_sets_share_no_operator_list():
    with pytest.raises(TypeError):
        qpt.KrausSet()
    a, b = (qpt.kraus_from_chi(chi) for chi in (np.diag([1.0, 0, 0, 0]), np.diag([1.0, 0, 0, 0])))
    assert a.operators is not b.operators
    a.operators.append(np.eye(2))
    assert len(b.operators) == 1
