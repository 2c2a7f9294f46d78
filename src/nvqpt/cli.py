"""Command-line front end.

Subcommands: simulate, reconstruct, project, metrics, lindblad,
ellipsoid.  Exit codes: 0 success, 2 usage error (including a bad
argument value, an unwritable --out or a closed stdout), 3 data error
(including a malformed input document), 4 numerical failure (including a
kernel error no stage maps itself, and a float overflow, division by zero
or invalid operation, which main makes numpy raise).  A stage writes its
document to --out (stdout by default) and its report to stderr; every
stdout write goes through _write.  A stage ends by returning, which exits
0, or by raising, which main prints as one error: line and maps to the
exit code.  main(argv) is the in-process API; run is the process entry
point.
Matrices are serialized as separate real and imaginary parts so the
JSON files stay portable.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import cpfit, lindblad, numkit, nvsim, qpt, qstate, tolerances
from .numkit import NumkitError, PrincipalLogUndefined

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

PROCESS_SCHEMA = "qpt-process/1"
LINDBLAD_SCHEMA = "qpt-lindblad/1"
# checked with type(), not isinstance(): a JSON true is a bool, an int subclass
JSON_NUMBER = (int, float)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# An error a stage raises exits with the code of the first class here that it is an instance of.
EXIT_CODES = {
    UsageError: EXIT_USAGE, DataError: EXIT_DATA, qpt.ProcessError: EXIT_DATA,
    lindblad.LindbladError: EXIT_DATA, qstate.StateError: EXIT_DATA,
    NumkitError: EXIT_NUMERICAL,
    FloatingPointError: EXIT_NUMERICAL, np.linalg.LinAlgError: EXIT_NUMERICAL,
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write(text: str, path: str) -> None:
    """Write text to the file at path, or to stdout when path is "-"."""
    if path == "-":
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise UsageError("cannot write stdout: it is closed")
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc


def _dump_json(obj: dict, path: str) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _load_json(path: str, schema: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object")
    if doc.get("schema") != schema:
        raise DataError(f"{path}: expected schema {schema!r}, got {doc.get('schema')!r}")
    return doc


def _field(doc, path: str, *keys):
    """doc[k0][k1]...; a missing key or a level that is not an object is a
    data error."""
    try:
        for key in keys:
            doc = doc[key]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: missing {'/'.join(keys)}") from exc
    return doc


def _real_array(doc, path: str, key: str) -> np.ndarray:
    try:
        raw = np.array(_field(doc, path, key), dtype=object)
        arr = raw.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {key} is not a rectangular array of numbers") from exc
    # ravel(), not flat: flat refuses arrays of more than 32 dimensions
    if any(type(v) not in JSON_NUMBER for v in raw.ravel()) or not np.all(np.isfinite(arr)):
        raise DataError(f"{path}: {key} has non-numeric or non-finite entries")
    return arr


def _matrix_fields(name: str, m: np.ndarray) -> dict:
    """{name}_re and {name}_im entries holding the parts of a complex matrix."""
    m = np.asarray(m, dtype=complex)
    return {f"{name}_re": m.real.tolist(), f"{name}_im": m.imag.tolist()}


def _read_process(path: str) -> np.ndarray:
    """The Hermitian-symmetrized chi of a qpt-process/1 file, which must be
    in the normal (matrix-unit) basis."""
    doc = _load_json(path, PROCESS_SCHEMA)
    basis = _field(doc, path, "basis")
    if basis != "normal":
        raise DataError(f"{path}: basis must be 'normal', got {basis!r}")
    re, im = _real_array(doc, path, "chi_re"), _real_array(doc, path, "chi_im")
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise DataError(f"{path}: chi must be 4x4")
    chi = re + 1j * im
    if numkit.hermitian_defect(chi) > 1e-6:
        raise DataError(f"{path}: chi is not Hermitian")
    return (chi + chi.conj().T) / 2


def _process_doc(chi: np.ndarray, diagnostics: dict) -> dict:
    affine = qpt.chi_to_affine(chi)
    return {
        "schema": PROCESS_SCHEMA,
        "basis": "normal",
        **_matrix_fields("chi", chi),
        "affine": affine.matrix.tolist(),
        "diagnostics": diagnostics,
    }


def _read_record(path: str) -> tuple[list[float], list[list[qstate.PauliExpectations]]]:
    """Validate a whole qpt-record/1 file; return (times, grid), where
    grid[i][k] is the qstate.PauliExpectations of input nvsim.INPUT_LABELS[k]
    at times[i] (None marks an unmeasured axis)."""
    doc = _load_json(path, nvsim.RECORD_SCHEMA)
    times = _real_array(doc, path, "times_ns")
    if times.ndim != 1:
        raise DataError(f"{path}: times_ns must be a list of numbers")
    times = times.tolist()
    if _field(doc, path, "inputs") != list(nvsim.INPUT_LABELS):
        raise DataError(f"{path}: inputs must be {list(nvsim.INPUT_LABELS)}")
    grid = []
    for t in times:
        key = repr(t)
        row = []
        for label in nvsim.INPUT_LABELS:
            values = [_field(doc, path, "expectations", label, key, ax) for ax in nvsim.AXES]
            if any(v is not None and type(v) not in JSON_NUMBER for v in values):
                raise DataError(f"{path}: {label} at {key} ns: expectations must be "
                                "numbers or null")
            row.append(qstate.PauliExpectations(*values))
        grid.append(row)
    return times, grid


def cmd_simulate(args) -> None:
    try:
        cfg = nvsim.SimConfig(**{name: getattr(args, name) for name in nvsim.SimConfig._fields})
        schedule = lindblad.TimeSchedule(t1=args.t1ns, count=args.timepoints)
        record = nvsim.run_experiment(cfg, schedule)
    except (nvsim.SimulationError, lindblad.LindbladError) as exc:
        raise UsageError(str(exc)) from exc
    _dump_json(record.to_record_dict(), args.out)


def cmd_reconstruct(args) -> None:
    if not np.isfinite(args.time):
        raise UsageError(f"--time must be finite, got {args.time}")
    times, grid = _read_record(args.record)
    matches = [i for i, t in enumerate(times) if lindblad.same_time(t, args.time)]
    if not matches:
        raise DataError(f"{args.record}: time {args.time} not in record times {times}")
    time, row = times[matches[-1]], grid[matches[-1]]
    missing = {}
    for label, e in zip(nvsim.INPUT_LABELS, row):
        gaps = [ax for ax, v in zip(nvsim.AXES, e) if v is None]
        if gaps:
            missing[label] = gaps
    chi = qpt.chi_from_outputs([qstate.maxent_reconstruct(e) for e in row])
    min_eig, defect, _ = qpt.cptp_verdict(chi)
    diagnostics = {
        "time_ns": time,
        "min_eigenvalue": min_eig,
        "tp_defect": defect,
        "unmeasured": missing,
    }
    _dump_json(_process_doc(chi, diagnostics), args.out)
    print(
        f"reconstructed process at {_fmt(time)} ns: "
        f"min eigenvalue {_fmt(diagnostics['min_eigenvalue'])}, "
        f"tp defect {_fmt(diagnostics['tp_defect'])}", file=sys.stderr
    )


def cmd_project(args) -> None:
    chi = _read_process(args.process)
    result = cpfit.project_to_cp(chi)
    norms = qpt.unphysicality_norms(chi, result.chi_tilde)
    diagnostics = {
        "min_eigenvalue": result.min_eigenvalue,
        "tp_defect": result.tp_defect,
        "iterations": result.iterations,
        "distance_to_input": norms,
        "success": result.success,
    }
    _dump_json(_process_doc(result.chi_tilde, diagnostics), args.out)
    print("physicality report:", file=sys.stderr)
    print(f"  min eigenvalue  {_fmt(result.min_eigenvalue)}", file=sys.stderr)
    print(f"  tp defect       {_fmt(result.tp_defect)}", file=sys.stderr)
    for name in ("p1", "p2", "fro", "d_pro"):
        print(f"  {name:<15} {_fmt(norms[name])}", file=sys.stderr)
    if not result.success:
        raise NumkitError(
            f"projection failed after {result.iterations} iterations "
            f"(converged {result.converged}, min eig {result.min_eigenvalue:.3g}, "
            f"tp defect {result.tp_defect:.3g})"
        )


def cmd_metrics(args) -> None:
    chi_a = _read_process(args.process_a)
    chi_b = _read_process(args.process_b)
    norms = qpt.unphysicality_norms(chi_a, chi_b)
    table: dict[str, float | str | None] = dict(norms)
    warning = None
    if qpt.cptp_verdict(chi_a)[2] and qpt.cptp_verdict(chi_b)[2]:
        rho_a = qpt.jamiolkowski_state(chi_a)
        rho_b = qpt.jamiolkowski_state(chi_b)
        table["jamiolkowski_trace_distance"] = qstate.trace_distance(rho_a, rho_b)
        table["fidelity"] = qstate.fidelity(rho_a, rho_b)
        table["bures"] = qstate.bures(rho_a, rho_b)
        table["c"] = qstate.c_metric(rho_a, rho_b)
    else:
        warning = (
            "fidelity-based metrics suppressed: at least one process is not "
            "CPTP and they could be nonsensical"
        )
    if args.json:
        if warning:
            table["warning"] = warning
        _dump_json(table, "-")
    else:
        text = "".join(f"{name:<28} {_fmt(value)}\n" for name, value in table.items())
        _write(text + (f"{warning}\n" if warning else ""), "-")


def cmd_lindblad(args) -> None:
    try:
        h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(args.hamiltonian))
    except lindblad.LindbladError as exc:
        raise UsageError(f"--hamiltonian: {exc}") from exc
    times, grid = _read_record(args.record)
    schedule = lindblad.TimeSchedule.from_times(times)
    outputs = [[qstate.maxent_reconstruct(e) for e in row] for row in grid]
    measured = nvsim.expectation_table(times, [
        [qstate.PauliExpectations(*(lindblad.vectorize(rho) @ qpt.PAULI_READOUT[:, 1:]).real)
         for rho in out]
        for out in outputs
    ])
    try:
        result = lindblad.analyze(outputs, h_super, schedule)
    except PrincipalLogUndefined as exc:
        raise PrincipalLogUndefined(f"{exc}; reduce t1") from exc
    fit, lset = result.fit, result.lindblads

    report = {
        "schema": LINDBLAD_SCHEMA,
        "times_ns": times,
        "detuning": args.hamiltonian,
        **_matrix_fields("a_start", result.start),
        **_matrix_fields("a_fit", fit.gks),
        **_matrix_fields("log_estimate", result.log_estimate),
        "lindblads": [
            {"re": op.real.tolist(), "im": op.imag.tolist()}
            for op in lset.operators
        ],
        "contributions": lset.contributions,
        "converged": fit.converged,
        "residual": fit.residual,
        "predicted_expectations": nvsim.expectation_table(times, result.predicted),
        "measured_expectations": measured,
    }
    _dump_json(report, args.out)
    print("lindblad fit: residual", _fmt(fit.residual), file=sys.stderr)
    for i, c in enumerate(lset.contributions, start=1):
        print(f"  L{i} relative contribution {_fmt(100 * c)}%", file=sys.stderr)
    if not fit.converged:  # a model step runs only below the evaluation budget
        spent = fit.evaluations >= numkit.MAX_EVALUATIONS
        cause = "its budget" if spent else "a model step's Newton cap"
        raise NumkitError(f"generator fit stopped on {cause} after {fit.evaluations} "
                          "evaluations (each with its Jacobian) before converging")


def cmd_ellipsoid(args) -> None:
    chi = _read_process(args.process)
    defect = qpt.tp_defect(chi)  # chi_to_affine would overwrite the trace row
    if not defect <= tolerances.get("tp_defect_max"):
        raise DataError(f"{args.process}: chi is not trace-preserving (tp defect {defect:.3g})")
    affine = qpt.chi_to_affine(chi)
    try:
        pts, outs, violation = qpt.ellipsoid_samples(affine, args.points)
    except ValueError as exc:  # fewer than one sample, or more than numpy can allocate
        raise UsageError(f"--points: {exc}") from exc
    lines = ["in_x,in_y,in_z,out_x,out_y,out_z,violation"]
    for row, v in zip(np.column_stack([pts, outs]).tolist(), violation.tolist()):
        lines.append(f"{','.join(map(repr, row))},{int(v)}")
    _write("\n".join(lines) + "\n", args.out)
    print(f"{args.points} points, {int(violation.sum())} Bloch-ball violations",
          file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write; one to stdout (--help) reaches run, which exits 2
        if message and file is not None and file is sys.stdout:
            return file.write(message)
        super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nvqpt",
        description="Single-qubit process tomography and Markovian "
        "generator estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)  # the stages that write a file
    out.add_argument("--out", default="-")

    p = sub.add_parser("simulate", parents=[out], help="generate a synthetic experiment record")
    # each dest is the SimConfig field the option sets
    sim = nvsim.SimConfig._field_defaults
    p.add_argument("--t1", dest="t1_ns", type=float, default=sim["t1_ns"], help="T1 in ns")
    p.add_argument("--t2", dest="t2_ns", type=float, default=sim["t2_ns"], help="T2 in ns")
    p.add_argument("--detuning", type=float, default=sim["detuning"], help="rad/ns")
    p.add_argument("--alpha", dest="polarization", type=float, default=sim["polarization"],
                   help="pseudopure polarization, recorded in the record's config only; "
                   "inputs are prepared pure")
    p.add_argument("--shots", type=int, default=sim["shots"], help="0 = noise-free")
    p.add_argument("--seed", type=int, default=sim["seed"])
    p.add_argument("--t1ns", type=float, default=20.0, help="first schedule time (ns)")
    p.add_argument("--timepoints", type=int,
                   default=lindblad.TimeSchedule._field_defaults["count"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[out], help="raw chi + affine from a record")
    p.add_argument("record")
    p.add_argument("--time", type=float, required=True, help="record time (ns)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("project", parents=[out], help="repair a process to the nearest CPTP map")
    p.add_argument("process")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("metrics", help="distance table between two processes")
    p.add_argument("process_a")
    p.add_argument("process_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("lindblad", parents=[out], help="fit a Markovian generator to a record")
    p.add_argument("record")
    p.add_argument("--hamiltonian", type=float, default=0.0,
                   help="rotating-frame detuning (rad/ns)")
    p.set_defaults(func=cmd_lindblad)

    p = sub.add_parser("ellipsoid", parents=[out], help="Bloch-sphere point cloud as CSV")
    p.add_argument("process")
    p.add_argument("--points", type=int, default=1000)
    p.set_defaults(func=cmd_ellipsoid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return 0


def run() -> None:
    """Process entry point of `nvqpt` and `python -m nvqpt.cli`: run main,
    flush stdout and exit with main's code.  A stdout that cannot be written,
    such as a pipe whose reader has gone, exits 2 with one error line."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            sys.stdout.flush()
    except OSError as exc:  # stages map their file errors, so this is stdout
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # shutdown flushes stdout again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    # Shutdown's full collection walks every object still alive, most of them
    # numpy's import-time objects.  Freezing moves them all to the permanent
    # generation, which no collection visits; the OS reclaims the memory at exit.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
