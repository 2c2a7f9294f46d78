import json
import os
import site
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nvqpt
from nvqpt import cli, cpfit, lindblad, numkit, nvsim, qpt, qstate, tolerances

from conftest import density_to_bloch, is_physical


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def record_path(tmp_path):
    """Noise-free synthetic record on the standard doubling schedule."""
    path = tmp_path / "record.json"
    code = run(
        "simulate", "--t1", "4000", "--t2", "400", "--shots", "0",
        "--t1ns", "20", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def noisy_record_path(tmp_path):
    path = tmp_path / "noisy.json"
    code = run(
        "simulate", "--t1", "4000", "--t2", "60", "--shots", "400",
        "--seed", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture
def process_path(tmp_path, record_path):
    path = tmp_path / "process.json"
    code = run("reconstruct", str(record_path), "--time", "20", "--out", str(path))
    assert code == 0
    return path


class TestSimulate:
    def test_schema(self, record_path):
        doc = json.loads(record_path.read_text())
        assert doc["schema"] == "qpt-record/1"
        assert doc["times_ns"] == [20.0, 40.0, 80.0]
        assert doc["inputs"] == ["z+", "z-", "x+", "y+"]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run("simulate", "--seed", "11", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_is_config_metadata_only(self, tmp_path):
        docs = []
        for alpha in ("0.1", "0.9"):
            path = tmp_path / f"alpha{alpha}.json"
            assert run("simulate", "--seed", "3", "--alpha", alpha, "--out", str(path)) == 0
            docs.append(json.loads(path.read_text()))
        assert [d["config"].pop("polarization") for d in docs] == [0.1, 0.9]
        assert docs[0] == docs[1]

    def test_unphysical_config_is_usage_error(self, tmp_path):
        for args in [
            ("--t1", "100", "--t2", "500"),   # T2 > 2 T1
            ("--t1", "-5"),
            ("--timepoints", "0"),
            ("--t1ns", "-1"),
            ("--t1", "nan"),
            ("--t2", "nan"),
            ("--t1", "inf"),                  # JSON has no Infinity for the record's config
            ("--t2", "inf"),
            ("--detuning", "nan"),
            ("--t1ns", "nan"),
            ("--t1ns", "inf"),
            ("--seed", "-1"),
            ("--timepoints", "1100"),         # 2**1099 is beyond float range
            ("--t1ns", "1e308"),              # the last time overflows to inf
            ("--t1", "1e-12", "--t2", "1e-12"),  # propagators lose trace
            ("--shots", "1" + "0" * 400),     # beyond float range
        ]:
            code = run("simulate", *args, "--out", str(tmp_path / "x.json"))
            assert code == 2, args
            assert not (tmp_path / "x.json").exists(), args

    def test_defaults_are_simconfig_and_schedule_defaults(self):
        args = cli.build_parser().parse_args(["simulate"])
        cfg = nvsim.SimConfig()
        assert (args.t1_ns, args.t2_ns, args.detuning, args.polarization, args.shots,
                args.seed) == (
            cfg.t1_ns, cfg.t2_ns, cfg.detuning, cfg.polarization, cfg.shots, cfg.seed)
        assert args.timepoints == lindblad.TimeSchedule(t1=20.0).count

    def test_t2_at_the_simconfig_bound_simulates(self, tmp_path):
        # SimConfig admits T2 <= 2 T1 + 1e-12 ns; the dephasing rate's rounding
        # below zero at that bound is clamped, not refused a second time
        cfg = nvsim.SimConfig(t1_ns=0.001, t2_ns=0.002000000000001)
        assert nvsim.true_gks_matrix(cfg)[2, 2] == 0
        assert run("simulate", "--t1", "0.001", "--t2", "0.002000000000001", "--t1ns", "0.0001",
                   "--shots", "0", "--out", str(tmp_path / "x.json")) == 0

    def test_overflowing_rates_stderr_is_one_error_line(self, tmp_path):
        # GKS entries near 1e300: the generator's own checks must not make
        # numpy print an overflow warning before the run's one error line;
        # a shot count past float range is one error line too, and one past
        # int64 but within float range runs
        for args, code in [(("--t1", "1e-300", "--t2", "1e-300"), 2),
                           (("--shots", "1" + "0" * 400), 2),
                           (("--shots", "1" + "0" * 20), 0)]:
            out = tmp_path / "x.json"
            proc = _python("-m", "nvqpt.cli", "simulate", *args, "--out", str(out))
            assert proc.returncode == code, args
            if code:
                assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
                assert not out.exists()
            else:
                assert proc.stderr == "" and out.exists()


def _drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


def _put(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.parametrize("stage, edit", [
    pytest.param("reconstruct", _drop("inputs"), id="no-inputs"),
    pytest.param("reconstruct", _put(["z-", "z+", "x+", "y+"], "inputs"), id="inputs-reordered"),
    pytest.param("reconstruct", _drop("expectations", "x+", "20.0"), id="no-time-entry"),
    pytest.param("reconstruct", _drop("expectations", "z+", "20.0", "sx"), id="no-sx"),
    pytest.param("reconstruct", _put("abc", "expectations", "z+", "20.0", "sx"),
                 id="sx-string"),
    pytest.param("reconstruct", _put(True, "expectations", "z+", "20.0", "sz"),
                 id="sz-bool"),
    pytest.param("reconstruct", _put("20", "times_ns", 0), id="time-numeric-string"),
    pytest.param("reconstruct", _put([], "expectations", "y+"), id="label-not-object"),
    # the whole record is read, not just the requested time
    pytest.param("reconstruct", _drop("expectations", "x+", "80.0"),
                 id="no-entry-at-other-time"),
    pytest.param("reconstruct", _put(10**400, "times_ns", 0), id="bigint-time-reconstruct"),
    pytest.param("lindblad", _put(10**400, "times_ns", 0), id="bigint-time-lindblad"),
    pytest.param("reconstruct", lambda doc: [doc], id="record-list"),
    pytest.param("lindblad", _put(["x", 40.0, 80.0], "times_ns"), id="time-string"),
    pytest.param("lindblad", _put(5, "times_ns"), id="times-not-list"),
    # a process fault runs against each stage that reads the document
    pytest.param("process", _drop("chi_re"), id="no-chi-re"),
    pytest.param("process", _put([[0.0]] * 4, "chi_re"), id="chi-re-4x1"),
    pytest.param("process", _put([[0.0] * 4] * 3 + [[0.0]], "chi_re"), id="chi-re-ragged"),
    pytest.param("process", _put("abc", "chi_im"), id="chi-im-string"),
    pytest.param("process", lambda doc: [doc], id="process-list"),
    pytest.param("process", _drop("basis"), id="no-basis"),
    # a JSON integer past float range parses, but does not convert to float
    pytest.param("process", _put(10**400, "chi_re", 0, 0), id="bigint-chi"),
    # a JSON string or bool is not a number, even where float() would take it
    pytest.param("process", lambda doc: doc.update(
        chi_re=[[repr(v) for v in row] for row in doc["chi_re"]]), id="chi-re-strings"),
    pytest.param("process", _put([[False] * 4] * 4, "chi_im"), id="chi-im-bools"),
    pytest.param("process", _put(0.25, "chi_im", 0, 1), id="chi-not-hermitian"),
    # the Hermitian defect's square is past float range: still a data error
    pytest.param("process", _put(1e200, "chi_re", 0, 1), id="chi-not-hermitian-1e200"),
])
def test_malformed_document_is_data_error(record_path, process_path, tmp_path,
                                          stage, edit, capsys):
    """Missing keys, wrong types and ragged arrays exit 3 with a message,
    not with a traceback, from every stage that reads the document."""
    source = process_path if stage == "process" else record_path
    doc = json.loads(source.read_text())
    doc = edit(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = ("--out", str(tmp_path / "x.out"))
    argvs = {
        "reconstruct": [("reconstruct", str(bad), "--time", "20", *out)],
        "lindblad": [("lindblad", str(bad), *out)],
        "process": [("project", str(bad), *out),
                    ("metrics", str(bad), str(process_path)),
                    ("ellipsoid", str(bad), "--points", "8", *out)],
    }[stage]
    for argv in argvs:
        assert run(*argv) == 3, argv[0]
        assert "error:" in capsys.readouterr().err, argv[0]


def _retime(times):
    """Move a record's expectations from its times to `times`."""
    def edit(doc):
        for per_time in doc["expectations"].values():
            for old, new in zip(doc["times_ns"], times):
                per_time[repr(new)] = per_time.pop(repr(old))
        doc["times_ns"] = times
    return edit


_HUGE = (1e200 * np.eye(4)).tolist()


@pytest.mark.parametrize("stage, edit", [
    pytest.param("lindblad", _retime([1e300, 2e300, 4e300]), id="times-1e300"),
    pytest.param("lindblad", _retime([1e-320, 2e-320, 4e-320]), id="times-1e-320"),
    pytest.param("project", _put(_HUGE, "chi_re"), id="project-chi-1e200"),
    pytest.param("metrics", _put(_HUGE, "chi_re"), id="metrics-chi-1e200"),
    pytest.param("ellipsoid", _put(_HUGE, "chi_re"), id="ellipsoid-chi-1e200"),
])
def test_float_range_stderr_is_one_error_line(tmp_path, stage, edit):
    """Arithmetic past float range exits 4 with one error line: no traceback,
    no numpy warning, and no Infinity (which is not JSON) on stdout."""
    record, process = tmp_path / "record.json", tmp_path / "process.json"
    assert run("simulate", "--seed", "1", "--out", str(record)) == 0
    assert run("reconstruct", str(record), "--time", "20", "--out", str(process)) == 0
    source = record if stage == "lindblad" else process
    doc = json.loads(source.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "x.out"
    extra = {"metrics": (str(process), "--json"),
             "ellipsoid": ("--points", "8", "--out", str(out))}
    argv = (stage, str(bad), *extra.get(stage, ("--out", str(out))))
    proc = _python("-m", "nvqpt.cli", *argv)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Infinity" not in proc.stdout
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing-dir", "directory", "closed-stdout",
                                   "closed-unbuffered-stdout", "closed-stdout-help",
                                   "closed-unbuffered-stdout-help", "no-stdout",
                                   "no-stdout-metrics"])
def test_unwritable_out_stderr_is_one_error_line(tmp_path, where):
    """An --out that cannot be opened, a stdout pipe with no reader or a stdout
    closed at start-up exits 2 with one error line, not a traceback."""
    if "stdout" in where:
        out = "-"
        if where.endswith("metrics"):  # the inputs are golden files, so tmp_path stays empty
            golden = os.path.join(os.path.dirname(__file__), "golden", "seed1")
            argv = ("metrics", *(os.path.join(golden, f) for f in ("raw.json", "fixed.json")))
        elif where.endswith("help"):
            argv = ("simulate", "--help")
        else:
            argv = ("simulate", "--seed", "1", "--out", out)
        # A pipe whose read end is closed before the child starts: run's flush
        # (block-buffered) or the stage's own write (unbuffered) fails with EPIPE.
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _python("-m", "nvqpt.cli", *argv, stdout=write,
                           PYTHONUNBUFFERED="1" if "unbuffered" in where else "",
                           preexec_fn=(lambda: os.close(1)) if where.startswith("no-stdout")
                           else None)
        finally:
            os.close(write)
    else:
        out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path / "dir"
        if where == "directory":
            out.mkdir()
        proc = _python("-m", "nvqpt.cli", "simulate", "--seed", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1
    assert list(tmp_path.rglob("*")) == ([out] if where == "directory" else [])


@pytest.mark.parametrize("stage", ["reconstruct", "project", "lindblad", "ellipsoid"])
def test_unwritable_out_is_usage_error(record_path, process_path, tmp_path, stage, capsys):
    argv = {
        "reconstruct": ("reconstruct", str(record_path), "--time", "20"),
        "project": ("project", str(process_path)),
        "lindblad": ("lindblad", str(record_path)),
        "ellipsoid": ("ellipsoid", str(process_path), "--points", "8"),
    }[stage]
    assert run(*argv, "--out", str(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_unmeasured_axis_is_not_an_error(record_path, tmp_path):
    doc = json.loads(record_path.read_text())
    doc["expectations"]["z+"]["20.0"]["sx"] = None
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "raw.json"
    assert run("reconstruct", str(path), "--time", "20", "--out", str(out)) == 0
    assert json.loads(out.read_text())["diagnostics"]["unmeasured"] == {"z+": ["sx"]}


class TestReconstruct:
    def test_process_schema(self, process_path):
        doc = json.loads(process_path.read_text())
        assert doc["schema"] == "qpt-process/1"
        assert doc["basis"] == "normal"
        chi = np.array(doc["chi_re"]) + 1j * np.array(doc["chi_im"])
        assert chi.shape == (4, 4)
        assert np.linalg.norm(chi - chi.conj().T) < 1e-9
        assert np.array(doc["affine"]).shape == (4, 4)
        assert "min_eigenvalue" in doc["diagnostics"]

    def test_unknown_time_is_data_error(self, record_path, tmp_path):
        code = run(
            "reconstruct", str(record_path), "--time", "33",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_time_matches_within_tolerance(self, record_path, process_path, tmp_path):
        out = tmp_path / "near.json"
        assert run("reconstruct", str(record_path), "--time", "20.0000000001",
                   "--out", str(out)) == 0
        near, exact = json.loads(out.read_text()), json.loads(process_path.read_text())
        assert near["chi_re"] == exact["chi_re"] and near["chi_im"] == exact["chi_im"]
        # the report names the matched record time, not the requested one
        assert near["diagnostics"]["time_ns"] == 20.0

    def test_sub_ns_time_matches_relative(self, tmp_path, capsys):
        # at 1e-10 ns an absolute 1e-9 ns tolerance would match every record time
        record, out = tmp_path / "record.json", tmp_path / "raw.json"
        assert run("simulate", "--t1ns", "1e-10", "--shots", "0", "--out", str(record)) == 0
        capsys.readouterr()
        assert run("reconstruct", str(record), "--time", "1e-10", "--out", str(out)) == 0
        assert capsys.readouterr().err.startswith("reconstructed process at 1e-10 ns:")
        assert json.loads(out.read_text())["diagnostics"]["time_ns"] == 1e-10

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_is_usage_error(self, record_path, time, tmp_path, capsys):
        assert run("reconstruct", str(record_path), "--time", time,
                   "--out", str(tmp_path / "x.json")) == 2
        assert "--time must be finite" in capsys.readouterr().err

    def test_wrong_schema_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/1"}))
        assert run("reconstruct", str(bad), "--time", "20") == 3

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("reconstruct", str(tmp_path / "nope.json"), "--time", "20") == 3

    def test_chi_needs_no_symmetrizing(self, tmp_path, monkeypatch):
        # E(|1><0|) is built by the conjugate identity of E(|0><1|), so chi is
        # exactly Hermitian, and symmetrizing it changes no output byte; the
        # records mix noisy values with unmeasured, +-0 and +-1 axes
        rng = np.random.default_rng(23)
        chi_from_outputs = qpt.chi_from_outputs
        special = [None, 0.0, -0.0, 1.0, -1.0]
        for seed in range(40):
            path = tmp_path / "record.json"
            assert run("simulate", "--seed", str(seed), "--shots", "100",
                       "--out", str(path)) == 0
            doc = json.loads(path.read_text())
            for row in doc["expectations"].values():
                for values in row.values():
                    for ax in values:
                        if rng.uniform() < 0.5:
                            values[ax] = special[rng.integers(len(special))]
            path.write_text(json.dumps(doc))
            outputs = []
            for symmetrize in (False, True):
                with monkeypatch.context() as patch:
                    if symmetrize:
                        patch.setattr(qpt, "chi_from_outputs", lambda o: (
                            lambda chi: (chi + chi.conj().T) / 2)(chi_from_outputs(o)))
                    for t in doc["times_ns"]:
                        out = tmp_path / f"process-{symmetrize}-{t}.json"
                        assert run("reconstruct", str(path), "--time", str(t),
                                   "--out", str(out)) == 0
                        outputs.append(out.read_bytes())
            assert outputs[:3] == outputs[3:]
            _, grid = cli._read_record(str(path))
            for row in grid:
                chi = qpt.chi_from_outputs([qstate.maxent_reconstruct(e) for e in row])
                assert np.array_equal(chi, chi.conj().T)


class TestProject:
    def test_clean_process_passes(self, process_path, tmp_path, capsys):
        out = tmp_path / "projected.json"
        assert run("project", str(process_path), "--out", str(out)) == 0
        text = capsys.readouterr().err
        assert "physicality report" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "qpt-process/1"
        assert doc["diagnostics"]["success"] is True
        assert doc["diagnostics"]["min_eigenvalue"] >= -1e-9
        assert doc["diagnostics"]["tp_defect"] <= 1e-3

    def test_budget_stop_is_numerical_error(self, noisy_record_path, tmp_path, monkeypatch,
                                            capsys):
        raw, fixed = tmp_path / "raw.json", tmp_path / "fixed.json"
        assert run("reconstruct", str(noisy_record_path), "--time", "20",
                   "--out", str(raw)) == 0
        capsys.readouterr()
        monkeypatch.setattr(cpfit, "MAX_ITERATIONS", 1)
        assert run("project", str(raw), "--out", str(fixed)) == 4
        err = capsys.readouterr().err
        assert err.startswith("physicality report:\n")
        assert err.splitlines()[-1].startswith("error: projection failed after 1 iterations")
        assert err.count("\n") == 8 and err.count("error: ") == 1
        # the output file is still written, and says the projection failed
        assert json.loads(fixed.read_text())["diagnostics"]["success"] is False

    def test_repairs_noisy_process(self, noisy_record_path, tmp_path):
        raw = tmp_path / "raw.json"
        assert run("reconstruct", str(noisy_record_path), "--time", "20",
                   "--out", str(raw)) == 0
        raw_doc = json.loads(raw.read_text())
        assert raw_doc["diagnostics"]["min_eigenvalue"] < 0  # noise broke CP
        fixed = tmp_path / "fixed.json"
        assert run("project", str(raw), "--out", str(fixed)) == 0
        doc = json.loads(fixed.read_text())
        assert doc["diagnostics"]["min_eigenvalue"] >= -1e-9


    def test_non_finite_entry_is_data_error(self, process_path, tmp_path):
        doc = json.loads(process_path.read_text())
        doc["chi_re"][1][1] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert run("project", str(bad), "--out", str(tmp_path / "x.json")) == 3
        assert run("metrics", str(bad), str(process_path)) == 3

    @pytest.mark.parametrize("stage", ["project", "metrics", "ellipsoid"])
    def test_non_normal_basis_is_data_error(self, process_path, tmp_path, stage, capsys):
        doc = json.loads(process_path.read_text())
        doc["basis"] = "pauli"
        bad = tmp_path / "pauli.json"
        bad.write_text(json.dumps(doc))
        argv = {"project": ("project", str(bad), "--out", str(tmp_path / "x.json")),
                "metrics": ("metrics", str(bad), str(bad)),
                "ellipsoid": ("ellipsoid", str(bad), "--out", str(tmp_path / "x.csv"))}[stage]
        assert run(*argv) == 3
        assert "basis must be 'normal'" in capsys.readouterr().err

    def test_small_anti_hermitian_part_is_symmetrized(self, process_path, tmp_path):
        # above numkit's 1e-8 check, below the CLI's 1e-6 acceptance
        doc = json.loads(process_path.read_text())
        doc["chi_im"][0][1] += 1e-7
        skewed = tmp_path / "skewed.json"
        skewed.write_text(json.dumps(doc))
        out = tmp_path / "projected.json"
        assert run("project", str(skewed), "--out", str(out)) == 0
        fixed = json.loads(out.read_text())
        chi = np.array(fixed["chi_re"]) + 1j * np.array(fixed["chi_im"])
        assert np.linalg.norm(chi - chi.conj().T) < 1e-12
        assert fixed["diagnostics"]["iterations"] >= 1
        assert "lagrange" not in fixed["diagnostics"]

    def test_lagrange_flag_is_gone(self, process_path):
        with pytest.raises(SystemExit) as exc:
            run("project", str(process_path), "--lagrange", "10")
        assert exc.value.code == 2


class TestMetrics:
    def test_self_distance_zero(self, process_path, capsys):
        assert run("metrics", str(process_path), str(process_path), "--json") == 0
        table = json.loads(capsys.readouterr().out)
        for name in ("p1", "p2", "fro", "d_pro"):
            assert table[name] == 0.0
        assert table["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_suppressed_for_unphysical(
        self, noisy_record_path, tmp_path, capsys
    ):
        raw = tmp_path / "raw.json"
        assert run("reconstruct", str(noisy_record_path), "--time", "20",
                   "--out", str(raw)) == 0
        capsys.readouterr()  # drop the reconstruct console line
        assert run("metrics", str(raw), str(raw), "--json") == 0
        table = json.loads(capsys.readouterr().out)
        assert "fidelity" not in table
        assert "warning" in table


class TestLindblad:
    def test_noise_free_fit(self, record_path, tmp_path, capsys):
        out = tmp_path / "lindblad.json"
        assert run("lindblad", str(record_path), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "qpt-lindblad/1"
        assert doc["times_ns"] == [20.0, 40.0, 80.0]
        assert np.isclose(sum(doc["contributions"]), 1.0)
        assert doc["residual"] < 1e-8
        assert doc["converged"] is True
        # fitted GKS matrix matches the simulator ground truth
        a_fit = np.array(doc["a_fit_re"]) + 1j * np.array(doc["a_fit_im"])
        gamma = 1 / 4000.0
        g_phi = 1 / 400.0 - gamma / 2
        truth = np.array(
            [
                [gamma / 2, -1j * gamma / 2, 0],
                [1j * gamma / 2, gamma / 2, 0],
                [0, 0, g_phi],
            ]
        )
        assert np.linalg.norm(a_fit - truth) < 1e-6
        # prediction reproduces the noise-free measurement
        for label, per_time in doc["predicted_expectations"].items():
            for key, pred in per_time.items():
                meas = doc["measured_expectations"][label][key]
                for ax in ("sx", "sy", "sz"):
                    assert pred[ax] == pytest.approx(meas[ax], abs=1e-6)
        text = capsys.readouterr().err
        assert "relative contribution" in text

    def test_measured_table_is_the_maxent_readout(self, tmp_path):
        """Each measured entry is tr(rho sigma) of the maxent state of the
        record's values, float for float, zero signs included."""
        record, out = tmp_path / "record.json", tmp_path / "lindblad.json"
        assert run("simulate", "--shots", "1000", "--seed", "3", "--out", str(record)) == 0
        assert run("lindblad", str(record), "--out", str(out)) == 0
        measured = json.loads(out.read_text())["measured_expectations"]
        for label, per_time in json.loads(record.read_text())["expectations"].items():
            for key, values in per_time.items():
                rho = qstate.maxent_reconstruct(qstate.PauliExpectations(**values))
                want = dict(zip(nvsim.AXES, density_to_bloch(rho).tolist()))
                assert json.dumps(measured[label][key]) == json.dumps(want), (label, key)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hamiltonian_is_usage_error(self, record_path, tmp_path, value,
                                                   capsys):
        out = tmp_path / "lindblad.json"
        assert run("lindblad", str(record_path), "--hamiltonian", value,
                   "--out", str(out)) == 2
        assert "--hamiltonian" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_hamiltonian_is_numerical_error(self, record_path, tmp_path,
                                                        capsys):
        # finite, but the generator's exponential overflows inside numkit
        out = tmp_path / "lindblad.json"
        code = run("lindblad", str(record_path), "--hamiltonian", "1e300", "--out", str(out))
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, cause", [
        # the generator's exponential overflows inside numkit
        pytest.param("1e300", "squarings", id="overflow"),
        # near float range the BCH start's exponent t H_hat / 2 itself overflows
        pytest.param("1.7e308", "non-finite entries", id="float-range"),
        # at 1e14 rad/ns the BCH start's exponential needs 50 squarings, past
        # numkit.MAX_SQUARINGS: an error, not a "converged" fit of no accuracy
        pytest.param("1e14", "squarings", id="squaring-budget"),
    ])
    def test_huge_hamiltonian_stderr_is_one_error_line(self, record_path, tmp_path, value,
                                                       cause):
        # a subprocess, so numpy's warnings reach stderr as they would for a user
        out = tmp_path / "lindblad.json"
        proc = _python("-m", "nvqpt.cli", "lindblad", str(record_path), "--hamiltonian", value,
                       "--out", str(out))
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert cause in proc.stderr
        assert not out.exists()

    def test_budget_stop_is_reported(self, record_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(numkit, "MAX_EVALUATIONS", 1)
        out = tmp_path / "lindblad.json"
        assert run("lindblad", str(record_path), "--out", str(out)) == 4
        assert json.loads(out.read_text())["converged"] is False
        err = capsys.readouterr().err
        assert "stopped on its budget after 1 evaluations" in err
        assert err.splitlines()[-1] == (
            "error: generator fit stopped on its budget after 1 evaluations (each with its "
            "Jacobian) before converging")
        assert err.count("error: ") == 1 and "warning:" not in err

    def test_newton_cap_stop_is_reported(self, tmp_path, monkeypatch, capsys):
        # all 5 model steps of the seed-1 record's fit are constrained, and one
        # clip per step cannot meet the Newton stop: the fit stops unconverged
        # below its evaluation budget, and the error names the Newton cap
        record, out = tmp_path / "record.json", tmp_path / "lindblad.json"
        assert run("simulate", "--seed", "1", "--out", str(record)) == 0
        times, grid = cli._read_record(record)
        outputs = [[qstate.maxent_reconstruct(e) for e in row] for row in grid]
        args = outputs, np.zeros((4, 4)), lindblad.TimeSchedule.from_times(times)
        assert lindblad.analyze(*args).fit.converged
        monkeypatch.setattr(numkit, "MAX_NEWTON_STEPS", 1)
        assert not lindblad.analyze(*args).fit.converged
        capsys.readouterr()
        assert run("lindblad", str(record), "--out", str(out)) == 4
        assert json.loads(out.read_text())["converged"] is False
        err = capsys.readouterr().err
        assert err.startswith("lindblad fit: residual ")
        assert err.splitlines()[-1] == (
            "error: generator fit stopped on a model step's Newton cap after 1 evaluations "
            "(each with its Jacobian) before converging")
        assert err.count("error: ") == 1 and "warning:" not in err

    @pytest.mark.parametrize("detuning", ["0", "0.03"])
    def test_fast_decay_scales_and_squares(self, tmp_path, detuning):
        # t1 = 100 ns at T1 = 100 ns, T2 = 50 ns: the 400 ns exponent's 1-norm
        # passes theta_13, so simulate and lindblad both take Pade 13 and squarings
        cfg = nvsim.SimConfig(t1_ns=100.0, t2_ns=50.0, detuning=float(detuning))
        h_super, r_hat = nvsim.true_generator(cfg)
        assert np.abs(400.0 * (1j * h_super + r_hat)).sum(axis=0).max() > max(numkit._PADE)
        record, out = tmp_path / "record.json", tmp_path / "lindblad.json"
        assert run("simulate", "--t1", "100", "--t2", "50", "--t1ns", "100", "--shots", "0",
                   "--detuning", detuning, "--out", str(record)) == 0
        assert run("lindblad", str(record), "--hamiltonian", detuning, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        a_fit = np.array(doc["a_fit_re"]) + 1j * np.array(doc["a_fit_im"])
        assert np.linalg.norm(a_fit - nvsim.true_gks_matrix(cfg)) <= 1e-12

    def test_writes_the_record_times(self, record_path, tmp_path):
        # 40.00000001 ns doubles 20 ns to within same_time's 1e-9 |t|; the
        # document's times and table keys are the record's, so the tables join
        doc = json.loads(record_path.read_text())
        _retime([20.0, 40.00000001, 80.0])(doc)
        record, out = tmp_path / "near.json", tmp_path / "lindblad.json"
        record.write_text(json.dumps(doc))
        assert run("lindblad", str(record), "--out", str(out)) == 0
        fit = json.loads(out.read_text())
        assert fit["times_ns"] == [20.0, 40.00000001, 80.0]
        keys = {label: set(per_time) for label, per_time in doc["expectations"].items()}
        for table in ("predicted_expectations", "measured_expectations"):
            assert {label: set(per_time) for label, per_time in fit[table].items()} == keys

    def test_fits_every_timepoint(self, tmp_path):
        record = tmp_path / "four.json"
        assert run("simulate", "--t1", "4000", "--t2", "400", "--shots", "0",
                   "--timepoints", "4", "--out", str(record)) == 0
        out = tmp_path / "lindblad.json"
        assert run("lindblad", str(record), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["times_ns"] == [20.0, 40.0, 80.0, 160.0]
        for per_time in doc["predicted_expectations"].values():
            assert sorted(per_time, key=float) == ["20.0", "40.0", "80.0", "160.0"]
        assert doc["residual"] < 1e-8

    def test_non_doubling_later_time_is_data_error(self, tmp_path):
        record = tmp_path / "four.json"
        assert run("simulate", "--shots", "0", "--timepoints", "4",
                   "--out", str(record)) == 0
        doc = json.loads(record.read_text())
        doc["times_ns"][3] = 150.0
        record.write_text(json.dumps(doc))
        assert run("lindblad", str(record)) == 3

    def test_non_doubling_times_is_data_error(self, tmp_path, record_path):
        doc = json.loads(record_path.read_text())
        doc["times_ns"] = [20.0, 40.0, 60.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("lindblad", str(bad)) == 3

    def test_too_few_times_is_data_error(self, tmp_path, capsys):
        # the second record's T2 = 1 ns puts the 20 ns coherences below the branch
        # cut: the three-time rule must stop the stage before the principal log does
        path = tmp_path / "short.json"
        for argv in [("--timepoints", "2"), ("--timepoints", "2", "--t1", "2", "--t2", "1"),
                     ("--timepoints", "1")]:
            assert run("simulate", "--shots", "0", *argv, "--out", str(path)) == 0
            capsys.readouterr()
            assert run("lindblad", str(path)) == 3
            assert capsys.readouterr().err == (
                "error: need at least three timepoints on a doubling schedule, "
                "one propagator each\n")

    def test_branch_ambiguity_is_numerical_error(self, tmp_path, capsys):
        # T2 = 1 ns at t = 20 ns leaves coherences below the branch cut
        path = tmp_path / "dead.json"
        assert run("simulate", "--t2", "1", "--shots", "0",
                   "--out", str(path)) == 0
        capsys.readouterr()
        assert run("lindblad", str(path)) == 4
        assert capsys.readouterr().err == (
            "error: principal log undefined: eigenvalue on the negative real axis (decoherence "
            "time too long for unambiguous branch); reduce t1\n")


class TestEllipsoid:
    def test_csv_shape(self, process_path, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run("ellipsoid", str(process_path), "--points", "64",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "in_x,in_y,in_z,out_x,out_y,out_z,violation"
        assert len(lines) == 65
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            assert fields[6] in ("0", "1")

    def test_non_finite_chi_is_data_error(self, process_path, tmp_path, capsys):
        # ellipsoid maps the document's chi, so a NaN there is a non-finite map
        doc = json.loads(process_path.read_text())
        doc["chi_re"][2][1] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "cloud.csv"
        assert run("ellipsoid", str(bad), "--points", "8", "--out", str(out)) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_trace_preserving_chi_is_data_error(self, process_path, tmp_path, capsys):
        # chi_to_affine overwrites the trace row: 3 chi would map as a trace-preserving process
        doc = json.loads(process_path.read_text())
        for key in ("chi_re", "chi_im"):
            doc[key] = (3 * np.array(doc[key])).tolist()
        bad = tmp_path / "triple.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "cloud.csv"
        assert run("ellipsoid", str(bad), "--points", "5", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == f"error: {bad}: chi is not trace-preserving (tp defect 2.83)\n"
        assert not out.exists()

    def test_affine_field_is_not_read(self, process_path, tmp_path):
        """ellipsoid maps the chi that project and metrics read: an affine
        field that disagrees with it changes no byte of the cloud."""
        doc = json.loads(process_path.read_text())
        doc["affine"] = (0.5 * np.eye(4)).tolist()
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        clouds = []
        for path in (process_path, edited):
            out = tmp_path / f"{path.stem}.csv"
            assert run("ellipsoid", str(path), "--points", "64", "--out", str(out)) == 0
            clouds.append(out.read_bytes())
        assert clouds[0] == clouds[1]

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_zero_points_is_usage_error(self, process_path, capsys, points):
        assert run("ellipsoid", str(process_path), "--points", points) == 2
        err = capsys.readouterr().err
        assert err == "error: --points: need at least one sample point\n"

    def test_points_past_array_size_is_usage_error(self, process_path, tmp_path, capsys):
        # numpy refuses 1e20 samples before it allocates any
        out = tmp_path / "cloud.csv"
        assert run("ellipsoid", str(process_path), "--points", "1" + "0" * 20,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --points") and err.count("\n") == 1
        assert not out.exists()


def test_tolerances_variable_is_not_read(record_path, tmp_path):
    """The tolerances are fixed: NVQPT_TOLERANCES, even naming a missing file,
    changes neither the exit code nor the output bytes."""
    outputs = []
    for unread in ({}, {"NVQPT_TOLERANCES": str(tmp_path / "missing.json")}):
        out = tmp_path / f"raw{len(outputs)}.json"
        proc = _python("-m", "nvqpt.cli", "reconstruct", str(record_path), "--time", "20",
                       "--out", str(out), **unread)
        assert proc.returncode == 0 and proc.stdout == ""
        assert proc.stderr.startswith("reconstructed process at 20 ns:")
        outputs.append((proc.stderr, out.read_bytes()))
    assert outputs[0] == outputs[1]


class TestToleranceOverride:
    def test_table_is_the_defaults(self):
        assert tolerances.table() is tolerances.DEFAULTS

    def test_min_eig_floor_override(self):
        # the fixed floor (-1e-9) rejects a density matrix and a GKS matrix
        # just below it and accepts both just above it
        assert not is_physical(np.diag([1 + 1e-7, -1e-7]))
        with pytest.raises(lindblad.LindbladError):
            lindblad.lindblads_from_gks(np.diag([0.01, 0.0, -1e-7]))
        assert is_physical(np.diag([1 + 1e-10, -1e-10]))
        assert len(lindblad.lindblads_from_gks(np.diag([0.01, 0.0, -1e-10])).operators) == 1


def test_chain_is_byte_deterministic(tmp_path, capsys):
    """Every stage of a seeded, noisy chain writes the same bytes twice."""
    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        run_dir.mkdir()
        rec, raw, fixed = (str(run_dir / n) for n in ("rec.json", "raw.json", "fixed.json"))
        assert run("simulate", "--seed", "7", "--detuning", "0.01", "--out", rec) == 0
        assert run("reconstruct", rec, "--time", "20", "--out", raw) == 0
        assert run("project", raw, "--out", fixed) == 0
        assert run("lindblad", rec, "--hamiltonian", "0.01",
                   "--out", str(run_dir / "gen.json")) == 0
        capsys.readouterr()
        assert run("metrics", raw, fixed, "--json") == 0
        (run_dir / "metrics.json").write_text(capsys.readouterr().out)
        assert run("ellipsoid", fixed, "--points", "32",
                   "--out", str(run_dir / "cloud.csv")) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("stage", ["simulate", "reconstruct", "project", "metrics",
                                   "lindblad", "ellipsoid"])
def test_help_exits_zero(stage, capsys):
    with pytest.raises(SystemExit) as exc:
        run(stage, "--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: nvqpt {stage}")
    if stage == "simulate":  # each dest, and so each metavar, names a SimConfig field
        for option in ("--t1 T1_NS", "--t2 T2_NS", "--alpha POLARIZATION"):
            assert option in text


def _nested(depth):
    value = 1.0
    for _ in range(depth):
        value = [value]
    return value


# values no well-formed document holds, and values of a wrong JSON type for a number
_EXTREMES = [0, -0.0, -1, 1e-320, 1e300, -1e300, 10**400, float("nan"), float("inf"),
             "abc", [], {}, [[1.0]], _nested(64), _nested(70)]
_WRONG_TYPES = [True, "0.5", None]
_SIM_OPTIONS = ["--t1", "--t2", "--detuning", "--alpha", "--shots", "--seed", "--t1ns",
                "--timepoints"]
_SIM_VALUES = ["0", "-1", "5", "0.5", "1e-320", "1e-12", "1e300", "-1e300", "nan", "inf",
               "1" + "0" * 400, "abc"]


def _slots(doc, path=()):
    """The key path of every value in a JSON document, containers and leaves alike."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def test_fuzzed_inputs_fail_cleanly(tmp_path, capsys):
    """Extreme values in every field of a record and of a process document,
    and in simulate's options.  Each run exits 0, 2, 3 or 4, and no exception
    but argparse's SystemExit, which carries the code, escapes main; exit 3 or
    4 prints exactly one error: line; no run warns; a wrong JSON type where
    a number belongs, in times_ns or a process array the stage reads, exits
    3; and every JSON document a run writes holds no NaN or Infinity."""
    rng = np.random.default_rng(22)
    record, process, bad, out = (str(tmp_path / name) for name in
                                 ("record.json", "process.json", "bad.json", "out"))
    assert run("simulate", "--seed", "1", "--out", record) == 0
    assert run("reconstruct", record, "--time", "20", "--out", process) == 0
    argvs = {
        "reconstruct": ["reconstruct", bad, "--time", "20", "--out", out],
        "lindblad": ["lindblad", bad, "--out", out],
        "project": ["project", bad, "--out", out],
        "metrics": ["metrics", bad, process, "--json"],
        "ellipsoid": ["ellipsoid", bad, "--points", "8", "--out", out],
    }
    process_readers = ["project", "metrics", "ellipsoid"]
    readers = {"times_ns": ["reconstruct", "lindblad"], "chi_re": process_readers,
               "chi_im": process_readers}
    runs = []  # (argv, document or None, must exit 3)
    for source, stages in ((record, ["reconstruct", "lindblad"]),
                           (process, process_readers)):
        with open(source) as fh:
            doc = json.load(fh)
        for slot in _slots(doc):
            for values, wrong in ((_EXTREMES, False), (_WRONG_TYPES, True)):
                fuzzed = json.loads(json.dumps(doc))
                _put(values[rng.integers(len(values))], *slot)(fuzzed)
                stage = str(rng.choice(readers.get(slot[0], stages)))
                runs.append((argvs[stage], fuzzed, wrong and slot[0] in readers))
    for _ in range(60):
        options = rng.choice(_SIM_OPTIONS, size=rng.integers(1, 3), replace=False)
        argv = ["simulate", "--out", out]
        for option in options:
            argv += [str(option), str(rng.choice(_SIM_VALUES))]
        runs.append((argv, None, False))
    for options in (["--t1", "inf"], ["--t1", "inf", "--t2", "inf", "--shots", "0"]):
        runs.append((["simulate", "--out", out, *options], None, False))

    capsys.readouterr()
    for argv, doc, data_error in runs:
        if doc is not None:
            with open(bad, "w") as fh:
                json.dump(doc, fh)
        if os.path.exists(out):
            os.remove(out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        err = captured.err
        case = (argv, doc)
        assert code in (0, 2, 3, 4), case
        assert not caught and "warning" not in err, case
        if code in (3, 4):
            assert err.startswith("error: ") and err.count("\n") == 1, case
        if data_error:
            assert code == 3, case
        written = [captured.out] if argv[0] == "metrics" and code == 0 else []
        if argv[0] != "ellipsoid" and os.path.exists(out):
            with open(out) as fh:
                written.append(fh.read())
        for text in written:
            assert _is_strict_json(text), (case, text)


def _is_strict_json(text):
    """Whether text parses as JSON with no NaN or Infinity, which JSON lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    try:
        json.loads(text, parse_constant=reject)
    except ValueError:
        return False
    return True


def _python(*argv, stdout=subprocess.PIPE, preexec_fn=None, **env):
    """Run this Python on argv in its own process, with this nvqpt's source
    directory first on PYTHONPATH and `env` added to the environment; stdout
    and stderr are captured unless stdout names another target."""
    src = os.path.dirname(os.path.dirname(nvqpt.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path, **env),
                          stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn, text=True)


def test_cli_import_is_numpy_only():
    """Each CLI stage is its own process; importing the CLI must not pull in
    scipy, whose import costs more than the CLI itself, nor dataclasses, whose
    frozen classes generate and compile their methods at import."""
    code = ("import sys, nvqpt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'dataclasses')))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_star_import_binds_the_modules():
    """Without __all__, `from nvqpt import *` binds the names __init__ imports."""
    proc = _python("-c", "from nvqpt import *; print(sorted(k for k in dir() if k[0] != '_'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["cpfit", "lindblad", "numkit", "nvsim", "qpt", "qstate",
                                       "reference", "tolerances"])


def test_cli_import_skips_importlib_resources():
    """Importing the CLI must not pull in importlib.resources (and with it
    pathlib, tempfile, shutil and more): only reference.load reads the bundled
    data.  Run with -S, so that no site-packages .pth file imports it first."""
    code = (f"import sys; sys.path += {site.getsitepackages()!r}; import nvqpt.cli; "
            "print('importlib.resources' in sys.modules)")
    proc = _python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_is_run():
    """The `nvqpt` script enters through run, as `python -m nvqpt.cli` does.
    pyproject.toml is read as text: Python 3.10 has no tomllib."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        section = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip() == 'nvqpt = "nvqpt.cli:run"'
    assert callable(cli.run)


@pytest.mark.parametrize("stage", ["simulate", "reconstruct", "project", "lindblad", "ellipsoid"])
def test_stdout_document_is_the_out_file(record_path, process_path, tmp_path, stage, capsys):
    """--out - (the default) writes to stdout the bytes that --out FILE writes,
    and nothing else: the stage's report goes to stderr in both runs."""
    argv = {"simulate": ("simulate", "--seed", "1"),
            "reconstruct": ("reconstruct", str(record_path), "--time", "20"),
            "project": ("project", str(process_path)),
            "lindblad": ("lindblad", str(record_path)),
            "ellipsoid": ("ellipsoid", str(process_path), "--points", "8")}[stage]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 0
    first = capsys.readouterr()
    assert first.out == ""
    assert run(*argv) == 0
    assert capsys.readouterr() == (out.read_text(), first.err)
    if stage != "ellipsoid":
        json.loads(out.read_text())


@pytest.mark.parametrize("stage", ["reconstruct", "metrics"])
def test_process_stdout_matches_main(record_path, process_path, tmp_path, stage, capsys):
    """A stage run as its own process, with stdout a file and so
    block-buffered, prints the same bytes as main in-process: nothing that
    run holds in the buffer at exit is lost."""
    argv = {"reconstruct": ("reconstruct", str(record_path), "--time", "20"),
            "metrics": ("metrics", str(process_path), str(process_path), "--json")}[stage]
    capsys.readouterr()
    assert run(*argv) == 0
    expected = capsys.readouterr()
    with open(tmp_path / "stdout.txt", "w") as fh:
        proc = _python("-m", "nvqpt.cli", *argv, stdout=fh, PYTHONUNBUFFERED="")
    assert proc.returncode == 0 and proc.stderr == expected.err
    assert expected.out and (tmp_path / "stdout.txt").read_text() == expected.out
