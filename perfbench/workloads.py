"""One item per workload: `run` makes the timed calls into nvqpt, `check`
recomputes the correctness conditions from the outputs, untimed.

check returns an Outcome whose quality values are aggregated over the
distinct inputs of a run: keys ending in `_max` by maximum, the rest by mean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nvqpt import cpfit, lindblad, numkit, qpt, qstate, tolerances

import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
MIN_EIG = -1e-9
MAX_TP_DEFECT = 1e-3
MAX_CHI_ERR = 1e-8
MAX_GKS_ERR = 1e-6
MAX_ROUNDTRIP = 1e-9


@dataclass
class Outcome:
    ok: bool
    quality: dict[str, float] = field(default_factory=dict)
    cpfit_evals: list[int] = field(default_factory=list)
    lindblad_evals: list[int] = field(default_factory=list)
    detail: str = ""


def tp_defect(chi: np.ndarray) -> float:
    """|sum_i chi[2i+b, 2i+a] - I|_F, written out independently of qpt."""
    c = np.asarray(chi, dtype=complex).reshape(2, 2, 2, 2)
    s = c[0, :, 0, :].T + c[1, :, 1, :].T
    return float(np.linalg.norm(s - np.eye(2)))


def _repaired_quality(chi: np.ndarray, chi_tilde: np.ndarray) -> tuple[bool, dict, str]:
    low = inputs.min_eig(chi_tilde)
    tp = tp_defect(chi_tilde)
    ok = low >= MIN_EIG and tp <= MAX_TP_DEFECT
    quality = {
        "fro_distance_mean": float(np.linalg.norm(np.asarray(chi_tilde) - np.asarray(chi))),
        "tp_defect_max": tp,
        "neg_eig_max": max(0.0, -low),
    }
    return ok, quality, "" if ok else f"repair min eig {low:.3g}, tp defect {tp:.3g}"


# ---------------------------------------------------------------- repair

def run_repair(item: dict):
    return cpfit.project_to_cp(item["chi"])


def check_repair(item: dict, result) -> Outcome:
    ok, quality, detail = _repaired_quality(item["chi"], result.chi_tilde)
    return Outcome(ok, quality, [int(getattr(result, "evaluations", 0))], [], detail)


# ---------------------------------------------------------------- closure

def run_closure(item: dict):
    cfg = item["config"]
    schedule = inputs.SCHEDULE
    h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(cfg.detuning))
    chis, props = [], []
    for t in schedule.times():
        outputs = [qstate.maxent_reconstruct(e) for e in item["expectations"][t]]
        chi = qpt.chi_from_outputs(outputs)
        chis.append((chi + chi.conj().T) / 2)
        props.append(lindblad.propagator_from_outputs(outputs))
    projection = cpfit.project_to_cp(chis[0])
    lindblad.generator_log_estimate(props[0], h_super, schedule.t1)
    x0 = lindblad.gks_start_from_generator(
        lindblad.generator_bch_estimate(props, h_super, schedule))
    fit = lindblad.fit_generator(props, h_super, schedule, x0)
    lset = lindblad.lindblads_from_gks(fit.gks)
    predicted = [lindblad.predict_expectations(fit.relaxation, h_super, rho0, schedule.times())
                 for rho0 in qpt.input_states()]
    return {"chis": chis, "projection": projection, "fit": fit, "lindblads": lset,
            "predicted": predicted}


def check_closure(item: dict, out: dict) -> Outcome:
    times = inputs.SCHEDULE.times()
    chi_err = max(float(np.linalg.norm(c - item["chi_exact"][t]))
                  for c, t in zip(out["chis"], times))
    truth = item["gks_true"]
    gks_err = float(np.linalg.norm(out["fit"].gks - truth))
    ok, quality, detail = _repaired_quality(out["chis"][0], out["projection"].chi_tilde)
    quality["chi_err_max"] = chi_err
    quality["gks_err_max"] = gks_err
    quality["gks_err_rel"] = gks_err / float(np.linalg.norm(truth))
    if chi_err > MAX_CHI_ERR or gks_err > MAX_GKS_ERR:
        ok = False
        detail = f"chi error {chi_err:.3g}, GKS error {gks_err:.3g} {detail}"
    return Outcome(ok, quality,
                   [int(getattr(out["projection"], "evaluations", 0))],
                   [int(getattr(out["fit"], "evaluations", 0))], detail)


# ------------------------------------------------------------- tomography

def run_tomography(item: dict):
    tp_max = tolerances.get("tp_defect_max")
    per_time = []
    for t in inputs.SCHEDULE.times():
        outputs = [qstate.maxent_reconstruct(e) for e in item["expectations"][t]]
        chi = qpt.chi_from_outputs(outputs)
        chi = (chi + chi.conj().T) / 2
        low = numkit.eig_hermitian(chi).eigenvalues[0]
        cptp = low >= MIN_EIG and qpt.tp_defect(chi) <= tp_max
        back = qpt.affine_to_chi(qpt.chi_to_affine(chi))
        norms = qpt.unphysicality_norms(chi, item["chi_exact"][t])
        rho = qpt.jamiolkowski_state(chi)
        fid = qstate.fidelity(rho, item["chi_exact"][t] / 2) if cptp else None
        per_time.append((chi, back, norms, fid))
    return per_time


def check_tomography(item: dict, out) -> Outcome:
    roundtrip = max(float(np.linalg.norm(back - chi)) for chi, back, _, _ in out)
    fids = [f for *_, f in out if f is not None]
    quality = {
        "roundtrip_err_max": roundtrip,
        "fro_to_truth_mean": float(np.mean([n["fro"] for _, _, n, _ in out])),
    }
    if fids:
        quality["fidelity_to_truth_mean"] = float(np.mean(fids))
    ok = roundtrip <= MAX_ROUNDTRIP and all(0.0 <= f <= 1.0 for f in fids)
    return Outcome(ok, quality, detail="" if ok else f"affine round trip {roundtrip:.3g}")


# -------------------------------------------------------------------- cli

STAGES = ("simulate", "reconstruct", "project", "metrics", "lindblad", "ellipsoid")
SCHEMAS = {"record.json": "qpt-record/1", "raw.json": "qpt-process/1",
           "repaired.json": "qpt-process/1", "generator.json": "qpt-lindblad/1"}
ELLIPSOID_POINTS = 1000


def _stage_args(item: dict, work: Path) -> dict[str, list[str]]:
    rec = item["record"]
    cfg = rec["config"]
    return {
        "simulate": ["simulate", "--t1", repr(cfg["t1_ns"]), "--t2", repr(cfg["t2_ns"]),
                     "--detuning", repr(cfg["detuning"]), "--alpha", repr(cfg["polarization"]),
                     "--shots", str(cfg["shots"]), "--seed", str(rec["seed"]),
                     "--t1ns", repr(inputs.T1_NS), "--timepoints", str(inputs.SCHEDULE.count),
                     "--out", str(work / "record.json")],
        "reconstruct": ["reconstruct", str(work / "record.json"), "--time", repr(inputs.T1_NS),
                        "--out", str(work / "raw.json")],
        "project": ["project", str(work / "raw.json"), "--out", str(work / "repaired.json")],
        "metrics": ["metrics", str(work / "raw.json"), str(work / "repaired.json"), "--json"],
        "lindblad": ["lindblad", str(work / "record.json"), "--hamiltonian",
                     repr(cfg["detuning"]), "--out", str(work / "generator.json")],
        "ellipsoid": ["ellipsoid", str(work / "repaired.json"), "--points",
                      str(ELLIPSOID_POINTS), "--out", str(work / "cloud.csv")],
    }


def _spawn(cmd: list[str], stdout_path: Path) -> tuple[int, float]:
    """Run a child to completion; return (exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(item: dict, work: Path, tracer: tracing.Tracer | None = None,
            between=lambda: None) -> dict:
    """One chain of six `python -m nvqpt.cli` stages, calling `between()`
    between stages.  With a tracer, each stage runs under cli_stage.py,
    which records spans in the child; they are merged under the stage's
    own span."""
    work.mkdir(parents=True, exist_ok=True)
    for f in work.iterdir():
        f.unlink()
    stages = {}
    for stage, args in _stage_args(item, work).items():
        if stages:
            between()
        spans_path = work / f"{stage}.spans.npz"
        if tracer is None:
            cmd = [sys.executable, "-m", "nvqpt.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_stage.py"), str(spans_path), *args]
            sid = tracer.open(tracer.name_id(f"cli.{stage}"))
        t0 = time.perf_counter()
        code, rss = _spawn(cmd, work / f"{stage}.out")
        wall = time.perf_counter() - t0
        info = {"code": code, "wall_s": wall, "rss_mb": rss}
        if tracer is not None:
            tracer.close(sid)
            if spans_path.exists():
                with np.load(spans_path) as spans:
                    spans = dict(spans)
                tracer.extend(spans, sid)
                info["fit_objective_calls"] = int(np.sum(
                    spans["names"][spans["name"]] == "lindblad.fit_objective"))
        stages[stage] = info
        if code != 0:
            break
    return {"work": work, "stages": stages}


def check_cli(item: dict, out: dict) -> Outcome:
    work, stages = out["work"], out["stages"]
    codes = {s: info["code"] for s, info in stages.items()}
    if len(stages) != len(STAGES) or any(codes.values()):
        return Outcome(False, detail=f"exit codes {codes}")
    docs = {}
    for name, schema in SCHEMAS.items():
        docs[name] = json.loads((work / name).read_text())
        if docs[name].get("schema") != schema:
            return Outcome(False, detail=f"{name}: schema {docs[name].get('schema')!r}")
    if docs["record.json"]["expectations"] != item["record"]["expectations"]:
        return Outcome(False, detail="simulate output differs from the seeded record")
    metrics = json.loads((work / "metrics.out").read_text())
    rows = (work / "cloud.csv").read_text().splitlines()
    if "fro" not in metrics or len(rows) != ELLIPSOID_POINTS + 1:
        return Outcome(False, detail="metrics or ellipsoid output malformed")

    def chi_of(doc):
        return np.array(doc["chi_re"]) + 1j * np.array(doc["chi_im"])

    ok, quality, detail = _repaired_quality(chi_of(docs["raw.json"]), chi_of(docs["repaired.json"]))
    gen = docs["generator.json"]
    a_fit = np.array(gen["a_fit_re"]) + 1j * np.array(gen["a_fit_im"])
    truth = item["gks_true"]
    quality["gks_err_rel"] = float(np.linalg.norm(a_fit - truth) / np.linalg.norm(truth))
    evals = docs["repaired.json"]["diagnostics"].get("evaluations")
    lind = stages["lindblad"].get("fit_objective_calls")
    return Outcome(ok, quality, [] if evals is None else [int(evals)],
                   [] if lind is None else [lind], detail)


RUN = {"repair": run_repair, "closure": run_closure, "tomography": run_tomography}
CHECK = {"repair": check_repair, "closure": check_closure,
         "tomography": check_tomography, "cli": check_cli}


def summarize(outcomes: list[Outcome]) -> dict[str, float]:
    """Aggregate quality over outcomes: `_max` keys by max, others by mean."""
    keys = sorted({k for o in outcomes for k in o.quality})
    out = {}
    for k in keys:
        vals = [o.quality[k] for o in outcomes if k in o.quality]
        out[k] = float(max(vals) if k.endswith("_max") else np.mean(vals))
    return out
