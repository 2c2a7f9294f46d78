"""Seeded benchmark inputs, built during set-up from nvsim and the bundled
reference dataset.

The program under test receives only what `build` returns.  Ground truth
used by the correctness checks (exact chi, GKS matrix) is computed here
with scipy directly, not through nvqpt, so a check never trusts the code it
checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import scipy.linalg

from nvqpt import lindblad, nvsim, qpt, qstate, reference

T1_NS = 20.0
SCHEDULE = lindblad.TimeSchedule(t1=T1_NS)
UNPHYSICAL_EIG = -1e-9

# (T1 ns, T2 ns, detuning rad/ns) configurations for the shot-noise inputs.
CONFIGS = (
    (1e5, 2000.0, 0.0),
    (4000.0, 400.0, 0.02),
    (2000.0, 800.0, -0.01),
    (500.0, 250.0, 0.0),
)
SHOTS = (1000, 10000, 100000)
# nvsim seed whose 1e3-shot chis on the first two CONFIGS exhaust the
# 40000-evaluation simplex budget in the Nelder-Mead repair; kept in every
# repair input set so budget stops stay visible.
BUDGET_STOP_SEED = 11

# Inputs per pass for each workload, full and self-test size.
SIZES = {
    "repair": {"full": 6, "tiny": 1},      # seeded chis, plus 3 reference + 2 budget-stop
    "closure": {"full": 24, "tiny": 2},    # noise-free records
    "tomography": {"full": 60, "tiny": 4},  # 1e4-shot records
    "cli": {"full": 4, "tiny": 1},          # CLI chains, one per config
}


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).reshape(4, order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    return np.asarray(v).reshape(2, 2, order="F")


def _units() -> list[np.ndarray]:
    out = []
    for i in range(2):
        for j in range(2):
            u = np.zeros((2, 2), dtype=complex)
            u[i, j] = 1.0
            out.append(u)
    return out


def exact_chis(cfg: nvsim.SimConfig) -> dict[float, np.ndarray]:
    """Choi/chi matrix of the true channel at each schedule time."""
    h_super, r_hat = nvsim.true_generator(cfg)
    gen = 1j * h_super + r_hat
    out = {}
    for t in SCHEDULE.times():
        prop = scipy.linalg.expm(-gen * t)
        out[t] = sum(np.kron(_unvec(prop @ _vec(u)), u) for u in _units())
    return out


def raw_chi(record: nvsim.ExperimentRecord, t: float) -> np.ndarray:
    """Hermitian chi reconstructed from a record at time t, as the CLI's
    reconstruct stage does."""
    outputs = [qstate.maxent_reconstruct(record.expectations[label][t])
               for label in nvsim.INPUT_LABELS]
    chi = qpt.chi_from_outputs(outputs)
    return (chi + chi.conj().T) / 2


def min_eig(chi: np.ndarray) -> float:
    chi = np.asarray(chi, dtype=complex)
    return float(np.linalg.eigvalsh((chi + chi.conj().T) / 2)[0])


def _record(cfg_tuple, shots: int, seed: int | None) -> nvsim.ExperimentRecord:
    t1, t2, delta = cfg_tuple
    cfg = nvsim.SimConfig(t1_ns=t1, t2_ns=t2, detuning=delta, shots=shots, seed=seed)
    return nvsim.run_experiment(cfg, SCHEDULE)


def _stratified_configs(rng: np.random.Generator, n: int) -> list[tuple[float, float, float]]:
    """n Latin-hypercube configurations, in random order: T1 log-uniform in
    [500 ns, 100 us], T2 log-uniform in [100 ns, 2 T1], detuning uniform in
    [-0.02, 0.02] rad/ns.  Stratifying keeps the mix of easy and hard fits
    alike from seed to seed, so the seed moves the inputs, not the cost."""
    strata = [(rng.permutation(n) + rng.random(n)) / n for _ in range(3)]
    configs = []
    for u, v, w in zip(*strata):
        t1 = float(10 ** (np.log10(500.0) + u * (5.0 - np.log10(500.0))))
        t2 = float(10 ** (2.0 + v * (np.log10(2 * t1) - 2.0)))
        configs.append((t1, t2, float(-0.02 + 0.04 * w)))
    return configs


def _repair(rng, n_seeded: int, tiny: bool) -> list[dict]:
    items = []
    data = reference.load()
    keys = reference.TIME_KEYS[:1] if tiny else reference.TIME_KEYS
    affines = reference.affine_experimental(data)
    for k in keys:
        items.append({"desc": {"source": "reference", "time_ns": k},
                      "chi": qpt.affine_to_chi(affines[k])})
    if not tiny:
        for cfg in CONFIGS[:2]:
            rec = _record(cfg, 1000, BUDGET_STOP_SEED)
            items.append({"desc": {"source": "budget-stop", "config": cfg, "shots": 1000,
                                   "nvsim_seed": BUDGET_STOP_SEED},
                          "chi": raw_chi(rec, T1_NS)})
    order = rng.permutation(len(CONFIGS))
    for i in range(n_seeded):
        cfg = CONFIGS[order[i % len(CONFIGS)]]
        shots = SHOTS[i % len(SHOTS)]
        while True:  # keep unphysical chis only
            sim_seed = int(rng.integers(2**31))
            chi = raw_chi(_record(cfg, shots, sim_seed), T1_NS)
            if min_eig(chi) < UNPHYSICAL_EIG:
                break
        items.append({"desc": {"source": "shot-noise", "config": cfg, "shots": shots,
                               "nvsim_seed": sim_seed},
                      "chi": chi})
    for it in items:
        it["raw_chis"] = [it["chi"]]
    return items


def _closure(rng, n: int) -> list[dict]:
    items = []
    for cfg_tuple in _stratified_configs(rng, n):
        rec = _record(cfg_tuple, 0, None)
        chis = exact_chis(rec.config)
        items.append({
            "desc": {"config": cfg_tuple, "shots": 0},
            "config": rec.config,
            "expectations": {t: [rec.expectations[lb][t] for lb in nvsim.INPUT_LABELS]
                             for t in SCHEDULE.times()},
            "chi_exact": chis,
            "gks_true": nvsim.true_gks_matrix(rec.config),
            "raw_chis": [raw_chi(rec, t) for t in SCHEDULE.times()],
        })
    return items


def _tomography(rng, n: int) -> list[dict]:
    items = []
    for cfg_tuple in _stratified_configs(rng, n):
        sim_seed = int(rng.integers(2**31))
        rec = _record(cfg_tuple, 10000, sim_seed)
        chis = exact_chis(rec.config)
        items.append({
            "desc": {"config": cfg_tuple, "shots": 10000, "nvsim_seed": sim_seed},
            "expectations": {t: [rec.expectations[lb][t] for lb in nvsim.INPUT_LABELS]
                             for t in SCHEDULE.times()},
            "chi_exact": chis,
            "raw_chis": [raw_chi(rec, t) for t in SCHEDULE.times()],
        })
    return items


def _cli(rng, n: int) -> list[dict]:
    items = []
    order = rng.permutation(len(CONFIGS))
    for i in range(n):
        cfg_tuple = CONFIGS[order[i % len(CONFIGS)]]
        # an unphysical 20 ns chi, so that every chain's project stage repairs
        # (a physical one converges ten times sooner)
        while True:
            sim_seed = int(rng.integers(2**31))
            rec = _record(cfg_tuple, 10000, sim_seed)
            if min_eig(raw_chi(rec, T1_NS)) < UNPHYSICAL_EIG:
                break
        items.append({
            "desc": {"config": cfg_tuple, "shots": 10000, "nvsim_seed": sim_seed},
            "record": rec.to_record_dict(),
            "gks_true": nvsim.true_gks_matrix(rec.config),
            "raw_chis": [raw_chi(rec, T1_NS)],
        })
    return items


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        a = np.asarray(obj, dtype=complex)
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    if dataclasses.is_dataclass(obj):
        return _canon(dataclasses.asdict(obj))
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


@dataclasses.dataclass
class Inputs:
    items: list[dict]
    unphysical_share: float
    sha256: str


def build(workload: str, seed: int, size: str = "full") -> Inputs:
    """Generate the workload's inputs from the seed; same seed, same inputs."""
    rng = np.random.default_rng(seed)
    n = SIZES[workload][size]
    if workload == "repair":
        items = _repair(rng, n, size == "tiny")
    elif workload == "closure":
        items = _closure(rng, n)
    elif workload == "tomography":
        items = _tomography(rng, n)
    elif workload == "cli":
        items = _cli(rng, n)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    raws = [c for it in items for c in it["raw_chis"]]
    share = sum(min_eig(c) < UNPHYSICAL_EIG for c in raws) / len(raws)
    digest = hashlib.sha256(
        json.dumps(_canon([{k: v for k, v in it.items() if k != "raw_chis"}
                           for it in items]), sort_keys=True).encode()
    ).hexdigest()
    return Inputs(items, share, digest)
