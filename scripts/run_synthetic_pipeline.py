#!/usr/bin/env python3
"""End-to-end synthetic demonstration of the analysis pipeline.

Simulates a qubit with known T1/T2 and detuning, reconstructs the process
at each schedule time, repairs the (shot-noise-broken) chi, fits the
Markovian generator with lindblad.analyze, and compares the fitted GKS
matrix against the ground truth the data was generated from.

Usage: python scripts/run_synthetic_pipeline.py [--shots N] [--seed S]
"""

import argparse

import numpy as np

from nvqpt import cpfit, lindblad, nvsim, qpt, qstate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t1", type=float, default=4000.0, help="T1 (ns)")
    parser.add_argument("--t2", type=float, default=400.0, help="T2 (ns)")
    parser.add_argument("--detuning", type=float, default=0.01, help="rad/ns")
    parser.add_argument("--shots", type=int, default=40000, help="0 = noise-free")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = nvsim.SimConfig(
        t1_ns=args.t1, t2_ns=args.t2, detuning=args.detuning,
        shots=args.shots, seed=args.seed,
    )
    schedule = lindblad.TimeSchedule(t1=20.0)
    record = nvsim.run_experiment(cfg, schedule)
    print(f"simulated record at t = {schedule.times()} ns, shots = {cfg.shots}")

    outputs = []
    for t in schedule.times():
        outputs.append([
            qstate.maxent_reconstruct(record.expectations[label][t])
            for label in nvsim.INPUT_LABELS
        ])
        chi = qpt.chi_from_outputs(outputs[-1])
        min_eig, defect, cptp = qpt.cptp_verdict(chi)
        print(f"\nt = {t:g} ns: raw chi min eigenvalue {min_eig:.3e}, tp defect {defect:.2e}")
        if not cptp:
            result = cpfit.project_to_cp(chi)
            print(
                f"  repaired: fro distance {result.frobenius_distance:.4f}, "
                f"min eig {result.min_eigenvalue:.2e}, "
                f"tp defect {result.tp_defect:.2e}, "
                f"{result.iterations} iterations, converged {result.converged}"
            )

    h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(cfg.detuning))
    analysis = lindblad.analyze(outputs, h_super, schedule)
    fit, lset = analysis.fit, analysis.lindblads
    truth = nvsim.true_gks_matrix(cfg)
    rel_err = np.linalg.norm(fit.gks - truth) / np.linalg.norm(truth)

    print(f"\ngenerator fit (Levenberg-Marquardt): residual {fit.residual:.3e}, "
          f"{fit.evaluations} evaluations (residuals with their Jacobian), "
          f"converged {fit.converged}")
    print(f"GKS matrix relative error vs ground truth: {100 * rel_err:.2f}%")
    for i, (op, c) in enumerate(zip(lset.operators, lset.contributions), start=1):
        print(f"\nL{i} (relative contribution {100 * c:.4g}%):")
        print(np.array_str(np.round(op, 6), suppress_small=True))


if __name__ == "__main__":
    main()
