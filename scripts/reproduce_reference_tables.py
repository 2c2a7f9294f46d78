#!/usr/bin/env python3
"""Re-derive the headline numbers from the bundled NV reference dataset.

For each of the three evolution times this script converts the published
experimental and repaired affine maps to chi matrices, reports the
discrepancy norms between them, reruns our own CP projection (Dykstra
alternating projection, with its iteration count) on the experimental
chi, and finally recomputes the relative contributions of
the published Lindblad operators.

Usage: python scripts/reproduce_reference_tables.py
"""

import numpy as np

from nvqpt import cpfit, lindblad, qpt, reference


def main() -> None:
    data = reference.load()
    exp_affine = reference.affine_experimental(data)
    rec_affine = reference.affine_reconstructed(data)
    reported = data["discrepancy_norms"]

    print("discrepancy norms between experimental and repaired processes")
    print(f"{'t (ns)':>7} {'p1':>8} {'p2':>8} {'fro':>8} {'d_pro':>8}   reported fro")
    for key in reference.TIME_KEYS:
        chi = qpt.affine_to_chi(exp_affine[key])
        chi_rec = qpt.affine_to_chi(rec_affine[key])
        norms = qpt.unphysicality_norms(chi, chi_rec)
        print(
            f"{key:>7} {norms['p1']:8.4f} {norms['p2']:8.4f} "
            f"{norms['fro']:8.4f} {norms['d_pro']:8.4f}   "
            f"{reported[key]['fro']:.4f}"
        )

    print("\nour CP projection of each experimental process")
    print(f"{'t (ns)':>7} {'fro':>8} {'min eig':>10} {'tp defect':>10} {'iters':>6} converged")
    for key in reference.TIME_KEYS:
        chi = qpt.affine_to_chi(exp_affine[key])
        result = cpfit.project_to_cp(chi)
        print(
            f"{key:>7} {result.frobenius_distance:8.4f} "
            f"{result.min_eigenvalue:10.2e} {result.tp_defect:10.2e} "
            f"{result.iterations:6d} {result.converged}"
        )

    print("\nrelative contributions of the published Lindblad operators")
    ops = reference.lindblad_operators(data)
    reported_pct = [entry["reported_contribution_pct"] for entry in data["lindblad_operators"]]
    for i, (pct, rep) in enumerate(
        zip(lindblad.contributions_from_operators(ops), reported_pct), start=1
    ):
        print(f"  L{i}: computed {100 * pct:.4g}%   reported {rep:.4g}%")

    print("\n20 ns experimental chi spectrum (unphysicality check)")
    chi20 = qpt.affine_to_chi(exp_affine["20"])
    print("  eigenvalues:", np.round(np.linalg.eigvalsh(chi20), 4))


if __name__ == "__main__":
    main()
