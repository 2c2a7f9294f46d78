"""Symmetry oracles: relations the analysis must keep exactly, or to its stopping
tolerance, whatever basis or orientation its code happens to use."""

import numpy as np

from nvqpt import cpfit, lindblad, nvsim, qpt

from conftest import record_outputs


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def noisy_outputs(seed, shots=40000, t2_ns=400.0):
    """The outputs on the 20/40/80 ns schedule of a seeded noisy record."""
    cfg = nvsim.SimConfig(t1_ns=4000.0, t2_ns=t2_ns, detuning=0.01, shots=shots, seed=seed)
    schedule = lindblad.TimeSchedule(t1=20.0)
    return record_outputs(nvsim.run_experiment(cfg, schedule), schedule.times())


def test_repair_is_equivariant_under_local_unitaries(rng):
    # E'(rho) = V E(U rho U^dag) V^dag has chi' = W chi W^dag, W = V (x) U^T, and the
    # Frobenius distance and the CPTP set are invariant under it
    for seed in range(6):
        chi = qpt.chi_from_outputs(noisy_outputs(seed, shots=400, t2_ns=60.0)[0])
        w = np.kron(haar_unitary(rng), haar_unitary(rng).T)
        result = cpfit.project_to_cp(chi)
        rotated = cpfit.project_to_cp(w @ chi @ w.conj().T)
        expected = w @ result.chi_tilde @ w.conj().T
        assert np.linalg.norm(rotated.chi_tilde - expected) <= 1e-14 * np.linalg.norm(expected)
        assert rotated.iterations == result.iterations


def test_gks_fit_is_equivariant_under_z_rotations(rng):
    # a z-rotation commutes with the detuning Hamiltonian and turns sigma_x and
    # sigma_y into each other, so the GKS matrix over F_BASIS turns as O a O^T
    h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(0.01))
    schedule = lindblad.TimeSchedule(t1=20.0)
    for seed in range(4):
        outputs = noisy_outputs(seed)
        phi = rng.uniform(0, 2 * np.pi)
        u = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
        s = np.kron(u.conj(), u)  # vec(U X U^dag) = (conj U (x) U) vec X
        rotated = [[lindblad.devectorize(s @ lindblad.propagator_from_outputs(out) @ s.conj().T
                                         @ lindblad.vectorize(rho)) for rho in qpt.input_states()]
                   for out in outputs]
        o = np.array([[np.cos(phi), -np.sin(phi), 0], [np.sin(phi), np.cos(phi), 0], [0, 0, 1]])
        expected = o @ lindblad.analyze(outputs, h_super, schedule).fit.gks @ o.T
        a = lindblad.analyze(rotated, h_super, schedule).fit.gks
        assert np.linalg.norm(a - expected) <= 1e-8 * np.linalg.norm(expected)


def test_doubled_t1_halves_the_gks_matrix():
    # exp(-G t) at t = 2^m t1 is unchanged when t1 doubles and G halves; the fit
    # scales its directions by powers of two, so every step halves exactly
    h_super = lindblad.hamiltonian_superop(lindblad.detuning_hamiltonian(0.01))
    for seed in range(4):
        outputs = noisy_outputs(seed)
        base = lindblad.analyze(outputs, h_super, lindblad.TimeSchedule(t1=20.0))
        doubled = lindblad.analyze(outputs, h_super / 2, lindblad.TimeSchedule(t1=40.0))
        assert np.array_equal(doubled.fit.gks, base.fit.gks / 2)
        assert doubled.fit.evaluations == base.fit.evaluations
