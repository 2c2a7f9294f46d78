"""Single-qubit process tomography, CPTP repair, and Markovian generator
estimation for NV-center-style experiments."""

from . import cpfit, lindblad, numkit, nvsim, qpt, qstate, reference, tolerances

__version__ = "0.1.0"
