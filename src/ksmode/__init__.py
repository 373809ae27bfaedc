"""Desk-scale numerical verification of the mode-stability analysis for the
explicit self-similar blowup profile of the 3D parabolic-elliptic
Keller-Segel system: profile identities, spherical-class operator spectra,
coercivity constants, eigenvalue-count bounds, wave-operator commutator
identities, and renormalized evolution experiments.
"""

import time

# when the package began to load: the CLI reports the start-up it paid
_IMPORT_START = time.perf_counter()

__version__ = "0.1.0"
