"""Numerical harmonic analysis on quadric CR manifolds.

The package implements the boundary group of a quadric model domain, its
frequency-layer Fock representations, the group Plancherel identity, Rockland
operator spectra, the band-limited central transform pair, holomorphic
extension of band-limited boundary data with Paley-Wiener certificates, and
the convex-geometry calculus (supports, polars, erosion, windows) that drives
the band-limit machinery.
"""

from .model import (
    QuadraticModel,
    multiply,
    inverse,
    commutator,
    ambient_multiply,
    ambient_inverse,
    rho,
    dilate,
    apply_cr_field,
    apply_ambient_cr_field,
    central_slice,
)
from .spectral import spectral_data, generic_dimension, is_exceptional
from .fock import fock_basis, rep_apply, pi_of_f_batch, group_convolve, plancherel_residual
from .transform import (
    bump_profile,
    inverse_FN,
    forward_FN,
    extend,
    extend_profile,
    extend_by_resynthesis,
    pw_margin,
    spectral_window,
    bandlimit_project,
    spectrum_support,
)
from .split import split, split_invariants, support_invariance
from .functions import GridSpec, SampledFunction, gaussian_function, l2_norm

__version__ = "0.1.0"
