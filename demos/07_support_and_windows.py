"""Spectral support, a non-CR control, and window projections.

Boundary values of holomorphic functions keep their fiber spectrum inside
the closed positivity cone.  Conjugating a band-limited function reflects
its spectrum to the negative axis: the support scan sees it immediately and
the conjugate CR field no longer annihilates it.  Spectral windows then cut
band-limited functions down to compactly-inside-supported ones with L2 loss
vanishing as the window sharpens.  The projection only reweights the
amplitudes of f's ground form, so f - f_eps is the ground form of the
amplitude difference, and its L2 norm is closed in the central variable:
no central rule is built, and fnodes is not read.
"""

import numpy as np

from quadric_cr import (QuadraticModel, GridSpec, SampledFunction, inverse_FN,
                        spectrum_support, spectral_window, bandlimit_project,
                        apply_cr_field, l2_norm)
from quadric_cr.convex import interval_body, cone_body
from quadric_cr.functions import SpectralForm
from quadric_cr.transform import bump_profile

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
K = interval_body(1.0, 2.0)
f = inverse_FN(HEIS1, bump_profile(K, nodes=96))
lams = np.linspace(-6.0, 6.0, 121).reshape(-1, 1)
P = cone_body(np.array([[1.0]]))

sup = spectrum_support(f, lams, body=P)
print("band-limited data: spectral mass outside the positivity cone:",
      sup["outside_fraction"])

ctrl = SampledFunction(HEIS1, lambda z, x: np.conj(f(z, x)), f.grid)
csup = spectrum_support(ctrl, lams, body=P)
print("conjugated control: outside fraction:", csup["outside_fraction"])

rng = np.random.default_rng(5)
zc = (rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))) * 0.7
xc = rng.uniform(-2.0, 2.0, (30, 1))
scale = np.abs(f(zc, xc)).max()
for name, fun in (("band-limited", f), ("control", ctrl)):
    r = np.abs(apply_cr_field(HEIS1, np.array([1.0]), fun, zc, xc, conjugate=True)).max()
    print(f"conjugate CR residual, {name}: {r / scale:.3e}")

print()
print("window projections, dyadic sharpening:")
grid = GridSpec(ebox=4.0, enodes=40, fbox=20.0)
for eps in (0.8, 0.4, 0.2, 0.1):
    w = spectral_window(K, eps)
    proj = bandlimit_project(f, w)
    form = SpectralForm.ground(HEIS1, f.spectral.lambdas, f.spectral.amp - proj.spectral.amp)
    diff = SampledFunction(HEIS1, form, grid, spectral=form)
    print(f"  eps={eps:4.2f}  ||f - f_eps||_2 = {l2_norm(diff, grid):.3e}")
