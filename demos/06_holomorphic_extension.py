"""Extending band-limited boundary data into the domain.

Band-limited boundary values extend holomorphically into the tube over the
cone polar to the frequency body, with growth controlled by the supporting
function: |f(zeta, x + i Phi(zeta) + i h)| <= C e^{-inf_K <lam, h>}.  Two
independent numerical routes compute the extension; their agreement is the
working Paley-Wiener certificate.
"""

import numpy as np

from quadric_cr import (QuadraticModel, inverse_FN, extend, extend_by_resynthesis,
                        extend_profile, pw_margin)
from quadric_cr.convex import interval_body
from quadric_cr.transform import bump_profile

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
K = interval_body(1.0, 2.0)
prof = bump_profile(K, nodes=96)
f = inverse_FN(HEIS1, prof)

z = np.array([[0.25 + 0.1j]])
print("decay into the tube (frequency body [1,2], so between e^-2h and e^-h):")
for h in (0.5, 1.0, 2.0, 4.0):
    u = 1j * (HEIS1.phi(z) + h)
    val = extend(f, z, u)
    print(f"  h={h:4.1f}  |f| = {abs(val[0]):.3e}   e^-2h = {np.exp(-2*h):.3e}"
          f"   e^-h = {np.exp(-h):.3e}")

rng = np.random.default_rng(5)
zs = (rng.standard_normal((50, 1)) + 1j * rng.standard_normal((50, 1))) * 0.6
hs = rng.uniform(0.05, 1.2, (50, 1))
xs = rng.standard_normal((50, 1))
us = xs + 1j * (HEIS1.phi(zs) + hs)
va = extend_by_resynthesis(f, K, zs, us)
vb = extend_profile(HEIS1, prof, zs, us)
print("route A vs route B, max relative gap:",
      (np.abs(va - vb) / np.abs(vb)).max())

zz = np.repeat(z, 7, axis=0)
hh = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]).reshape(-1, 1)
uu = np.zeros((7, 1)) + 1j * (HEIS1.phi(zz) + hh)
margins = pw_margin(f, K, zz, uu, order=3)
print("paley-wiener margins along the ray (finite and growing):")
print(" ", np.array2string(margins, precision=3))
