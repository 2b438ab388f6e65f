"""Function containers and grid conventions shared by the transforms.

A `SampledFunction` bundles a vectorized evaluator f(z, x) on the boundary
group with the box/resolution metadata used whenever the function has to be
integrated, plus an optional `SpectralForm` describing f as a finite sum of
central frequencies,

    f(z, x) = sum_j c_j(z) exp(i <lam_j, x>).

Band-limited synthesis produces this form naturally, and the transforms use
it to reorganize their quadrature sums without changing what is summed.  A
`SpectralForm` is itself the function's evaluator.

`central_transform` computes the Fourier transform in the central variable
at fixed frequencies, fhat(z, lam) = sum_x w_x f(z, x) exp(-i <lam, x>), for
the extension, the support scans and the spectral convolution.
"""

from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_legendre, tensor_rule

__all__ = ["GridSpec", "SpectralForm", "SampledFunction", "gaussian_function", "l2_norm",
           "central_transform"]

# Samples evaluated and contracted at a time by every chunked sum in the
# package: small enough that a chunk, the evaluator's temporaries and the
# x-sums stay in cache.  On a 2-core Xeon with 2 MiB of L2 per core,
# 5e4 to 5e5 ran within 15% of each other and 2e6 about twice as slow.
CHUNK_ELEMENTS = 200_000


@dataclass(frozen=True)
class GridSpec:
    """Quadrature box and resolution for one function.

    ebox    : half-width of the box per real coordinate of E = C^n
    enodes  : Gauss-Legendre nodes per real E coordinate
    fbox    : half-width per central coordinate
    fnodes  : Gauss-Legendre nodes per central coordinate
    """

    ebox: float = 4.0
    enodes: int = 40
    fbox: float = 6.0
    fnodes: int = 48

    def e_rule(self):
        return gauss_legendre(self.enodes, -self.ebox, self.ebox)

    def f_rule(self):
        return gauss_legendre(self.fnodes, -self.fbox, self.fbox)


@dataclass(frozen=True)
class SpectralForm:
    """Finite central-frequency expansion of a boundary function.

    lambdas : (J, m) frequencies
    coeff   : callable, z (..., n) -> (..., J) complex coefficients

    Calling the form evaluates the expansion, so it serves as the function's
    evaluator.
    """

    lambdas: np.ndarray
    coeff: object

    def __call__(self, z, x):
        """sum_j coeff(z)_j exp(i <lam_j, x>), broadcast over z and x."""
        waves = np.exp(1j * (np.asarray(x, float) @ self.lambdas.T))
        return np.einsum("...j,...j->...", self.coeff(z), waves)


@dataclass
class SampledFunction:
    """A boundary function together with its quadrature conventions."""

    model: object
    evaluate: object
    grid: GridSpec = field(default_factory=GridSpec)
    spectral: SpectralForm | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, z, x):
        return self.evaluate(z, x)


def gaussian_function(model, grid=None):
    """The Schwartz witness exp(-|z|^2 - |x|^2) on the boundary group."""

    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        return np.exp(
            -np.sum(np.abs(z) ** 2, axis=-1) - np.sum(x**2, axis=-1) + 0j
        )

    return SampledFunction(model, ev, grid or GridSpec())


def l2_norm(f, grid=None):
    """L^2 norm of a boundary function over its grid box.

    Plain tensor Gauss-Legendre rule in the 2n real E coordinates and the m
    central coordinates; the box must capture the function's mass, which is
    the caller's responsibility (checked where it matters by the transforms'
    tail diagnostics).
    """
    model = f.model
    g = grid or f.grid
    erule = g.e_rule()
    frule = g.f_rule()
    enodes, eweights = tensor_rule([erule] * (2 * model.n))
    xnodes, xweights = tensor_rule([frule] * model.m)
    zgrid = enodes[:, 0::2] + 1j * enodes[:, 1::2]
    total = 0.0
    step = max(1, CHUNK_ELEMENTS // xnodes.shape[0])
    for lo in range(0, zgrid.shape[0], step):
        vals = f(zgrid[lo : lo + step, None, :], xnodes[None, :, :])  # (c, X)
        total += float(eweights[lo : lo + step] @ (np.abs(vals) ** 2 @ xweights))
    return np.sqrt(total)


def central_transform(f, z, lambdas, xn, xw):
    """Central Fourier transform sum_x w_x f(z, x) exp(-i <lam, x>), shape (Z, J).

    z is (Z, n), lambdas (J, m), and (xn, xw) the central rule.  The phase
    matrix is built once; f is sampled on chunks of z points.
    """
    phases = xw[:, None] * np.exp(-1j * (xn @ lambdas.T))  # (X, J)
    out = np.empty((z.shape[0], phases.shape[1]), complex)
    step = max(1, CHUNK_ELEMENTS // xn.shape[0])
    for lo in range(0, z.shape[0], step):
        out[lo : lo + step] = f(z[lo : lo + step, None, :], xn[None, :, :]) @ phases
    return out
