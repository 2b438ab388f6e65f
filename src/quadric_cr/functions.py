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
at fixed frequencies, fhat(z, lam) = sum_x w_x f(z, x) exp(-i <lam, x>), and
is the only such x-sum in the package: the layer operators pi(f), the
Plancherel layers, the convolution, the extension and the support scans all
call it.  It also returns the x-sums of |f| that the tail diagnostics read.
"""

import inspect
from dataclasses import dataclass, field

import numpy as np

from .quadrature import boundary_mask, gauss_legendre, tensor_rule

__all__ = ["GridSpec", "SpectralForm", "SampledFunction", "gaussian_function", "l2_norm",
           "central_transform"]

# Samples evaluated and contracted at a time by every chunked sum in the
# package: small enough that a chunk, the evaluator's temporaries and the
# x-sums stay in cache.  On a 2-core Xeon with 2 MiB of L2 per core,
# 5e4 to 5e5 ran within 15% of each other and 2e6 about twice as slow.
CHUNK_ELEMENTS = 200_000

# Bytes of per-layer state one Plancherel batch keeps while it walks its
# radical chunks (see `fock.plancherel_residual`).  A larger budget means
# fewer batches, so f is sampled fewer times, at the cost of resident memory.
# At the criterion-01 degenerate size a layer keeps 5.0 MB, so this holds
# six of its 41 layers and f is sampled 7 times, not 41; on a 2-core Xeon
# that run took 29 s at this budget and 37 s at 16 MiB.  The plancherel-deg21
# benchmark fits its 21 layers in one batch (peak RSS 125 MB, 115 MB at
# 16 MiB).
BATCH_STATE_BYTES = 32 * 2**20


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


class _GroundCoeff:
    """The ground-form coefficient z -> amp_j exp(-<lam_j, Phi(z)>)."""

    def __init__(self, model, lambdas, amp):
        self.model, self.lambdas, self.amp = model, lambdas, amp

    def __call__(self, z):
        return self.amp * np.exp(-(self.model.phi(z) @ self.lambdas.T))


@dataclass(frozen=True)
class SpectralForm:
    """Finite central-frequency expansion of a boundary function.

    lambdas : (J, m) frequencies
    coeff   : callable, z (..., n) -> (..., J) complex coefficients

    A ground form has coefficients c_j(z) = amp_j exp(-<lam_j, Phi(z)>), the
    ground-layer coefficients that band-limited synthesis produces; build it
    with `SpectralForm.ground`.  Calling the form evaluates the expansion, so
    it serves as the function's evaluator.
    """

    lambdas: np.ndarray
    coeff: object

    @classmethod
    def ground(cls, model, lambdas, amp):
        """The ground form sum_j amp_j exp(-<lam_j, Phi(z)>) exp(i <lam_j, x>)."""
        return cls(lambdas, _GroundCoeff(model, lambdas, amp))

    @property
    def amp(self):
        """The (J,) amplitudes of a ground form, else None.

        They are read off `coeff`, so a form whose coeff is replaced by any
        other callable is no longer a ground form.  A coeff that wraps a
        ground coefficient through `functools.wraps` keeps the amplitudes:
        such a wrapper must return the values it wraps.
        """
        base = inspect.unwrap(self.coeff)
        return base.amp if isinstance(base, _GroundCoeff) else None

    def __call__(self, z, x):
        """sum_j coeff(z)_j exp(i <lam_j, x>), broadcast over z and x."""
        waves = np.exp(1j * (np.asarray(x, float) @ self.lambdas.T))
        coeff = self.coeff(z)
        if np.isrealobj(coeff):
            # a real coefficient meets Re and Im of the waves in two real
            # products written into the result, with no complex copy of it
            out = np.empty(np.broadcast_shapes(coeff.shape[:-1], waves.shape[:-1]), complex)
            for part, wave in ((out.real, waves.real), (out.imag, waves.imag)):
                np.matmul(coeff[..., None, :], np.ascontiguousarray(wave)[..., None],
                          out=part[..., None, None])
            return out
        return (coeff[..., None, :] @ waves[..., :, None])[..., 0, 0]


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

    The E grid is built one chunk at a time from the C-ordered index range,
    node for node and weight for weight what `tensor_rule` gives, so the
    full (N^(2n), 2n) node array is never held.
    """
    model = f.model
    g = grid or f.grid
    t, tw = g.e_rule()
    xnodes, xweights = tensor_rule([g.f_rule()] * model.m)
    shape = (t.size,) * (2 * model.n)
    points = t.size ** (2 * model.n)
    total = 0.0
    step = max(1, CHUNK_ELEMENTS // xnodes.shape[0])
    for lo in range(0, points, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, points)), shape)
        weights = np.ones(idx[0].size)
        for i in idx:
            weights = weights * tw[i]
        zc = np.stack([t[idx[k]] + 1j * t[idx[k + 1]] for k in range(0, len(idx), 2)], axis=-1)
        vals = f(zc[:, None, :], xnodes[None, :, :])  # (c, X)
        total += float(weights @ (np.abs(vals) ** 2 @ xweights))
    return np.sqrt(total)


def central_transform(f, z, lambdas, xn, xw):
    """Central Fourier transform sum_x w_x f(z, x) exp(-i <lam, x>), shape (Z, J).

    z is (Z, n), lambdas (J, m), and (xn, xw) the central rule.  Returns fhat
    and the x-sums of |f| over the whole box and over its boundary nodes
    (`boundary_mask`), the two sides of an x-tail diagnostic.  f is sampled
    on chunks of z points, and each chunk's x-sum is one matrix product for
    all J frequencies: a real GEMM against (Re, Im) of the phases when the
    samples are real, a complex one otherwise; the |f| sums are one more
    real GEMM.  A spectral form is contracted through its precontracted
    central phases instead, the same x-sums reorganized, on chunks of
    coefficients; its x-tails are not observable and both sums read 0.
    """
    phases = xw[:, None] * np.exp(-1j * (xn @ lambdas.T))  # (X, J)
    J = phases.shape[1]
    out = np.empty((J, z.shape[0]), complex).T  # each frequency's column contiguous
    spectral = getattr(f, "spectral", None)
    if spectral is not None:
        glft = np.exp(1j * (xn @ spectral.lambdas.T)).T @ phases  # (Jf, J)
        step = max(1, CHUNK_ELEMENTS // glft.shape[0])
        for lo in range(0, z.shape[0], step):
            out[lo : lo + step] = spectral.coeff(z[lo : lo + step]) @ glft
        return out, 0.0, 0.0
    phase_ri = np.concatenate([phases.real, phases.imag], axis=1)  # (X, 2J)
    xabs = np.stack([np.abs(xw), np.abs(xw) * boundary_mask(xn)], axis=1)  # (X, 2)
    xtot = xtail = 0.0
    step = max(1, CHUNK_ELEMENTS // xn.shape[0])
    for lo in range(0, z.shape[0], step):
        samples = f(z[lo : lo + step, None, :], xn[None, :, :])  # (c, X)
        if np.isrealobj(samples):
            ri = samples @ phase_ri
            out[lo : lo + step] = ri[:, :J] + 1j * ri[:, J:]
        else:
            out[lo : lo + step] = samples @ phases
        tot, tail = np.sum(np.abs(samples) @ xabs, axis=0)
        xtot += float(tot)
        xtail += float(tail)
    return out, xtot, xtail
