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
over a box at fixed frequencies, fhat(z, lam) = int f(z, x) exp(-i <lam, x>),
and is the only such transform in the package: the layer operators pi(f),
the Plancherel layers, the convolution, the extension and the support scans
all call it.  It is built once per set of frequencies and applied to chunks
of z.  For a spectral form the box integral of each exponential has a
closed form, a product of 2 sin(kappa xbox)/kappa, so no central rule is
built; any other function is sampled on a tensor Gauss-Legendre rule, and
the box's node count matters only there.  The sampled path also returns
the x-sums of |f| that the tail diagnostics read and each point's
x-integral of |f|^2, so one sampling serves a norm too; the library's own
callers integrate |f|^2 only where they read it, `l2_norm` and a Plancherel
pass's first batch.  `l2_norm` closes
its x-integral the same way: a spectral form's is a Gram form of the same
box integrals, and a sampled function's is that |f|^2 integral of the
central transform.
"""

import inspect
from dataclasses import dataclass, field

import numpy as np

from .quadrature import boundary_mask, gauss_legendre, tensor_rule

__all__ = ["GridSpec", "SpectralForm", "SampledFunction", "gaussian_function", "l2_norm",
           "central_transform"]

# Samples evaluated and contracted at a time by every chunked sum in the
# package but a spectral form's coefficient chunks (below).  A sampled
# chunk's temporaries (the samples, the evaluator's own arrays, |f|) are
# about 2 MB here, and glibc keeps them in its heap from one chunk to the
# next.  At 200_000, four times as large, they passed glibc's dynamic trim
# threshold, so every chunk's arrays went back to the kernel and were faulted
# in again: a plancherel-deg21 pass took 55k minor faults and 0.12 s of
# system time there, against 4.3k and 0.01 s at 50_000.  On a 2-core Xeon,
# one BLAS thread, that pass read 0.96 s at 25_000, 1.01 s here, 0.98 s at
# 100_000 (the three inside one another's spread) and 1.13 s at 200_000,
# medians of 8 passes in 4 fresh processes.
CHUNK_ELEMENTS = 50_000

# Elements a coefficient chunk of a spectral form holds in `central_transform`
# and `l2_norm`.  Its temporaries hold one element per point and frequency, so
# at 6250 a complex one is 100 KB and a real one 50 KB, under glibc's initial
# 128 KiB mmap threshold: they stay in the heap whatever the process has
# freed before.  At CHUNK_ELEMENTS a ground form of 64 frequencies took 781
# points a chunk and 400 KB real temporaries, which glibc mmapped and faulted
# in on every call unless an earlier large free had raised its threshold.  A
# convolve-heis1 pass read 3.16-3.23 ms there, 2.61-2.76 ms with glibc's
# thresholds pinned from the environment, and 2.38-2.51 ms at this size with
# or without (2-core Xeon, one BLAS thread, medians of 300 in-process passes).
SPECTRAL_CHUNK_ELEMENTS = CHUNK_ELEMENTS // 8

# Largest exponent `_check_exponent` lets `transform.extend`, `pw_margin`, both
# extension routes and `fock.group_convolve` take: e^600 leaves room for sums.
EXP_LIMIT = 600.0


def _check_exponent(exponent, what):
    """The exponent, once no real part passes EXP_LIMIT; else a ValueError naming `what`."""
    top = float(np.max(np.real(exponent)))
    if top > EXP_LIMIT:
        raise ValueError(f"{what} reaches exp({top:.0f}), past exp({EXP_LIMIT:.0f})")
    return exponent


@dataclass(frozen=True)
class GridSpec:
    """Quadrature box and resolution for one function.

    ebox    : half-width of the box per real coordinate of E = C^n
    enodes  : Gauss-Legendre nodes per real E coordinate
    fbox    : half-width per central coordinate
    fnodes  : Gauss-Legendre nodes per central coordinate, read only where
              f is sampled (a spectral form's central transform and L^2
              norm are closed)
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
    """A boundary function, its quadrature conventions and its synthesis warnings."""

    model: object
    evaluate: object
    grid: GridSpec = field(default_factory=GridSpec)
    spectral: SpectralForm | None = None
    warnings: tuple = ()

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


def _box_kernel(kappa, xbox):
    """prod_k 2 sin(kappa_k xbox) / kappa_k over the last axis of kappa.

    The integral of e^(i <kappa, x>) over the box [-xbox, xbox]^m, 2 xbox
    per coordinate where kappa_k = 0.
    """
    return np.prod(2.0 * xbox * np.sinc(kappa * (xbox / np.pi)), axis=-1)


def l2_norm(f, grid=None):
    """L^2 norm of a boundary function over its grid box.

    Plain tensor Gauss-Legendre rule in the 2n real E coordinates; the box
    must capture the function's mass, which is the caller's responsibility
    (checked where it matters by the transforms' tail diagnostics).

    The x-integral over the central box is closed for a spectral form
    sum_j c_j(z) e^(i <lam_j, x>): it is c^H G c with the real Gram matrix
    G_jl = prod_k 2 sin(kappa_k fbox) / kappa_k, kappa = lam_j - lam_l (the
    box kernel of `central_transform`), so no central rule is built and the
    form is never evaluated.  Any other f is sampled by `central_transform`
    at no frequency, on its tensor Gauss-Legendre rule of fnodes nodes per
    central coordinate (which matters only there), and its |f|^2
    x-integral is read.

    The E grid is built one chunk at a time from the C-ordered index range,
    node for node and weight for weight what `tensor_rule` gives, so the
    full (N^(2n), 2n) node array is never held.
    """
    model = f.model
    g = grid or f.grid
    t, tw = g.e_rule()
    if f.spectral is not None:
        lams = f.spectral.lambdas
        gram = _box_kernel(lams[:, None, :] - lams[None, :, :], g.fbox)  # (J, J)
        step = max(1, SPECTRAL_CHUNK_ELEMENTS // lams.shape[0])

        def x_integral(zc):
            c = f.spectral.coeff(zc)  # (c, J)
            # Re(c^H G c) = Re c . G Re c + Im c . G Im c, one real GEMM a part
            parts = (c.real, c.imag) if np.iscomplexobj(c) else (c,)
            return sum(np.einsum("ij,ij->i", p, p @ gram) for p in parts)
    else:
        # the central transform at no frequency: only its |f|^2 x-integral
        transform = central_transform(f, np.zeros((0, model.m)), g.fbox, g.fnodes)
        step = max(1, CHUNK_ELEMENTS // g.fnodes**model.m)

        def x_integral(zc):
            return transform(zc)[3]
    shape = (t.size,) * (2 * model.n)
    points = t.size ** (2 * model.n)
    total = 0.0
    for lo in range(0, points, step):
        idx = np.unravel_index(np.arange(lo, min(lo + step, points)), shape)
        weights = np.ones(idx[0].size)
        for i in idx:
            weights = weights * tw[i]
        zc = np.stack([t[idx[k]] + 1j * t[idx[k + 1]] for k in range(0, len(idx), 2)], axis=-1)
        total += float(weights @ x_integral(zc))
    return np.sqrt(total)


def central_transform(f, lambdas, xbox, xnodes):
    """Central Fourier transform on the box [-xbox, xbox]^m, as a function of z.

    lambdas is (J, m).  Returns transform(z, out=None) -> (fhat (Z, J), xtot,
    xtail, xsq) for z (Z, n), with fhat(z, lam) = integral of f(z, x)
    e^(-i <lam, x>) over the box, the x-sums of |f| over the whole box and
    over its boundary nodes (`boundary_mask`), the two sides of an x-tail
    diagnostic, and xsq (Z,), each point's integral of |f(z, x)|^2 over the
    box.  fhat is written into out where one is given, any (Z, J) complex
    array, else into a new one with each frequency's column contiguous.
    Everything that depends only on the frequencies is built once, here,
    and the returned function applies it to chunks of z.

    A spectral form sum_j c_j(z) e^(i <lam_j, x>) has the closed form

        fhat(z, lam) = sum_j c_j(z) prod_k 2 sin(kappa_k xbox) / kappa_k,

    kappa = lam_j - lam (2 xbox where kappa_k = 0), so its coefficients are
    contracted with that real (J_f, J) matrix and no x-rule is built; its
    x-tails are not observable and both sums read 0, and xsq is None (its
    closed form is `l2_norm`'s Gram form).  Any other f is sampled on
    chunks of z of at most `CHUNK_ELEMENTS` samples against the tensor
    Gauss-Legendre rule of xnodes nodes per coordinate, and each chunk's
    x-sum is one matrix product for all J frequencies: for real samples two
    real GEMMs against Re and Im of the phases, written straight into the
    two halves of fhat, a complex one otherwise; the |f| sums are one more
    real GEMM and xsq a GEMV of |f|^2.  xnodes matters only for sampled
    functions.
    """
    return _central_transform(f, lambdas, xbox, xnodes, True)


def _central_transform(f, lambdas, xbox, xnodes, squares):
    """`central_transform`, whose sampled path integrates |f|^2 only where
    squares is true and otherwise returns xsq None: of the library's
    callers only `l2_norm` and a Plancherel pass's first batch read it."""
    J = lambdas.shape[0]
    spectral = f.spectral  # the form the returned transform applies
    if spectral is not None:
        kappa = spectral.lambdas[:, None, :] - lambdas[None, :, :]  # (Jf, J, m)
        box = _box_kernel(kappa, xbox)  # (Jf, J)
        step = max(1, SPECTRAL_CHUNK_ELEMENTS // max(box.shape))

        def transform(z, out=None):
            if out is None:
                out = np.empty((J, z.shape[0]), complex).T  # each frequency's column contiguous
            for lo in range(0, z.shape[0], step):
                out[lo : lo + step] = spectral.coeff(z[lo : lo + step]) @ box
            return out, 0.0, 0.0, None

        return transform
    xn, xw = tensor_rule([gauss_legendre(xnodes, -xbox, xbox)] * lambdas.shape[1])
    phases = xw[:, None] * np.exp(-1j * (xn @ lambdas.T))  # (X, J)
    halves = np.ascontiguousarray(phases.real), np.ascontiguousarray(phases.imag)
    xabs = np.stack([np.abs(xw), np.abs(xw) * boundary_mask(xn)], axis=1)  # (X, 2)
    step = max(1, CHUNK_ELEMENTS // xn.shape[0])

    def transform(z, out=None):
        if out is None:
            out = np.empty((J, z.shape[0]), complex).T
        xsq = np.empty(z.shape[0]) if squares else None
        xtot = xtail = 0.0
        for lo in range(0, z.shape[0], step):
            chunk = out[lo : lo + step]
            samples = f(z[lo : lo + step, None, :], xn[None, :, :])  # (c, X)
            if np.isrealobj(samples):
                for part, half in zip((chunk.real, chunk.imag), halves):
                    np.matmul(samples, half, out=part)
            else:
                chunk[...] = samples @ phases
            absf = np.abs(samples)
            tot, tail = np.sum(absf @ xabs, axis=0)
            xtot += float(tot)
            xtail += float(tail)
            if squares:
                np.matmul(np.square(absf, out=absf), xw, out=xsq[lo : lo + step])
        return out, xtot, xtail, xsq

    return transform
