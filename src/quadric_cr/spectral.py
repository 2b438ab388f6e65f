"""Frequency-layer linear algebra: radicals, twisted complex structures, Fock weights.

For a real frequency lam in R^m the Hermitian matrix A(lam) splits C^n into
its kernel (the radical, complex dimension d) and the orthogonal complement,
where A(lam) is invertible with eigenpairs (mu_k, u_k).  The twisted complex
structure J' = i sign(A(lam)) turns the complement into a positive pairing

    phi_lam(a, b) = <lam, Im Phi(J' a, b)> + i <lam, Im Phi(a, b)>
                  = sum_k |mu_k| w_k(a) conj(w_k(b)),

where w_k are the lam-holomorphic coordinates: eigenvector coordinates,
conjugated on the negative eigenspace.  phi_lam(z) = phi_lam(z, z) is the
Gaussian weight of the frequency's Fock space, and it coincides with
<lam, Phi(z)> exactly when lam lies in the positivity cone.

Which eigenvalues count as zero is decided in one place, `_zero`: |mu| <=
ZERO_RTOL max|mu| on the layer, so all of them do when A(lam) = 0.  The
radical, d, |Pf| (the product of the nonzero |mu|, empty product 1) and the
negative-eigenvalue count all follow from it, for one layer
(`spectral_data`) or a stack (`layer_invariants`).  The closed positivity
cone is where that count is 0.

The sign in J = s i A(lam) is a global orientation choice, s = +1, the one
that makes the twisted pairing positive; the tests pin it and check the
twisted formula against the eigenvector form.  For m = 1, A(lam) = lam A,
so `spectral_data` scales the eigenpairs of A by lam (reversed for lam < 0):
every layer of one sign gets bitwise the same eigenvectors, one frame for
`plancherel_residual`, which eigh(lam A) does not give.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralData",
    "spectral_data",
    "layer_invariants",
    "generic_dimension",
    "is_exceptional",
    "plancherel_constant",
]

ZERO_RTOL = 1e-10


def _zero(vals):
    """Which eigenvalues of A(lam) count as zero, shape (..., n) like vals.

    The package's one eigenvalue rule: |mu| <= ZERO_RTOL max|mu| over the
    layer (the last axis), so every eigenvalue counts when A(lam) = 0.
    """
    mags = np.abs(vals)
    return mags <= ZERO_RTOL * mags.max(axis=-1, initial=0.0, keepdims=True)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Linear data of one frequency layer.

    lam          : (m,) frequency
    radical      : (n, d) orthonormal kernel basis
    d            : complex dimension of the radical
    eigenvalues  : (K,) nonzero eigenvalues mu_k of A(lam), ascending
    eigenvectors : (n, K) matching orthonormal eigenvectors u_k
    pfaffian     : |Pf| = product of |mu_k| (empty product 1)
    """

    lam: np.ndarray
    radical: np.ndarray
    d: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pfaffian: float

    @property
    def kdim(self):
        """Complex dimension n - d of the nondegenerate part."""
        return self.eigenvalues.size

    @property
    def j_prime(self):
        """J' = i sign(A(lam)), vanishing on the radical."""
        us = self.eigenvectors
        return 1j * ((us * np.sign(self.eigenvalues)) @ np.conj(us.T))

    def w_coords(self, z):
        """lam-holomorphic coordinates of z, shape (..., K).

        Eigenvector coordinates c_k = u_k^H z, conjugated where mu_k < 0.
        The radical component of z is silently discarded.
        """
        c = np.asarray(z, complex) @ np.conj(self.eigenvectors)
        return np.where(self.eigenvalues > 0, c, np.conj(c))

    def phi_lam_pair(self, a, b):
        """Positive pairing phi_lam(a, b) = sum_k |mu_k| w_k(a) conj(w_k(b))."""
        wa = self.w_coords(a)
        wb = self.w_coords(b)
        return np.einsum("k,...k,...k->...", np.abs(self.eigenvalues), wa, np.conj(wb))

    def phi_lam_pair_twisted(self, model, a, b):
        """Same pairing through the twisted-structure formula on the layer's model.

        <lam, Im Phi(J'a, b)> + i <lam, Im Phi(a, b)>, kept as an independent
        route so the two expressions can be checked against each other.
        """
        ja = np.einsum("ij,...j->...i", self.j_prime, np.asarray(a, complex))
        first = np.einsum("k,...k->...", self.lam, np.imag(model.phi_pair(ja, b)))
        second = np.einsum("k,...k->...", self.lam, np.imag(model.phi_pair(a, b)))
        return first + 1j * second

    def phi_lam(self, z):
        """Gaussian weight phi_lam(z) = sum_k |mu_k| |w_k(z)|^2, real."""
        w = self.w_coords(z)
        return np.einsum("k,...k->...", np.abs(self.eigenvalues), np.abs(w) ** 2)

    def radical_coords(self, z):
        """Coordinates of the radical component, shape (..., d)."""
        return np.asarray(z, complex) @ np.conj(self.radical)


def spectral_data(model, lam):
    """Diagonalize one frequency layer of the model.

    The eigenvalues `_zero` counts as zero span the radical.  For m = 1 the
    eigenpairs are those of A, solved once per model (`QuadraticModel.a_eigh`)
    and scaled by lam.
    """
    lam = np.asarray(lam, dtype=float).reshape(model.m)
    if model.m == 1:
        vals, vecs = model.a_eigh
        vals = lam[0] * vals
        if lam[0] < 0:
            vals, vecs = vals[::-1], vecs[:, ::-1]
    else:
        vals, vecs = np.linalg.eigh(model.a_matrix(lam))
    zero = _zero(vals)
    mus = vals[~zero]
    return SpectralData(
        lam=lam,
        radical=vecs[:, zero],
        d=int(zero.sum()),
        eigenvalues=mus,
        eigenvectors=vecs[:, ~zero],
        pfaffian=float(np.prod(np.abs(mus))),
    )


def layer_invariants(model, lams):
    """|Pf|, negative-eigenvalue count and radical dimension of many layers.

    One eigvalsh on the (J, n, n) stack of A(lam_j), under the `_zero` rule.
    Returns (pfaffian (J,), n_negative (J,), d (J,)), matching spectral_data's
    pfaffian, number of negative eigenvalues and d node by node; a layer is in
    the closed positivity cone exactly when its n_negative is 0.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, model.m)
    vals = np.linalg.eigvalsh(np.tensordot(lams, model.A, axes=1))  # (J, n)
    zero = _zero(vals)
    pfaffian = np.prod(np.where(zero, 1.0, np.abs(vals)), axis=1)
    return pfaffian, np.sum(~zero & (vals < 0), axis=1), np.sum(zero, axis=1)


def generic_dimension(model):
    """Generic radical dimension, the minimum of d over sampled frequencies.

    64 frequencies are drawn uniformly from [-1, 1]^m with seed 0; the
    exceptional set where d jumps has measure zero, so the minimum over a
    modest sample is the generic value.
    """
    lams = np.random.default_rng(0).uniform(-1.0, 1.0, (64, model.m))
    _, _, d = layer_invariants(model, lams)
    return int(d.min(initial=model.n))


def is_exceptional(sd, generic_d):
    """Whether a layer's radical is larger than the generic one."""
    return sd.d > generic_d


def plancherel_constant(model, d):
    """2^(n-m-3d) / pi^(n+m+d), the Plancherel constant at generic radical dimension d.

    Its d = 0 case is the synthesis constant of band-limited functions.
    """
    return 2.0 ** (model.n - model.m - 3 * d) / np.pi ** (model.n + model.m + d)
