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

The sign in J = s i A(lam) is a global orientation choice; +1 is pinned at
import time by checking positivity of phi_lam on a reference model, and the
dual formula above is re-checked against the eigenvector form in the tests.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import QuadraticModel

__all__ = [
    "SpectralData",
    "spectral_data",
    "layer_invariants",
    "generic_dimension",
    "is_exceptional",
    "positivity_cone_contains",
    "lambda_plus_contains",
]


@functools.lru_cache(maxsize=1)
def _orientation_sign():
    """Pin the sign s in J = s i A(lam) by positivity on a reference layer.

    On the n = m = 1 model with A = [1] at lam = 1 the candidate pairing
    built from J' = s i sign(A) evaluates to s at (1, 1); exactly one sign
    makes it positive.  Computed once and cached.
    """
    ref = QuadraticModel(np.array([[[1.0]]]))
    lam = np.array([1.0])
    good = []
    for s in (1.0, -1.0):
        alam = ref.a_matrix(lam)
        jprime = s * 1j * np.sign(alam)
        a = np.array([1.0 + 0j])
        val = np.vdot(lam, np.imag(ref.phi_pair(jprime @ a, a))) + 1j * np.vdot(
            lam, np.imag(ref.phi_pair(a, a))
        )
        if val.real > 0:
            good.append(s)
    if len(good) != 1:
        raise AssertionError("orientation self-check did not single out a sign")
    return good[0]


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Linear data of one frequency layer.

    lam          : (m,) frequency
    radical      : (n, d) orthonormal kernel basis
    d            : complex dimension of the radical
    eigenvalues  : (K,) nonzero eigenvalues mu_k of A(lam), ascending
    eigenvectors : (n, K) matching orthonormal eigenvectors u_k
    j_prime      : J' = s i sign(A(lam)), vanishing on the radical
    e_plus       : (n, K+) basis of the positive eigenspace
    e_minus      : (n, K-) basis of the negative eigenspace
    pfaffian     : |Pf| = product of |mu_k| (empty product 1)
    """

    lam: np.ndarray
    radical: np.ndarray
    d: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    j_prime: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    pfaffian: float

    @property
    def kdim(self):
        """Complex dimension n - d of the nondegenerate part."""
        return self.eigenvalues.size

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

    def phi_lam_pair_twisted(self, a, b):
        """Same pairing through the twisted-structure formula.

        <lam, Im Phi(J'a, b)> + i <lam, Im Phi(a, b)>, kept as an independent
        route so the two expressions can be checked against each other.
        """
        ja = np.einsum("ij,...j->...i", self.j_prime, np.asarray(a, complex))
        first = np.einsum("k,...k->...", self.lam, np.imag(self._phi_pair(ja, b)))
        second = np.einsum("k,...k->...", self.lam, np.imag(self._phi_pair(a, b)))
        return first + 1j * second

    def phi_lam(self, z):
        """Gaussian weight phi_lam(z) = sum_k |mu_k| |w_k(z)|^2, real."""
        w = self.w_coords(z)
        return np.einsum("k,...k->...", np.abs(self.eigenvalues), np.abs(w) ** 2)

    def radical_coords(self, z):
        """Coordinates of the radical component, shape (..., d)."""
        return np.asarray(z, complex) @ np.conj(self.radical)


def spectral_data(model, lam, rtol=1e-10):
    """Diagonalize one frequency layer of the model.

    Eigenvalues of A(lam) with magnitude at most rtol times the largest are
    treated as zero and span the radical.  The orientation sign is the
    import-time pinned one.
    """
    s = _orientation_sign()
    lam = np.asarray(lam, dtype=float).reshape(model.m)
    alam = model.a_matrix(lam)
    vals, vecs = np.linalg.eigh(alam)
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    if scale == 0.0:
        zero = np.zeros_like(vals, dtype=bool) | True
    else:
        zero = np.abs(vals) <= rtol * scale
    radical = vecs[:, zero]
    keep = ~zero
    mus = vals[keep]
    us = vecs[:, keep]
    sign_part = (us * np.sign(mus)) @ np.conj(us.T)
    sd = SpectralData(
        lam=lam,
        radical=radical,
        d=int(zero.sum()),
        eigenvalues=mus,
        eigenvectors=us,
        j_prime=s * 1j * sign_part,
        e_plus=us[:, mus > 0],
        e_minus=us[:, mus < 0],
        pfaffian=float(np.prod(np.abs(mus))) if mus.size else 1.0,
    )
    object.__setattr__(sd, "_phi_pair", model.phi_pair)
    return sd


def layer_invariants(model, lams, rtol=1e-10):
    """|Pf|, negative-eigenvalue count and radical dimension of many layers.

    One eigvalsh on the (J, n, n) stack of A(lam_j), under spectral_data's
    zero rule: an eigenvalue with |mu| <= rtol max|mu| counts as zero, so
    all of them do when A(lam_j) = 0.  Returns (pfaffian (J,), n_negative (J,), d (J,)),
    matching spectral_data's pfaffian, e_minus.shape[1] and d node by node.
    """
    lams = np.asarray(lams, dtype=float).reshape(-1, model.m)
    vals = np.linalg.eigvalsh(np.tensordot(lams, model.A, axes=1))  # (J, n)
    mags = np.abs(vals)
    zero = mags <= rtol * mags.max(axis=1, initial=0.0, keepdims=True)
    pfaffian = np.prod(np.where(zero, 1.0, mags), axis=1)
    return pfaffian, np.sum(~zero & (vals < 0), axis=1), np.sum(zero, axis=1)


def generic_dimension(model, rtol=1e-10):
    """Generic radical dimension, the minimum of d over sampled frequencies.

    64 frequencies are drawn uniformly from [-1, 1]^m with seed 0; the
    exceptional set where d jumps has measure zero, so the minimum over a
    modest sample is the generic value.
    """
    lams = np.random.default_rng(0).uniform(-1.0, 1.0, (64, model.m))
    _, _, d = layer_invariants(model, lams, rtol)
    return int(d.min(initial=model.n))


def is_exceptional(sd, generic_d):
    """Whether a layer's radical is larger than the generic one."""
    return sd.d > generic_d


def positivity_cone_contains(model, lam, tol=1e-10):
    """Membership in the closed positivity cone, A(lam) positive semidefinite."""
    vals = np.linalg.eigvalsh(model.a_matrix(lam))
    scale = max(1.0, np.max(np.abs(vals)) if vals.size else 0.0)
    return bool(np.min(vals) >= -tol * scale) if vals.size else True


def lambda_plus_contains(model, lam, generic_d=None, tol=1e-10, rtol=1e-10):
    """Membership in the open positive stratum.

    A(lam) must be positive semidefinite with radical of exactly the
    generic dimension; these are the frequencies whose Fock weight
    phi_lam(z) agrees with <lam, Phi(z)>.
    """
    if generic_d is None:
        generic_d = generic_dimension(model)
    vals = np.linalg.eigvalsh(model.a_matrix(lam))
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    if scale == 0.0:
        return generic_d == model.n
    if np.min(vals) < -tol * scale:
        return False
    d = int(np.sum(np.abs(vals) <= rtol * scale))
    return d == generic_d
