"""Quadric models: nilpotent group law, ambient complex group, CR fields.

A quadric model is a Hermitian form on C^n with values in R^m, encoded by m
Hermitian n x n matrices A_1..A_m.  The sesquilinear pairing used everywhere
in this package is

    Phi(a, b)_k = b^H A_k a,

linear in the FIRST argument and conjugate-linear in the second, with real
diagonal Phi(z) = Phi(z, z).  The boundary manifold is E x F = C^n x R^m with
the polynomial group law

    (z, x) (z', x') = (z + z', x + x' + 2 Im Phi(z, z')),

a two-step nilpotent group whose center contains {0} x F.  It sits inside the
ambient complex group E x F_C, where the central variable becomes complex:

    (z, u) (z', u') = (z + z', u + u' + 2 i Phi(z', z)).

Restricting the ambient law to the section u = x + i Phi(z) reproduces the
boundary law, which is checked in the tests.  The height rho(z, u) =
Im u - Phi(z) is a right-invariant gauge: the boundary is {rho = 0} and the
level sets {rho = h} foliate the domain above it.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadraticModel",
    "multiply",
    "inverse",
    "commutator",
    "ambient_multiply",
    "ambient_inverse",
    "rho",
    "dilate",
    "apply_cr_field",
    "apply_ambient_cr_field",
    "central_slice",
]


@dataclass(frozen=True)
class QuadraticModel:
    """Coefficient data of a quadric model.

    A : (m, n, n) complex array, one Hermitian matrix per central dimension.
    """

    A: np.ndarray
    name: str = ""

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise ValueError("A must have shape (m, n, n)")
        herm = np.max(np.abs(A - np.conj(np.swapaxes(A, 1, 2)))) if A.size else 0.0
        scale = max(1.0, np.max(np.abs(A)) if A.size else 0.0)
        if herm > 1e-12 * scale:
            raise ValueError(f"coefficient matrices are not Hermitian (defect {herm:.3e})")
        object.__setattr__(self, "A", A)

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    def phi_pair(self, a, b):
        """Vector-valued pairing Phi(a, b)_k = b^H A_k a, shape (..., m).

        Linear in `a`, conjugate-linear in `b`; both arguments broadcast
        over leading axes.
        """
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        return np.einsum("kij,...i,...j->...k", self.A, np.conj(b), a)

    def phi(self, z):
        """Real diagonal Phi(z) = Phi(z, z), shape (..., m)."""
        z = np.asarray(z, dtype=complex)
        return np.real(np.einsum("kij,...i,...j->...k", self.A, np.conj(z), z))

    @functools.cached_property
    def a_eigh(self):
        """Eigenvalues (ascending) and eigenvectors of A_1, solved once per model
        and read-only; for m = 1 every A(lam) = lam A_1 is theirs scaled by lam."""
        vals, vecs = np.linalg.eigh(self.A[0])
        vals.flags.writeable = vecs.flags.writeable = False
        return vals, vecs

    def a_matrix(self, lam):
        """Frequency matrix A(lam) = sum_k lam_k A_k, Hermitian (n, n)."""
        lam = np.asarray(lam, dtype=float).reshape(self.m)
        return np.tensordot(lam, self.A, axes=1)


def multiply(model, p, q):
    """Group product on the boundary: (z, x) pairs in, (z, x) pair out."""
    za, xa = p
    zb, xb = q
    za = np.asarray(za, complex)
    zb = np.asarray(zb, complex)
    x = np.asarray(xa, float) + np.asarray(xb, float) + 2.0 * np.imag(model.phi_pair(za, zb))
    return za + zb, x


def inverse(model, p):
    """Group inverse (-z, -x); the quadratic terms cancel on the diagonal."""
    z, x = p
    return -np.asarray(z, complex), -np.asarray(x, float)


def commutator(model, p, q):
    """Group commutator p q p^-1 q^-1, computed by honest multiplication.

    The result is always central, equal to (0, 4 Im Phi(z_p, z_q)).
    """
    pq = multiply(model, p, q)
    return multiply(model, pq, multiply(model, inverse(model, p), inverse(model, q)))


def ambient_multiply(model, p, q):
    """Product in the ambient complex group, central variable in C^m."""
    za, ua = p
    zb, ub = q
    za = np.asarray(za, complex)
    zb = np.asarray(zb, complex)
    u = np.asarray(ua, complex) + np.asarray(ub, complex) + 2j * model.phi_pair(zb, za)
    return za + zb, u


def ambient_inverse(model, p):
    """Inverse in the ambient group: (-z, -u + 2 i Phi(z))."""
    z, u = p
    z = np.asarray(z, complex)
    return -z, -np.asarray(u, complex) + 2j * model.phi_pair(z, z)


def rho(model, z, u):
    """Height gauge rho(z, u) = Im u - Phi(z), shape (..., m)."""
    return np.imag(np.asarray(u, complex)) - model.phi(z)


def dilate(model, t, p):
    """Parabolic dilation t.(z, x) = (sqrt(t) z, t x), an automorphism."""
    z, x = p
    if t <= 0:
        raise ValueError("dilation parameter must be positive")
    return np.sqrt(t) * np.asarray(z, complex), t * np.asarray(x, float)


def apply_cr_field(model, v, f, z, x, conjugate=False, step=1e-4):
    """Apply the left-invariant CR field Z_v (or its conjugate) to f at (z, x).

    The holomorphic field attached to a direction v in C^n is

        Z_v = dE_v + i conj(Phi(z, v)) . d_x,      dE_v = (d_v - i d_{iv}) / 2,

    and `conjugate=True` applies the complex conjugate field, which
    annihilates boundary values of functions holomorphic in the central
    variable.  All derivatives are second-order central differences with
    the given step; f must accept batched (z, x) arrays.
    """
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=complex).reshape(model.n)
    h = float(step)

    def ddir(dz):
        return (f(z + h * dz, x) - f(z - h * dz, x)) / (2.0 * h)

    d_v = ddir(v)
    d_iv = ddir(1j * v)
    if conjugate:
        horiz = 0.5 * (d_v + 1j * d_iv)
        coeff = -1j * model.phi_pair(z, v)
    else:
        horiz = 0.5 * (d_v - 1j * d_iv)
        coeff = 1j * np.conj(model.phi_pair(z, v))
    out = horiz
    for k in range(model.m):
        ek = np.zeros(model.m)
        ek[k] = h
        dxk = (f(z, x + ek) - f(z, x - ek)) / (2.0 * h)
        out = out + coeff[..., k] * dxk
    return out


def apply_ambient_cr_field(model, v, f, z, u, conjugate=False, step=1e-4):
    """Left-invariant extension of Z_v to the ambient complex group.

    The one-parameter subgroups through (t v, 0) and (t iv, 0) right-translate
    a point (z, u) along the real tangents (v, 2 i Phi(v, z)) and
    (iv, -2 Phi(v, z)); combining the two directional derivatives gives the
    holomorphic combination.  Slicing commutes with this field, so applying
    it to an ambient function and restricting agrees with `apply_cr_field`
    of the restriction (tested on polynomials).
    """
    z = np.asarray(z, dtype=complex)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex).reshape(model.n)
    h = float(step)
    pv = model.phi_pair(v, z)  # Phi(v, z), conjugate-linear in z

    def along(dz, du):
        return (f(z + h * dz, u + h * du) - f(z - h * dz, u - h * du)) / (2.0 * h)

    x_v = along(v, 2j * pv)
    x_iv = along(1j * v, -2.0 * pv)
    if conjugate:
        return 0.5 * (x_v + 1j * x_iv)
    return 0.5 * (x_v - 1j * x_iv)


def central_slice(model, f, h=0.0):
    """Restrict an ambient function to the graph u = x + i (Phi(z) + h).

    Returns a boundary-type callable g(z, x).  h may be a scalar or an
    m-vector offset in the height gauge.
    """
    hvec = np.broadcast_to(np.asarray(h, dtype=float), (model.m,))

    def sliced(z, x):
        return f(z, np.asarray(x, float) + 1j * (model.phi(z) + hvec))

    return sliced
