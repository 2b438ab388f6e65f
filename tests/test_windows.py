import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadric_cr import transform
from quadric_cr.model import QuadraticModel
from quadric_cr.convex import box_body, interval_body, segment_body
from quadric_cr.functions import GridSpec, SampledFunction, SpectralForm, gaussian_function, l2_norm
from quadric_cr.transform import (
    bandlimit_project,
    bump_profile,
    inverse_FN,
    spectral_window,
)

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
K12 = interval_body(1.0, 2.0)


def test_window_exact_plateau_and_support():
    w = spectral_window(K12, 0.4)
    # plateau [1.3, 1.7] carries exactly one, including the endpoints
    assert np.all(w(np.array([[1.3], [1.5], [1.7]])) == 1.0)
    # support is [1.1, 1.9]; outside it the window is exactly zero
    assert np.all(w(np.array([[1.05], [1.0999], [1.91], [2.0], [0.0]])) == 0.0)
    # halfway point of the clipped indicator edge
    assert abs(w(np.array([[1.2]]))[0] - 0.5) < 1e-12
    assert abs(w(np.array([[1.8]]))[0] - 0.5) < 1e-12


def test_window_bodies_and_derivative_bound():
    w = spectral_window(K12, 0.4)
    assert np.allclose(np.sort(w.plateau.points.ravel()), [1.3, 1.7])
    assert np.allclose(np.sort(w.outer.points.ravel()), [1.1, 1.9])
    # sup|w'| = 4 / (eps * bump mass); probe by finite differences
    t = np.linspace(1.05, 1.95, 2001)[:, None]
    v = w(t)
    slopes = np.abs(np.diff(v)) / (t[1, 0] - t[0, 0])
    assert slopes.max() <= w.deriv_bound * (1 + 1e-3)
    assert slopes.max() > 0.9 * w.deriv_bound  # the bound is near sharp


def test_window_box_2d():
    B = box_body([0.0, 0.0], [1.0, 1.0])
    w = spectral_window(B, 0.3)
    assert w(np.array([[0.5, 0.5]]))[0] == 1.0
    assert w(np.array([[0.05, 0.5]]))[0] == 0.0
    # product structure: corner value is the square of the edge value
    edge = w(np.array([[0.2, 0.5]]))[0]
    corner = w(np.array([[0.2, 0.2]]))[0]
    assert abs(corner - edge**2) < 1e-12


def test_window_validation():
    with pytest.raises(ValueError):
        spectral_window(K12, 0.0)
    with pytest.raises(NotImplementedError):
        spectral_window(segment_body([0.0, 0.0], [1.0, 1.0]), 0.1)


def test_window_wider_than_body_is_identically_zero():
    # eroding by eps/2 empties the body, so nothing survives the windowing
    w = spectral_window(K12, 1.2)
    assert w.empty
    assert w.plateau.kind == "empty"
    t = np.linspace(0.5, 2.5, 41)[:, None]
    assert np.all(w(t) == 0.0)
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=16))
    g = bandlimit_project(f, w)
    z = np.zeros((1, 1), complex)
    assert np.all(g(z, np.array([[0.0], [1.0]])) == 0.0)


def test_projection_reweights_a_spectral_form_that_is_not_ground():
    # coefficients that are no ground form: the projection multiplies them
    # by the window at each frequency node and has no amplitudes
    lams = np.linspace(0.95, 2.05, 7)[:, None]

    def base(z):
        z = np.asarray(z, complex)
        return np.exp(-np.abs(z) ** 2 * (1.0 + lams[:, 0]) + 1j * z.real * lams[:, 0])

    form = SpectralForm(lams, base)
    f = SampledFunction(HEIS1, form, GridSpec(), spectral=form)
    w = spectral_window(K12, 0.4)
    scale = w(lams)
    assert (scale == 0.0).any() and ((scale > 0.0) & (scale < 1.0)).any()
    p = bandlimit_project(f, w)
    assert form.amp is None and p.spectral.amp is None
    assert p.spectral.lambdas is lams
    z = np.array([[0.3 - 0.2j], [0.0], [-1.1 + 0.4j]])
    assert np.array_equal(p.spectral.coeff(z), base(z) * scale)


def test_empty_window_on_a_sampled_function_synthesizes_no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty window synthesizes no kernel")

    monkeypatch.setattr(transform, "inverse_FN", refuse)
    monkeypatch.setattr(transform, "group_convolve", refuse)
    f = gaussian_function(HEIS1)
    g = bandlimit_project(f, spectral_window(K12, 1.2))
    assert g.spectral is None and g.grid is f.grid
    z = np.array([[0.3 - 0.2j], [0.0]])
    x = np.array([[0.7], [-1.4]])
    out = g(z, x)
    assert out.shape == (2,) and np.all(out == 0.0)


def test_wide_window_has_empty_plateau():
    w = spectral_window(K12, 0.8)
    assert w.plateau.kind == "empty"
    assert w(np.array([[1.5]]))[0] < 1.0


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.floats(min_value=-1.0, max_value=4.0))
def test_window_values_between_zero_and_one(t):
    w = spectral_window(K12, 0.4)
    v = w(np.array([[t]]))[0]
    assert 0.0 <= v <= 1.0


def _l2_diff(f, g, grid):
    diff = SampledFunction(f.model, lambda z, x: f(z, x) - g(z, x), grid)
    return l2_norm(diff, grid)


def test_projection_converges_on_banded_data():
    f = inverse_FN(HEIS1, bump_profile(interval_body(1.2, 1.8), nodes=64))
    grid = GridSpec(fbox=8.0, fnodes=64)
    errs = []
    for eps in (0.8, 0.4, 0.2, 0.1):
        w = spectral_window(K12, eps)
        errs.append(_l2_diff(f, bandlimit_project(f, w), grid))
    assert errs[0] > 0.03  # no plateau yet, the window bites
    assert errs[1] < 1e-5
    # once the plateau swallows the spectrum the projection is the identity
    assert errs[2] == 0.0
    assert errs[3] == 0.0
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_projection_paths_agree():
    f = inverse_FN(HEIS1, bump_profile(interval_body(1.2, 1.8), nodes=64))
    # the sampled path convolves against a slowly decaying kernel, so the
    # plain copy needs a long central box to quadrature it
    plain = SampledFunction(
        HEIS1, f.evaluate, GridSpec(ebox=4.0, enodes=40, fbox=160.0, fnodes=768)
    )
    w = spectral_window(K12, 0.4)
    pa = bandlimit_project(f, w)
    pb = bandlimit_project(plain, w, lam_nodes=96)
    z = np.array([[0.3 - 0.2j]], complex)
    x = np.array([[0.7], [-1.4]])
    assert np.abs(pa(z, x) - pb(z, x)).max() < 1e-8
