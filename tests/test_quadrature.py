import numpy as np

from quadric_cr.quadrature import panel_gauss


def test_panel_gauss_takes_back_an_over_allocation():
    # 5 nodes on [-1, 10] cut at 0: proportional shares 0.45 and 4.55 round
    # to 2 (the floor) and 4, one too many, so the long panel gives one back
    x, w = panel_gauss(5, -1.0, 10.0, cuts=(0.0,))
    left = x < 0.0
    assert x.size == 5 and left.sum() == 2
    for mask, lo, hi in ((left, -1.0, 0.0), (~left, 0.0, 10.0)):
        k = int(mask.sum())
        for p in range(2 * k + 1):
            exact = (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
            err = abs(w[mask] @ x[mask] ** p - exact)
            # exact to degree 2k - 1, and no further
            assert (err <= 1e-12 * max(1.0, abs(exact))) == (p <= 2 * k - 1)
