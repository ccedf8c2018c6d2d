"""The cumulative kernel integral W and the indicator convolutions built from it."""

from __future__ import annotations

import numpy as np

from .model import Kernel


class CumulativeKernel:
    """W(b) = integral of omega over [0, b], with the odd extension W(-b) = -W(b).

    On b >= 0 each kernel gives W in closed form (``antiderivative``, plain
    ``math``): exponential (1 - e^-b)/2, Gaussian (sqrt(pi)/2) erf(b), mexican
    hat K sqrt(pi/k)/2 erf(sqrt(k) b) - M sqrt(pi/m)/2 erf(sqrt(m) b), and a
    tabulated kernel the exact integral of its linear interpolant.  A query
    costs O(1) at any b: W(+-inf) is +-(total mass) and W(nan) is nan.  An
    array query maps the ``float`` path over its entries, so the two are
    bit-equal.
    """

    def __init__(self, kernel: Kernel):
        self._w = kernel.antiderivative

    def _odd(self, b: float) -> float:
        w = self._w(abs(b))
        return -w if b < 0.0 else w

    def __call__(self, b):
        if isinstance(b, float):
            return self._odd(float(b))
        b = np.asarray(b, dtype=float)
        out = np.fromiter(map(self._odd, b.ravel().tolist()), float, b.size)
        return float(out[0]) if b.ndim == 0 else out.reshape(b.shape)


def indicator_convolution(W: CumulativeKernel, delta: float, x):
    """u_delta(x) = integral of omega(x - y) over [-delta, delta] = W(x+delta) - W(x-delta)."""
    if delta <= 0.0:
        raise ValueError(f"need delta > 0, got delta={delta}")
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return W(x + delta) - W(x - delta)
