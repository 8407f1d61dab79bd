"""Elementwise helpers under the rate engine: one formula, two routes.

Every breakdown, entropy and rate formula is written once on top of these
helpers and accepts either Python floats or numpy arrays.  Each helper
sends a float down the ``math``/builtin route, which keeps the scalar
solvers fast (numpy on a single float costs tens of times more), and an
``ndarray`` (tested by class, so not a subclass) down numpy.

The array route matches the float route element by element up to the last
bit of a logarithm (numpy's ``log2`` and libm's differ there).  ``exp`` is
evaluated with libm per element instead: ``poisson_breakdown`` subtracts
``exp(-eta*mu)`` from 1 and loses about eight digits at long range, so a
last-bit difference would move the multi-photon rate by about 1e-8.
``maximum`` and ``minimum`` follow the builtins' rule for ties, signed
zeros and NaN.
"""

from __future__ import annotations

import math

import numpy as np

# Tested by class identity: the scalar solvers call these helpers hundreds
# of thousands of times, and isinstance costs as much as the float route.
ndarray = np.ndarray


def exp(x):
    """``math.exp`` of a float, or of each element of an array."""
    if x.__class__ is ndarray:
        values = map(math.exp, x.ravel().tolist())
        return np.fromiter(values, float, x.size).reshape(x.shape)
    return math.exp(x)


def entropy_term(p):
    """``-p * log2(p)``, and 0 where ``p`` is not positive."""
    if p.__class__ is ndarray:
        positive = p > 0.0
        return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return -p * math.log2(p) if p > 0.0 else 0.0


def maximum(a, b):
    """``max(a, b)`` elementwise: ``b`` where ``b > a``, else ``a``."""
    if a.__class__ is ndarray or b.__class__ is ndarray:
        return np.where(b > a, b, a)
    return b if b > a else a


def minimum(a, b):
    """``min(a, b)`` elementwise: ``b`` where ``b < a``, else ``a``."""
    if a.__class__ is ndarray or b.__class__ is ndarray:
        return np.where(b < a, b, a)
    return b if b < a else a


def any_(mask) -> bool:
    """Whether any element of a comparison result is true."""
    return mask.any() if mask.__class__ is ndarray else mask


def all_(mask) -> bool:
    """Whether every element of a comparison result is true."""
    return mask.all() if mask.__class__ is ndarray else mask


def first_failing(value, bad):
    """``value`` at the first element where ``bad`` holds, for an error
    message; a float passes through."""
    if value.__class__ is ndarray:
        return np.broadcast_to(value, np.shape(bad))[bad].flat[0]
    return value
