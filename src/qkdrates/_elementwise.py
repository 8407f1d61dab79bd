"""Elementwise helpers under the rate engine: one formula, two routes.

Every breakdown, entropy and rate formula is written once on top of these
helpers and accepts either Python floats or numpy arrays.  Each helper
sends an ``ndarray`` (tested by class, so not a subclass) down numpy and
anything else, numpy scalars included, down the ``math``/builtin route,
which keeps the scalar solvers fast (numpy on a single float costs tens of
times more).  No array can exist before numpy is imported, so
:func:`is_array` looks numpy up in ``sys.modules`` instead of importing
it, and a caller that passes only Python numbers never loads numpy.  Each
helper tests its argument's class inline against the class the scalar
solvers pass (``float``, or ``bool`` for a mask) and calls :func:`is_array`
only for any other class: the solvers make hundreds of thousands of calls,
and a function call on each costs a noticeable share of the float route.

The array route matches the float route element by element up to the last
bit of a logarithm (numpy's ``log2`` and libm's differ there).  ``exp`` is
evaluated with libm per element instead: a Poissonian ``breakdown``
subtracts ``exp(-eta*mu)`` from 1 and loses about eight digits at long
range, so a last-bit difference would move the multi-photon rate by about
1e-8.
``maximum`` and ``minimum`` follow the builtins' rule for ties, signed
zeros and NaN.
"""

import math
import sys


def is_array(x) -> bool:
    """Whether ``x`` is an ``ndarray`` (by class, so not a subclass)."""
    numpy = sys.modules.get("numpy")
    return numpy is not None and x.__class__ is numpy.ndarray


def exp(x):
    """``math.exp`` of a float, or of each element of an array."""
    if x.__class__ is not float and is_array(x):
        import numpy as np

        values = map(math.exp, x.ravel().tolist())
        return np.fromiter(values, float, x.size).reshape(x.shape)
    return math.exp(x)


def entropy_term(p):
    """``-p * log2(p)``, and 0 where ``p`` is not positive."""
    if p.__class__ is not float and is_array(p):
        import numpy as np

        positive = p > 0.0
        return np.where(positive, -p * np.log2(np.where(positive, p, 1.0)), 0.0)
    return -p * math.log2(p) if p > 0.0 else 0.0


def maximum(a, b):
    """``max(a, b)`` elementwise: ``b`` where ``b > a``, else ``a``."""
    if (a.__class__ is not float and is_array(a)) or (
        b.__class__ is not float and is_array(b)
    ):
        import numpy as np

        return np.where(b > a, b, a)
    return b if b > a else a


def minimum(a, b):
    """``min(a, b)`` elementwise: ``b`` where ``b < a``, else ``a``."""
    if (a.__class__ is not float and is_array(a)) or (
        b.__class__ is not float and is_array(b)
    ):
        import numpy as np

        return np.where(b < a, b, a)
    return b if b < a else a


def any_(mask) -> bool:
    """Whether any element of a comparison result is true."""
    if mask.__class__ is not bool and is_array(mask):
        return mask.any()
    return mask


def all_(mask) -> bool:
    """Whether every element of a comparison result is true."""
    if mask.__class__ is not bool and is_array(mask):
        return mask.all()
    return mask


def first_failing(value, bad):
    """``value`` at the first element where ``bad`` holds, for an error
    message; a float passes through."""
    if value.__class__ is not float and is_array(value):
        import numpy as np

        return np.broadcast_to(value, np.shape(bad))[bad].flat[0]
    return value
