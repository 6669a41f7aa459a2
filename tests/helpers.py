"""Helpers shared by the test modules."""

import numpy as np

from wsdlab.ambient import AmbientPoint


def section_point(n: int, r) -> AmbientPoint:
    """Point on the zero section theta = eta = 0 over the given radii."""
    z = np.zeros(n + 1)
    return AmbientPoint(n, z, r, z)
