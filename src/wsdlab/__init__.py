"""Numerical laboratory for weakly self-dual torus fibrations.

The package builds the two-parameter family of weakly self-dual manifolds
obtained by symplectic reduction of a doubled algebraic torus over the
reflexive simplex pair, projects the result to its Kahler and complex
limit spaces, and measures how far those limits are from the anticanonical
divisor in the normalized Gromov-Hausdorff sense.
"""

__version__ = "0.1.0"

# cli is left out on purpose: importing it here would make
# `python -m wsdlab.cli` find it already loaded and warn
from . import ambient, maps, metgeo, polytope, reduction

__all__ = ["ambient", "cli", "maps", "metgeo", "polytope", "reduction", "__version__"]
