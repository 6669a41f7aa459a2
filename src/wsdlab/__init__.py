"""Numerical laboratory for weakly self-dual torus fibrations.

The package builds the two-parameter family of weakly self-dual manifolds
obtained by symplectic reduction of a doubled algebraic torus over the
reflexive simplex pair, projects the result to its Kahler and complex
limit spaces, and measures how far those limits are from the anticanonical
divisor in the normalized Gromov-Hausdorff sense.
"""

__version__ = "0.1.0"

__all__ = ["ambient", "cli", "maps", "metgeo", "params", "polytope", "reduction", "__version__"]
