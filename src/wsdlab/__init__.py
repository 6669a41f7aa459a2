"""Numerical laboratory for weakly self-dual torus fibrations.

The package builds the two-parameter family of weakly self-dual manifolds
obtained by symplectic reduction of a doubled algebraic torus over the
reflexive simplex pair, projects the result to its Kahler and complex
limit spaces, and measures how far those limits are from the anticanonical
divisor in the normalized Gromov-Hausdorff sense.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["ambient", "cli", "maps", "metgeo", "polytope", "reduction", "__version__"]

# the layers load on first attribute access (PEP 562), so `import
# wsdlab.polytope` and `import wsdlab.cli` load no numpy.  cli is no layer:
# `import wsdlab.cli` and `from wsdlab import *` load it as a submodule, and
# `python -m wsdlab.cli` warns if the package has loaded it already
_LAYERS = frozenset({"ambient", "maps", "metgeo", "polytope", "reduction"})


def __getattr__(name):
    if name in _LAYERS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
