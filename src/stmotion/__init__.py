"""Spatio-temporal transformer motion prediction toolkit."""

# The one name bound at the package root: stbench's tracer test checks that it
# wraps `model.forward` at every alias, this one included.
from .model import forward  # noqa: F401

__version__ = "0.1.0"
