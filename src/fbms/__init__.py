"""fbms: a numerical laboratory for free boundary minimal surfaces."""

__version__ = "0.1.0"

__all__ = ["__version__"]
