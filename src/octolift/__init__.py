"""Exact arithmetic and numerics for split-SO(8) coefficient structures:
split octonions, triality, coefficient lifts, orbit reduction, and
Whittaker/K-Bessel identities."""

import importlib
import sys

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule that octolift.cli registered without loading it is
    loaded on its first access through the package, as an import would."""
    if f"{__name__}.{name}" in sys.modules:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
