"""Locate the fracprop sources of the checkout this benchmark sits in.

The benchmark measures the code next to it, never an installed copy, so it
puts ``<checkout>/src`` first on the import path and refuses to run when the
sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSourcesError(RuntimeError):
    """The checkout holds no fracprop package to measure."""


def sources_present():
    return (SRC / "fracprop" / "__init__.py").is_file()


def use_checkout_source():
    """Import fracprop from ``<checkout>/src`` and return the package."""
    if not sources_present():
        raise MissingSourcesError(f"no fracprop package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fracprop

    if Path(fracprop.__file__).resolve().parent != SRC / "fracprop":
        raise MissingSourcesError(f"fracprop was imported from {fracprop.__file__}, not {SRC}")
    return fracprop
