"""Constant kernel-identity record for the flow benchmark's provenance.

Every hot kernel has exactly one implementation, at its call site.  The
only consumer of this module is ``perfbench/gate.py``: its
``provenance()`` reports ``get_backend().name``.  Nothing in ``src/``
calls it.
"""

from types import SimpleNamespace

_BACKEND = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """An object whose ``name`` is the constant ``"numpy"``."""
    return _BACKEND
