"""Whether NumPy is installed, for benchmark environment records.

There is one search kernel, the pure-Python integer kernel of
:class:`~repro.synth.state.SearchState`, and nothing in the package
imports NumPy.  This module survives only because ``perfbench`` reads
:data:`HAS_NUMPY` from it when it records its environment.
"""

from __future__ import annotations

import importlib.util

#: Whether NumPy is installed.  Informational only: ``perfbench``
#: records it with its environment; no search path depends on it.
HAS_NUMPY = importlib.util.find_spec("numpy") is not None
