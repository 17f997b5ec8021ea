"""Evaluation-backend names accepted by the search API.

There is one search kernel: the pure-Python integer kernel of
:class:`~repro.synth.state.SearchState`.  Its
:meth:`~repro.synth.state.SearchState.score_candidates` scores a whole
sibling set from the current aggregates without mutating the state,
which is what the structure-of-arrays NumPy backend used to be for;
that backend lost to the scalar kernel end to end and was removed.

``backend=`` arguments still exist so callers and serialized job
configurations keep their shape: ``None``, ``"auto"`` and ``"python"``
all name the scalar kernel, and ``"numpy"`` is refused with an error
that says the backend was removed.  Nothing in the package imports
NumPy.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

from ..errors import SynthesisError

#: Whether NumPy is installed.  Informational only (benchmarks record
#: it with their environment); no search path depends on it.
HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: Recognized backend names (``None``/``"auto"`` resolve to one of these).
BACKENDS = ("python",)


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None``, ``"auto"`` and ``"python"`` resolve to ``"python"``;
    ``"numpy"`` names the removed array backend and every other name
    is unknown — both are errors, never a silent fallback.
    """
    if backend is None or backend == "auto" or backend == "python":
        return "python"
    if backend == "numpy":
        raise SynthesisError(
            "backend 'numpy' was removed: the scalar kernel scores "
            "candidates without mutation and is faster end to end; "
            "use backend='python' (or None/'auto')"
        )
    raise SynthesisError(
        f"unknown backend {backend!r}; expected one of "
        f"{BACKENDS + ('auto',)}"
    )
