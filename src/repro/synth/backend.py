"""Evaluation-backend selection for :class:`~repro.synth.state.SearchState`.

The integer kernel (PR 3) made every aggregate an order-independent
``int64``-sized accumulator, so the per-processor bookkeeping can live
either in plain Python dicts (the scalar reference kernel) or in
NumPy structure-of-arrays columns with vectorized batch candidate
scoring.  Both backends are byte-identical by construction — the
scalar kernel stays the oracle — so selection is purely a performance
choice:

* ``"numpy"`` — structure-of-arrays state with vectorized
  ``score_candidates``; requires NumPy.
* ``"python"`` — the pure-Python scalar kernel; always available.
* ``None`` / ``"auto"`` — ``"numpy"`` when NumPy is importable, else
  ``"python"``.  That is :func:`resolve_backend`, the rule for a
  directly constructed :class:`~repro.synth.state.SearchState`, where
  bulk ``score_candidates`` calls dominate.

Every explorer resolves ``auto`` to ``"python"`` instead, on every
frontier.  A search pays at least one kernel mutation per node, the
NumPy state pays scalar-indexing cost on each of them, and the sibling
batches it could vectorize are only as wide as the processor template
plus hardware — 2-3 targets on every zoo family, app and served space.
On the bench-size zoo, best-first on the scalar kernel solves every
family 1.3-1.7x faster than on NumPy.  An explicit ``backend=`` is
always honored.

NumPy is an *optional* extra (``pip install repro[fast]``): this
module is the only place it is imported, and the import is guarded so
``repro`` works without it.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SynthesisError

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy
except ImportError:  # pragma: no cover
    numpy = None

#: Whether the NumPy backend is available in this environment.
HAS_NUMPY = numpy is not None

#: Recognized backend names (``None``/``"auto"`` resolve to one of these).
BACKENDS = ("numpy", "python")


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` and ``"auto"`` pick ``"numpy"`` when available and fall
    back to ``"python"`` otherwise.  Requesting ``"numpy"`` explicitly
    without NumPy installed is an error (silent fallback would make a
    benchmark lie); unknown names are errors too.
    """
    if backend is None or backend == "auto":
        return "numpy" if HAS_NUMPY else "python"
    if backend == "python":
        return "python"
    if backend == "numpy":
        if not HAS_NUMPY:
            raise SynthesisError(
                "backend 'numpy' requested but numpy is not installed; "
                "install the 'fast' extra or use backend='python'"
            )
        return "numpy"
    raise SynthesisError(
        f"unknown backend {backend!r}; expected one of "
        f"{BACKENDS + ('auto',)}"
    )
