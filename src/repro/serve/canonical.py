"""Canonical serialization and content hashing of exploration jobs.

The result cache (:mod:`repro.serve.cache`) is content-addressed: two
jobs share a cache entry exactly when their canonical payloads are
equal, whatever spec route produced them.  The invariants that make
that sound:

* **Determinism across processes.**  Payloads are plain JSON trees
  built only from the problem's *content* — unit names, library
  numbers, architecture fields, space axes, normalized explorer
  config — serialized with sorted keys and fixed separators.  Float
  formatting is ``repr``-based (what :func:`json.dumps` emits), which
  is exact and stable across CPython processes and platforms, so the
  same job hashes identically in every worker, container and test
  subprocess.
* **Completeness.**  Every input that can change an exploration's
  *result* is part of the payload: the component library entries of
  the units in play, the architecture envelope, ``use_exclusion``,
  the selection (or the whole space's axes), and the normalized
  explorer configuration including budgets and warm-start chaining.
  Equal hashes therefore imply equal results for deterministic
  explorers — the exact-hit contract.  The job-level ``time_budget``
  is deliberately *not* keyed: the engine only ever stores results
  that are provably budget-independent
  (:func:`repro.serve.engine.result_is_cacheable` — complete,
  unseeded runs), so a budgeted and an unbudgeted submission of the
  same search may soundly share one entry, and wall-clock truncation
  can never leak machine-speed-dependent bytes into the store.
* **Two key granularities.**  :func:`job_key` addresses exact result
  reuse; :func:`family_key` hashes only the family-level inputs
  (library + architecture + exclusion semantics) and addresses
  **warm-start-adjacent** reuse: any completed mapping of the same
  family is a sound incumbent seed for a *different* selection under
  an exact explorer (a warm start only tightens pruning, never the
  proven cost).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from ..synth.architecture import ArchitectureTemplate
from ..synth.library import ComponentLibrary
from ..synth.mapping import architecture_payload, library_payload
from ..variants.variant_space import VariantSpace


def canonical_json(payload: object) -> str:
    """The canonical JSON text of a payload tree.

    Sorted keys and fixed separators make the text a pure function of
    the payload's content; both the content hash and the cached result
    bytes go through this single serializer.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_hash(payload: object) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def family_payload(
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    use_exclusion: bool = True,
) -> Dict[str, object]:
    """Family-level inputs: everything selections of one space share."""
    return {
        "library": library_payload(library),
        "architecture": architecture_payload(architecture),
        "use_exclusion": bool(use_exclusion),
    }


def family_key(
    library: ComponentLibrary,
    architecture: ArchitectureTemplate,
    use_exclusion: bool = True,
) -> str:
    """The warm-start-adjacency key (see module docstring)."""
    return content_hash(
        family_payload(library, architecture, use_exclusion)
    )


def space_payload(space: VariantSpace) -> Dict[str, object]:
    """The enumeration structure of a variant space.

    Serializes the axes (selection groups plus free interfaces with
    their cluster names and per-cluster unit names), not the
    enumerated selections — O(axes) however large the product space,
    and still injective over the enumeration order the lineage
    machinery consumes.
    """
    groups: List[Dict[str, object]] = [
        {
            "interfaces": list(group.interfaces),
            "choices": [dict(sorted(c.items())) for c in group.choices],
        }
        for group in space.groups
    ]
    vgraph = space.vgraph
    interfaces: Dict[str, List[str]] = {
        name: list(vgraph.interface(name).cluster_names())
        for name in sorted(vgraph.interfaces)
    }
    return {"groups": groups, "interfaces": interfaces}
