"""Seed paths for the fleet: one root, stable named children.

The whole determinism contract of the fleet simulator rests on this
module: every random stream a session uses (its input script, its
timing jitter, its arrival process) is seeded from the *path* that
names it — ``root -> tenant -> session index -> purpose`` — never from
the shard or worker that happens to execute it.  Two fleets with the
same root seed therefore produce bit-identical per-session results
regardless of how sessions were partitioned.

Paths render through :func:`repro.runtime.seeded.derive_seed`, the one
cross-process-stable derivation every seeded run in the package uses.
"""

from __future__ import annotations

from repro.runtime.seeded import derive_seed

__all__ = ["session_seed"]


def session_seed(root: int, tenant: str, index: int, purpose: str) -> int:
    """The seed for one named stream of one tenant session.

    Purposes in use: ``"inputs"`` (the job input script),
    ``"jitter"`` (timing noise), ``"arrivals"`` (the release
    schedule), ``"switch"`` (the board's switch-latency draws).
    """
    return derive_seed(root, "fleet", tenant, index, purpose)
