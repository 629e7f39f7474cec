"""Seeded runs: one seed-derivation rule and one board builder.

Every random stream a run uses (timing jitter, switch-latency draws,
input scripts, arrival processes) is seeded from the *path* that names
it, rendered through :func:`derive_seed` — never from builtin
``hash()``, which is salted per interpreter run, and never from the
shard or worker that executes it.  :func:`seeded_board` then assembles
the board those streams drive, so the Lab, the CLI commands, the drift
study, fleet sessions and ablation cells all build their boards the
same way.
"""

from __future__ import annotations

import zlib

from repro.online.inject import StepDriftJitter
from repro.platform.board import Board
from repro.platform.jitter import LogNormalJitter, NoJitter
from repro.platform.opp import OppTable
from repro.platform.power import PowerModel
from repro.platform.switching import SwitchLatencyModel

__all__ = ["derive_seed", "seeded_board"]


def derive_seed(root: int, *path: object) -> int:
    """A 32-bit child seed for the stream named by ``path``.

    Path components are rendered with ``str`` and joined with ``|``,
    so ``derive_seed(7, "video", 3)`` differs from
    ``derive_seed(7, "video", 31)`` and from
    ``derive_seed(7, "video3")`` — component boundaries are part of
    the name.
    """
    rendered = "|".join(map(str, (root, *path)))
    return zlib.crc32(rendered.encode())


def seeded_board(
    opps: OppTable,
    *,
    jitter_sigma: float,
    jitter_seed: int,
    switch_seed: int,
    power: PowerModel | None = None,
    drift: tuple[float, float] | None = None,
) -> Board:
    """A fresh board whose noise streams are all seeded.

    Args:
        opps: The board's operating points.
        jitter_sigma: Log-normal timing-noise sigma (0 disables noise).
        jitter_seed: Seed of the timing-noise stream.
        switch_seed: Seed of the switch-latency draws.
        power: Power model (the board default when None).
        drift: ``(factor, shift_at_s)``: multiply every execution time
            by ``factor`` once the board's clock reaches ``shift_at_s``.
            Time-triggered, so the step lands on the same job for every
            governor however many jitter samples its overheads draw.
    """
    jitter = (
        LogNormalJitter(jitter_sigma, seed=jitter_seed)
        if jitter_sigma > 0
        else NoJitter()
    )
    board = Board(
        opps=opps,
        power=power,
        switcher=SwitchLatencyModel(opps, seed=switch_seed),
        jitter=jitter,
    )
    if drift is not None:
        factor, shift_at_s = drift
        board.cpu.jitter = StepDriftJitter(
            jitter, factor, shift_at_s=shift_at_s, clock=lambda: board.now
        )
    return board
