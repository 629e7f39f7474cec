"""Execution environments for the mini task language.

An :class:`Environment` layers three namespaces, mirroring the memory a C
task sees:

- **inputs** — the per-job input values (read-only; a fresh dict per job);
- **globals** — task state persisting across jobs (games mutate these);
- **locals** — scratch variables created during one execution.

Lookup order is locals, then globals, then inputs.  Writes update globals
when the name already exists there (a C global assignment), otherwise they
create/overwrite a local.

The prediction slice must not corrupt program state (paper §3.2), so
:meth:`Environment.fork_isolated` produces an environment whose globals are
*copies* — the slice reads current state but its writes evaporate.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.programs.expr import Value

__all__ = ["Environment"]


class Environment(Mapping[str, Value]):
    """Layered variable store: locals over globals over inputs."""

    def __init__(
        self,
        inputs: Mapping[str, Value] | None = None,
        globals_: dict[str, Value] | None = None,
    ):
        self._inputs = dict(inputs) if inputs else {}
        self._globals = globals_ if globals_ is not None else {}
        self._locals: dict[str, Value] = {}

    # -- Mapping interface (read side) ------------------------------------
    def __getitem__(self, name: str) -> Value:
        for layer in (self._locals, self._globals, self._inputs):
            if name in layer:
                return layer[name]
        raise KeyError(name)

    def __contains__(self, name: object) -> bool:
        return (
            name in self._locals or name in self._globals or name in self._inputs
        )

    def __iter__(self) -> Iterator[str]:
        seen = set()
        for layer in (self._locals, self._globals, self._inputs):
            for name in layer:
                if name not in seen:
                    seen.add(name)
                    yield name

    def __len__(self) -> int:
        return len(set(self._locals) | set(self._globals) | set(self._inputs))

    # -- write side --------------------------------------------------------
    def write(self, name: str, value: Value) -> None:
        """Assign: updates an existing global, else writes a local.

        Inputs are immutable job data; shadow them with a local rather than
        mutating (matches pass-by-value C semantics for scalars).
        """
        if name in self._globals and name not in self._locals:
            self._globals[name] = value
        else:
            self._locals[name] = value

    # -- structure ----------------------------------------------------------
    @property
    def globals(self) -> dict[str, Value]:
        """The persistent global namespace (shared with the owning task)."""
        return self._globals

    @property
    def inputs(self) -> Mapping[str, Value]:
        return dict(self._inputs)

    def layers(self) -> tuple[dict, dict, dict]:
        """The live (inputs, globals, locals) dicts, for compiled execution."""
        return self._inputs, self._globals, self._locals

    def fresh_locals(self) -> "Environment":
        """Same inputs and globals, empty locals (a new job execution)."""
        return Environment(self._inputs, self._globals)

    def fork_isolated(self) -> "Environment":
        """Copy-globals fork for side-effect-free slice execution.

        The slice sees the *current* values of globals and inputs but its
        writes land in copies, exactly like the paper's local-copy scheme
        for globals and by-reference arguments.
        """
        return Environment(self._inputs, dict(self._globals))

    def snapshot(self) -> dict[str, Value]:
        """Flat dict of every visible binding (for assertions/debugging)."""
        return {name: self[name] for name in self}
