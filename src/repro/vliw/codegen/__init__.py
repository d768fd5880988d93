"""Pluggable codegen for the packet-compiled execution pipeline.

The platform executes a translated program through a three-stage
pipeline (see ``docs/ir.md`` and ``docs/backends.md``):

1. binary translation (``repro.translator``) — target binary to
   cycle-annotated :class:`~repro.isa.c6x.packets.C6xProgram`;
2. lowering (:mod:`repro.vliw.codegen.lower`) — packet regions to the
   typed Region IR of :mod:`repro.vliw.codegen.ir`;
3. emission — Region IR to executable host code through a
   :class:`RegionEmitter` (:mod:`~repro.vliw.codegen.emit_python`
   renders everything; :mod:`~repro.vliw.codegen.emit_c` renders pure
   regions to C99 compiled at run time, see
   :mod:`~repro.vliw.codegen.native`).

This package is also the **single registry of execution backends**:
:class:`~repro.vliw.platform.PrototypingPlatform`,
:class:`~repro.vliw.multicore.MultiCoreSoC`, the evaluation runners and
every CLI resolve backend names through :func:`resolve_backend`, so a
new backend registered here is immediately selectable everywhere — and
an unknown name fails with the registered list instead of a bare
``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.errors import SimulationError
from repro.vliw.codegen.ir import RegionIR

__all__ = ["BackendSpec", "RegionEmitter",
           "backend_names", "register_backend", "resolve_backend"]


class RegionEmitter(Protocol):
    """The contract stage-3 code generators implement.

    An emitter renders one lowered :class:`~repro.vliw.codegen.ir.RegionIR`
    to host code.  It may be *partial*: returning ``None`` from
    :meth:`emit` declines the region, and the compiler falls back to
    the reference Python emitter for it — which is how the native
    backend skips device regions without giving up the rest of the
    program.
    """

    #: short emitter name (diagnostics, cache keys)
    name: str

    def emit(self, ir: RegionIR) -> tuple[str, str] | None:
        """Render *ir*; returns ``(source, symbol)`` or ``None``."""
        ...


@dataclass(frozen=True)
class BackendSpec:
    """One registered execution backend."""

    name: str
    summary: str
    #: False: the interpretive core runs every packet (no compiler)
    compiled: bool
    #: True: pure regions additionally lower to native code at run time
    native: bool = False


#: the backend registry; insertion order is presentation order
_BACKENDS: dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register an execution backend (idempotent by name)."""
    existing = _BACKENDS.get(spec.name)
    if existing is not None and existing != spec:
        raise SimulationError(
            f"conflicting registration for backend {spec.name!r}")
    _BACKENDS[spec.name] = spec
    return spec


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_BACKENDS)


def resolve_backend(name: str) -> BackendSpec:
    """Look up a backend by name, or fail with the registered list."""
    spec = _BACKENDS.get(name)
    if spec is None:
        raise SimulationError(
            f"unknown execution backend {name!r}; registered backends: "
            f"{', '.join(_BACKENDS)}")
    return spec


register_backend(BackendSpec(
    name="interp",
    summary="reference semantics: C6xCore.step_packet per packet",
    compiled=False))
register_backend(BackendSpec(
    name="compiled",
    summary="packet regions lowered to Region IR, emitted as "
            "specialized host Python",
    compiled=True))
register_backend(BackendSpec(
    name="native",
    summary="pure packet regions emitted as C99 and compiled at run "
            "time (cffi/ctypes); Python emitter for device regions "
            "and hosts without a C compiler",
    compiled=True, native=True))
