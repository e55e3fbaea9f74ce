"""Process-wide tracer installation.

Experiments construct their components internally (engines, NICs, TCP
endpoints), so tracing cannot be threaded through every constructor call.
Instead, a tracer is *installed* here; components read :func:`current` once
at construction time and keep the reference (or ``None``).  The ``repro
trace`` CLI subcommand and tests use the :func:`tracing` context manager to
scope an installation to one run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

_current: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _current


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide tracer for components built next."""
    global _current
    _current = tracer
    return tracer


def uninstall() -> None:
    """Disable tracing for components built from now on."""
    global _current
    _current = None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of the block."""
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()
