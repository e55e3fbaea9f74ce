"""Process-wide sanitizer installation — the same idiom as tracing.

``JugglerGRO`` reads :func:`current` once, when it is built, and hands
itself to the sanitizer it gets (JSAN then shadows that engine).  Three
ways to turn JSAN on: ``JUGGLER_SANITIZE=1`` in the environment (read on
the first :func:`current` call; how the tier-1 suite and the CI sanitize
job run the whole stack checked), :func:`install` / :func:`uninstall`,
and the :func:`sanitizing` context manager.  When none is installed,
:func:`current` returns ``None`` and nothing is armed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.analysis.sanitizer import Sanitizer

#: ``JUGGLER_SANITIZE`` spellings that leave JSAN off.
_DISABLED = ("", "0", "false", "off", "no")

_current = None
_env_checked = False


def current() -> Optional["Sanitizer"]:
    """The installed sanitizer, or None when sanitizing is disabled.

    The first call consults ``JUGGLER_SANITIZE``; later calls are a plain
    global read.  The sanitizer module is imported only when asked for.
    """
    global _current, _env_checked
    if _current is None and not _env_checked:
        _env_checked = True
        value = os.environ.get("JUGGLER_SANITIZE", "").strip().lower()
        if value not in _DISABLED:
            from repro.analysis.sanitizer import Sanitizer

            _current = Sanitizer()
    return _current


def install(sanitizer: "Sanitizer") -> "Sanitizer":
    """Make ``sanitizer`` process-wide for components built from now on."""
    global _current, _env_checked
    _current = sanitizer
    _env_checked = True
    return sanitizer


def uninstall() -> None:
    """Disable sanitizing for components built from now on."""
    global _current, _env_checked
    _current = None
    _env_checked = True


def reset() -> None:
    """Forget any installation *and* re-arm the environment probe (tests)."""
    global _current, _env_checked
    _current = None
    _env_checked = False


@contextmanager
def sanitizing(sanitizer: Optional["Sanitizer"] = None) -> Iterator["Sanitizer"]:
    """Install a (fresh, by default) sanitizer for the duration of a block."""
    global _current, _env_checked
    if sanitizer is None:
        from repro.analysis.sanitizer import Sanitizer

        sanitizer = Sanitizer()
    saved, saved_checked = _current, _env_checked
    install(sanitizer)
    try:
        yield sanitizer
    finally:
        _current, _env_checked = saved, saved_checked

