"""The one place the ``REPRO_*`` environment knobs are read.

Every knob is resolved through one of three readers, so each kind of
value has one parse rule everywhere (the README's "Environment knobs"
table lists every knob, its type, default and reader):

* :func:`env_str` — a path or name; unset and empty both mean unset;
* :func:`env_flag` — a boolean; unset, empty, ``0``, ``false``, ``no``
  and ``off`` (any case) are off, anything else is on;
* :func:`int_env` — an integer; a malformed value warns and falls back
  to the default rather than aborting a long run.

A leaf module: it imports nothing from ``repro``, so any module
(including :mod:`repro.core.params`) can use it without an import cycle.
"""

from __future__ import annotations

import os
import warnings

_OFF = frozenset({"", "0", "false", "no", "off"})


def env_str(name: str) -> str | None:
    """The knob's value, or ``None`` when it is unset or empty."""
    return os.environ.get(name) or None


def env_flag(name: str) -> bool:
    """Whether a boolean knob is on (``REPRO_NO_CACHE=0`` is off)."""
    return os.environ.get(name, "").strip().lower() not in _OFF


def int_env(name: str, default: int, *, fallback_note: str) -> int:
    """An integer knob with warn-and-fallback semantics."""
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={value!r}; {fallback_note}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
