"""Structured stdlib logging, configured once for the whole library.

Every module gets its logger through :func:`get_logger` (namespaced under
``repro.``); the CLI calls :func:`configure` with the ``-v`` count.  By
default the ``repro`` logger carries a ``NullHandler`` — a library must
never print unless asked — and ``configure`` attaches exactly one stream
handler no matter how many times it runs.  Without an explicit stream
that handler writes to whatever ``sys.stderr`` is when a record is
emitted, so a thread that logs after stderr was swapped (and the old one
closed) still reaches the live stream.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["get_logger", "configure", "verbosity_to_level"]

_ROOT_NAME = "repro"
_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_DATEFMT = "%H:%M:%S"

#: The handler `configure` installed, if any (so reconfiguring replaces
#: the level rather than stacking handlers).
_handler: Optional[logging.Handler] = None

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())


class _StreamHandler(logging.StreamHandler):
    """A stream handler whose default stream is the *current* ``sys.stderr``.

    :class:`logging.StreamHandler` binds ``sys.stderr`` once, at
    construction; this one looks it up on every write unless a stream was
    set explicitly.
    """

    def __init__(self, stream=None):
        logging.Handler.__init__(self)
        self._stream = stream

    @property
    def stream(self):
        return sys.stderr if self._stream is None else self._stream

    @stream.setter
    def stream(self, value):
        self._stream = value


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``get_logger("sim.montecarlo")`` and ``get_logger(__name__)`` (for a
    ``repro.*`` module) both yield ``repro.sim.montecarlo``.
    """
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name == _ROOT_NAME or name.startswith(_ROOT_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def verbosity_to_level(verbosity: int) -> int:
    """Map a ``-v`` count to a stdlib level: 0→WARNING, 1→INFO, 2+→DEBUG."""
    if verbosity <= 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure(verbosity: int = 0, stream=None) -> logging.Logger:
    """Install (or retune) the single stream handler on the root logger.

    Idempotent: repeated calls adjust the level in place instead of
    attaching duplicate handlers.  Returns the ``repro`` root logger.
    """
    global _handler
    root = logging.getLogger(_ROOT_NAME)
    level = verbosity_to_level(verbosity)
    if _handler is None:
        _handler = _StreamHandler(stream)
        _handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATEFMT))
        root.addHandler(_handler)
    elif stream is not None:
        _handler.setStream(stream)
    _handler.setLevel(level)
    root.setLevel(level)
    return root
