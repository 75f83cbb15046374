"""The ``repro`` logger hierarchy (``--log-level`` / ``$REPRO_LOG``).

Every subsystem logs under the ``repro`` namespace (the result store as
``repro.store``).  This module owns the single handler on the ``repro``
root logger, so every record has one parseable line format on stderr::

    2026-08-08T12:00:01 repro.store WARNING store: quarantined corrupt ...

Level resolution, weakest to strongest: the default (``WARNING``), the
``$REPRO_LOG`` environment variable, the ``--log-level`` CLI flag.

:func:`configure_logging` is idempotent -- repeated calls retune the
level instead of stacking handlers -- and never touches the *root*
logger, so embedding applications keep their own logging setup.
"""

from __future__ import annotations

import logging
import os
import sys
from typing import Optional

#: Environment variable naming the default log level.
LOG_ENV = "REPRO_LOG"

#: The parseable line format (ISO-ish timestamp, no milliseconds).
LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"
LOG_DATEFMT = "%Y-%m-%dT%H:%M:%S"

_VALID = ("debug", "info", "warning", "error", "critical")


class _StderrHandler(logging.StreamHandler):
    """A stream handler that resolves ``sys.stderr`` at emit time.

    Binding the stream at construction (what ``StreamHandler()`` does)
    captures whatever ``sys.stderr`` happens to be right then -- a
    redirected or since-closed file under test harnesses and daemon
    re-execs.  Looking it up per record always writes to the live one.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):  # noqa: D102 - StreamHandler protocol
        return sys.stderr


def resolve_level(flag: Optional[str] = None,
                  default: str = "warning") -> int:
    """The effective level: ``--log-level`` beats ``$REPRO_LOG`` beats
    ``default``.  Raises :class:`ValueError` on an unknown name."""
    name = flag or os.environ.get(LOG_ENV) or default
    name = name.strip().lower()
    if name not in _VALID:
        raise ValueError(
            f"unknown log level {name!r}; valid: {', '.join(_VALID)}")
    return getattr(logging, name.upper())


def configure_logging(flag: Optional[str] = None) -> logging.Logger:
    """Install (or retune) the handler on the ``repro`` logger.

    Returns the configured logger.  Idempotent: one handler, ever.
    """
    level = resolve_level(flag)
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    handler = next(
        (h for h in logger.handlers
         if getattr(h, "_repro_handler", False)), None)
    if handler is None:
        handler = _StderrHandler()
        handler._repro_handler = True
        handler.setFormatter(
            logging.Formatter(LOG_FORMAT, datefmt=LOG_DATEFMT))
        logger.addHandler(handler)
        logger.propagate = False
    handler.setLevel(level)
    return logger
