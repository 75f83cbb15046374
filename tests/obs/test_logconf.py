"""The repro logger hierarchy: level precedence, idempotent setup."""

import logging

import pytest

from repro.obs.logconf import LOG_ENV, configure_logging, resolve_level


def _repro_handlers():
    return [h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_handler", False)]


@pytest.fixture(autouse=True)
def _clean_logger(monkeypatch):
    monkeypatch.delenv(LOG_ENV, raising=False)
    logger = logging.getLogger("repro")
    saved = (logger.level, list(logger.handlers), logger.propagate)
    yield
    logger.setLevel(saved[0])
    logger.handlers[:] = saved[1]
    logger.propagate = saved[2]


def test_resolve_level_precedence(monkeypatch):
    assert resolve_level(None, default="warning") == logging.WARNING
    monkeypatch.setenv(LOG_ENV, "debug")
    assert resolve_level(None, default="warning") == logging.DEBUG
    # an explicit flag beats the environment
    assert resolve_level("error", default="warning") == logging.ERROR


def test_resolve_level_rejects_unknown_names(monkeypatch):
    with pytest.raises(ValueError, match="log level"):
        resolve_level("loud")
    monkeypatch.setenv(LOG_ENV, "silent")
    with pytest.raises(ValueError, match="log level"):
        resolve_level(None)


def test_configure_is_idempotent_and_scoped():
    root_handlers = list(logging.getLogger().handlers)
    configure_logging("info")
    configure_logging("debug")
    assert len(_repro_handlers()) == 1  # no handler stacking
    logger = logging.getLogger("repro")
    assert logger.level == logging.DEBUG  # re-tuned by the second call
    assert logger.propagate is False
    # never touches the root logger
    assert logging.getLogger().handlers == root_handlers


def test_child_loggers_inherit_the_level():
    configure_logging("debug")
    assert logging.getLogger("repro.store").isEnabledFor(
        logging.DEBUG)
    configure_logging("error")
    assert not logging.getLogger("repro.store").isEnabledFor(
        logging.WARNING)
