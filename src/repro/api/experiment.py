"""Declarative experiment specs.

An :class:`Experiment` is a frozen, hashable description of one
simulation run: the system configuration, a workload *name* (resolved
through the :mod:`repro.api.registry`), the workload's parameters, and a
free-form variant tag.  Because the spec is plain data it can be

* hashed (:meth:`Experiment.spec_hash`) -- the Runner's result cache and
  the benchmark harness key on it;
* pickled -- the process-pool backend ships specs, not live objects;
* round-tripped through dicts (:meth:`from_dict` / :meth:`to_dict`) --
  the CLI and future sweep files construct experiments declaratively.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.core.models import ConsistencyModel
# Re-exported here for compatibility: the dict round trip lives next to
# SystemConfig itself (the system layer serializes results without
# reaching back up into the API package).
from repro.sim.config import (  # noqa: F401
    SystemConfig,
    config_from_dict,
    config_to_dict,
)
from repro.api.registry import REGISTRY

#: Frozen parameter payload: sorted ``(key, value)`` pairs, nested
#: mappings/sequences frozen recursively the same way.  Sequences
#: canonicalize to tuples (thawing back to lists); mappings are tagged
#: with :data:`_MAP` so a dict and a list of pairs stay distinguishable.
FrozenParams = Tuple[Tuple[str, object], ...]

_MAP = "__map__"


def freeze_params(params: Optional[Mapping[str, object]]) -> FrozenParams:
    """Canonicalize a parameter mapping into a hashable tuple form."""
    if params is None:
        return ()
    return tuple(sorted((str(k), _freeze_value(v)) for k, v in params.items()))


def _freeze_value(value):
    if isinstance(value, Mapping):
        return (_MAP, tuple(sorted(
            (str(k), _freeze_value(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def _thaw_value(value):
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _MAP and isinstance(value[1], tuple):
            return {k: _thaw_value(v) for k, v in value[1]}
        return [_thaw_value(v) for v in value]
    return value


@dataclass(frozen=True)
class Experiment:
    """One simulation run, described declaratively.

    ``params`` may be passed as a plain dict; it is canonicalized into a
    frozen tuple form so experiments are hashable and order-insensitive
    in their parameters.
    """

    workload: str
    config: SystemConfig
    params: FrozenParams = field(default=())
    variant: str = "base"
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", freeze_params(self.params))

    # -- derived views --------------------------------------------------- #

    @property
    def params_dict(self) -> Dict[str, object]:
        """The workload parameters as a plain (mutable) dict."""
        return {k: _thaw_value(v) for k, v in self.params}

    @property
    def model(self) -> ConsistencyModel:
        return self.config.model

    def build_workload(self):
        """Instantiate this spec's workload through the registry."""
        return REGISTRY.create(self.workload, self.params_dict)

    # -- identity --------------------------------------------------------- #

    def spec_hash(self) -> str:
        """A stable digest of the full spec (config + workload + params).

        Equal experiments hash equally across processes and sessions, so
        the digest keys the Runner's result cache and the result store.
        Computed once per instance: the spec and everything it reaches
        are immutable, so the memo (kept out of ``==``, ``hash()`` and
        ``repr``) cannot go stale; ``replace`` builds a fresh instance.
        """
        memo = self.__dict__.get("_spec_hash")
        if memo is None:
            payload = json.dumps(self.to_dict(), sort_keys=True, default=repr)
            memo = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]
            object.__setattr__(self, "_spec_hash", memo)
        return memo

    # -- dict round trip -------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": config_to_dict(self.config),
            "params": self.params_dict,
            "variant": self.variant,
            "max_events": self.max_events,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Experiment":
        data = dict(data)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        return cls(
            workload=data["workload"],
            config=config_from_dict(data.get("config", {"preset": "scaled"})),
            params=freeze_params(data.get("params")),
            variant=data.get("variant", "base"),
            max_events=data.get("max_events"),
        )

    def with_model(self, model: ConsistencyModel) -> "Experiment":
        """The same experiment under another consistency model."""
        return replace(self, config=self.config.with_model(model))
