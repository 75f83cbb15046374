"""The sequential-``replace`` preset loader, kept as a reference for
:func:`repro.sim.config.config_from_dict`.

This is how presets loaded before ``config_from_dict`` built each
config in one construction: call the preset's factory, apply the model
with ``with_model``, then apply every other key with one
``dataclasses.replace`` each, in the dict's key order.  Every
intermediate config is validated, so a pair of overrides that is only
valid together (a new ``scope_bytes`` and a ``pim_base`` aligned to it)
loads or fails depending on which key comes first.  Tests assert that
whenever this loader accepts a form, the one-construction loader
returns an equal config.
"""

from collections.abc import Mapping
from dataclasses import replace

from repro.core.models import ConsistencyModel
from repro.sim.config import SystemConfig, _NESTED_CONFIG

_CONFIG_PRESETS = {
    "paper": SystemConfig.paper_default,
    "scaled": SystemConfig.scaled_default,
}


def reference_config_from_dict(data) -> SystemConfig:
    """Build a :class:`SystemConfig` from the full or the preset form."""
    if isinstance(data, SystemConfig):
        return data
    data = dict(data)
    preset = data.pop("preset", None)
    model = data.pop("model", None)
    if isinstance(model, str):
        model = ConsistencyModel(model)

    if preset is not None:
        try:
            factory = _CONFIG_PRESETS[preset]
        except KeyError:
            raise ValueError(
                f"unknown config preset {preset!r}; "
                f"expected one of {sorted(_CONFIG_PRESETS)}"
            ) from None
        base = factory()
        if model is not None:
            base = base.with_model(model)
        for key, value in data.items():
            if key in _NESTED_CONFIG and isinstance(value, Mapping):
                value = replace(getattr(base, key), **value)
            base = replace(base, **{key: value})
        return base

    for key, cls in _NESTED_CONFIG.items():
        if key in data and isinstance(data[key], Mapping):
            data[key] = cls(**data[key])
    if model is not None:
        data["model"] = model
    return SystemConfig(**data)
