"""Host processor model: cores and their memory-subsystem entry points.

* :mod:`repro.host.program` -- thread programs (the op streams cores run).
* :mod:`repro.host.entry_point` -- the write-buffer-like entry point that
  enforces each consistency model's ordering rules (Fig. 6b-d), read
  from the model's :class:`~repro.core.models.ModelProperties` row.
* :mod:`repro.host.core` -- commit-order cores with limited load MLP.
"""

from repro.host.program import ThreadOp, ThreadOpKind, ThreadProgram
from repro.host.entry_point import EntryPoint
from repro.host.core import Core

__all__ = [
    "ThreadOp",
    "ThreadOpKind",
    "ThreadProgram",
    "EntryPoint",
    "Core",
]
