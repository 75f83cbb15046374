"""Observability layer: event tracing, stall attribution, logging.

The simulator's results describe *what* happened; this package records
*where the cycles went*.  Everything here is opt-in and strictly
observational -- a tracer never schedules events, never mutates
simulation state, and the disabled path is a single ``is not None``
check at each hook site, so result digests are byte-identical with
tracing off or on (``tests/obs/test_neutrality.py`` gates this).

* :mod:`repro.obs.trace` -- the :class:`~repro.obs.trace.Tracer`:
  bounded event ring buffer, per-component stall attribution, and the
  flight-recorder snapshot taken when a litmus/fuzz invariant fires.
* :mod:`repro.obs.chrome` -- export a trace dump as Chrome trace-event
  JSON (components as tracks, requests as flow events; loads in
  Perfetto or ``chrome://tracing``).
* :mod:`repro.obs.logconf` -- the ``repro`` logger hierarchy behind
  ``--log-level`` / ``$REPRO_LOG``.
"""

from repro.obs.trace import OBS_SCHEMA, Tracer

__all__ = ["OBS_SCHEMA", "Tracer"]
