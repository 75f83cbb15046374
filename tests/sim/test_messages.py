"""Messages stay what they were when delivered.

A consumer may keep a response after ``receive_response`` returns (a
tracer, an assertion, the stale-read callback); nothing in the
simulator may reuse that object afterwards.
"""

from repro.api.backends import execute_experiment
from repro.api.experiment import Experiment
from repro.host.core import Core
from repro.sim.messages import Message, MessageType

_LITMUS = {
    "workload": "litmus",
    "params": {"rounds": 5, "threads": 2},
    "config": {"preset": "scaled", "model": "atomic", "num_scopes": 2},
}


def _fields(msg):
    return (msg.mtype, msg.addr, msg.scope, msg.op_id, msg.req)


def test_kept_responses_are_never_overwritten(monkeypatch):
    kept = []
    deliver = Core.receive_response

    def keep(core, resp):
        kept.append((resp, _fields(resp)))
        deliver(core, resp)

    monkeypatch.setattr(Core, "receive_response", keep)
    execute_experiment(Experiment.from_dict(_LITMUS))
    assert kept
    changed = [snapshot for resp, snapshot in kept
               if _fields(resp) != snapshot]
    assert not changed, f"{len(changed)} of {len(kept)} kept responses reused"


def test_make_response_answers_its_request():
    req = Message(MessageType.LOAD, addr=0x1000, scope=2, core=1,
                  reply_to="core1")
    resp = req.make_response(MessageType.LOAD_RESP, version=7)
    assert resp.req is req
    assert (resp.mtype, resp.addr, resp.scope, resp.core, resp.reply_to,
            resp.version) == (MessageType.LOAD_RESP, 0x1000, 2, 1, "core1", 7)
    assert not (resp.exclusive or resp.uncacheable or resp.direct)
    assert resp.op_id == req.op_id + 1  # fresh id from the same sequence
