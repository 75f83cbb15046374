"""The flush-point vs in-flight-fetch race (first fuzzer-found bug).

Shrunk repro from ``repro-bench fuzz run --seed 99``: thread 0 issues a
bare load of a scope line while thread 1 runs PIM -> (fence) -> load.
Thread 0's fetch is served at memory *before* the PIM op bumps the
version; its fill then lands after the flush scan ran, re-installing the
pre-PIM line -- and thread 1's post-flush load (which must observe the
PIM result under every correctness-guaranteeing model) either hits that
stale line or coalesces onto the stale in-flight MSHR.  The LLC now
stalls the flush point until in-flight same-scope fetches drain.  It
finds them through a per-scope count of outstanding fetches, which the
second half of this file recounts against the MSHR file.
"""

import dataclasses
from collections import Counter

import pytest

from api.test_default_digests import PINNED_MAX_EVENTS, _PINNED_CONFIGS
from helpers import profile_run

from repro.api import Experiment, Runner
from repro.core.scope import ScopeMap
from repro.fuzz.harness import timing_experiment
from repro.fuzz.program import FuzzOp, build_program
from repro.memory.llc import LastLevelCache
from repro.system.builder import System
from repro.system.simulation import collect_result, result_digest

#: The shrunk repro: the racing reader plus the PIM-then-read thread.
RACER = build_program(
    threads=[
        [FuzzOp("load", 0, 0)],
        [FuzzOp("pim", 0), FuzzOp("load", 0, 0)],
    ],
    slots=[1],
)

#: Same race, opposite arrival order: the fence delays thread 1's PIM op
#: past thread 0's fetch at the memory controller, the adversarial
#: interleaving for the models that flush when the PIM op passes the LLC.
RACER_DELAYED = build_program(
    threads=[
        [FuzzOp("load", 0, 0)],
        [FuzzOp("fence"), FuzzOp("pim", 0), FuzzOp("load", 0, 0)],
    ],
    slots=[1],
)


def _timing(program, model):
    """The fuzz timing-leg spec with the pinned gates' event budget, so
    a run that stops making progress fails within seconds."""
    return dataclasses.replace(timing_experiment(program, model, rounds=2),
                               max_events=PINNED_MAX_EVENTS)


@pytest.mark.parametrize("model", ["atomic", "store", "scope",
                                   "scope-relaxed"])
@pytest.mark.parametrize("program", [RACER, RACER_DELAYED],
                         ids=["pim-first", "fetch-first"])
def test_racing_fetch_never_serves_stale_pim_results(model, program):
    result = Runner().run(_timing(program, model))
    assert result.stale_reads == 0


@pytest.mark.parametrize("model", ["naive", "sw-flush"])
def test_baselines_still_expose_the_race(model):
    """The controls keep their stale window -- the oracle's signal."""
    result = Runner().run(_timing(RACER, model))
    assert result.stale_reads > 0


# ---------------------------------------------------------------------- #
# the flush point's per-scope fetch count
# ---------------------------------------------------------------------- #


def _run_checking_fetch_counts(experiment):
    """Run ``experiment`` with the LLC's per-scope fetch counts checked.

    After every fetch miss and every fill, the counts must equal a
    recount of the MSHR file by address, and every fetch must carry
    its line's scope.  Returns the result and the number of
    flush-point checks that did / did not find a fetch in flight.
    """
    workload = experiment.build_workload()
    system = System(experiment.config)
    system.load_programs(workload.compile(system))
    llc = system.llc
    scope_id_of = system.scope_map.scope_id_of

    def recount():
        by_address = Counter(scope_id_of(line_addr)
                             for line_addr in llc.mshr_file.entries)
        by_address.pop(None, None)
        assert llc._scope_fetches == by_address

    fetch_miss, receive_response = llc._fetch_miss, llc.receive_response
    in_flight_check = llc._scope_fetch_in_flight
    answers = Counter()

    def checked_fetch_miss(msg):
        assert msg.scope == scope_id_of(msg.addr & ~63)
        outcome = fetch_miss(msg)
        recount()
        return outcome

    def checked_receive_response(resp):
        assert resp.scope == scope_id_of(resp.addr)
        receive_response(resp)
        recount()

    def counted_in_flight_check(scope):
        answer = in_flight_check(scope)
        answers[answer] += 1
        return answer

    llc._fetch_miss = checked_fetch_miss
    llc.receive_response = checked_receive_response
    llc._scope_fetch_in_flight = counted_in_flight_check
    result = collect_result(system,
                            system.run(max_events=experiment.max_events))
    assert llc._scope_fetches == {}
    return result, answers


@pytest.mark.parametrize("model", ["naive", "sw-flush", "atomic", "store",
                                   "scope", "scope-relaxed"])
@pytest.mark.parametrize("program", [RACER, RACER_DELAYED],
                         ids=["pim-first", "fetch-first"])
def test_race_programs_keep_fetch_counts_exact(model, program):
    _run_checking_fetch_counts(_timing(program, model))


def test_ycsb_mix_keeps_fetch_counts_exact():
    """The ``ycsb-mix`` pin's scope fences reach the flush point 8,478
    times, and some of them wait on a same-scope fill."""
    spec, digest = _PINNED_CONFIGS["ycsb-mix"]
    result, answers = _run_checking_fetch_counts(Experiment.from_dict(spec))
    assert sum(answers.values()) == 8478
    assert answers[True] > 0
    assert result_digest({
        "run_time": result.run_time,
        "events": result.events,
        "stale_reads": result.stale_reads,
        "stats": result.stats,
    }) == digest


def test_flush_point_makes_no_scope_map_call():
    """The flush point looks up the fetch count instead of mapping every
    MSHR entry's address: on ``ycsb-mix`` the address walk made 179,084
    ``ScopeMap`` calls from the LLC."""
    _, stats = profile_run(_PINNED_CONFIGS["ycsb-mix"][0])
    llc_file = LastLevelCache.handle.__code__.co_filename
    scope_file = ScopeMap.scope_id_of.__code__.co_filename
    code = LastLevelCache._scope_fetch_in_flight.__code__
    check = (code.co_filename, code.co_firstlineno, code.co_name)
    assert stats.stats[check][1] > 0  # the flush point ran
    from_llc = sum(row[0]
                   for func, (_, _, _, _, callers) in stats.stats.items()
                   if func[0] == scope_file
                   for caller, row in callers.items()
                   if caller[0] == llc_file)
    assert from_llc == 0
