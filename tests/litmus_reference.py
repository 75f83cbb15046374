"""The dict-based litmus search, kept as a reference for the dense one.

This is the search :mod:`repro.core.litmus` ran before it compiled
programs into dense states: every state holds sorted ``(addr, value)``
tuples for memory and cache, a frozenset of dirty lines and the sorted
``(thread, index, value)`` reads, and each step copies them into dicts
and back.  It is slow and plain on purpose; tests assert that the
dense search reaches exactly the same outcome sets.
"""

from typing import Dict, NamedTuple, Optional, Set

from repro.core.litmus import LitmusProgram
from repro.core.memops import MemOp, OpKind
from repro.core.models import ConsistencyModel, properties_of


class _State(NamedTuple):
    """One abstract machine state (hashable for visited-set pruning)."""

    pcs: tuple          # per-thread program counters
    memory: tuple       # (addr, value) pairs, sorted
    cache: tuple        # (addr, value) pairs, sorted
    dirty: frozenset    # dirty cached addrs
    reads: tuple        # (thread, index, value) triples, sorted
    prefetches: int     # prefetch budget left


class ReferenceExecutor:
    """The in-order machine; arguments as for ``LitmusExecutor``."""

    def __init__(self, program: LitmusProgram, flush_atomic: bool,
                 prefetch_budget: int = 2, uncacheable: bool = False) -> None:
        self.program = program
        self.flush_atomic = flush_atomic
        self.prefetch_budget = prefetch_budget
        self.uncacheable = uncacheable

    def outcomes(self):
        initial = _State(
            pcs=tuple(0 for _ in self.program.threads),
            memory=(),
            cache=(),
            dirty=frozenset(),
            reads=(),
            prefetches=self.prefetch_budget,
        )
        results = set()
        visited: Set = set()
        stack = [initial]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            successors = list(self._successors(state))
            if not successors:
                results.add(tuple(sorted(state.reads)))
                continue
            stack.extend(successors)
        return results

    def _successors(self, state: _State):
        for tid, pc in enumerate(state.pcs):
            thread = self.program.threads[tid]
            if pc < len(thread):
                yield self._step(state, tid, thread[pc], pc + 1)
        yield from self._prefetch_successors(state)

    def _prefetch_successors(self, state: _State):
        if state.prefetches <= 0:
            return
        cache = dict(state.cache)
        memory = dict(state.memory)
        for addr in sorted(self.program.prefetchable):
            if addr in cache or self._bypasses_cache(addr):
                continue
            new_cache = dict(cache)
            new_cache[addr] = memory.get(addr, 0)
            yield _State(
                state.pcs, state.memory, _freeze(new_cache),
                state.dirty, state.reads, state.prefetches - 1,
            )

    def _bypasses_cache(self, addr: Optional[int]) -> bool:
        return self.uncacheable and addr in self.program.scope_addresses

    def _exec_op(self, memory: Dict[int, int], cache: Dict[int, int],
                 dirty: Set[int], reads, tid: int, op: MemOp):
        kind = op.kind
        if kind is OpKind.STORE:
            if self._bypasses_cache(op.address):
                memory[op.address] = op.value
            else:
                cache[op.address] = op.value
                dirty.add(op.address)
        elif kind is OpKind.LOAD:
            if self._bypasses_cache(op.address):
                value = memory.get(op.address, 0)
            elif op.address in cache:
                value = cache[op.address]
            else:
                value = memory.get(op.address, 0)
                cache[op.address] = value
            reads = tuple(sorted(reads + ((tid, op.index, value),)))
        elif kind is OpKind.FLUSH:
            if op.address in cache:
                if op.address in dirty:
                    memory[op.address] = cache[op.address]
                    dirty.discard(op.address)
                del cache[op.address]
        elif kind is OpKind.PIM_OP:
            scope_addrs = self.program.addresses_of(op.scope)
            if self.flush_atomic:
                for addr in scope_addrs:
                    if addr in cache:
                        if addr in dirty:
                            memory[addr] = cache[addr]
                            dirty.discard(addr)
                        del cache[addr]
            for addr in scope_addrs:
                memory[addr] = self.program.pim_function(
                    addr, memory.get(addr, 0))
        elif not kind.is_fence:
            raise ValueError(f"litmus cannot execute {kind}")
        return reads

    def _step(self, state: _State, tid: int, op: MemOp, pc: int) -> _State:
        memory = dict(state.memory)
        cache = dict(state.cache)
        dirty = set(state.dirty)
        reads = self._exec_op(memory, cache, dirty, state.reads, tid, op)
        pcs = state.pcs[:tid] + (pc,) + state.pcs[tid + 1:]
        return _State(pcs, _freeze(memory), _freeze(cache),
                      frozenset(dirty), reads, state.prefetches)


class ReferenceModelExecutor(ReferenceExecutor):
    """The reorder machine; arguments as for ``ModelExecutor``.  Its
    ``pcs`` hold one issued-op bitmask per thread."""

    def __init__(self, program: LitmusProgram, model: ConsistencyModel,
                 prefetch_budget: int = 2) -> None:
        props = properties_of(model)
        super().__init__(
            program,
            flush_atomic=props.flushes_at_llc,
            prefetch_budget=prefetch_budget,
            uncacheable=model is ConsistencyModel.UNCACHEABLE,
        )
        self.model = model
        self.props = props
        self.blockers = tuple(
            tuple(sum(1 << i for i in range(j)
                      if not props.may_reorder(thread[i], op))
                  for j, op in enumerate(thread))
            for thread in program.threads
        )

    def _successors(self, state: _State):
        for tid, mask in enumerate(state.pcs):
            thread = self.program.threads[tid]
            for j, blockers in enumerate(self.blockers[tid]):
                if not (mask >> j & 1 or blockers & ~mask):
                    yield self._step(state, tid, thread[j], mask | 1 << j)
        yield from self._prefetch_successors(state)


def _freeze(d: Dict[int, int]):
    return tuple(sorted(d.items()))
