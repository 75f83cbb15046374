"""Operational litmus-test executor for PIM coherency mechanisms.

This is a small model checker over an abstract machine: threads executing
program-order operation streams, one shared cache above a main memory, a
bulk-bitwise PIM module operating on memory, and -- crucially -- a
*nondeterministic prefetcher/other-thread* that may pull any interesting
address into the cache at any step (Fig. 1, step 5).  All interleavings
are enumerated with DFS over machine states, and the set of reachable
read-value outcomes is returned.

Two PIM-op mechanisms are modelled:

* ``flush_atomic=False`` -- the software-flush approach of [9, 25]: the
  PIM op updates memory without touching the cache; coherency relies on
  the program's explicit ``Flush`` operations.  The Fig. 1 outcome
  (observing the PIM result on B, then the *pre-PIM* value of A) is
  reachable, which yields a happens-before cycle.
* ``flush_atomic=True`` -- the paper's mechanism (all four proposed
  models): the PIM op atomically flushes its scope from the cache and
  executes.  The bad outcome is unreachable.

Programs use :class:`repro.core.memops.MemOp`; writes carry explicit
values and the PIM op applies a per-address function to memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.memops import MemOp, OpKind
from repro.core.models import ConsistencyModel, properties_of

#: A PIM computation: address -> (old value -> new value).
PimFunction = Callable[[int, int], int]


@dataclass(frozen=True)
class LitmusProgram:
    """Per-thread operation streams plus the PIM op semantics."""

    threads: Tuple[Tuple[MemOp, ...], ...]
    #: Addresses the nondeterministic prefetcher may touch.
    prefetchable: FrozenSet[int]
    #: Scope membership: the addresses a PIM op's scope covers.
    scope_addresses: FrozenSet[int]
    pim_function: PimFunction = field(default=lambda addr, v: v + 1)
    #: Per-scope address sets as sorted ``(scope_id, addresses)`` pairs.
    #: Empty means the single-scope legacy shape: every PIM op covers
    #: ``scope_addresses`` regardless of its ``scope`` field.
    scopes: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    @classmethod
    def build(cls, threads: Sequence[Sequence[MemOp]],
              scope_addresses: Iterable[int] = (),
              prefetchable: Optional[Iterable[int]] = None,
              pim_function: Optional[PimFunction] = None,
              scopes: Optional[Mapping[int, Iterable[int]]] = None,
              ) -> "LitmusProgram":
        scope_map: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
        union = frozenset(scope_addresses)
        if scopes is not None:
            scope_map = tuple(
                (sid, tuple(sorted(addrs)))
                for sid, addrs in sorted(scopes.items())
            )
            union = union | frozenset(
                a for _, addrs in scope_map for a in addrs)
        return cls(
            threads=tuple(tuple(t) for t in threads),
            prefetchable=frozenset(prefetchable if prefetchable is not None else union),
            scope_addresses=union,
            pim_function=pim_function or (lambda addr, v: v + 1),
            scopes=scope_map,
        )

    def addresses_of(self, scope: Optional[int]) -> Tuple[int, ...]:
        """The addresses a PIM op to ``scope`` covers."""
        if self.scopes and scope is not None:
            for sid, addrs in self.scopes:
                if sid == scope:
                    return addrs
            return ()
        return tuple(sorted(self.scope_addresses))


class _State(NamedTuple):
    """One abstract machine state (hashable for visited-set pruning)."""

    pcs: tuple          # per-thread program counters
    memory: tuple       # (addr, value) pairs, sorted
    cache: tuple        # (addr, value) pairs, sorted
    dirty: frozenset    # dirty cached addrs
    reads: tuple        # (thread, index, value) triples, sorted
    prefetches: int     # prefetch budget left


class LitmusExecutor:
    """Enumerates all executions of a litmus program.

    Args:
        flush_atomic: whether PIM ops atomically flush their scope from
            the cache before executing (the paper's mechanism) or leave
            the cache untouched (the software-flush approach).
        prefetch_budget: bound on spontaneous cache fills per execution
            (keeps the state space finite; 2 suffices for Fig. 1).
        uncacheable: scope addresses bypass the cache entirely (the
            uncacheable-region baseline): loads and stores go straight
            to memory, flushes are no-ops, the prefetcher skips them.
    """

    def __init__(self, program: LitmusProgram, flush_atomic: bool,
                 prefetch_budget: int = 2, uncacheable: bool = False) -> None:
        self.program = program
        self.flush_atomic = flush_atomic
        self.prefetch_budget = prefetch_budget
        self.uncacheable = uncacheable

    # ------------------------------------------------------------------ #

    def outcomes(self) -> Set[Tuple[Tuple[int, int, int], ...]]:
        """All reachable read outcomes.

        Each outcome is a sorted tuple of ``(thread, op_index, value)``
        for every LOAD in the program.
        """
        initial = _State(
            pcs=tuple(0 for _ in self.program.threads),
            memory=(),
            cache=(),
            dirty=frozenset(),
            reads=(),
            prefetches=self.prefetch_budget,
        )
        results: Set[Tuple[Tuple[int, int, int], ...]] = set()
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

    def reachable(self, predicate: Callable[[Dict[Tuple[int, int], int]], bool]) -> bool:
        """Is any outcome satisfying ``predicate`` reachable?

        ``predicate`` receives ``{(thread, op_index): value}``.
        """
        for outcome in self.outcomes():
            if predicate({(t, i): v for t, i, v in outcome}):
                return True
        return False

    # ------------------------------------------------------------------ #

    def _successors(self, state: _State):
        # Thread steps.
        for tid, pc in enumerate(state.pcs):
            thread = self.program.threads[tid]
            if pc < len(thread):
                yield self._step(state, tid, thread[pc], pc + 1)
        # Spontaneous prefetch (another thread / hardware prefetcher
        # pulling a line into the cache between any two steps).
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
        """Apply one operation's memory effect; returns updated reads."""
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
                cache[op.address] = value  # loads allocate
            # Keep the accumulated reads sorted: outcomes are read *sets*
            # (keyed by thread and op index), so states differing only in
            # observation order merge in the visited set.
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
                # The paper's mechanism: scope flush is atomic with the op.
                for addr in scope_addrs:
                    if addr in cache:
                        if addr in dirty:
                            memory[addr] = cache[addr]
                            dirty.discard(addr)
                        del cache[addr]
            for addr in scope_addrs:
                memory[addr] = self.program.pim_function(addr, memory.get(addr, 0))
        elif kind.is_fence:
            # Fences order issue, never touch memory.  The in-order
            # executor issues in program order so they are no-ops here;
            # ModelExecutor enforces them through the reordering
            # predicate before an op may issue at all.
            pass
        else:  # pragma: no cover - defensive
            raise ValueError(f"litmus cannot execute {kind}")
        return reads

    def _step(self, state: _State, tid: int, op: MemOp, pc: int) -> _State:
        """``state`` after thread ``tid`` performs ``op``; its entry in
        ``pcs`` becomes ``pc``."""
        memory = dict(state.memory)
        cache = dict(state.cache)
        dirty = set(state.dirty)
        reads = self._exec_op(memory, cache, dirty, state.reads, tid, op)
        pcs = state.pcs[:tid] + (pc,) + state.pcs[tid + 1:]
        return _State(pcs, _freeze(memory), _freeze(cache),
                      frozenset(dirty), reads, state.prefetches)


class ModelExecutor(LitmusExecutor):
    """Model-aware litmus executor: Table-I reordering plus mechanism.

    Extends the in-order abstract machine with out-of-order *issue*: a
    thread may make operation ``j`` visible while earlier operations are
    still pending whenever :meth:`ModelProperties.may_reorder` permits
    ``j`` to pass every one of them.  The mechanism follows the model's
    static properties -- the four proposed models flush the scope
    atomically with the PIM op (``flushes_at_llc``), the uncacheable
    baseline bypasses the cache for scope addresses, and the Naive /
    SW-Flush baselines leave the cache alone.

    Because :meth:`may_reorder` is monotone along the strength lattice
    (atomic <= store <= scope <= scope-relaxed), the reachable outcome
    sets of the proposed models are nested -- the invariant the fuzz
    oracle checks differentially.
    """

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
        # The reorder table: bit ``i`` of ``blockers[tid][j]`` is set when
        # op ``j`` may not pass earlier op ``i``; ``j`` may issue once all
        # of its blockers have.
        self.blockers = tuple(
            tuple(sum(1 << i for i in range(j)
                      if not props.may_reorder(thread[i], op))
                  for j, op in enumerate(thread))
            for thread in program.threads
        )

    # In ModelExecutor states, ``pcs`` holds one *issued-set bitmask*
    # per thread instead of a program counter: bit ``j`` set means the
    # thread's j-th operation has become visible.

    def _successors(self, state: _State):
        for tid, mask in enumerate(state.pcs):
            thread = self.program.threads[tid]
            for j, blockers in enumerate(self.blockers[tid]):
                if not (mask >> j & 1 or blockers & ~mask):
                    yield self._step(state, tid, thread[j], mask | 1 << j)
        yield from self._prefetch_successors(state)


def _freeze(d: Dict[int, int]) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(d.items()))


# ---------------------------------------------------------------------- #
# The Fig. 1 litmus test
# ---------------------------------------------------------------------- #

A, B = 0x100, 0x140
A0, B0, A1, B1 = 10, 20, 11, 21


def fig1_program() -> LitmusProgram:
    """The example of Fig. 1.

    Thread 0 writes A and B (fenced), flushes both, and issues a PIM op
    that bumps every scope address (A0 -> A1, B0 -> B1).  Thread 1 reads
    B twice and then A.  The problematic outcome is
    ``r(B)=B0, r(B)=B1, r(A)=A0``: thread 1 sees the PIM op's effect on
    B but the *pre-PIM* value of A, closing the happens-before cycle.
    """
    t0 = [
        MemOp(OpKind.STORE, 0, 0, address=A, value=A0),
        MemOp(OpKind.MEM_FENCE, 0, 1),
        MemOp(OpKind.STORE, 0, 2, address=B, value=B0),
        MemOp(OpKind.MEM_FENCE, 0, 3),
        MemOp(OpKind.FLUSH, 0, 4, address=A),
        MemOp(OpKind.FLUSH, 0, 5, address=B),
        MemOp(OpKind.MEM_FENCE, 0, 6),
        MemOp(OpKind.PIM_OP, 0, 7, scope=0),
    ]
    t1 = [
        MemOp(OpKind.LOAD, 1, 0, address=B),
        MemOp(OpKind.LOAD, 1, 1, address=B),
        MemOp(OpKind.LOAD, 1, 2, address=A),
    ]
    return LitmusProgram.build([t0, t1], scope_addresses=[A, B],
                               pim_function=lambda addr, v: v + 1)


def fig1_violation(outcome: Dict[Tuple[int, int], int]) -> bool:
    """The cyclic-order observation of Section I."""
    return (
        outcome.get((1, 0)) == B0
        and outcome.get((1, 1)) == B1
        and outcome.get((1, 2)) == A0
    )


def fig1_violation_reachable(flush_atomic: bool) -> bool:
    """Can the Fig. 1 correctness violation occur under a mechanism?

    >>> fig1_violation_reachable(flush_atomic=False)
    True
    >>> fig1_violation_reachable(flush_atomic=True)
    False
    """
    executor = LitmusExecutor(fig1_program(), flush_atomic=flush_atomic)
    return executor.reachable(fig1_violation)
