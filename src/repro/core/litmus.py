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
from typing import (Callable, Dict, FrozenSet, Iterable, Mapping, Optional,
                    Sequence, Set, Tuple)

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


#: Effect codes of compiled ops (see ``LitmusExecutor._compile``).
_NOP, _LOAD, _STORE, _FLUSH = range(4)


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
        # Bit ``i`` of ``blockers[tid][j]`` is set when op ``j`` may not
        # issue before op ``i``; in program order, every earlier op.
        self.blockers = tuple(
            tuple((1 << j) - 1 for j in range(len(thread)))
            for thread in program.threads
        )

    # ------------------------------------------------------------------ #

    def outcomes(self) -> Set[Tuple[Tuple[int, int, int], ...]]:
        """All reachable read outcomes.

        Each outcome is a sorted tuple of ``(thread, op_index, value)``
        for every LOAD in the program.

        DFS over flat state tuples: the prefetch budget left, the cached
        and dirty line bitmasks, one issued-op bitmask per thread, then
        the memory values, the cache values (0 when not cached) and one
        read slot per LOAD, at the offsets :meth:`_compile` assigns.  A
        state whose threads have all finished is terminal, because a
        prefetch can no longer change a read.
        """
        threads, prefetch, initial, reads_at, tids, indexes = self._compile()
        pim = self.program.pim_function
        seen = {initial}
        finals = set()
        stack = [initial]
        pop, push, visit = stack.pop, stack.append, seen.add
        while stack:
            state = pop()
            done = True
            for slot, table in threads:
                for effect, issued in table[state[slot]]:
                    done = False
                    s = list(state)
                    s[slot] = issued
                    kind = effect[0]
                    if kind == _LOAD:
                        _, bit, mem, line, read = effect
                        if s[1] & bit:
                            s[read] = s[line]
                        else:  # loads allocate
                            s[read] = s[line] = s[mem]
                            s[1] |= bit
                    elif kind == _STORE:
                        _, bit, line, value = effect
                        s[line] = value
                        s[1] |= bit
                        s[2] |= bit
                    elif kind == _FLUSH:  # flushes, then PIM updates
                        for bit, mem, line in effect[1]:
                            if s[1] & bit:
                                if s[2] & bit:
                                    s[mem] = s[line]
                                    s[2] ^= bit
                                s[1] ^= bit
                                s[line] = 0
                        for addr, mem in effect[2]:
                            s[mem] = pim(addr, s[mem])
                    successor = tuple(s)
                    if successor not in seen:
                        visit(successor)
                        push(successor)
            if done:
                finals.add(state[reads_at:])
            elif state[0]:
                # Spontaneous prefetch (another thread / hardware
                # prefetcher pulling a line into the cache between any
                # two steps).
                for bit, mem, line in prefetch:
                    if not state[1] & bit:
                        s = list(state)
                        s[0] -= 1
                        s[1] |= bit
                        s[line] = s[mem]
                        successor = tuple(s)
                        if successor not in seen:
                            visit(successor)
                            push(successor)
        return {tuple(sorted(zip(tids, indexes, reads))) for reads in finals}

    def reachable(self, predicate: Callable[[Dict[Tuple[int, int], int]], bool]) -> bool:
        """Is any outcome satisfying ``predicate`` reachable?

        ``predicate`` receives ``{(thread, op_index): value}``.
        """
        for outcome in self.outcomes():
            if predicate({(t, i): v for t, i, v in outcome}):
                return True
        return False

    # ------------------------------------------------------------------ #

    def _compile(self):
        """The search's inputs: per-thread move tables, the prefetchable
        lines, the initial state, and the read slots' offset and keys.

        Address ``k`` is bit ``k`` of the line masks, and its line is a
        ``(bit, memory offset, cache offset)`` record.  Memory starts at
        0, which reads as an absent address did.  An uncacheable address
        has no bit and its memory word as its cache value, so loads,
        stores and flushes of it act on memory alone.  A thread's table
        maps each issued-op bitmask to the ``(effect, next bitmask)``
        moves its blockers allow.
        """
        program = self.program
        addrs = dict.fromkeys(sorted(program.prefetchable))
        for op in (op for thread in program.threads for op in thread):
            if op.kind is OpKind.PIM_OP:
                addrs.update(dict.fromkeys(program.addresses_of(op.scope)))
            elif op.kind.is_memory_access:
                addrs[op.address] = None
        mem_at = 3 + len(program.threads)
        cache_at = mem_at + len(addrs)
        bypass = program.scope_addresses if self.uncacheable else ()
        lines = {addr: (0, mem_at + k, mem_at + k) if addr in bypass
                 else (1 << k, mem_at + k, cache_at + k)
                 for k, addr in enumerate(addrs)}
        reads_at = cache_at + len(addrs)
        tids, indexes, threads = [], [], []
        for tid, thread in enumerate(program.threads):
            effects = []
            for op in thread:
                if op.kind is OpKind.LOAD:
                    read = reads_at + len(tids)
                    tids.append(tid)
                    indexes.append(op.index)
                    effects.append((_LOAD, *lines[op.address], read))
                elif op.kind is OpKind.STORE:
                    bit, _, line = lines[op.address]
                    effects.append((_STORE, bit, line, op.value))
                elif op.kind is OpKind.FLUSH:
                    effects.append((_FLUSH, (lines[op.address],), ()))
                elif op.kind is OpKind.PIM_OP:
                    scope = program.addresses_of(op.scope)
                    # The paper's mechanism: scope flush is atomic with
                    # the op.
                    flushed = (tuple(lines[addr] for addr in scope)
                               if self.flush_atomic else ())
                    effects.append((_FLUSH, flushed, tuple(
                        (addr, lines[addr][1]) for addr in scope)))
                elif op.kind.is_fence:
                    # Fences order issue and never touch memory; the
                    # blockers enforce them.
                    effects.append((_NOP,))
                else:  # pragma: no cover - defensive
                    raise ValueError(f"litmus cannot execute {op.kind}")
            table: Dict[int, tuple] = {}
            todo = [0]
            while todo:
                issued = todo.pop()
                if issued not in table:
                    table[issued] = moves = tuple(
                        (effects[j], issued | 1 << j)
                        for j, blockers in enumerate(self.blockers[tid])
                        if not (issued >> j & 1 or blockers & ~issued))
                    todo.extend(move[1] for move in moves)
            threads.append((3 + tid, table))
        prefetch = tuple(lines[addr] for addr in sorted(program.prefetchable)
                         if addr not in bypass)
        initial = (self.prefetch_budget, 0, 0) + (0,) * (reads_at - 3 + len(tids))
        return threads, prefetch, initial, reads_at, tids, indexes


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
