"""Generated-Python specializer for the SST episode loop.

The episode loop is the simulator's hottest code: one iteration per
stepped speculative cycle.  Written as ordinary methods it cost about
eight Python calls per issued instruction, so call overhead, not the
modelling, bounded throughput.  This module emits the loop as Python
source and ``exec``-compiles it once per configuration signature; it is
:class:`~repro.core.sst_core.SSTCore`'s only episode loop:

* configuration-invariant branches (store bypass?  defer trigger
  level?) are pruned at generation time;
* width and the mispredict penalty are baked in as integer literals,
  and so are the functional-unit latencies, which are fixed parameters
  of :mod:`repro.config`;
* the ahead-strand fast paths (ALU, load, store, branch, jumps), slot
  consumption, mode classification and mode-cycle accounting are
  inlined — instruction decode reads the block cache's flat rows
  (:mod:`repro.isa.blockcache`);
* the memo fast-paths of the replay choice and commit check are inlined
  so blocked strands cost two attribute reads per cycle, while the
  *slow* paths stay ordinary method calls on the core — rollback,
  region/full commit, deferral and replay semantics live in exactly
  one place (:mod:`repro.core.sst_core`), and so do the sanitizer and
  taint hooks those methods carry.

The loop has two sections.  The *speculative cycle* runs execute-ahead,
SST and replay-only cycles: commit checks, the replay strand, the ahead
strand and mode classification.  Its mutable scalars (``_seq``,
``_ahead_pc``, ``_cycle``, the memo words...) stay on the core, because
the slow paths it calls read and write them; only the ahead strand's
cursors and objects that are stable for one loop invocation (stats, the
speculative register file arrays, the episode containers, bound
methods) are hoisted into locals.  An episode's containers are replaced
only by ``_begin_episode`` / ``_teardown_episode``, and every teardown
path returns from the loop before the locals could go stale.

Both sections count ahead-strand issues from seq: every issue takes
exactly one seq, so ``stats.ahead_insts`` lags by ``seq - seq_base``
until a sync (before a slow path that reads it, and when the strand
stops), the budget check compares seq with a limit computed on entry,
and a cycle's issue slots end at ``seq_stop``.  One bound, the smaller
of the two, is tested per issue.  HALT and MEMBAR read only ``r0``,
which is never NA and never late (:mod:`repro.isa.blockcache`), so both
sections tell them apart after the operand tests, at the end of the kind
chain, where the common kinds do not pay for them.

The speculative cycle's ahead strand runs an outer loop once per cycle
and an inner loop once per issue.  The block and the redirect barrier
are checked in the outer loop only: inside a cycle, only an issue that
then ends the cycle's issue can set them (a deferred indirect jump with
no predicted target blocks the strand; a mispredict raises the barrier
past the cycle).  No commit guard follows the strand: the guard before
it left the commit memo beyond the cycle, and the strand never clears
the memo without entering scout.

*The fold.*  A cycle ends after an ahead issue when its slots are used
up, when the next instruction waits on an operand, or when a mispredict
raises the barrier.  If the next cycle starts before ``until`` and both
memos lie beyond it, that cycle would run no commit and no replay, so
the strand opens it itself, as :func:`_end_cycle` and the top of the
loop would: the ending cycle is classified (SST if the replay strand
issued too, else replay-only or execute-ahead by the boundary flag) and
accounted (stepped cycle, mode cycles, the clock), and the new cycle
starts with the wake the replay memo gives it and all its slots.  The
commit memo cannot move while the strand runs, and the replay memo is
re-read at every fold (an inlined deferral can lower it).  A cycle the
strand opens and then issues nothing in ends through the ordinary
:func:`_end_cycle`, exactly as it would have.

The *scout section* runs the cycles of a scout session: the
prefetch-only run-ahead that SST falls back to when the DQ, the store
buffer or the checkpoints run out, always rolled back.  It issues on the
ahead strand only, and it holds its per-cycle scalars (cycle, ahead PC,
seq, the next-event hint, the stepped-cycle marker and the mode-account
cycle) in locals, writing them back before ``_check_budget``, before
``_rollback`` and at every return; the redirect barrier is a local too,
and needs no write-back because scout never moves it.  A session ends
only on ``until`` or by ``_rollback(cycle, None)`` once the clock
reaches ``_scout_end``, so the section leaves out, exactly:

* the commit guard: ``_try_commits`` returns at once in scout;
* the replay strand, which scout never runs;
* mode classification: the mode stays scout until the rollback;
* the dependence records of an NA destination, which only goes NA.
  Its record would be ready at ``_scout_end``, and that cannot set a
  wake: a cycle that starts in scout already waits no later than
  ``_scout_end``, and a cycle that entered scout mid-cycle and wrote an
  NA destination has issued, so it does not consult its wake.  Nothing
  else reads the records in scout, and the rollback drops them.  A
  scout load that misses keeps its record: its ready time can come
  before ``_scout_end`` and set the next wake;
* last-writer tags, unless the loop is instrumented: only a replay and
  the taint tracker read them.

Most scout cycles issue the full width and move the clock by exactly
one, so the issue loop opens such a cycle itself.  When an issue takes
the cycle's last slot, or the strand waits on an operand in a cycle that
has issued, and the next cycle reaches neither ``_scout_end`` nor
``until``, the loop counts the stepped cycle, moves the clock and the
next-event hint by one and resets the slots and the wake minimum, as
:func:`_end_cycle` would.  ``_end_cycle`` then runs only on a stall in a
cycle that issued nothing, a fault, or the end of the session or the
quantum.  Mode-cycle accounting lags over the cycles opened inline: the
next ``_end_cycle``, or the sync before ``_check_budget``, adds the
whole span to the scout key, and the mode cannot change inside a
session.

The block and the barrier are checked once, when a cycle's issue loop
starts: inside a session only a fault sets the block, and a fault ends
the loop; scout never moves the barrier.

The ahead strand enters scout mid-cycle when the inlined store finds the
store buffer full, or when ``_defer_issue`` returns ``RETRY`` from
``_exhausted``.  That cycle finishes in the scout section with the
issue slots it has left and its wake minimum so far, so its timing is
what one loop running both sections would give.  Both sections end a
cycle with the same accounting, emitted by :func:`_end_cycle`.

The kind codes and the ``NO_WAKE`` sentinel are written into the
templates as literals (``{K_LOAD}`` in an f-string template), so the
generated source names neither and a kind test is a constant compare.

One code-generation flag, ``instrumented``, serves the observers (the
invariant sanitizer and the speculative-leak taint tracker); the core
sets it at construction when either is attached.  It compiles in the
taint tracker's three issue hooks (``on_ahead`` before a speculative
ahead-strand execute, ``on_scout_na`` / ``on_scout`` in scout issue)
and scout's last-writer tags, calls ``_min_outstanding`` where the
plain loop reads the pending heap itself, and leaves out the two
inlined deferred-queue fast paths, so every deferral goes through
:meth:`SSTCore._defer_issue` and its ``on_defer`` hooks.  The observers
are read-only, so both variants produce the same cycles.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Tuple

from repro.config import (
    ALU_LATENCY,
    DIV_LATENCY,
    MUL_LATENCY,
    DeferTrigger,
    SSTConfig,
)
from repro.core import sst_core
from repro.core.modes import ExecMode, ScoutCause
from repro.core.sst_core import _NO_WAKE as NO_WAKE
from repro.errors import SimulatorInvariantError
from repro.isa.blockcache import (
    K_ALU,
    K_BARRIER,
    K_BRANCH,
    K_DIV,
    K_HALT,
    K_JUMP,
    K_JUMP_INDIRECT,
    K_LOAD,
    K_MUL,
    K_PREFETCH,
    K_STORE,
)
from repro.memory.request import AccessType, HitLevel

_M = "0xFFFFFFFFFFFFFFFF"


def _triggering(flag_tlb: bool, flag_l1: bool, result: str) -> str:
    """The `_defer_triggering` predicate as a pruned expression."""
    if flag_l1:
        level = f"{result}.level is not L1"
    else:
        level = (f"({result}.level is DRAM or "
                 f"{result}.level is MERGE_L2)")
    if flag_tlb:
        return f"({result}.tlb_miss or {level})"
    return f"({level})"


def _write_available(pad: str, value: str, ready: str,
                     tag: bool = True) -> str:
    """Inlined SpeculativeRegisters.write_available (zero-reg guarded).

    ``tag=False`` leaves out the last-writer tag (see
    :func:`_scout_section`)."""
    return (
        f"{pad}if rd:\n"
        f"{pad}    spec_values[rd] = {value}\n"
        f"{pad}    na_producer.pop(rd, None)\n"
        + (f"{pad}    spec_last_writer[rd] = seq\n" if tag else "")
        + f"{pad}    spec_ready[rd] = {ready}\n"
    )


def _write_na(pad: str, tag: bool = True) -> str:
    """Inlined SpeculativeRegisters.write_na (zero-reg guarded)."""
    return (
        f"{pad}if rd:\n"
        f"{pad}    na_producer[rd] = seq\n"
        + (f"{pad}    spec_last_writer[rd] = seq\n" if tag else "")
    )


_CONSUME = """\
{pad}pc = next_pc
{pad}seq += 1
"""

# Both sections count ahead-strand issues from seq: every issue takes
# exactly one seq, so ``stats.ahead_insts`` lags by ``seq - seq_base``
# until a sync adds it, the budget check compares seq with a limit
# computed at entry, and a cycle's issue slots end at ``seq_stop``.
_AHEAD_SYNC = """\
{pad}core._ahead_pc = pc
{pad}core._seq = seq
{pad}stats.ahead_insts += seq - seq_base
{pad}seq_base = seq
"""

_BUDGET_CHECK = """\
{pad}if seq >= seq_limit:
{sync}\
{pad}    check_budget(stats.normal_insts + stats.ahead_insts, budget)
"""


def _budget_check(pad: str) -> str:
    """The runaway guard before an ahead-strand issue attempt."""
    return _BUDGET_CHECK.format(pad=pad,
                                sync=_AHEAD_SYNC.format(pad=pad + "    "))


def _defer_call(pad: str, args: str) -> str:
    """A ``_defer_issue`` call from the speculative cycle's issue loop.

    The method reads and moves the strand's cursor on the core and
    counts its own issue, so the locals sync both ways around it; it
    never returns a wake.  A deferred indirect jump with no predicted
    target issues and blocks the strand (``jump_na``), which the next
    attempt would see after its budget check.  ``RETRY`` (the defer
    entered scout) breaks too: the cycle finishes in the scout
    section."""
    return (
        _AHEAD_SYNC.format(pad=pad)
        + f"{pad}status = defer_issue({args})[0]\n"
        f"{pad}pc = core._ahead_pc\n"
        f"{pad}seq = seq_base = core._seq\n"
        f"{pad}if status is ISSUED:\n"
        f"{pad}    if core._ahead_block is None:\n"
        f"{pad}        continue\n"
        f"{pad}    if seq < seq_stop and seq >= seq_limit:\n"
        f"{pad}        check_budget(stats.normal_insts + stats.ahead_insts,\n"
        f"{pad}                     budget)\n"
        f"{pad}break\n"
    )


# An ahead issue that ends the cycle's issue early: the cycle has
# issued, so its wake is not needed, and it ends as a cycle whose slots
# are used up would (see _fold).
_END_ISSUE = """\
{pad}seq_bound = seq_stop = seq
{pad}continue
"""


def _mispredict(pad: str, redirect: int) -> str:
    """A mispredicted branch or indirect jump in the speculative cycle:
    it issues and raises the redirect barrier past this cycle (the old
    barrier was at or below it, or the cycle would not have issued), so
    the strand stops here.  With slots left the next attempt would run
    its budget check and then wait at the barrier."""
    return (
        f"{pad}barrier = cycle + {redirect}\n"
        f"{pad}core._ahead_barrier = barrier\n"
        + _CONSUME.format(pad=pad)
        + f"{pad}if seq < seq_stop:\n"
        + _budget_check(pad + "    ")
        + _END_ISSUE.format(pad=pad)
    )


def _commit_guard(pad: str) -> str:
    """The commit-guard precheck.  It is exact: with fewer than two live
    checkpoints and a non-empty DQ, _try_commits provably does nothing
    but set the memo to ``NO_WAKE`` (no region candidate, full commit
    blocked on unreplayed entries)."""
    return f"""\
{pad}stall = core._commit_stall
{pad}if stall is None or cycle >= stall:
{pad}    if len(ckpt_live) >= 2 or not dq_entries:
{pad}        try_commits(cycle)
{pad}        if core.mode is NORMAL:
{pad}            return
{pad}    else:
{pad}        core._commit_stall = {NO_WAKE}
"""

# Catch up the scout cycles opened inline since ``opened_from``: each
# closed cycle is stepped once, the first only if it was not stepped
# before the issue loop opened the next, and the hint is the open cycle.
_OPENED_SYNC = """\
{pad}if cycle != opened_from:
{pad}    perf.cycles_stepped += cycle - opened_from - (
{pad}        opened_from == perf_stepped_cycle)
{pad}    perf_stepped_cycle = cycle - 1
{pad}    next_event = cycle
{pad}    opened_from = cycle
"""

# The scout section's per-cycle scalars: (local, core attribute).
_SCOUT_SCALARS = (("cycle", "_cycle"), ("pc", "_ahead_pc"), ("seq", "_seq"),
                  ("next_event", "_next_event"),
                  ("perf_stepped_cycle", "_perf_stepped_cycle"),
                  ("mode_account_cycle", "_mode_account_cycle"))


def _scout_sync(pad: str) -> str:
    """Write the scout section's scalars back to the core, and add the
    issues since the last sync (one seq each) to ``stats.ahead_insts``."""
    return (
        f"{pad}stats.ahead_insts += seq - seq_base\n"
        f"{pad}seq_base = seq\n"
        + "".join(f"{pad}core.{attr} = {name}\n"
                  for name, attr in _SCOUT_SCALARS)
    )


def _end_cycle(pad: str, issued: str, home: str,
               instrumented: bool) -> str:
    """Advance the clock past one stepped cycle: the wake choice, the
    stepping, skipping and ``spec_wait`` counters and the mode-cycle
    accounting that both sections share.

    ``home`` prefixes the scalars' names: ``"core._"`` in the
    speculative cycle, whose slow paths read them on the core, and
    ``""`` in the scout section, which holds them in locals.  The
    earliest pending completion is ``SSTCore._min_outstanding``, inlined
    except in an instrumented loop, where the method's sanitizer check
    runs.
    """
    if instrumented:
        earliest = (
            f"{pad}    outstanding = min_outstanding(cycle)\n"
            f"{pad}    if outstanding is not None and (\n"
            f"{pad}            wake_min is None or outstanding < wake_min):\n"
            f"{pad}        wake_min = outstanding\n"
        )
    else:
        earliest = (
            f"{pad}    while pending_heap and pending_heap[0][0] <= cycle:\n"
            f"{pad}        heappop(pending_heap)\n"
            f"{pad}    if pending_heap and (wake_min is None or\n"
            f"{pad}                         pending_heap[0][0] < wake_min):\n"
            f"{pad}        wake_min = pending_heap[0][0]\n"
        )
    return f"""\
{pad}if {issued}:
{pad}    next_cycle = cycle + 1
{pad}else:
{earliest}\
{pad}    if wake_min is None:
{pad}        raise SIE(
{pad}            f"speculative deadlock at cycle {{cycle}} "
{pad}            f"(mode={{core.mode}}, block={{core._ahead_block}})"
{pad}        )
{pad}    next_cycle = wake_min
{pad}{home}next_event = next_cycle
{pad}if until is not None and next_cycle > until:
{pad}    next_cycle = until
{pad}if cycle != {home}perf_stepped_cycle:
{pad}    {home}perf_stepped_cycle = cycle
{pad}    perf.cycles_stepped += 1
{pad}if next_cycle > cycle + 1:
{pad}    skipped = next_cycle - cycle - 1
{pad}    perf.cycles_skipped += skipped
{pad}    perf.fast_forwards += 1
{pad}    stalls = perf.stall_cycles
{pad}    stalls["spec_wait"] = stalls.get("spec_wait", 0) + skipped
{pad}delta = next_cycle - {home}mode_account_cycle
{pad}if delta > 0:
{pad}    mode_cycles[{home}mode_key] += delta
{pad}    {home}mode_account_cycle = next_cycle
{pad}{home}cycle = next_cycle
"""


def _fast_defer(pad: str, order: bool) -> str:
    """Inlined _defer_issue for plain ALU/long-op/load defers.

    Exactly the method's path for kinds <= K_LOAD when the DQ has
    room: operand capture (every such kind that can wait on an NA operand
    reads rs1, and every one writes rd), DQ append (with its
    stats/occupancy), the
    entry filed in the DQ index (``SSTCore._enqueue_replay``), NA
    destination, slot consumption.  The caller guards on DQ room and
    kind, and no state is mutated before the guard, so the fallback to
    the method is always clean.

    Where the method clears the replay memo, this keeps it and folds in
    the new entry's earliest eligibility, the ``ready`` its filing
    computes: the latest ready time of its NA producers when each has
    produced (is in ``slice_values``), ``NO_WAKE`` when one is still
    queued (that producer's replay clears the memo), 0 when it has none
    (an order-deferred load).  A replay choice would wake at exactly
    that minimum: the new entry adds only its own ready time, and a
    kind <= K_LOAD adds no unresolved store that could block an older
    load.  The memo stays a pure recomputation cache, since one that is
    too early only costs a choice.
    """
    order_stat = f"{pad}stats.order_deferred += 1\n" if order else ""
    return (
        f"{pad}rs1_value = rs2_value = rs2_producer = None\n"
        f"{pad}rs1_producer = na_producer.get(rs1)\n"
        f"{pad}if rs1_producer is None:\n"
        f"{pad}    rs1_value = spec_values[rs1]\n"
        f"{pad}if inst.reads_rs2:\n"
        f"{pad}    rs2_producer = na_producer.get(rs2)\n"
        f"{pad}    if rs2_producer is None:\n"
        f"{pad}        rs2_value = spec_values[rs2]\n"
        f"{pad}entry = DQEntry(seq, pc, inst, rs1_value, rs1_producer,\n"
        f"{pad}                rs2_value, rs2_producer, None, None, {order})\n"
        f"{pad}dq_entries.append(entry)\n"
        f"{pad}dq_stats.deferred += 1\n"
        f"{pad}dq_occ_add(len(dq_entries))\n"
        f"{pad}ready = 0\n"
        f"{pad}if rs1_producer is not None:\n"
        f"{pad}    if rs1_producer in slice_values:\n"
        f"{pad}        ready = producer_ready[rs1_producer]\n"
        f"{pad}    else:\n"
        f"{pad}        ready = {NO_WAKE}\n"
        f"{pad}        replay_waiters.setdefault(rs1_producer, []).append(\n"
        f"{pad}            entry)\n"
        f"{pad}if rs2_producer is not None and ready != {NO_WAKE}:\n"
        f"{pad}    if rs2_producer in slice_values:\n"
        f"{pad}        r = producer_ready[rs2_producer]\n"
        f"{pad}        if r > ready:\n"
        f"{pad}            ready = r\n"
        f"{pad}    else:\n"
        f"{pad}        ready = {NO_WAKE}\n"
        f"{pad}        replay_waiters.setdefault(rs2_producer, []).append(\n"
        f"{pad}            entry)\n"
        f"{pad}if ready != {NO_WAKE}:\n"
        f"{pad}    heappush(replay_timed, (ready, seq, entry))\n"
        f"{pad}memo = core._replay_stall\n"
        f"{pad}if memo is not None and ready < memo:\n"
        f"{pad}    core._replay_stall = ready\n"
        f"{pad}stats.deferred += 1\n"
        f"{order_stat}"
        f"{pad}if rd:\n"
        f"{pad}    na_producer[rd] = seq\n"
        f"{pad}    spec_last_writer[rd] = seq\n"
        f"{pad}producer_ready[seq] = 0\n"
        f"{pad}pc += 1\n"
        f"{pad}seq += 1\n"
        f"{pad}continue\n"
    )


def _taint_hook(pad: str, call: str, instrumented: bool) -> str:
    """A taint-tracker hook site, emitted only into instrumented loops
    (the tracker may be None there: the sanitizer alone also sets the
    flag)."""
    if not instrumented:
        return ""
    return (
        f"{pad}if taint is not None:\n"
        f"{pad}    taint.{call}\n"
    )


def _build_source(width: int, bypass: bool, defer_tlb: bool,
                  defer_l1: bool, penalty: int,
                  instrumented: bool = False) -> str:
    trig = _triggering(defer_tlb, defer_l1, "result")
    conservative = "False" if bypass else "True"
    out = []
    emit = out.append

    emit(f"""\
def _sst_spec_loop(core, budget, until):
    stats = core.stats
    mode_cycles = stats.mode_cycles
    perf = core.perf
    spec = core.spec
    if spec is None:
        return
    spec_values = spec.values
    spec_ready = spec.ready
    spec_last_writer = spec.last_writer
    na_producer = spec.na_producer
    slice_values = core._slice_values
    producer_ready = core._producer_ready
    pending_heap = core._pending_heap
    replay_waiters = core._replay_waiters
    replay_timed = core._replay_timed
    scout_stores = core._scout_stores
    dq = core.dq
    sb = core.sb
    blocks_load = sb.blocks_load
    any_unresolved_below = sb.any_unresolved_below
    sb_forward = sb.forward
    sb_append_resolved = sb.append_resolved
    mem_read = core.state.memory.read
    data_access = core.hierarchy.data_access
    do_prefetch = core.hierarchy.prefetch
    branch_unit = core.branch_unit
    resolve_cond = branch_unit.resolve_cond
    resolve_indirect = branch_unit.resolve_indirect
    predict_cond = branch_unit.predict_cond
    predict_indirect = branch_unit.predict_indirect
    push_return = branch_unit.push_return
    try_commits = core._try_commits
    try_replay_issue = core._try_replay_issue
    check_budget = core._check_budget
    count_outstanding = core._count_outstanding
    defer_issue = core._defer_issue
    dq_capacity = dq.capacity
    dq_stats = dq.stats
    dq_occ_add = dq.occupancy.add
    rows = core._rows
    n_insts = len(rows)
    # In-place containers (cleared, never rebound): safe to localize.
    dq_entries = dq._entries
    ckpt_live = core.checkpoints._live
    # normal_insts cannot change while an episode is live, so the
    # ahead-strand budget check reduces to one counter read.
    ahead_limit = budget - stats.normal_insts
    fold_until = {NO_WAKE} if until is None else until
""")
    if instrumented:
        emit("    taint = core.taint\n"
             "    min_outstanding = core._min_outstanding\n")
    emit("""\
    while True:
        mode = core.mode
        if mode is NORMAL:
            return
        cycle = core._cycle
        if until is not None and cycle >= until:
            return
""")
    # A cycle that starts in scout breaks out to the scout section,
    # which follows this loop; so does a mid-cycle scout entry.
    emit(f"""\
        if mode is SCOUT:
            if cycle >= core._scout_end:
                core._rollback(cycle, None)
                return
            wake_min = core._scout_end
            budget_left = {width}
            break
""")
    emit("        wake_min = None\n")
    emit(_commit_guard(" " * 8))
    # ---- replay strand --------------------------------------------------
    # wake_min is still None here: nothing before the strand sets it, and
    # a replay issue returns no wake.
    emit(f"""\
        budget_left = {width}
        issued_replay = 0
        while budget_left:
            if not dq_entries:
                break
            stall = core._replay_stall
            if stall is not None and stall > cycle:
                if stall != {NO_WAKE}:
                    wake_min = stall
                break
            status, wake_min = try_replay_issue(cycle)
            if status is ISSUED:
                issued_replay += 1
                budget_left -= 1
                if core.mode is NORMAL:
                    return
                continue
            break
""")
    emit(_commit_guard(" " * 8))
    # ---- ahead strand ---------------------------------------------------
    # The strand's cursor state (PC, sequence counter, redirect barrier)
    # lives in locals for the duration of the strand: the replay strand
    # and commits above are the only other writers, and the method calls
    # inside (the defer_issue fallback, the budget check) sync both ways
    # around the call.  Written back after the strand, so every
    # out-of-line reader sees fresh state.
    #
    # The outer loop runs once per cycle the strand issues in: the block
    # and the barrier are checked there, once, because inside a cycle
    # only an issue that then ends the cycle's issue can set them (a
    # deferred indirect jump with no prediction blocks the strand; a
    # mispredict raises the barrier past the cycle).  The inner loop's
    # ``else`` runs when the cycle's issue is over after an ahead issue
    # (slots used up, or ended by _END_ISSUE) or at the budget limit;
    # when the next cycle would only run this strand again, it opens
    # that cycle here (the fold, see the module docstring).
    emit(f"""\
        barrier = core._ahead_barrier
        pc = core._ahead_pc
        seq = seq_base = seq_cycle = core._seq
        seq_limit = seq + ahead_limit - stats.ahead_insts
        seq_stop = seq + budget_left
        # The commit memo cannot move while the strand runs (only replay,
        # commits and scout entry clear it), so neither can the fold's
        # limit.
        fold_limit = core._commit_stall
        if fold_until < fold_limit:
            fold_limit = fold_until
        strand_mode = (REPLAY_ONLY if core._replay_no_boundary
                       else EXECUTE_AHEAD)
        opened_from = cycle
        while seq < seq_stop:
            seq_bound = seq_stop if seq_stop < seq_limit else seq_limit
            if core._ahead_block is not None:
{_budget_check(' ' * 16)}\
                break
            if cycle < barrier:
{_budget_check(' ' * 16)}\
                if wake_min is None or barrier < wake_min:
                    wake_min = barrier
                break
            while seq < seq_bound:
                if pc >= n_insts:
                    core._ahead_block = "fault"
                    break
                (kind, rd, rs1, rs2, imm, target, fn, src_a, src_b,
                 writes_reg, uses_imm, inst) = rows[pc]
""")
    # ---- NA-operand deferral -------------------------------------------
    # Fast path: plain ALU/long-op/load defers with DQ room are by far
    # the common case and carry no branch/jump/store bookkeeping —
    # inline them; everything else falls through to the method.  An
    # instrumented loop always takes the method, which holds the
    # observers' on_defer hooks.  HALT and MEMBAR read only r0, which is
    # never NA and never late, so they are told apart after the operand
    # tests, at the end of the kind chain.
    fast_na = fast_order = ""
    if not instrumented:
        fast_na = (
            f"                    if kind <= {K_LOAD} and len(dq_entries) < "
            "dq_capacity:\n" + _fast_defer(" " * 24, False)
        )
        fast_order = (
            "                        if len(dq_entries) < dq_capacity:\n"
            + _fast_defer(" " * 28, True)
        )
    emit(f"""\
                if src_a in na_producer or src_b in na_producer:
{fast_na}\
{_defer_call(' ' * 20, 'inst, pc, cycle')}\
                wake = spec_ready[src_a]
                r = spec_ready[src_b]
                if r > wake:
                    wake = r
                if wake > cycle:
                    if seq != seq_cycle:
{_END_ISSUE.format(pad=' ' * 24)}\
                    if wake_min is None or wake < wake_min:
                        wake_min = wake
                    break
""")
    # ---- ahead execute (available operands) -----------------------------
    p = " " * 16
    emit(_taint_hook(p, "on_ahead(inst, pc, seq, cycle)", instrumented))
    emit(f"""\
                next_pc = pc + 1
                if kind <= {K_DIV}:
                    a = spec_values[rs1]
                    value = fn(a, imm) if uses_imm else fn(a, spec_values[rs2])
                    latency = ({ALU_LATENCY} if kind == {K_ALU} else
                               {MUL_LATENCY} if kind == {K_MUL} else {DIV_LATENCY})
{_write_available(p + '    ', 'value', 'cycle + latency')}\
""")
    # LOAD
    spec_loads = ""
    if bypass:
        spec_loads = (
            "                    if any_unresolved_below(seq):\n"
            "                        core._spec_loads.append(\n"
            "                            (seq, addr,\n"
            "                             forwarded[1] if forwarded is not None"
            " else -1))\n"
        )
    emit(f"""\
                elif kind == {K_LOAD}:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 != 0:
                        core._ahead_block = "fault"
                        break
                    if blocks_load(addr, seq, {conservative}):
{fast_order}\
{_defer_call(' ' * 24, 'inst, pc, cycle, True')}\
                    forwarded = sb_forward(addr, seq)
{spec_loads}\
                    if forwarded is not None:
{_write_available(p + '        ', 'forwarded[0]', 'cycle + 1')}\
                    else:
                        value = mem_read(addr)
                        result = data_access(addr, cycle, ACC_LOAD)
                        if {trig}:
{_write_na(p + '            ')}\
                            slice_values[seq] = value
                            producer_ready[seq] = result.ready_cycle
                            heappush(pending_heap, (result.ready_cycle, seq))
                            outstanding = count_outstanding(cycle)
                            if outstanding > stats.peak_outstanding_misses:
                                stats.peak_outstanding_misses = outstanding
                        else:
{_write_available(p + '            ', 'value', 'result.ready_cycle')}\
""")
    # STORE: a full store buffer enters scout mid-cycle, which breaks
    # out to finish the cycle in the scout section.
    emit(f"""\
                elif kind == {K_STORE}:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 != 0:
                        core._ahead_block = "fault"
                        break
                    if not sb_append_resolved(seq, addr, spec_values[rs2]):
                        core._enter_scout(SB_FULL)
                        break
                elif kind == {K_PREFETCH}:
                    addr = (spec_values[rs1] + imm) & {_M}
                    if addr % 8 == 0:
                        do_prefetch(addr, cycle)
                elif kind == {K_BRANCH}:
                    taken = fn(spec_values[rs1], spec_values[rs2])
                    if taken:
                        next_pc = target
                    if resolve_cond(pc, taken):
{_mispredict(p + '        ', ALU_LATENCY + penalty)}\
                elif kind == {K_JUMP}:
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                    if inst.is_call:
                        push_return(pc + 1)
                    next_pc = target
                elif kind == {K_JUMP_INDIRECT}:
                    tgt = (spec_values[rs1] + imm) & {_M}
                    if tgt >= n_insts:
                        core._ahead_block = "fault"
                        break
                    mispredicted = resolve_indirect(
                        pc, tgt, is_return=inst.is_return)
{_write_available(p + '    ', 'pc + 1', 'cycle + 1')}\
                    if inst.is_call:
                        push_return(pc + 1)
                    next_pc = tgt
                    if mispredicted:
{_mispredict(p + '        ', ALU_LATENCY + penalty)}\
                elif kind == {K_HALT}:
                    core._ahead_block = "halt"
                    break
                elif kind == {K_BARRIER}:
                    core._ahead_block = "membar"
                    break
{_CONSUME.format(pad=p)}\
            else:
                if seq < seq_stop:
                    # Stopped at the budget limit, not the cycle's end.
{_AHEAD_SYNC.format(pad=' ' * 20)}\
                    check_budget(stats.normal_insts + stats.ahead_insts,
                                 budget)
{_fold(' ' * 16, width)}\
                continue
            break
        core._ahead_pc = pc
        core._seq = seq
        stats.ahead_insts += seq - seq_base
        if cycle != opened_from:
            perf.cycles_stepped += cycle - opened_from - (
                opened_from == core._perf_stepped_cycle)
            core._perf_stepped_cycle = cycle - 1
        if core.mode is SCOUT:
            budget_left = seq_stop - seq
            break
""")
    # ---- classification, time advance -----------------------------------
    # No commit guard here: the one above left the commit memo beyond
    # this cycle, and the ahead strand never clears it without entering
    # scout.
    emit(f"""\
        issued_ahead = seq != seq_cycle
        if issued_replay:
            if issued_ahead:
                new_mode = SST_MODE
            else:
                new_mode = (REPLAY_ONLY if core._replay_no_boundary
                            else SST_MODE)
        elif core._replay_no_boundary:
            new_mode = REPLAY_ONLY
        else:
            new_mode = EXECUTE_AHEAD
        if new_mode is not core.mode:
{_MODE_SWITCH.format(pad=' ' * 12)}\
""")
    emit(_end_cycle(" " * 8, "issued_replay or issued_ahead", "core._",
                    instrumented))
    emit(_scout_section(width, trig, instrumented))
    return "".join(out)


# A mode change at the end of a speculative cycle: the mode-cycle
# accounting lags over cycles the strand opened (all in the old mode),
# so it catches up before the key changes.
_MODE_SWITCH = """\
{pad}mode_cycles[core._mode_key] += cycle - core._mode_account_cycle
{pad}core._mode_account_cycle = cycle
{pad}core.mode = new_mode
{pad}core._mode_key = MODE_KEY[new_mode]
"""


def _fold(pad: str, width: int) -> str:
    """The speculative cycle has an ahead issue and its issue is over
    (see the module docstring).  When the next cycle starts before
    ``until`` and both memos lie beyond it, that cycle would run no
    commit and no replay, so it is opened here, as :func:`_end_cycle`
    and the top of the loop would open it: this cycle is classified,
    and the next one starts with the wake the replay memo gives it.  An
    ahead issue makes the cycle SST if the replay strand issued too,
    else ``strand_mode`` (replay-only or execute-ahead by the boundary
    flag, which only replay and commits move).  Its stepping and mode
    cycles are caught up after the strand (_OPENED_SYNC and the lagging
    ``_mode_account_cycle``).  Otherwise the cycle ends after the
    strand."""
    return f"""\
{pad}nxt = cycle + 1
{pad}if nxt >= fold_limit:
{pad}    break
{pad}if dq_entries:
{pad}    stall = core._replay_stall
{pad}    if stall is None or nxt >= stall:
{pad}        break
{pad}    wake_min = None if stall == {NO_WAKE} else stall
{pad}else:
{pad}    wake_min = None
{pad}if issued_replay or core.mode is not strand_mode:
{pad}    new_mode = SST_MODE if issued_replay else strand_mode
{pad}    issued_replay = 0
{pad}    if new_mode is not core.mode:
{_MODE_SWITCH.format(pad=pad + '        ')}\
{pad}cycle = core._cycle = nxt
{pad}seq_cycle = seq
{pad}seq_stop = seq + {width}
"""


def _scout_section(width: int, trig: str, instrumented: bool) -> str:
    """The scout cycle loop (see the module docstring), reached by a
    ``break`` out of the speculative loop with ``cycle``, ``wake_min``
    and ``budget_left`` set and the core's scalars current.  It returns
    on ``until`` or by the rollback that ends the session.

    Scout writes no last-writer tags unless the loop is instrumented:
    only a replay (``apply_replayed``) and the taint tracker read them,
    scout replays nothing, and the rollback that ends every session
    drops the speculative register file."""
    p = " " * 20
    tag = instrumented
    return f"""\
    scout_end = core._scout_end
    mode_key = core._mode_key
    barrier = core._ahead_barrier
    pc = core._ahead_pc
    seq = seq_base = core._seq
    seq_limit = seq + ahead_limit - stats.ahead_insts
    seq_stop = seq + budget_left
    seq_bound = seq_stop if seq_stop < seq_limit else seq_limit
    next_event = core._next_event
    perf_stepped_cycle = core._perf_stepped_cycle
    mode_account_cycle = core._mode_account_cycle
    # The issue loop opens the next cycle itself unless that cycle ends
    # the session or the quantum.  The cycles from ``opened_from`` up to
    # the current one were opened there; their stepping and the hint
    # are caught up by _OPENED_SYNC.
    stop = scout_end if until is None or until > scout_end else until
    opened_from = cycle
    while True:
        # Checked once per cycle: inside a session only a fault sets the
        # block (the strand was issuing when the session began), a fault
        # ends the issue loop, and scout never moves the barrier.
        if core._ahead_block is None:
            if cycle < barrier:
                if wake_min is None or barrier < wake_min:
                    wake_min = barrier
            else:
                while True:
                    if seq >= seq_bound:
                        if seq == seq_stop:
                            if cycle + 1 >= stop:
                                break
                            cycle += 1
                            seq_stop = seq + {width}
                            seq_bound = (seq_stop if seq_stop < seq_limit
                                         else seq_limit)
                            wake_min = scout_end
                        if seq >= seq_limit:
{_OPENED_SYNC.format(pad=p + '        ')}\
                            delta = cycle - mode_account_cycle
                            if delta > 0:
                                mode_cycles[mode_key] += delta
                                mode_account_cycle = cycle
{_scout_sync(p + '        ')}\
                            check_budget(
                                stats.normal_insts + stats.ahead_insts, budget)
                    if pc >= n_insts:
                        core._ahead_block = "fault"
                        break
                    (kind, rd, rs1, rs2, imm, target, fn, src_a, src_b,
                     writes_reg, uses_imm, inst) = rows[pc]
                    # HALT and MEMBAR read only r0, which is never NA and
                    # never late: they are told apart at the end of the
                    # kind chain.
                    if src_a in na_producer or src_b in na_producer:
{_taint_hook(p + '    ', 'on_scout_na(inst, seq)', instrumented)}\
                        if kind <= {K_LOAD}:  # every one writes rd
{_write_na(p + '        ', tag)}\
                            pc += 1
                        elif kind == {K_BRANCH}:
                            pc = target if predict_cond(pc) else pc + 1
                        elif kind == {K_JUMP_INDIRECT}:
                            predicted = predict_indirect(
                                pc, is_return=inst.is_return)
                            if predicted is None or not (
                                    0 <= predicted < n_insts):
                                core._ahead_block = "fault"
                                break
{_write_available(p + '        ', 'pc + 1', 'cycle + 1', tag)}\
                            pc = predicted
                        else:  # a store or prefetch: no destination
                            pc += 1
                        seq += 1
                        continue
                    wake = spec_ready[src_a]
                    r = spec_ready[src_b]
                    if r > wake:
                        wake = r
                    if wake > cycle:
                        if seq_stop - seq < {width}:
{_END_ISSUE.format(pad=p + '        ')}\
                        if wake_min is None or wake < wake_min:
                            wake_min = wake
                        break
{_taint_hook(p, 'on_scout(inst, pc, seq, cycle)', instrumented)}\
                    next_pc = pc + 1
                    if kind <= {K_DIV}:
                        a = spec_values[rs1]
                        value = (fn(a, imm) if uses_imm
                                 else fn(a, spec_values[rs2]))
                        latency = ({ALU_LATENCY} if kind == {K_ALU} else
                                   {MUL_LATENCY} if kind == {K_MUL} else {DIV_LATENCY})
{_write_available(p + '    ', 'value', 'cycle + latency', tag)}\
                    elif kind == {K_LOAD}:
                        addr = (spec_values[rs1] + imm) & {_M}
                        if addr % 8 != 0:
                            core._ahead_block = "fault"
                            break
                        result = do_prefetch(addr, cycle)
                        stats.scout_prefetches += 1
                        if addr in scout_stores:
                            value = scout_stores[addr]
                        else:
                            forwarded = sb_forward(addr, seq)
                            value = (forwarded[0] if forwarded is not None
                                     else mem_read(addr))
                        if {trig}:
{_write_na(p + '        ', tag)}\
                            slice_values[seq] = value
                            producer_ready[seq] = result.ready_cycle
                            heappush(pending_heap, (result.ready_cycle, seq))
                        else:
{_write_available(p + '        ', 'value', 'result.ready_cycle', tag)}\
                    elif kind == {K_STORE}:
                        addr = (spec_values[rs1] + imm) & {_M}
                        if addr % 8 != 0:
                            core._ahead_block = "fault"
                            break
                        do_prefetch(addr, cycle)
                        stats.scout_prefetches += 1
                        scout_stores[addr] = spec_values[rs2]
                    elif kind == {K_PREFETCH}:
                        addr = (spec_values[rs1] + imm) & {_M}
                        if addr % 8 == 0:
                            do_prefetch(addr, cycle)
                    elif kind == {K_BRANCH}:
                        if fn(spec_values[rs1], spec_values[rs2]):
                            resolve_cond(pc, True)
                            next_pc = target
                        else:
                            resolve_cond(pc, False)
                    elif kind == {K_JUMP}:
{_write_available(p + '    ', 'pc + 1', 'cycle + 1', tag)}\
                        if inst.is_call:
                            push_return(pc + 1)
                        next_pc = target
                    elif kind == {K_JUMP_INDIRECT}:
                        tgt = (spec_values[rs1] + imm) & {_M}
                        if tgt >= n_insts:
                            core._ahead_block = "fault"
                            break
                        resolve_indirect(pc, tgt, is_return=inst.is_return)
{_write_available(p + '    ', 'pc + 1', 'cycle + 1', tag)}\
                        if inst.is_call:
                            push_return(pc + 1)
                        next_pc = tgt
                    elif kind == {K_HALT}:
                        core._ahead_block = "fault"
                        break
                    # MEMBAR, like NOP, only takes its slot in scout.
{_CONSUME.format(pad=p)}\
{_OPENED_SYNC.format(pad=' ' * 8)}\
{_end_cycle(' ' * 8, f'seq_stop - seq < {width}', '', instrumented)}\
        opened_from = cycle
        if until is not None and cycle >= until:
{_scout_sync(' ' * 12)}\
            return
        if cycle >= scout_end:
{_scout_sync(' ' * 12)}\
            core._rollback(cycle, None)
            return
        wake_min = scout_end
        seq_stop = seq + {width}
        seq_bound = seq_stop if seq_stop < seq_limit else seq_limit
"""


_LOOP_CACHE: Dict[Tuple, Callable] = {}


def compile_spec_loop(config: SSTConfig, mispredict_penalty: int,
                      instrumented: bool = False) -> Callable:
    """The specialized loop for one configuration signature (cached).

    ``instrumented`` compiles in the observer hook sites (see the
    module docstring); the core sets it when a sanitizer or taint
    tracker is attached.
    """
    # The cache key is the generator's own argument tuple, so the two
    # cannot drift apart.
    args = (config.width, config.bypass_unresolved_stores,
            config.defer_on_tlb_miss,
            config.defer_trigger is DeferTrigger.L1_MISS,
            mispredict_penalty, instrumented)
    loop = _LOOP_CACHE.get(args)
    if loop is not None:
        return loop

    source = _build_source(*args)
    namespace = {
        "NORMAL": ExecMode.NORMAL,
        "SCOUT": ExecMode.SCOUT,
        "SST_MODE": ExecMode.SST,
        "REPLAY_ONLY": ExecMode.REPLAY_ONLY,
        "EXECUTE_AHEAD": ExecMode.EXECUTE_AHEAD,
        "MODE_KEY": sst_core._MODE_KEY,
        "ISSUED": sst_core._ISSUED,
        "SB_FULL": ScoutCause.SB_FULL,
        "ACC_LOAD": AccessType.LOAD,
        "L1": HitLevel.L1,
        "DRAM": HitLevel.DRAM,
        "MERGE_L2": HitLevel.MERGE_L2,
        "SIE": SimulatorInvariantError,
        "DQEntry": sst_core.DQEntry,
        "heappop": heappop,
        "heappush": heappush,
    }
    code = compile(source, "<sst_dispatch>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted, generated above
    loop = namespace["_sst_spec_loop"]
    _LOOP_CACHE[args] = loop
    return loop
