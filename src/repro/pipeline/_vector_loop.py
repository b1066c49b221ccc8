"""The detailed core's run loop (struct-of-arrays dynamic state).

:meth:`repro.pipeline.core.OutOfOrderCore.run` validates its arguments,
encodes the trace, and warms the caches; :func:`run_core_loop` owns every
cycle after that.

Design:

* **Array-per-field dynamic state.**  In-flight instructions are not
  objects but parallel arrays indexed by *in-flight slot*:
  ``slot = seq & (cap - 1)`` with ``cap`` the power of two at or above the
  ROB size.  In-flight sequence numbers always form a contiguous range no
  wider than the ROB (records live exactly while they sit in the ROB), so
  two live records can never collide on a slot, and a slot is recycled the
  moment its old occupant leaves the window.  The arrays are allocated once
  per run and never grow with trace length.

* **Generation tokens.**  A flush squashes a suffix of the window and fetch
  re-dispatches the *same* sequence numbers, so a raw ``seq`` stored in a
  side structure (consumer lists, forward/delay waiter lists, completion
  buckets) could alias the refetched instance of itself.  Every dispatch
  therefore stamps its slot with a fresh token (a global dispatch counter
  shifted over the slot bits); side structures hold tokens, and a held
  token that no longer matches its slot names a squashed instance and is
  ignored.  The ready heaps hold plain sequence numbers — age *is* the
  issue priority — validated against the slot on pop, so stale entries are
  purged as they surface.

* **One fused pass.**  Dispatch, issue, wakeup, commit, flush, and the
  idle fast-forward are inlined into a single loop with every loop
  invariant (static-plane arrays, config scalars, policy bound methods,
  queue internals) held in locals, so no stage pays a call frame or
  ``self`` attribute traffic per cycle.

The frozen counters in ``tests/golden/`` and the seed-stack reference
properties (``tests/property/test_core_reference.py``) pin every
``SimStats`` counter, policy/predictor interaction, flush, and replay.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.isa.plane import KIND_BRANCH, KIND_LOAD, KIND_STORE
from repro.isa.registers import REG_ZERO
from repro.lsu.policies import LoadCommitInfo, LoadPrediction, SQPolicy
from repro.lsu.store_queue import StoreQueueEntry
from repro.pipeline.rename import ARCH_READY
from repro.pipeline.stats import SimStats


def run_core_loop(core, encoded, warmup_committed, stop_committed):
    """Run ``core`` over ``encoded`` to ``stop_committed`` instructions.

    The caller (:meth:`repro.pipeline.core.OutOfOrderCore.run`) has already
    validated arguments, encoded the trace, and warmed the caches; this
    function owns the cycle loop.  On return ``core.stats`` is a fresh
    :class:`SimStats` holding the (possibly warm-up-reset) counters, and
    the scalar machine state (``_cycle``, ``_fetch_seq``, …) is synced
    back to ``core``.  Returns ``(warmup_cycle_offset,
    warmup_instr_offset, warmup_l1_misses, warmup_l2_misses, mlp_base)``
    for the caller's result assembly.
    """
    config = core.config
    policy = core.policy
    memory = core.memory
    hierarchy = core.hierarchy
    mlp_hier = core._mlp_hier
    ssn_alloc = core.ssn_alloc
    rob = core.rob
    lq = core.load_queue
    sq = core.store_queue
    rat_map = core.rat._map
    last_writer = core._last_writer
    last_writer_get = last_writer.get

    plane = encoded.plane
    (kind_arr, pc_arr, dest_arr, srcs_arr, iidx_arr, latency_arr,
     hint_call_arr, hint_return_arr) = plane.dispatch_arrays()
    (sidx, addr_arr, size_arr, value_arr, taken_arr,
     target_arr) = encoded.dynamic_arrays()
    total = len(sidx)

    # Config scalars.
    rename_width = config.rename_width
    taken_per_cycle = config.taken_branches_per_cycle
    iq_size = config.issue_queue_size
    rob_size = rob.size
    lq_size = lq.size
    sq_size = sq.size
    commit_width = config.commit_width
    commit_delay = config.backend_commit_delay
    branch_redirect_penalty = config.branch_redirect_penalty
    flush_penalty = config.flush_penalty
    replay_penalty = config.replay_penalty
    model_ssn_wrap = config.model_ssn_wrap
    ssn_wrap_drain_penalty = config.ssn_wrap_drain_penalty
    limits = config.issue_limits
    limit_int = limits.int_ops
    limit_fp = limits.fp_ops
    limit_branch = limits.branches
    limit_load = limits.loads
    limit_store = limits.stores
    issue_width = config.issue_width
    max_cycles = config.max_cycles
    # A beyond-any-run sentinel keeps the per-cycle bound checks branchless
    # on the default (unbounded) configuration.
    max_cycles_eff = max_cycles if max_cycles is not None else 1 << 62
    idle_skip = config.idle_skip
    deadlock_limit = core.DEADLOCK_LIMIT

    # Policy / machine bound methods (bound after any import_state, so
    # warmed state is what gets captured).
    policy_predict_load = policy.predict_load
    policy_forward = policy.forward
    policy_assumed_latency = policy.assumed_load_latency
    policy_forwarded_latency = policy.forwarded_load_latency
    policy_store_renamed = policy.store_renamed
    policy_store_dependence = policy.store_dependence
    policy_store_squashed = policy.store_squashed
    policy_store_committed = policy.store_committed
    policy_needs_reexec = policy.needs_reexecution
    policy_load_committed = policy.load_committed
    # Policies that keep the base-class SVW re-execution filter / store
    # commit hook get the inlined commit-path versions; overrides are
    # honoured through the methods.
    policy_type = type(policy)
    fast_reexec = policy_type.needs_reexecution is SQPolicy.needs_reexecution
    fast_store_commit = policy_type.store_committed is SQPolicy.store_committed
    svw = policy.svw
    svw_stats = svw.stats
    svw_ssbf_update = svw.ssbf.update
    svw_spct_update = svw.spct.update
    svw_ssbf_lookup = svw.ssbf.lookup
    hier_stats = hierarchy.stats
    hier_store_touch = hierarchy.store_touch
    hier_load_latency = hierarchy.load_latency
    l1_latency = hierarchy.l1_latency
    mlp_load_access = mlp_hier.load_access if mlp_hier is not None else None
    mlp_would_block = mlp_hier.load_would_block if mlp_hier is not None else None
    memory_read = memory.read
    memory_write = memory.write
    branch_resolve = core.branch_unit.predict_and_resolve
    # SSN allocator state as locals (no reader outside this loop sees it
    # mid-run — policy hooks receive the values as arguments); synced back
    # on exit.  The wrap test is the allocator's own mask test, inlined.
    ssn_rename = ssn_alloc.ssn_rename
    ssn_commit = ssn_alloc.ssn_commit
    ssn_hw_wraps = ssn_alloc.wraps
    ssn_wrap_mask = ssn_alloc._wrap_mask
    sq_entries = sq._entries
    sq_slots = sq._slots
    sq_stats = sq.stats
    sq_size_mask = sq.size - 1
    sq_entry_cls = StoreQueueEntry
    sq_entry_new = StoreQueueEntry.__new__
    sq_write_execute = sq.write_execute
    sq_release = sq.release
    sq_squash_younger = sq.squash_younger
    load_info_cls = LoadCommitInfo
    load_info_new = LoadCommitInfo.__new__
    reg_zero = REG_ZERO
    arch_ready = ARCH_READY

    # --------------------------------------------- struct-of-arrays state --
    cap = 1 << (rob_size - 1).bit_length() if rob_size > 1 else 1
    mask = cap - 1
    tok_shift = mask.bit_length()
    v_seq = [-1] * cap        # current occupant's sequence number
    v_tok = [-1] * cap        # current occupant's generation token
    v_kind = [0] * cap
    v_pc = [0] * cap
    v_dest = [None] * cap
    v_iclass = [0] * cap
    v_lat = [0] * cap
    v_squashed = [0] * cap
    v_wait_srcs = [0] * cap
    v_wait_fwd = [0] * cap
    v_wait_dly = [0] * cap
    v_issued = [0] * cap
    v_completed = [0] * cap
    v_ready_pushed = [0] * cap
    v_consumers = [None] * cap     # list of consumer tokens, or None
    v_other_ready = [0] * cap
    v_completion = [0] * cap
    v_rat_undo = [None] * cap
    v_addr = [0] * cap
    v_size = [0] * cap
    v_value = [0] * cap            # store value
    v_ssn = [0] * cap              # store SSN
    v_sat_undo = [None] * cap
    v_oracle_undo = [None] * cap
    v_fwd_waiters = [None] * cap   # list of waiter tokens, or None
    v_pred = [None] * cap          # LoadPrediction
    v_ssn_ren = [0] * cap
    v_oracle_dep = [0] * cap
    v_spec = [0] * cap
    v_forwarded = [0] * cap
    v_fwd_ssn = [0] * cap
    v_svw_ssn = [0] * cap
    v_should_fwd = [0] * cap
    v_delay_cycles = [0] * cap
    v_dly_clear = [0] * cap
    v_mispred = [0] * cap
    disp = 0                       # global dispatch (generation) counter

    # Window structures: plain int deques for ROB and LQ order (only the
    # store queue keeps its entry objects — policies probe it directly).
    # Occupancies are shadowed in plain int counters: cheaper than len()
    # in the per-uop dispatch guards and the per-cycle idle-skip guard.
    rob_seqs = deque()
    rob_popleft = rob_seqs.popleft
    rob_push = rob_seqs.append
    rob_drop = rob_seqs.pop
    rob_occ = 0
    lq_seqs = deque()
    lq_popleft = lq_seqs.popleft
    lq_push = lq_seqs.append
    lq_drop = lq_seqs.pop
    lq_occ = 0
    rob_alloc = rob.allocations
    rob_maxocc = rob.max_occupancy
    lq_stats = lq.stats
    lq_allocs = lq_stats.allocations
    lq_releases = lq_stats.releases
    lq_squashes = lq_stats.squashes

    heaps = [[], [], [], [], []]   # one ready heap of seqs per issue class
    ready_count = 0
    completions = {}               # completion cycle -> list of tokens
    completions_pop = completions.pop
    completions_get = completions.get
    store_by_ssn = {}              # in-flight SSN -> store token
    store_by_ssn_get = store_by_ssn.get
    store_by_ssn_pop = store_by_ssn.pop
    dly_waiters = {}               # delay-index SSN -> list of load tokens
    dly_waiters_get = dly_waiters.get
    dly_waiters_pop = dly_waiters.pop

    # Scalar machine state (continues from the core when it is reused).
    cycle = core._cycle
    fetch_seq = core._fetch_seq
    fetch_resume = core._fetch_resume_cycle
    fetch_blocked_tok = -1
    iq_occ = core._iq_occupancy

    # SimStats counters as locals (written back at the end; zeroed at the
    # warm-up boundary, keeping every piece of machine state warm).
    stats0 = core.stats
    committed_total = stats0.committed
    c_stores = stats0.committed_stores
    c_loads = stats0.committed_loads
    c_branches = stats0.committed_branches
    c_reexec = stats0.loads_reexecuted
    c_should_fwd = stats0.loads_should_forward
    c_fwd = stats0.loads_forwarded
    c_delayed = stats0.loads_delayed
    c_delay_cycles = stats0.total_delay_cycles
    c_violations = stats0.ordering_violations
    c_misfwd = stats0.mis_forwardings
    c_flushes = stats0.flushes
    c_squashed = stats0.squashed_uops
    c_mispred = stats0.branch_mispredictions
    c_replays = stats0.replays
    c_ssn_wraps = stats0.ssn_wraps
    c_fetch_stall = stats0.fetch_stall_cycles
    c_rob_stall = stats0.rob_stall_cycles
    c_iq_stall = stats0.iq_stall_cycles
    c_lq_stall = stats0.lq_stall_cycles
    c_sq_stall = stats0.sq_stall_cycles
    c_waited = stats0.loads_waited_on_prediction
    c_mshr_stall = stats0.mshr_stall_cycles

    warmup_done = warmup_committed == 0
    warmup_cycle_offset = 0
    warmup_instr_offset = 0
    warmup_l1 = 0
    warmup_l2 = 0
    mlp_base = mlp_hier.mlp_stats.snapshot() if mlp_hier is not None else None
    last_commit_cycle = 0

    while committed_total < stop_committed:
        # ------------------------------------------------ idle fast-forward --
        if idle_skip and not ready_count:
            nxt = cycle + 1
            skip = True
            if fetch_blocked_tok < 0 and nxt >= fetch_resume \
                    and fetch_seq < total:
                k = kind_arr[sidx[fetch_seq]]
                if not (rob_occ >= rob_size or iq_occ >= iq_size
                        or (k == KIND_LOAD and lq_occ >= lq_size)
                        or (k == KIND_STORE and len(sq_entries) >= sq_size)):
                    skip = False
            if skip:
                target = min(completions) if completions else None
                if rob_seqs:
                    hi = rob_seqs[0] & mask
                    if v_completed[hi]:
                        commit_at = v_completion[hi] + commit_delay
                        if target is None or commit_at < target:
                            target = commit_at
                if fetch_blocked_tok < 0 and fetch_seq < total \
                        and fetch_resume > nxt:
                    if target is None or fetch_resume < target:
                        target = fetch_resume
                if target is not None:
                    if target > max_cycles_eff:
                        target = max_cycles_eff
                    if target > nxt:
                        # Charge the skipped cycles nxt..target-1 to the
                        # stall counters the straight-line loop would have.
                        n = target - nxt
                        if fetch_blocked_tok >= 0:
                            c_fetch_stall += n
                        else:
                            blocked = fetch_resume - nxt
                            if blocked < 0:
                                blocked = 0
                            elif blocked > n:
                                blocked = n
                            c_fetch_stall += blocked
                            rest = n - blocked
                            if rest > 0 and fetch_seq < total:
                                if rob_occ >= rob_size:
                                    c_rob_stall += rest
                                elif iq_occ >= iq_size:
                                    c_iq_stall += rest
                                else:
                                    k = kind_arr[sidx[fetch_seq]]
                                    if k == KIND_LOAD \
                                            and lq_occ >= lq_size:
                                        c_lq_stall += rest
                                    elif k == KIND_STORE \
                                            and len(sq_entries) >= sq_size:
                                        c_sq_stall += rest
                        cycle = target - 1
        cycle += 1

        # ---------------------------------------------------- completions --
        if completions:
            ops = completions_pop(cycle, None)
            if ops:
                for tok in ops:
                    i = tok & mask
                    if v_tok[i] != tok or v_squashed[i]:
                        continue
                    v_completed[i] = 1
                    if v_kind[i] == KIND_STORE:
                        sq_write_execute(v_ssn[i], v_addr[i], v_size[i],
                                         v_value[i])
                        waiters = v_fwd_waiters[i]
                        if waiters:
                            for wtok in waiters:
                                wi = wtok & mask
                                if v_tok[wi] != wtok or v_squashed[wi] \
                                        or not v_wait_fwd[wi]:
                                    continue
                                v_wait_fwd[wi] = 0
                                if v_issued[wi] or v_ready_pushed[wi]:
                                    continue
                                if v_wait_srcs[wi] == 0:
                                    if v_other_ready[wi] < 0:
                                        v_other_ready[wi] = cycle
                                    if not v_wait_dly[wi]:
                                        v_ready_pushed[wi] = 1
                                        ready_count += 1
                                        heappush(heaps[v_iclass[wi]],
                                                 v_seq[wi])
                            v_fwd_waiters[i] = None
                    # Only a mispredicted branch can block fetch.
                    if fetch_blocked_tok == tok:
                        fetch_blocked_tok = -1
                        resume = cycle + branch_redirect_penalty
                        if resume > fetch_resume:
                            fetch_resume = resume
                    consumers = v_consumers[i]
                    if consumers:
                        for ctok in consumers:
                            ci = ctok & mask
                            if v_tok[ci] != ctok or v_squashed[ci]:
                                continue
                            w = v_wait_srcs[ci] = v_wait_srcs[ci] - 1
                            if (w == 0 and not v_wait_fwd[ci]
                                    and not v_issued[ci]
                                    and not v_ready_pushed[ci]):
                                if v_other_ready[ci] < 0:
                                    v_other_ready[ci] = cycle
                                if not v_wait_dly[ci]:
                                    v_ready_pushed[ci] = 1
                                    ready_count += 1
                                    heappush(heaps[v_iclass[ci]], v_seq[ci])
                        v_consumers[i] = None

        # --------------------------------------------------------- commit --
        committed_now = 0
        if rob_seqs and v_completed[rob_seqs[0] & mask]:
            while committed_now < commit_width:
                if not rob_seqs:
                    break
                seq0 = rob_seqs[0]
                i = seq0 & mask
                if not v_completed[i] or v_completion[i] + commit_delay > cycle:
                    break
                rob_popleft()
                rob_occ -= 1
                committed_now += 1
                committed_total += 1
                dest = v_dest[i]
                if dest is not None and dest != reg_zero \
                        and rat_map[dest] == seq0:
                    rat_map[dest] = arch_ready
                kind = v_kind[i]
                if kind == KIND_STORE:
                    addr = v_addr[i]
                    size = v_size[i]
                    ssn = v_ssn[i]
                    c_stores += 1
                    memory_write(addr, size, v_value[i])
                    if ssn != ssn_commit + 1:
                        raise ValueError(
                            f"stores must commit in SSN order: expected "
                            f"{ssn_commit + 1}, got {ssn}")
                    ssn_commit = ssn
                    sq_release(ssn)
                    store_by_ssn_pop(ssn, None)
                    if fast_store_commit:
                        svw_ssbf_update(addr, size, ssn)
                        svw_spct_update(addr, size, v_pc[i])
                        svw_stats.ssbf_writes += 1
                        svw_stats.spct_writes += 1
                    else:
                        policy_store_committed(v_pc[i], ssn, addr, size)
                    hier_store_touch(addr)
                    waiters = dly_waiters_pop(ssn, None)
                    if waiters:
                        for wtok in waiters:
                            wi = wtok & mask
                            if v_tok[wi] != wtok or v_squashed[wi] \
                                    or not v_wait_dly[wi]:
                                continue
                            v_wait_dly[wi] = 0
                            v_dly_clear[wi] = cycle
                            if v_issued[wi] or v_ready_pushed[wi]:
                                continue
                            if v_wait_srcs[wi] == 0 and not v_wait_fwd[wi]:
                                if v_other_ready[wi] < 0:
                                    v_other_ready[wi] = cycle
                                v_ready_pushed[wi] = 1
                                ready_count += 1
                                heappush(heaps[v_iclass[wi]], v_seq[wi])
                elif kind == KIND_LOAD:
                    addr = v_addr[i]
                    size = v_size[i]
                    c_loads += 1
                    if not lq_seqs:
                        raise RuntimeError("release from an empty load queue")
                    if lq_seqs[0] != seq0:
                        raise ValueError(
                            f"loads must commit in order: head seq "
                            f"{lq_seqs[0]}, got {seq0}")
                    lq_popleft()
                    lq_occ -= 1
                    lq_releases += 1

                    correct_value = memory_read(addr, size)
                    svw_ssn = v_svw_ssn[i]
                    if fast_reexec:
                        svw_stats.loads_checked += 1
                        needs_reexec = svw_ssbf_lookup(addr, size) > svw_ssn
                        if needs_reexec:
                            svw_stats.loads_reexecuted += 1
                    else:
                        needs_reexec = policy_needs_reexec(addr, size, svw_ssn)
                    if needs_reexec:
                        c_reexec += 1
                    spec_value = v_spec[i]
                    violation = spec_value != correct_value
                    if violation and not needs_reexec:
                        raise AssertionError(
                            f"SVW filter missed a violation at "
                            f"pc={v_pc[i]:#x} seq={seq0}: "
                            f"spec={spec_value:#x} "
                            f"correct={correct_value:#x}")

                    if v_should_fwd[i]:
                        c_should_fwd += 1
                    if v_forwarded[i]:
                        c_fwd += 1
                    dc = v_delay_cycles[i]
                    if dc > 0:
                        c_delayed += 1
                        c_delay_cycles += dc

                    info = load_info_new(load_info_cls)
                    info.pc = v_pc[i]
                    info.addr = addr
                    info.size = size
                    info.spec_value = spec_value
                    info.correct_value = correct_value
                    info.forwarded = bool(v_forwarded[i])
                    info.forward_ssn = v_fwd_ssn[i]
                    info.prediction = v_pred[i] or LoadPrediction()
                    info.ssn_at_rename = v_ssn_ren[i]
                    info.ssn_cmt = ssn_commit
                    info.violation = violation
                    policy_load_committed(info)

                    if violation:
                        c_violations += 1
                        if v_should_fwd[i]:
                            c_misfwd += 1
                        # ------------------------------------ flush (inline) --
                        c_flushes += 1
                        while rob_seqs and rob_seqs[-1] > seq0:
                            vseq = rob_drop()
                            rob_occ -= 1
                            vi = vseq & mask
                            v_squashed[vi] = 1
                            c_squashed += 1
                            undo = v_rat_undo[vi]
                            if undo is not None:
                                rat_map[undo[0]] = undo[1]
                            if not v_issued[vi]:
                                iq_occ -= 1
                            vkind = v_kind[vi]
                            if vkind == KIND_STORE:
                                vssn = v_ssn[vi]
                                policy_store_squashed(v_pc[vi], vssn,
                                                      v_sat_undo[vi])
                                store_by_ssn_pop(vssn, None)
                                oundo = v_oracle_undo[vi]
                                if oundo is not None:
                                    vaddr = v_addr[vi]
                                    for off, previous in enumerate(oundo):
                                        byte_addr = vaddr + off
                                        current = last_writer_get(byte_addr)
                                        if current is not None \
                                                and current[0] == vseq:
                                            if previous is None:
                                                del last_writer[byte_addr]
                                            else:
                                                last_writer[byte_addr] = \
                                                    previous
                            elif vkind == KIND_LOAD:
                                pred = v_pred[vi]
                                if pred is not None and pred.dly_ssn:
                                    waiters = dly_waiters_get(pred.dly_ssn)
                                    if waiters:
                                        vtok = v_tok[vi]
                                        if vtok in waiters:
                                            waiters.remove(vtok)
                        sq_squash_younger(v_ssn_ren[i])
                        while lq_seqs and lq_seqs[-1] > seq0:
                            lq_drop()
                            lq_occ -= 1
                            lq_squashes += 1
                        # Inlined SSNAllocator.rewind_rename: the target is
                        # clamped to [ssn_commit, ssn_rename] by construction.
                        ren = v_ssn_ren[i]
                        ssn_rename = ren if ren > ssn_commit else ssn_commit
                        fetch_seq = seq0 + 1
                        fetch_resume = cycle + flush_penalty
                        if fetch_blocked_tok >= 0 \
                                and v_squashed[fetch_blocked_tok & mask]:
                            fetch_blocked_tok = -1
                        break
                elif kind == KIND_BRANCH:
                    c_branches += 1

        # ---------------------------------------------------------- issue --
        if ready_count:
            budgets = [limit_int, limit_fp, limit_branch, limit_load,
                       limit_store]
            total_budget = issue_width
            heads = [None, None, None, None, None]
            for x in range(5):
                if budgets[x] > 0:
                    heap = heaps[x]
                    while heap:
                        s = heap[0]
                        j = s & mask
                        if v_seq[j] != s or v_squashed[j] or v_issued[j] \
                                or not v_ready_pushed[j]:
                            heappop(heap)
                            ready_count -= 1
                        else:
                            break
                    if heap:
                        heads[x] = heap[0]
            while total_budget > 0:
                best_i = -1
                best_seq = None
                for x in range(5):
                    s = heads[x]
                    if s is not None and (best_seq is None or s < best_seq):
                        best_seq = s
                        best_i = x
                if best_i < 0:
                    break
                heap = heaps[best_i]
                if best_i == 3 and mlp_hier is not None \
                        and mlp_would_block(v_addr[heap[0] & mask], cycle):
                    # Structural stall: MSHR file full and the oldest ready
                    # load needs a new fill; the whole class holds.
                    heads[3] = None
                    c_mshr_stall += 1
                    continue
                s = heappop(heap)
                ready_count -= 1
                i = s & mask
                budgets[best_i] -= 1
                total_budget -= 1
                if budgets[best_i] > 0:
                    while heap:
                        s2 = heap[0]
                        j = s2 & mask
                        if v_seq[j] != s2 or v_squashed[j] or v_issued[j] \
                                or not v_ready_pushed[j]:
                            heappop(heap)
                            ready_count -= 1
                        else:
                            break
                    heads[best_i] = heap[0] if heap else None
                else:
                    heads[best_i] = None
                v_issued[i] = 1
                iq_occ -= 1
                if v_kind[i] == KIND_LOAD:
                    # ------------------------------- execute load (inline) --
                    addr = v_addr[i]
                    size = v_size[i]
                    prediction = v_pred[i] or LoadPrediction()
                    v_should_fwd[i] = 1 if v_oracle_dep[i] > ssn_commit else 0
                    decision = policy_forward(addr, size, v_ssn_ren[i],
                                              prediction, sq)
                    if mlp_hier is not None:
                        cache_latency = mlp_load_access(addr, cycle, v_pc[i])
                    else:
                        cache_latency = hier_load_latency(addr)
                    if decision.forwarded:
                        v_forwarded[i] = 1
                        fwd_ssn = decision.forward_ssn
                        v_fwd_ssn[i] = fwd_ssn
                        value = decision.value
                        v_spec[i] = value if value is not None else 0
                        v_svw_ssn[i] = fwd_ssn
                        actual = policy_forwarded_latency(l1_latency)
                    else:
                        v_spec[i] = memory_read(addr, size)
                        v_svw_ssn[i] = ssn_commit
                        actual = cache_latency
                    assumed = policy_assumed_latency(prediction, l1_latency)
                    if actual > assumed:
                        c_replays += 1
                        actual += replay_penalty
                    latency = actual
                    # DDP delay accounting: ready-to-clear interval.
                    dly_clear = v_dly_clear[i]
                    if dly_clear >= 0:
                        orc = v_other_ready[i]
                        if orc >= 0:
                            delay = dly_clear - orc
                            if delay > 0:
                                v_delay_cycles[i] = delay
                else:
                    latency = v_lat[i]
                completion_cycle = cycle + latency
                v_completion[i] = completion_cycle
                tok = v_tok[i]
                bucket = completions_get(completion_cycle)
                if bucket is None:
                    completions[completion_cycle] = [tok]
                else:
                    bucket.append(tok)

        # ------------------------------------------------------- dispatch --
        if cycle < fetch_resume or fetch_blocked_tok >= 0:
            c_fetch_stall += 1
        elif fetch_seq < total:
            dispatched = 0
            taken_budget = taken_per_cycle
            while True:
                si = sidx[fetch_seq]
                kind = kind_arr[si]

                if rob_occ >= rob_size:
                    c_rob_stall += 1
                    break
                if iq_occ >= iq_size:
                    c_iq_stall += 1
                    break
                if kind == KIND_LOAD:
                    if lq_occ >= lq_size:
                        c_lq_stall += 1
                        break
                elif kind == KIND_STORE:
                    if len(sq_entries) >= sq_size:
                        c_sq_stall += 1
                        break

                rseq = fetch_seq
                i = rseq & mask
                disp += 1
                tok = (disp << tok_shift) | i
                v_tok[i] = tok
                v_seq[i] = rseq
                v_kind[i] = kind
                pc = pc_arr[si]
                v_pc[i] = pc
                dest = dest_arr[si]
                v_dest[i] = dest
                v_iclass[i] = iidx_arr[si]
                v_lat[i] = latency_arr[si]
                v_squashed[i] = 0
                v_issued[i] = 0
                v_completed[i] = 0
                v_consumers[i] = None
                v_ready_pushed[i] = 0
                v_other_ready[i] = -1
                # (v_completion is only read behind v_completed, which the
                # issue stage always sets first — no reset store needed.)
                v_rat_undo[i] = None
                fetch_seq = rseq + 1
                dispatched += 1

                rob_push(rseq)
                rob_occ += 1
                rob_alloc += 1
                if rob_occ > rob_maxocc:
                    rob_maxocc = rob_occ
                iq_occ += 1

                wait_srcs = 0
                for src in srcs_arr[si]:
                    if src == reg_zero:
                        continue
                    pseq = rat_map[src]
                    if pseq == arch_ready:
                        continue
                    pi = pseq & mask
                    if v_seq[pi] != pseq or v_completed[pi] or v_squashed[pi]:
                        continue
                    wait_srcs += 1
                    consumers = v_consumers[pi]
                    if consumers is None:
                        v_consumers[pi] = [tok]
                    else:
                        consumers.append(tok)
                v_wait_srcs[i] = wait_srcs

                if dest is not None and dest != reg_zero:
                    v_rat_undo[i] = (dest, rat_map[dest])
                    rat_map[dest] = rseq

                wait_fwd = 0
                wait_dly = 0
                if kind == KIND_LOAD:
                    v_spec[i] = 0
                    v_forwarded[i] = 0
                    v_fwd_ssn[i] = 0
                    v_svw_ssn[i] = 0
                    v_should_fwd[i] = 0
                    v_delay_cycles[i] = 0
                    v_dly_clear[i] = -1
                    v_addr[i] = addr = addr_arr[rseq]
                    v_size[i] = size = size_arr[rseq]
                    v_ssn_ren[i] = ssn_rename
                    lq_push(rseq)
                    lq_occ += 1
                    lq_allocs += 1

                    oracle_ssn = 0
                    for byte_addr in range(addr, addr + size):
                        entry = last_writer_get(byte_addr)
                        if entry is not None and entry[1] > oracle_ssn:
                            oracle_ssn = entry[1]
                    v_oracle_dep[i] = oracle_ssn

                    v_pred[i] = prediction = policy_predict_load(
                        pc, ssn_rename, ssn_commit, oracle_ssn)

                    # Constraint 1: predicted forwarding store must have
                    # executed.
                    fwd_ssn = prediction.fwd_ssn
                    if fwd_ssn and fwd_ssn > ssn_commit:
                        stok = store_by_ssn_get(fwd_ssn)
                        if stok is not None:
                            sj = stok & mask
                            if v_tok[sj] == stok and not v_completed[sj] \
                                    and not v_squashed[sj]:
                                wait_fwd = 1
                                waiters = v_fwd_waiters[sj]
                                if waiters is None:
                                    v_fwd_waiters[sj] = [tok]
                                else:
                                    waiters.append(tok)
                                c_waited += 1

                    # Constraint 2: delay-index store must have committed.
                    dly_ssn = prediction.dly_ssn
                    if dly_ssn and dly_ssn > ssn_commit:
                        wait_dly = 1
                        waiters = dly_waiters_get(dly_ssn)
                        if waiters is None:
                            dly_waiters[dly_ssn] = [tok]
                        else:
                            waiters.append(tok)
                elif kind == KIND_STORE:
                    v_fwd_waiters[i] = None
                    v_addr[i] = addr = addr_arr[rseq]
                    v_size[i] = size = size_arr[rseq]
                    v_value[i] = value_arr[rseq]
                    # Inlined SSNAllocator.allocate + the wrap check (one
                    # mask test covers both the allocator's wrap counter and
                    # the modelled drain event).
                    ssn_rename = ssn = ssn_rename + 1
                    v_ssn[i] = ssn
                    if not ssn & ssn_wrap_mask:
                        ssn_hw_wraps += 1
                        if model_ssn_wrap:
                            c_ssn_wraps += 1
                            resume = cycle + ssn_wrap_drain_penalty
                            if resume > fetch_resume:
                                fetch_resume = resume
                    sq_entry = sq_entry_new(sq_entry_cls)
                    sq_entry.ssn = ssn
                    sq_entry.pc = pc
                    sq_entry.seq = rseq
                    sq_entry.addr = None
                    sq_entry.size = 0
                    sq_entry.value = 0
                    sq_entry.executed = False
                    sq_entries.append(sq_entry)
                    sq_slots[ssn & sq_size_mask] = sq_entry
                    sq_stats.allocations += 1
                    store_by_ssn[ssn] = tok
                    v_sat_undo[i] = policy_store_renamed(pc, ssn)

                    entry = (rseq, ssn)
                    undo = []
                    undo_append = undo.append
                    for byte_addr in range(addr, addr + size):
                        undo_append(last_writer_get(byte_addr))
                        last_writer[byte_addr] = entry
                    v_oracle_undo[i] = undo

                    # Store-store serialisation (original Store Sets only).
                    dep_ssn = policy_store_dependence(pc, ssn)
                    if dep_ssn:
                        dtok = store_by_ssn_get(dep_ssn)
                        if dtok is not None:
                            dj = dtok & mask
                            if v_tok[dj] == dtok and not v_completed[dj] \
                                    and not v_squashed[dj]:
                                wait_fwd = 1
                                waiters = v_fwd_waiters[dj]
                                if waiters is None:
                                    v_fwd_waiters[dj] = [tok]
                                else:
                                    waiters.append(tok)
                elif kind == KIND_BRANCH:
                    taken = taken_arr[rseq]
                    target = target_arr[rseq]
                    mispredicted = branch_resolve(
                        pc, taken, target if target >= 0 else None,
                        hint_call_arr[si], hint_return_arr[si])
                    v_mispred[i] = 1 if mispredicted else 0
                    if mispredicted:
                        c_mispred += 1
                v_wait_fwd[i] = wait_fwd
                v_wait_dly[i] = wait_dly

                # Freshly dispatched record: never squashed/issued/pushed.
                if wait_srcs == 0 and not wait_fwd:
                    v_other_ready[i] = cycle
                    if not wait_dly:
                        v_ready_pushed[i] = 1
                        ready_count += 1
                        heappush(heaps[v_iclass[i]], rseq)

                if kind == KIND_BRANCH:
                    if mispredicted:
                        fetch_blocked_tok = tok
                        break
                    if taken:
                        taken_budget -= 1
                        if taken_budget <= 0:
                            break
                if dispatched >= rename_width or fetch_seq >= total:
                    break

        # ----------------------------------------- warm-up / exit plumbing --
        if not warmup_done and committed_total >= warmup_committed:
            warmup_done = True
            warmup_cycle_offset = cycle
            warmup_instr_offset = committed_total
            warmup_l1 = hier_stats.l1_misses
            warmup_l2 = hier_stats.l2_misses
            if mlp_hier is not None:
                mlp_base = mlp_hier.mlp_stats.snapshot()
            c_stores = c_loads = c_branches = 0
            c_reexec = c_should_fwd = c_fwd = c_delayed = c_delay_cycles = 0
            c_violations = c_misfwd = c_flushes = c_squashed = 0
            c_mispred = c_replays = c_ssn_wraps = 0
            c_fetch_stall = c_rob_stall = c_iq_stall = 0
            c_lq_stall = c_sq_stall = c_waited = c_mshr_stall = 0

        if committed_now:
            last_commit_cycle = cycle
        elif cycle - last_commit_cycle > deadlock_limit:
            ready = sum(len(heap) for heap in heaps)
            raise RuntimeError(
                f"simulation deadlock at cycle {cycle}: "
                f"{committed_total}/{total} committed, "
                f"ROB={rob_occ}, ready={ready}, fetch_seq={fetch_seq}")
        if cycle >= max_cycles_eff:
            break

    # ------------------------------------------------------------ write-back --
    stats = SimStats()
    stats.committed = committed_total
    stats.committed_stores = c_stores
    stats.committed_loads = c_loads
    stats.committed_branches = c_branches
    stats.loads_reexecuted = c_reexec
    stats.loads_should_forward = c_should_fwd
    stats.loads_forwarded = c_fwd
    stats.loads_delayed = c_delayed
    stats.total_delay_cycles = c_delay_cycles
    stats.ordering_violations = c_violations
    stats.mis_forwardings = c_misfwd
    stats.flushes = c_flushes
    stats.squashed_uops = c_squashed
    stats.branch_mispredictions = c_mispred
    stats.replays = c_replays
    stats.ssn_wraps = c_ssn_wraps
    stats.fetch_stall_cycles = c_fetch_stall
    stats.rob_stall_cycles = c_rob_stall
    stats.iq_stall_cycles = c_iq_stall
    stats.lq_stall_cycles = c_lq_stall
    stats.sq_stall_cycles = c_sq_stall
    stats.loads_waited_on_prediction = c_waited
    stats.mshr_stall_cycles = c_mshr_stall
    core.stats = stats
    core._cycle = cycle
    core._fetch_seq = fetch_seq
    core._fetch_resume_cycle = fetch_resume
    core._iq_occupancy = iq_occ
    ssn_alloc.ssn_rename = ssn_rename
    ssn_alloc.ssn_commit = ssn_commit
    ssn_alloc.wraps = ssn_hw_wraps
    rob.allocations = rob_alloc
    rob.max_occupancy = rob_maxocc
    lq_stats.allocations = lq_allocs
    lq_stats.releases = lq_releases
    lq_stats.squashes = lq_squashes
    return (warmup_cycle_offset, warmup_instr_offset, warmup_l1, warmup_l2,
            mlp_base)
