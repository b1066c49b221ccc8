"""The detailed core's run loop (struct-of-arrays dynamic state).

:meth:`repro.pipeline.core.OutOfOrderCore.run` validates its arguments,
encodes the trace, and warms the caches; :func:`run_core_loop` owns every
cycle after that.

Design:

* **One run, one window.**  The in-flight window (the ROB, the load queue,
  issue-queue occupancy, fetch state) and every ``SimStats``
  counter are locals of one call: every run starts with an empty window at
  cycle 0, and none of it outlives the call.  The core keeps only
  long-lived machine state (caches, memory image, branch unit, policy, SSN
  counters) and the store queue the policies probe.

* **Array-per-field dynamic state.**  In-flight instructions are not
  objects but parallel arrays indexed by *in-flight slot*:
  ``slot = seq & (cap - 1)`` with ``cap`` the power of two at or above the
  ROB size.  In-flight sequence numbers always form a contiguous range no
  wider than the ROB (records live exactly while they sit in the ROB), so
  two live records can never collide on a slot, and a slot is recycled the
  moment its old occupant leaves the window.  The arrays are allocated once
  per run and never grow with trace length.  A slot records the static
  index of its instruction and reads kind, PC, issue class and latency
  through the static-plane arrays, so dispatch copies no static field.

* **Implicit ROB.**  Dispatch is in order, commit retires the head, and a
  flush drops the whole suffix behind the flushing load and rewinds fetch
  to it, so the window is exactly ``[rob_head, fetch_seq)``: two integers
  stand for the reorder buffer.

* **One lifecycle state per slot.**  A record is *waiting* (on a source, a
  forwarding store, or a delay-index store), *ready* (in a ready heap),
  *issued*, or *completed*; one small int replaces a flag per stage.

* **Generation tokens, which also mark squashes.**  A flush squashes a
  suffix of the window and fetch re-dispatches the *same* sequence
  numbers, so a raw ``seq`` stored in a side structure (forward/delay
  waiter lists, completion buckets) could alias the
  refetched instance of itself.  Every dispatch therefore stamps its slot
  with a fresh token (a global dispatch counter shifted over the slot
  bits); side structures hold tokens, and a held token that no longer
  matches its slot names a squashed instance and is ignored.  A squash
  sets the slot's token and sequence number to -1, so every held token
  and every heap entry of a squashed record fails the slot check its
  reader already makes: there is no squashed flag.

* **Two ready heaps.**  The ready heaps hold plain sequence numbers — age
  *is* the issue priority — validated against the slot (sequence number
  and ready state) when they surface, so stale entries are purged as they
  go.  Loads have a heap of their own; every other class shares one, which
  applies the per-class issue budgets: an entry whose class has spent its
  budget this cycle is set aside and pushed back after issue.  Each issue
  step takes the older of the two heads and re-peeks only the heap it
  popped.  When the MSHR file would block the oldest ready load, the load
  heap holds for the rest of the cycle (the structural stall) and its
  entries stay put; in a shared heap every ready load behind that hold
  would be set aside and pushed back every cycle.

* **One fused pass.**  Dispatch, issue, wakeup, commit, flush, and the
  idle fast-forward are inlined into a single loop with every loop
  invariant (static-plane arrays, config scalars, policy bound methods,
  queue internals) held in locals, so no stage pays a call frame or
  ``self`` attribute traffic per cycle.

* **Once-per-run policy constants.**  A forwarded load's latency depends
  only on the policy's configuration and the L1 latency
  (:meth:`~repro.lsu.policies.SQPolicy.forwarded_load_latency`), so it is
  computed once per run.  The policy hooks whose base versions are
  constant or empty — the assumed load latency (the L1 latency) and the
  load-commit training hook (a no-op) — are not called, and no
  :class:`~repro.lsu.policies.LoadCommitInfo` is built, when
  ``type(policy)`` keeps the base method; the same identity test selects
  the inlined store-commit path.

* **Register dataflow from the trace, not a RAT.**  Every run starts with
  an empty window, so which instruction produces each source register is
  fixed by the trace: the youngest older writer of the register
  (:class:`~repro.pipeline.commit_facts.CommitFacts` ``sources``, as
  distances back).  That writer is in flight exactly when it is at or
  above ``rob_head`` (once it commits, every older writer has too), and
  after a flush fetch re-dispatches in order, so its live instance always
  dispatched first.  Dispatch therefore counts a source as pending when its
  producer is in the window and not completed; there is no rename table to
  update at dispatch, release at commit or restore at a squash.  A
  completing producer wakes its consumers (``consumers``, ascending) that
  have dispatched and stops at the first that has not: one in the window
  was dispatched while the producer was incomplete, so it counted it.  No
  per-producer wake-up list is kept.

* **Commit facts, not commit-time probes.**  What a load sees when it
  commits depends only on the trace and the run's start state, never on
  timing (:mod:`repro.pipeline.commit_facts`): the committed value of its
  bytes, the SVW's youngest committed writer of them (SSN and PC) and its
  true producer store.  The loop reads the three from per-instruction
  arrays the caller hands in, so it keeps no oracle last-writer map (no
  per-store write at dispatch, no repair at a squash), and a load's commit
  makes no memory read and no SSBF lookup: the SVW filter compares the
  writer's SSN with the one the load recorded at execute, and the
  training hook gets the writer in its ``LoadCommitInfo``.  Stores still
  update the memory image and the SVW tables at commit (issue reads the
  image, and both are machine state the run hands on).

* **The store-queue access is bounded by the load's true producer.**  A
  store that can forward to a load writes the load's bytes, so its SSN is
  at most the producer's (the youngest older writer of any of them): a
  load passes the producer's SSN to ``policy.forward`` as the bound, which
  every policy answers as it would the rename SSN
  (:meth:`~repro.lsu.policies.SQPolicy.forward`), and an associative search
  whose producer has committed finds the oldest entry past the bound and
  stops at once.  Such a load forwards from nothing, and memory already
  holds its committed bytes, so it takes its committed value from the facts
  instead of reading the memory image.

The frozen counters in ``tests/golden/`` and the seed-stack reference
properties (``tests/property/test_core_reference.py``) pin every
``SimStats`` counter, policy/predictor interaction, flush, and replay.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.isa.plane import KIND_BRANCH, KIND_LOAD, KIND_STORE
from repro.lsu.policies import LoadCommitInfo, SQPolicy
from repro.lsu.store_queue import StoreQueueEntry
from repro.pipeline.stats import SimStats

#: Lifecycle states of an in-flight record.
WAITING = 0      # on a source, a forwarding store or a delay-index store
READY = 1        # in a ready heap
ISSUED = 2
COMPLETED = 3


def run_core_loop(core, encoded, facts, warmup_committed, stop_committed):
    """Run ``core`` over ``encoded`` to ``stop_committed`` instructions.

    The caller (:meth:`repro.pipeline.core.OutOfOrderCore.run`) has already
    validated arguments, encoded the trace, warmed the caches and found
    the trace's :class:`~repro.pipeline.commit_facts.CommitFacts` from the
    core's start state (``facts``); this function owns the cycle loop,
    from an empty window at cycle 0.  The core's SSN counters are synced
    back on return.  Returns ``(stats, rob_max_occupancy, committed)``:
    the :class:`SimStats` of the measured region (the instructions after
    the first ``warmup_committed``), the peak ROB occupancy over the whole
    run, and how many instructions of the trace had committed when the
    run stopped (warm-up included), the trace prefix whose stores are in
    the memory image.
    """
    config = core.config
    policy = core.policy
    memory = core.memory
    hierarchy = core.hierarchy
    mlp_hier = core._mlp_hier
    ssn_alloc = core.ssn_alloc
    sq = core.store_queue
    f_producer = facts.producer_ssn
    f_value = facts.value
    f_svw_ssn = facts.svw_ssn
    f_svw_pc = facts.svw_pc
    f_sources = facts.sources
    f_consumers = facts.consumers

    plane = encoded.plane
    (kind_arr, pc_arr, iidx_arr, latency_arr, hint_call_arr,
     hint_return_arr) = plane.dispatch_arrays()
    (sidx, addr_arr, size_arr, value_arr, taken_arr,
     target_arr) = encoded.dynamic_arrays()
    total = len(sidx)

    # Config scalars.
    rename_width = config.rename_width
    taken_per_cycle = config.taken_branches_per_cycle
    iq_size = config.issue_queue_size
    rob_size = config.rob_size
    lq_size = config.load_queue_size
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
    policy_store_renamed = policy.store_renamed
    policy_store_dependence = policy.store_dependence
    policy_store_squashed = policy.store_squashed
    policy_store_committed = policy.store_committed
    policy_load_committed = policy.load_committed
    # Policies that keep the base-class store commit hook get the inlined
    # SVW update; an override is honoured through the method.  Keeping the
    # base assumed latency (the L1 latency) or the base no-op load-commit
    # hook skips the call.
    policy_type = type(policy)
    fast_store_commit = policy_type.store_committed is SQPolicy.store_committed
    fast_assumed = \
        policy_type.assumed_load_latency is SQPolicy.assumed_load_latency
    train_on_commit = \
        policy_type.load_committed is not SQPolicy.load_committed
    svw = policy.svw
    svw_stats = svw.stats
    svw_ssbf_update = svw.ssbf.update
    svw_spct_update = svw.spct.update
    hier_stats = hierarchy.stats
    hier_store_touch = hierarchy.store_touch
    hier_load_latency = hierarchy.load_latency
    l1_latency = hierarchy.l1_latency
    # Configuration-only (see SQPolicy.forwarded_load_latency): once a run.
    forwarded_latency = policy.forwarded_load_latency(l1_latency)
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
    sq_size_mask = sq.size - 1
    sq_entry_cls = StoreQueueEntry
    sq_entry_new = StoreQueueEntry.__new__
    sq_write_execute = sq.write_execute
    sq_release = sq.release
    sq_squash_younger = sq.squash_younger
    load_info_cls = LoadCommitInfo
    load_info_new = LoadCommitInfo.__new__

    # --------------------------------------------- struct-of-arrays state --
    cap = 1 << (rob_size - 1).bit_length() if rob_size > 1 else 1
    mask = cap - 1
    tok_shift = mask.bit_length()
    v_seq = [-1] * cap        # occupant's sequence number (-1: squashed)
    v_tok = [-1] * cap        # occupant's generation token (-1: squashed)
    v_si = [0] * cap          # occupant's static index
    v_state = [WAITING] * cap
    v_wait_srcs = [0] * cap
    v_wait_fwd = [0] * cap
    v_wait_dly = [0] * cap
    v_other_ready = [0] * cap
    v_completion = [0] * cap
    v_addr = [0] * cap
    v_size = [0] * cap
    v_value = [0] * cap            # store value
    v_ssn = [0] * cap              # store SSN
    v_sat_undo = [None] * cap
    v_fwd_waiters = [None] * cap   # list of waiter tokens, or None
    v_pred = [None] * cap          # LoadPrediction
    v_ssn_ren = [0] * cap
    v_spec = [0] * cap
    v_forwarded = [0] * cap
    v_fwd_ssn = [0] * cap
    v_svw_ssn = [0] * cap
    v_should_fwd = [0] * cap
    v_delay_cycles = [0] * cap
    v_dly_clear = [0] * cap
    disp = 0                       # global dispatch (generation) counter

    # Window structures.  The ROB is implicit: it holds exactly the
    # sequence numbers [rob_head, fetch_seq).  The load queue keeps its
    # order in a plain int deque, its occupancy shadowed in a counter; only
    # the store queue keeps entry objects (policies probe it directly).
    lq_seqs = deque()
    lq_popleft = lq_seqs.popleft
    lq_push = lq_seqs.append
    lq_occ = 0
    rob_maxocc = 0

    load_heap = []                 # ready loads' seqs
    other_heap = []                # every other ready seq
    # Per-cycle issue budgets, in issue-class order (loads keep theirs in
    # a scalar of their own).
    budget_limits = [limit_int, limit_fp, limit_branch, limit_load,
                     limit_store]
    completions = {}               # completion cycle -> list of tokens
    completions_pop = completions.pop
    completions_get = completions.get
    store_by_ssn = {}              # in-flight SSN -> store token
    store_by_ssn_get = store_by_ssn.get
    store_by_ssn_pop = store_by_ssn.pop
    dly_waiters = {}               # delay-index SSN -> list of load tokens
    dly_waiters_get = dly_waiters.get
    dly_waiters_pop = dly_waiters.pop

    # Scalar machine state.
    cycle = 0
    fetch_seq = 0
    rob_head = 0
    fetch_resume = 0
    fetch_blocked_tok = -1
    iq_occ = 0

    # SimStats counters as locals (written back at the end; zeroed at the
    # warm-up boundary, keeping every piece of machine state warm).
    committed_total = 0
    c_stores = c_loads = c_branches = 0
    c_reexec = c_should_fwd = c_fwd = c_delayed = c_delay_cycles = 0
    c_violations = c_misfwd = c_flushes = c_squashed = 0
    c_mispred = c_replays = c_ssn_wraps = 0
    c_fetch_stall = c_rob_stall = c_iq_stall = 0
    c_lq_stall = c_sq_stall = c_waited = c_mshr_stall = 0

    warmup_done = warmup_committed == 0
    warmup_cycle_offset = 0
    warmup_instr_offset = 0
    warmup_l1 = 0
    warmup_l2 = 0
    mlp_base = mlp_hier.mlp_stats.snapshot() if mlp_hier is not None else None
    last_commit_cycle = 0

    while committed_total < stop_committed:
        # ------------------------------------------------ idle fast-forward --
        if idle_skip and not load_heap and not other_heap:
            nxt = cycle + 1
            skip = True
            if fetch_blocked_tok < 0 and nxt >= fetch_resume \
                    and fetch_seq < total:
                k = kind_arr[sidx[fetch_seq]]
                if not (fetch_seq - rob_head >= rob_size or iq_occ >= iq_size
                        or (k == KIND_LOAD and lq_occ >= lq_size)
                        or (k == KIND_STORE and len(sq_entries) >= sq_size)):
                    skip = False
            if skip:
                target = min(completions) if completions else None
                if rob_head < fetch_seq:
                    hi = rob_head & mask
                    if v_state[hi] == COMPLETED:
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
                                if fetch_seq - rob_head >= rob_size:
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
                    if v_tok[i] != tok:
                        continue
                    v_state[i] = COMPLETED
                    if kind_arr[v_si[i]] == KIND_STORE:
                        sq_write_execute(v_ssn[i], v_addr[i], v_size[i],
                                         v_value[i])
                        waiters = v_fwd_waiters[i]
                        if waiters:
                            # Loads (constraint 1) and stores (store-store
                            # serialisation); a set wait_fwd has kept each
                            # one waiting since dispatch.
                            for wtok in waiters:
                                wi = wtok & mask
                                if v_tok[wi] != wtok or not v_wait_fwd[wi]:
                                    continue
                                v_wait_fwd[wi] = 0
                                if v_wait_srcs[wi] == 0:
                                    if v_other_ready[wi] < 0:
                                        v_other_ready[wi] = cycle
                                    if not v_wait_dly[wi]:
                                        v_state[wi] = READY
                                        if kind_arr[v_si[wi]] == KIND_LOAD:
                                            heappush(load_heap, v_seq[wi])
                                        else:
                                            heappush(other_heap, v_seq[wi])
                            v_fwd_waiters[i] = None
                    # Only a mispredicted branch can block fetch.
                    if fetch_blocked_tok == tok:
                        fetch_blocked_tok = -1
                        resume = cycle + branch_redirect_penalty
                        if resume > fetch_resume:
                            fetch_resume = resume
                    pseq = v_seq[i]
                    for dist in f_consumers[pseq]:
                        # Every dispatched consumer is in the window and
                        # counted this producer; the rest are not fetched.
                        cseq = pseq + dist
                        if cseq >= fetch_seq:
                            break
                        ci = cseq & mask
                        w = v_wait_srcs[ci] = v_wait_srcs[ci] - 1
                        # The last source wakes a record that has been
                        # waiting since dispatch.
                        if w == 0 and not v_wait_fwd[ci]:
                            if v_other_ready[ci] < 0:
                                v_other_ready[ci] = cycle
                            if not v_wait_dly[ci]:
                                v_state[ci] = READY
                                if kind_arr[v_si[ci]] == KIND_LOAD:
                                    heappush(load_heap, cseq)
                                else:
                                    heappush(other_heap, cseq)

        # --------------------------------------------------------- commit --
        committed_now = 0
        if rob_head < fetch_seq and v_state[rob_head & mask] == COMPLETED:
            while committed_now < commit_width and rob_head < fetch_seq:
                seq0 = rob_head
                i = seq0 & mask
                if v_state[i] != COMPLETED \
                        or v_completion[i] + commit_delay > cycle:
                    break
                rob_head = seq0 + 1
                committed_now += 1
                committed_total += 1
                si = v_si[i]
                kind = kind_arr[si]
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
                        svw_spct_update(addr, size, pc_arr[si])
                        svw_stats.ssbf_writes += 1
                        svw_stats.spct_writes += 1
                    else:
                        policy_store_committed(pc_arr[si], ssn, addr, size)
                    hier_store_touch(addr)
                    waiters = dly_waiters_pop(ssn, None)
                    if waiters:
                        # Every waiter is a load that has waited on this
                        # store since dispatch.
                        for wtok in waiters:
                            wi = wtok & mask
                            if v_tok[wi] != wtok or not v_wait_dly[wi]:
                                continue
                            v_wait_dly[wi] = 0
                            v_dly_clear[wi] = cycle
                            if v_wait_srcs[wi] == 0 and not v_wait_fwd[wi]:
                                if v_other_ready[wi] < 0:
                                    v_other_ready[wi] = cycle
                                v_state[wi] = READY
                                heappush(load_heap, v_seq[wi])
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

                    # The SVW filter: re-execute when a store the load is
                    # vulnerable to has committed to one of its bytes.
                    correct_value = f_value[seq0]
                    last_ssn = f_svw_ssn[seq0]
                    svw_stats.loads_checked += 1
                    needs_reexec = last_ssn > v_svw_ssn[i]
                    if needs_reexec:
                        svw_stats.loads_reexecuted += 1
                        c_reexec += 1
                    spec_value = v_spec[i]
                    violation = spec_value != correct_value
                    if violation and not needs_reexec:
                        raise AssertionError(
                            f"SVW filter missed a violation at "
                            f"pc={pc_arr[si]:#x} seq={seq0}: "
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

                    if train_on_commit:
                        info = load_info_new(load_info_cls)
                        info.pc = pc_arr[si]
                        info.addr = addr
                        info.size = size
                        info.spec_value = spec_value
                        info.correct_value = correct_value
                        info.forwarded = bool(v_forwarded[i])
                        info.forward_ssn = v_fwd_ssn[i]
                        info.prediction = v_pred[i]
                        info.ssn_at_rename = v_ssn_ren[i]
                        info.ssn_cmt = ssn_commit
                        info.violation = violation
                        info.last_ssn = last_ssn
                        info.last_pc = f_svw_pc[seq0]
                        policy_load_committed(info)

                    if violation:
                        c_violations += 1
                        if v_should_fwd[i]:
                            c_misfwd += 1
                        # ------------------------------------ flush (inline) --
                        # Everything younger than the load is squashed,
                        # youngest first, and fetch rewinds to just past it.
                        c_flushes += 1
                        c_squashed += fetch_seq - rob_head
                        for vseq in range(fetch_seq - 1, seq0, -1):
                            vi = vseq & mask
                            v_tok[vi] = -1
                            v_seq[vi] = -1
                            vsi = v_si[vi]
                            if v_state[vi] < ISSUED:
                                iq_occ -= 1
                            if kind_arr[vsi] == KIND_STORE:
                                vssn = v_ssn[vi]
                                policy_store_squashed(pc_arr[vsi], vssn,
                                                      v_sat_undo[vi])
                                store_by_ssn_pop(vssn, None)
                        sq_squash_younger(v_ssn_ren[i])
                        # The load was the load queue's head: every load
                        # left behind it is younger.
                        lq_occ = 0
                        lq_seqs.clear()
                        # Inlined SSNAllocator.rewind_rename: the target is
                        # clamped to [ssn_commit, ssn_rename] by construction.
                        ren = v_ssn_ren[i]
                        ssn_rename = ren if ren > ssn_commit else ssn_commit
                        fetch_seq = seq0 + 1
                        fetch_resume = cycle + flush_penalty
                        if fetch_blocked_tok >= 0 and \
                                v_tok[fetch_blocked_tok & mask] \
                                != fetch_blocked_tok:
                            fetch_blocked_tok = -1
                        break
                elif kind == KIND_BRANCH:
                    c_branches += 1

        # ---------------------------------------------------------- issue --
        if load_heap or other_heap:
            budgets = budget_limits[:]
            load_budget = limit_load
            total_budget = issue_width
            deferred = None
            # The valid heads of the two heaps (-1: none this cycle).  The
            # other heap's head (static index osi) is of a class with
            # budget left; entries of spent classes are set aside until the
            # end of the cycle.
            lhead = -1
            while load_heap:
                s = load_heap[0]
                j = s & mask
                if v_seq[j] != s or v_state[j] != READY:
                    heappop(load_heap)
                else:
                    lhead = s
                    break
            ohead = -1
            while other_heap:
                s = other_heap[0]
                j = s & mask
                if v_seq[j] != s or v_state[j] != READY:
                    heappop(other_heap)
                else:
                    ohead = s
                    osi = v_si[j]
                    break
            while True:
                if lhead >= 0 and (ohead < 0 or lhead < ohead):
                    i = lhead & mask
                    if mlp_hier is not None and mlp_would_block(v_addr[i],
                                                                cycle):
                        # Structural stall: MSHR file full and the oldest
                        # ready load needs a new fill; loads hold.
                        c_mshr_stall += 1
                        lhead = -1
                        continue
                    lseq = heappop(load_heap)
                    v_state[i] = ISSUED
                    lhead = -1
                    total_budget -= 1
                    load_budget -= 1
                    if load_budget > 0 and total_budget > 0:
                        while load_heap:
                            s = load_heap[0]
                            j = s & mask
                            if v_seq[j] != s or v_state[j] != READY:
                                heappop(load_heap)
                            else:
                                lhead = s
                                break
                    # ------------------------------- execute load (inline) --
                    addr = v_addr[i]
                    size = v_size[i]
                    prediction = v_pred[i]
                    # No store younger than the true producer writes the
                    # load's bytes, so it bounds the SQ access.
                    producer = f_producer[lseq]
                    should_fwd = v_should_fwd[i] = producer > ssn_commit
                    decision = policy_forward(addr, size, producer,
                                              prediction, sq)
                    if mlp_hier is not None:
                        cache_latency = mlp_load_access(addr, cycle,
                                                        pc_arr[v_si[i]])
                    else:
                        cache_latency = hier_load_latency(addr)
                    if decision.forwarded:
                        v_forwarded[i] = 1
                        fwd_ssn = decision.forward_ssn
                        v_fwd_ssn[i] = fwd_ssn
                        value = decision.value
                        v_spec[i] = value if value is not None else 0
                        v_svw_ssn[i] = fwd_ssn
                        actual = forwarded_latency
                    else:
                        # With no older writer in flight, memory already
                        # holds the bytes the load commits with.
                        v_spec[i] = memory_read(addr, size) if should_fwd \
                            else f_value[lseq]
                        v_svw_ssn[i] = ssn_commit
                        actual = cache_latency
                    if fast_assumed:
                        assumed = l1_latency
                    else:
                        assumed = policy_assumed_latency(prediction,
                                                         l1_latency)
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
                elif ohead >= 0:
                    i = ohead & mask
                    heappop(other_heap)
                    v_state[i] = ISSUED
                    ohead = -1
                    total_budget -= 1
                    budgets[iidx_arr[osi]] -= 1
                    latency = latency_arr[osi]
                    while total_budget > 0 and other_heap:
                        s = other_heap[0]
                        j = s & mask
                        if v_seq[j] != s or v_state[j] != READY:
                            heappop(other_heap)
                            continue
                        jsi = v_si[j]
                        if budgets[iidx_arr[jsi]] <= 0:
                            heappop(other_heap)
                            if deferred is None:
                                deferred = [s]
                            else:
                                deferred.append(s)
                            continue
                        ohead = s
                        osi = jsi
                        break
                else:
                    break
                iq_occ -= 1
                completion_cycle = cycle + latency
                v_completion[i] = completion_cycle
                tok = v_tok[i]
                bucket = completions_get(completion_cycle)
                if bucket is None:
                    completions[completion_cycle] = [tok]
                else:
                    bucket.append(tok)
                if total_budget <= 0:
                    break
            if deferred is not None:
                for s in deferred:
                    heappush(other_heap, s)

        # ------------------------------------------------------- dispatch --
        if cycle < fetch_resume or fetch_blocked_tok >= 0:
            c_fetch_stall += 1
        elif fetch_seq < total:
            dispatched = 0
            taken_budget = taken_per_cycle
            while True:
                si = sidx[fetch_seq]
                kind = kind_arr[si]

                if fetch_seq - rob_head >= rob_size:
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
                v_si[i] = si
                # Reset before the kind-specific checks below: a store's
                # store-set dependence can name the store itself (an LFST
                # entry left by its squashed instance), which must read as
                # not completed.
                v_state[i] = WAITING
                fetch_seq = rseq + 1
                dispatched += 1
                iq_occ += 1

                # A source waits on a producer still in the window (one
                # below rob_head has committed) that has not completed.
                wait_srcs = 0
                for dist in f_sources[rseq]:
                    pseq = rseq - dist
                    if pseq >= rob_head \
                            and v_state[pseq & mask] != COMPLETED:
                        wait_srcs += 1
                v_wait_srcs[i] = wait_srcs

                wait_fwd = 0
                wait_dly = 0
                if kind == KIND_LOAD:
                    # (v_spec, v_svw_ssn and v_should_fwd are written at
                    # issue, before commit reads them — no reset needed.)
                    v_forwarded[i] = 0
                    v_fwd_ssn[i] = 0
                    v_delay_cycles[i] = 0
                    v_dly_clear[i] = -1
                    v_addr[i] = addr_arr[rseq]
                    v_size[i] = size_arr[rseq]
                    v_ssn_ren[i] = ssn_rename
                    lq_push(rseq)
                    lq_occ += 1

                    v_pred[i] = prediction = policy_predict_load(
                        pc_arr[si], ssn_rename, ssn_commit, f_producer[rseq])

                    # Constraint 1: predicted forwarding store must have
                    # executed.
                    fwd_ssn = prediction.fwd_ssn
                    if fwd_ssn and fwd_ssn > ssn_commit:
                        stok = store_by_ssn_get(fwd_ssn)
                        if stok is not None:
                            sj = stok & mask
                            if v_tok[sj] == stok \
                                    and v_state[sj] != COMPLETED:
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
                    pc = pc_arr[si]
                    v_fwd_waiters[i] = None
                    v_addr[i] = addr_arr[rseq]
                    v_size[i] = size_arr[rseq]
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
                    store_by_ssn[ssn] = tok
                    v_sat_undo[i] = policy_store_renamed(pc, ssn)

                    # Store-store serialisation (original Store Sets only).
                    dep_ssn = policy_store_dependence(pc, ssn)
                    if dep_ssn:
                        dtok = store_by_ssn_get(dep_ssn)
                        if dtok is not None:
                            dj = dtok & mask
                            if v_tok[dj] == dtok \
                                    and v_state[dj] != COMPLETED:
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
                        pc_arr[si], taken, target if target >= 0 else None,
                        hint_call_arr[si], hint_return_arr[si])
                    if mispredicted:
                        c_mispred += 1
                v_wait_fwd[i] = wait_fwd
                v_wait_dly[i] = wait_dly

                if wait_srcs == 0 and not wait_fwd:
                    v_other_ready[i] = cycle
                    if not wait_dly:
                        v_state[i] = READY
                        if kind == KIND_LOAD:
                            heappush(load_heap, rseq)
                        else:
                            heappush(other_heap, rseq)
                else:
                    v_other_ready[i] = -1

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
            # Occupancy only grows during dispatch: its peak is at the end.
            occupancy = fetch_seq - rob_head
            if occupancy > rob_maxocc:
                rob_maxocc = occupancy

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
            raise RuntimeError(
                f"simulation deadlock at cycle {cycle}: "
                f"{committed_total}/{total} committed, "
                f"ROB={fetch_seq - rob_head}, "
                f"ready={len(load_heap) + len(other_heap)}, "
                f"fetch_seq={fetch_seq}")
        if cycle >= max_cycles_eff:
            break

    # ------------------------------------------------------------ write-back --
    # Report only the measured (post-warm-up) region: the miss counters
    # subtract the warm-up share so every SimStats field covers exactly the
    # same instructions (the hierarchy's own stats stay cumulative for the
    # run and feed the l1_miss_rate extra).
    stats = SimStats()
    stats.cycles = cycle - warmup_cycle_offset
    stats.committed = committed_total - warmup_instr_offset
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
    stats.l1_misses = hier_stats.l1_misses - warmup_l1
    stats.l2_misses = hier_stats.l2_misses - warmup_l2
    if mlp_hier is not None:
        mlp_stats = mlp_hier.mlp_stats
        delta = [after - before
                 for after, before in zip(mlp_stats.snapshot(), mlp_base)]
        stats.mshr_modeled = 1
        stats.mshr_demand_misses = delta[0]
        stats.misses_coalesced = delta[1]
        stats.mshr_inflight_sum = delta[2]
        stats.prefetch_issued = delta[3]
        stats.prefetch_useful = delta[4]
        # Occupancy is a peak over the whole run (warm-up included): peaks
        # have no warm-up share to subtract.
        stats.mshr_occupancy = mlp_stats.occupancy_peak
    ssn_alloc.ssn_rename = ssn_rename
    ssn_alloc.ssn_commit = ssn_commit
    ssn_alloc.wraps = ssn_hw_wraps
    return stats, rob_maxocc, committed_total
