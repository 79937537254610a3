//! Compiler-directed incoherence: the run-time calls of the §4.2 contract.
//!
//! The compiler, having proven a producer–consumer relationship between an
//! owner and a set of readers on a range of whole cache blocks (after
//! `shmem_limits` subsetting — see [`fgdsm_section::block_subset`]),
//! bypasses the default protocol:
//!
//! 1. [`Dsm::mk_writable`] — owners bring the blocks writable (pipelined
//!    write faults), so the directory records the owner as holding the
//!    only valid copy (Figure 2B);
//! 2. *barrier*;
//! 3. [`Dsm::implicit_writable`] — readers tag the blocks ReadWrite with
//!    **no data**, so the incoming transfer can be stored (Figure 2C);
//! 4. *barrier*;
//! 5. [`Dsm::send_range`] / [`Dsm::ready_to_recv`] — owners push the
//!    blocks (optionally grouped into bulk payloads), readers block on a
//!    counting semaphore until all have arrived (Figure 2D);
//! 6. the parallel loop executes fault-free;
//! 7. [`Dsm::implicit_invalidate`] — readers discard their copies so the
//!    directory's belief (exclusive at owner) is true again (Figure 2F);
//! 8. *barrier*.
//!
//! For non-owner *writes*, [`Dsm::flush_range`] returns the modified
//! blocks to the owner at the end of the loop.
//!
//! Run-time overhead elimination (§4.3) drops steps 1, 2, 7 and 8 under
//! whole-program owner-computes assumptions and memoizes step 3 so only
//! the first execution pays the tag changes; the memo test is
//! [`MEMO_TEST_NS`].
//!
//! ## Plan → apply
//!
//! The data-movement primitives (`send_range`, `flush_range`) are split
//! into two stages so an executor can run the apply stage on threads:
//!
//! * **plan** ([`Dsm::plan_sends`] / [`Dsm::plan_flushes`]) — a cheap
//!   sequential pass that does all call-site bookkeeping (ctl events, base
//!   charges, fault injection, payload grouping) and emits one
//!   [`TransferPlan`] per (source, destination) node pair;
//! * **apply** ([`Dsm::apply_plans`]) — executes the plans' pair-local
//!   work (charges, copies, message counters) over disjoint `&mut` shard
//!   pairs, concurrently where plans share no node, then folds the
//!   cross-pair state (ctl inboxes, directory, third-party home tags) in
//!   plan index order. Plans that share a node are applied in strict plan
//!   order, so every node's event stream — and therefore every report and
//!   trace — is byte-identical to a serial apply.

use crate::dir::DirState;
use crate::proto::Dsm;
use crate::trans;
use crate::wire::{WireHeader, WireMsg};
use fgdsm_tempest::{Access, ChargeKind, CostModel, CtlPrim, Event, NodeId, NodeShard, NO_ARRAY};

/// Fixed overhead of issuing any compiler-directed protocol call.
pub const CTL_CALL_BASE_NS: u64 = 2_000;

/// Cost of the memoized `implicit_writable` fast path ("at subsequent
/// times the call need only do the test and nothing more").
pub const MEMO_TEST_NS: u64 = 300;

/// One grouped transfer payload: `n_blocks` contiguous blocks starting at
/// `start_block`, on behalf of `array` (a compiler-assigned id carried
/// opaquely into the trace; [`NO_ARRAY`] when unknown).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Payload {
    pub start_block: usize,
    pub n_blocks: usize,
    pub array: u32,
}

/// Group the block range `[first, end)` into payloads of at most
/// `max_payload_bytes` (bulk transfer) or one block each (`bulk = false`).
pub fn group_payloads(
    first: usize,
    end: usize,
    block_bytes: usize,
    bulk: bool,
    max_payload_bytes: usize,
) -> Vec<Payload> {
    if end <= first {
        return vec![];
    }
    let per = if bulk {
        (max_payload_bytes / block_bytes).max(1)
    } else {
        1
    };
    let mut out = Vec::with_capacity((end - first).div_ceil(per));
    let mut b = first;
    while b < end {
        let n = per.min(end - b);
        out.push(Payload {
            start_block: b,
            n_blocks: n,
            array: NO_ARRAY,
        });
        b += n;
    }
    out
}

/// Minimum total transfer volume (in words) before [`Dsm::apply_plans`]
/// spawns threads: below this, thread startup dwarfs the payload copies
/// and a serial apply is faster. Determinism is unaffected either way.
pub const PAR_APPLY_MIN_WORDS: usize = 2048;

/// What an apply-stage [`TransferPlan`] does to its shard pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanOp {
    /// §4.2 compiler-directed push, owner → reader (Figure 2D). The
    /// outcome feeds the destination's ctl inbox for `ready_to_recv`.
    Push,
    /// Non-owner-write flush, writer → owner, plus the in-pair tag flips
    /// (§4.2, non-owner writes). Directory and third-party home tags are
    /// folded after apply.
    Flush,
}

/// One unit of resolve-phase apply work: everything one (src, dst) node
/// pair exchanges this superstep. Plans for distinct pairs sharing no
/// node touch disjoint shards and may be applied concurrently; the
/// planner emits them in a stable (src, dst) order.
#[derive(Clone, Debug)]
pub struct TransferPlan {
    pub src: NodeId,
    pub dst: NodeId,
    pub op: PlanOp,
    /// Block ranges in call-site order. Ranges of distinct call sites may
    /// overlap; the resulting duplicate push is faithful to the direct
    /// path, which also re-sent the overlap.
    pub ranges: Vec<(usize, usize)>,
    /// Payload groupings ([`group_payloads`] per range, concatenated in
    /// range order).
    pub payloads: Vec<Payload>,
}

/// Capacity-retaining free lists for the plan/apply hot path: plan
/// *carcasses* (a [`TransferPlan`] whose `ranges`/`payloads` vectors are
/// emptied but keep their capacity) and outer plan vectors, recycled
/// across supersteps by [`Dsm::recycle_plans`] so steady-state planning
/// allocates nothing. Bounded so a pathological superstep cannot pin
/// unbounded memory.
#[derive(Default, Debug)]
pub(crate) struct PlanScratch {
    carcasses: Vec<TransferPlan>,
    vecs: fgdsm_tempest::VecPool<TransferPlan>,
}

/// Most carcasses a [`PlanScratch`] retains: enough for every (src, dst)
/// pair of an 8-node superstep with room to spare.
const PLAN_CARCASS_CAP: usize = 128;

impl PlanScratch {
    /// An empty plan for `(src, dst, op)` — recycled with warm
    /// `ranges`/`payloads` capacity when a carcass is available.
    fn take(&mut self, src: NodeId, dst: NodeId, op: PlanOp) -> TransferPlan {
        match self.carcasses.pop() {
            Some(mut p) => {
                p.src = src;
                p.dst = dst;
                p.op = op;
                p
            }
            None => TransferPlan {
                src,
                dst,
                op,
                ranges: vec![],
                payloads: vec![],
            },
        }
    }
}

/// One merged `send_range` call site: `owner` pushes blocks
/// `[first, end)` to every node in `readers`.
#[derive(Clone, Debug)]
pub struct SendEntry {
    pub owner: NodeId,
    pub readers: Vec<NodeId>,
    pub first: usize,
    pub end: usize,
    /// Compiler-assigned array id the range belongs to ([`NO_ARRAY`] when
    /// the caller has no array context). Threaded into the payloads and
    /// the [`Event::CtlSend`] trace events for the profiler.
    pub array: u32,
}

/// One pending non-owner-write flush call site: `writer` returns blocks
/// `[first, end)` to `owner`.
#[derive(Clone, Copy, Debug)]
pub struct FlushEntry {
    pub writer: NodeId,
    pub owner: NodeId,
    pub first: usize,
    pub end: usize,
    /// Compiler-assigned array id the range belongs to ([`NO_ARRAY`] when
    /// the caller has no array context).
    pub array: u32,
}

/// Cross-pair state staged by one plan's apply, folded in plan index
/// order after all pair-local work completes.
struct PlanOutcome {
    arrival: u64,
    payloads: u64,
    blocks: u64,
}

/// Pair-local apply of one plan: charges, message counters, and data
/// copies against exactly the two shards the plan names. Everything that
/// reaches beyond the pair is staged in the returned [`PlanOutcome`].
///
/// In strict wire mode (`landed`) the plan's payloads were posted as
/// envelopes at *plan* time and have already landed in the destination
/// from the decoded frames, so the apply moves no data and never reads
/// the source shard's memory. Accounting is identical either way, so
/// reports and traces cannot tell the paths apart.
fn apply_plan(
    plan: &TransferPlan,
    landed: bool,
    cfg: &CostModel,
    src: &mut NodeShard,
    dst: &mut NodeShard,
) -> PlanOutcome {
    let mut out = PlanOutcome {
        arrival: 0,
        payloads: 0,
        blocks: 0,
    };
    for p in &plan.payloads {
        let (s, _) = src.block_words(p.start_block);
        let (_, e) = src.block_words(p.start_block + p.n_blocks - 1);
        let bytes = (e - s) * 8;
        // Per message: the user-level protocol composes and tags the
        // payload (handler-side work at the sender), injects it, and
        // occupies the wire — grouping contiguous blocks into bulk
        // payloads amortizes everything but the wire.
        let compose = cfg.handler_cost(cfg.handler_dispatch_ns);
        src.charge(
            compose + cfg.msg_send_ns + bytes as u64 * cfg.per_byte_ns,
            ChargeKind::CtlCall,
        );
        src.note_msg_at(bytes, p.start_block);
        dst.note_msg_recv(bytes);
        if !landed {
            dst.mem_mut()[s..e].copy_from_slice(&src.mem()[s..e]);
        }
        match plan.op {
            PlanOp::Push => {
                out.arrival = out.arrival.max(src.clock_ns() + cfg.net_latency_ns);
                out.payloads += 1;
                out.blocks += p.n_blocks as u64;
                src.record(Event::CtlSend {
                    blocks: p.n_blocks as u64,
                    first_block: p.start_block as u32,
                    array: p.array,
                });
            }
            PlanOp::Flush => {
                dst.charge_handler(cfg.handler_dispatch_ns + p.n_blocks as u64 * cfg.block_copy_ns);
            }
        }
    }
    if plan.op == PlanOp::Flush {
        let mut cost = 0;
        for &(f, e) in &plan.ranges {
            for b in f..e {
                src.set_tag(b, Access::Invalid);
                dst.set_tag(b, Access::ReadWrite);
                cost += cfg.tag_change_ns;
            }
        }
        src.charge(cost, ChargeKind::CtlCall);
    }
    out
}

/// Aggregate counters mirroring the per-primitive fields in
/// [`fgdsm_tempest::NodeStats`], summed over nodes — convenient for
/// assertions in tests and for the Figure 4 ablation harness.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CtlStats {
    pub mk_writable: u64,
    pub implicit_writable: u64,
    pub implicit_invalidate: u64,
    pub send_range: u64,
    pub ready_recv: u64,
    pub flush_range: u64,
    pub blocks_pushed: u64,
}

impl Dsm {
    /// Sum the per-primitive call counters over all nodes.
    pub fn ctl_stats(&self) -> CtlStats {
        let mut s = CtlStats::default();
        for n in 0..self.cluster.nprocs() {
            let st = self.cluster.stats(n);
            s.mk_writable += st.mk_writable_calls;
            s.implicit_writable += st.implicit_writable_calls;
            s.implicit_invalidate += st.implicit_invalidate_calls;
            s.send_range += st.send_range_calls;
            s.ready_recv += st.ready_recv_calls;
            s.flush_range += st.flush_range_calls;
            s.blocks_pushed += st.blocks_pushed;
        }
        s
    }

    /// Bring blocks `[first, end)` writable at `owner`, as pipelined write
    /// faults (Figure 2B). After this call the directory records the owner
    /// as holding the current, only valid copy of every block — which is
    /// what frees the home of carrying one and makes `implicit_writable`
    /// at readers safe (the ordering is enforced by the barrier *between*
    /// the two calls).
    pub fn mk_writable(&mut self, owner: NodeId, first: usize, end: usize) {
        let cfg = self.cluster.cfg().clone();
        self.cluster.record(
            owner,
            Event::Ctl {
                prim: CtlPrim::MkWritable,
            },
        );
        self.cluster
            .charge(owner, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        if end <= first {
            return;
        }
        let (s0, _) = self.cluster.block_words(first);
        let (_, e1) = self.cluster.block_words(end - 1);
        self.cluster.map_range(owner, s0, e1 - s0);

        let mut latency_paid = false;
        for b in first..end {
            if self.cluster.tag(owner, b) == Access::ReadWrite
                && self.dir_state(b).is_excl_by(owner)
            {
                continue;
            }
            let h = self.cluster.home_of_block(b);
            let need_data = self.cluster.tag(owner, b) == Access::Invalid;
            // Pipelined: one wire latency for the whole train, per-block
            // injection/processing costs thereafter.
            let mut cost = cfg.msg_send_ns + cfg.tag_change_ns;
            if !latency_paid && h != owner {
                cost += cfg.net_latency_ns;
                latency_paid = true;
            }
            if h != owner {
                self.cluster.note_msg_at(owner, h, 8, b);
            }
            self.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.dir_lookup_ns);
            // State transition: steal the block for the owner (invalidate
            // readers / flush a previous exclusive holder), without a fault.
            self.ctl_acquire_excl(owner, b, need_data, &mut cost);
            self.cluster.charge(owner, cost, ChargeKind::CtlCall);
        }
    }

    /// State manipulation shared by `mk_writable`: make `node` the
    /// exclusive writer of `b`, fetching data if `need_data`.
    fn ctl_acquire_excl(&mut self, node: NodeId, b: usize, need_data: bool, cost: &mut u64) {
        let cfg = self.cluster.cfg().clone();
        let h = self.cluster.home_of_block(b);
        let (s, e) = self.cluster.block_words(b);
        let cur = self.dir_state(b);
        if matches!(cur, DirState::Multi { .. }) {
            unreachable!("mk_writable on a Multi block: compiler ranges exclude boundaries")
        }
        let eff = trans::acquire_excl(cur, node, h);
        for r in DirState::nodes(eff.invalidate_readers) {
            if r != h {
                self.cluster.note_msg_at(h, r, 8, b);
            }
            self.cluster
                .charge_handler(r, cfg.handler_dispatch_ns + cfg.tag_change_ns);
            self.cluster.set_tag(r, b, Access::Invalid);
        }
        if let Some(owner) = eff.flush_owner {
            self.cluster
                .charge_handler(owner, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            self.cluster.note_msg_at(owner, h, cfg.block_bytes, b);
            self.cluster
                .charge_handler(h, cfg.handler_dispatch_ns + cfg.block_copy_ns);
            self.wire_copy(owner, h, s, e - s);
            *cost += cfg.block_bytes as u64 * cfg.per_byte_ns;
        }
        if let Some(owner) = eff.invalidate_owner {
            self.cluster.set_tag(owner, b, Access::Invalid);
        }
        if need_data && node != h {
            self.cluster.charge_handler(h, cfg.block_copy_ns);
            self.cluster.note_msg_at(h, node, cfg.block_bytes, b);
            self.wire_copy(h, node, s, e - s);
            *cost += cfg.block_bytes as u64 * cfg.per_byte_ns + cfg.block_copy_ns;
        }
        if h != node {
            self.cluster.set_tag(h, b, Access::Invalid);
        }
        self.cluster.set_tag(node, b, Access::ReadWrite);
        self.set_dir(b, eff.next);
    }

    /// Tag blocks `[first, end)` ReadWrite at a reader, *without data*, so
    /// an incoming compiler-directed transfer can be stored (Figure 2C).
    /// With `memoize`, repeat calls on the same range pay only a test
    /// (§4.3). Returns true if the tags were actually changed.
    pub fn implicit_writable(
        &mut self,
        node: NodeId,
        first: usize,
        end: usize,
        memoize: bool,
    ) -> bool {
        let cfg = self.cluster.cfg().clone();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ImplicitWritable,
            },
        );
        if memoize && self.iw_memo.contains(&(node, first, end)) {
            self.cluster.charge(node, MEMO_TEST_NS, ChargeKind::CtlCall);
            return false;
        }
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        if end <= first {
            return false;
        }
        let (s0, _) = self.cluster.block_words(first);
        let (_, e1) = self.cluster.block_words(end - 1);
        self.cluster.map_range(node, s0, e1 - s0);
        let mut cost = 0;
        for b in first..end {
            self.cluster.set_tag(node, b, Access::ReadWrite);
            cost += cfg.tag_change_ns;
        }
        self.cluster.charge(node, cost, ChargeKind::CtlCall);
        if memoize {
            self.iw_memo.insert((node, first, end));
        }
        true
    }

    /// Owner pushes blocks `[first, end)` to each reader in a specially
    /// tagged data message (Figure 2D). With `bulk`, contiguous blocks are
    /// grouped into payloads of up to `bulk_max_bytes` — the paper's
    /// "benefit of using larger block sizes". Thin wrapper over the
    /// plan/apply pipeline with one entry and a serial apply.
    pub fn send_range(
        &mut self,
        owner: NodeId,
        readers: &[NodeId],
        first: usize,
        end: usize,
        bulk: bool,
    ) {
        let plans = self.plan_sends(
            &[SendEntry {
                owner,
                readers: readers.to_vec(),
                first,
                end,
                array: NO_ARRAY,
            }],
            bulk,
        );
        self.apply_plans(&plans, 1);
        self.recycle_plans(plans);
    }

    /// Plan stage for a batch of compiler-directed pushes: records the ctl
    /// events and base charges at each owner, applies fault injection,
    /// groups payloads, and merges the entries into one [`TransferPlan`]
    /// per (owner, reader) pair, in stable (owner, reader) order.
    pub fn plan_sends(&mut self, entries: &[SendEntry], bulk: bool) -> Vec<TransferPlan> {
        use std::collections::BTreeMap;
        let cfg = self.cluster.cfg().clone();
        let mut plans: BTreeMap<(NodeId, NodeId), TransferPlan> = BTreeMap::new();
        for en in entries {
            self.cluster.record(
                en.owner,
                Event::Ctl {
                    prim: CtlPrim::SendRange,
                },
            );
            self.cluster
                .charge(en.owner, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
            // Fault injection (must-catch): an off-by-one section bound —
            // the send delivers one block fewer than `implicit_writable`
            // promised, so the readers' last block is writable over stale
            // data.
            let end = if self.inj_skew_send_range() && en.end > en.first {
                en.end - 1
            } else {
                en.end
            };
            if end <= en.first {
                continue;
            }
            let mut payloads =
                group_payloads(en.first, end, cfg.block_bytes, bulk, cfg.bulk_max_bytes);
            for p in &mut payloads {
                p.array = en.array;
            }
            for &r in &en.readers {
                debug_assert_ne!(r, en.owner);
                // Fault injection (must-catch): a stale owner memo pushes
                // the *home's* copy — which the real owner never flushed —
                // whenever the home is a third party (§4.3 RTOE hazard).
                let src = trans::push_source(
                    en.owner,
                    r,
                    self.cluster.home_of_block(en.first),
                    self.inj_stale_owner_push(),
                );
                let plan = plans
                    .entry((src, r))
                    .or_insert_with(|| self.plan_scratch.take(src, r, PlanOp::Push));
                plan.ranges.push((en.first, end));
                plan.payloads.extend(payloads.iter().copied());
            }
        }
        let mut out = self.plan_scratch.vecs.take();
        out.extend(plans.into_values());
        self.wire_post_plan_frames(&out);
        out
    }

    /// Plan stage for the pending non-owner-write flushes: records the ctl
    /// events and base charges at each writer and merges the entries into
    /// one [`TransferPlan`] per (writer, owner) pair.
    pub fn plan_flushes(&mut self, entries: &[FlushEntry], bulk: bool) -> Vec<TransferPlan> {
        use std::collections::BTreeMap;
        // Fault injection (must-catch): drop the flushes on the floor. The
        // writers' modifications never reach the owners, whose copies go
        // stale — later owner-side sends then push wrong values.
        if self.inj_skip_flush_range() {
            return vec![];
        }
        let cfg = self.cluster.cfg().clone();
        let mut plans: BTreeMap<(NodeId, NodeId), TransferPlan> = BTreeMap::new();
        for en in entries {
            self.cluster.record(
                en.writer,
                Event::Ctl {
                    prim: CtlPrim::FlushRange,
                },
            );
            self.cluster
                .charge(en.writer, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
            if en.end <= en.first {
                continue;
            }
            let mut payloads =
                group_payloads(en.first, en.end, cfg.block_bytes, bulk, cfg.bulk_max_bytes);
            for p in &mut payloads {
                p.array = en.array;
            }
            let plan = plans
                .entry((en.writer, en.owner))
                .or_insert_with(|| self.plan_scratch.take(en.writer, en.owner, PlanOp::Flush));
            plan.ranges.push((en.first, en.end));
            plan.payloads.extend(payloads);
        }
        let mut out = self.plan_scratch.vecs.take();
        out.extend(plans.into_values());
        self.wire_post_plan_frames(&out);
        out
    }

    /// Return a spent plan batch to the scratch pool: the outer vector
    /// and each plan's `ranges`/`payloads` capacity are retained for the
    /// next superstep's planning pass. Purely an allocation optimization
    /// — dropping the batch instead is always correct.
    pub fn recycle_plans(&mut self, mut plans: Vec<TransferPlan>) {
        for mut p in plans.drain(..) {
            if self.plan_scratch.carcasses.len() < PLAN_CARCASS_CAP {
                p.ranges.clear();
                p.payloads.clear();
                self.plan_scratch.carcasses.push(p);
            }
        }
        self.plan_scratch.vecs.put(plans);
    }

    /// Strict wire mode's encode half of the plan/apply pipeline: as soon
    /// as a plan batch is finalized, fill one envelope per payload by
    /// copying out of the source shard (after settling any pending
    /// landing there) and post it to the destination. From this point the
    /// plan no longer needs the source shard — the payload lands from the
    /// decoded frame when apply flushes. No-op on the fast path.
    fn wire_post_plan_frames(&mut self, plans: &[TransferPlan]) {
        if self.wire.is_none() {
            return;
        }
        for plan in plans {
            let ctx = self.cluster.node_trace(plan.src).context();
            for p in &plan.payloads {
                let last = p.start_block + p.n_blocks - 1;
                self.settle_blocks(plan.src, p.start_block, last);
                let (s, _) = self.cluster.block_words(p.start_block);
                let (_, e) = self.cluster.block_words(last);
                let mut words = self.wire.as_mut().unwrap().words_pool.take();
                words.extend(
                    self.cluster.node_mem(plan.src)[s..e]
                        .iter()
                        .map(|x| x.to_bits()),
                );
                let hdr = WireHeader::for_blocks(
                    plan.src,
                    plan.dst,
                    ctx,
                    p.array,
                    p.start_block,
                    p.n_blocks,
                );
                let (start_block, n_blocks) = (p.start_block as u32, p.n_blocks as u32);
                self.wire_post(match plan.op {
                    PlanOp::Push => WireMsg::Push {
                        hdr,
                        start_block,
                        n_blocks,
                        words,
                    },
                    PlanOp::Flush => WireMsg::Flush {
                        hdr,
                        start_block,
                        n_blocks,
                        words,
                    },
                });
            }
        }
    }

    /// Apply stage: execute the plans' pair-local work over disjoint shard
    /// pairs — concurrently with up to `workers` threads where plans share
    /// no node — then fold the staged cross-pair state (ctl inboxes,
    /// directory, third-party home tags) in plan index order. Plans that
    /// share a node are applied in strict plan order (wave scheduling in
    /// [`fgdsm_tempest::Cluster::apply_pairwise`]), so reports and traces
    /// are byte-identical to a serial apply.
    pub fn apply_plans(&mut self, plans: &[TransferPlan], workers: usize) {
        if plans.is_empty() {
            return;
        }
        // Strict wire mode: the plans' frames (and any fault-path frames
        // posted before them) land now, in posting order.
        let landed = self.wire_strict();
        self.wire_flush();
        let cfg = self.cluster.cfg().clone();
        let mut order: Vec<usize> = (0..plans.len()).collect();
        if workers > 1 && self.inj_reorder_plan_apply() {
            // Fault injection (must-catch): a nondeterministic merge —
            // apply the plans in reversed order under a parallel resolve.
            // Computed before the volume threshold so the reversal is not
            // masked by a small transfer falling back to a serial apply.
            order.reverse();
        }
        // Fault injection (must-catch): fold the parallel outcomes rotated
        // out of plan-index order — the bug a worker-pool merge could
        // introduce. Decided before the volume threshold, like the
        // reorder injection, so small transfers don't mask it.
        let misfold = workers > 1 && self.inj_misfold_pool();
        let total_words: usize = plans
            .iter()
            .flat_map(|p| p.payloads.iter())
            .map(|q| q.n_blocks)
            .sum::<usize>()
            * self.cluster.cfg().words_per_block();
        let workers = if total_words < PAR_APPLY_MIN_WORDS {
            1
        } else {
            workers
        };
        let pairs: Vec<(NodeId, NodeId)> = order
            .iter()
            .map(|&i| (plans[i].src, plans[i].dst))
            .collect();
        let order_ref = &order;
        let mut outcomes = self.cluster.apply_pairwise(&pairs, workers, |k, sa, sb| {
            apply_plan(&plans[order_ref[k]], landed, &cfg, sa, sb)
        });
        if misfold && outcomes.len() > 1 {
            outcomes.rotate_left(1);
        }
        for (k, o) in outcomes.into_iter().enumerate() {
            let plan = &plans[order[k]];
            match plan.op {
                PlanOp::Push => {
                    self.inbox_arrival[plan.dst] = self.inbox_arrival[plan.dst].max(o.arrival);
                    self.inbox_payloads[plan.dst] += o.payloads;
                    self.inbox_blocks[plan.dst] += o.blocks;
                }
                PlanOp::Flush => {
                    for &(f, e) in &plan.ranges {
                        for b in f..e {
                            let h = self.cluster.home_of_block(b);
                            let (invalidate_home, next) = trans::flush_fold(plan.src, plan.dst, h);
                            if invalidate_home {
                                self.cluster.set_tag(h, b, Access::Invalid);
                            }
                            self.set_dir(b, next);
                        }
                    }
                }
            }
        }
    }

    /// Block on the counting semaphore until every pushed payload has
    /// arrived and been stored (Figure 2D).
    pub fn ready_to_recv(&mut self, node: NodeId) {
        let cfg = self.cluster.cfg().clone();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ReadyToRecv,
            },
        );
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        let arrival = self.inbox_arrival[node];
        let now = self.cluster.clock_ns(node);
        if arrival > now {
            self.cluster.charge(node, arrival - now, ChargeKind::Stall);
        }
        // Storing the payloads occupies the receiving side; the semaphore
        // holds the compute thread until it completes.
        let work = self.inbox_payloads[node] * cfg.handler_cost(cfg.handler_dispatch_ns)
            + self.inbox_blocks[node] * cfg.handler_cost(cfg.block_copy_ns);
        self.cluster.record(node, Event::Handler { ns: work });
        self.cluster.charge(node, work, ChargeKind::Stall);
        self.inbox_arrival[node] = 0;
        self.inbox_payloads[node] = 0;
        self.inbox_blocks[node] = 0;
    }

    /// Readers discard their (compiler-controlled) copies so the
    /// directory's record — exclusive at the owner — is true again
    /// (Figure 2F).
    pub fn implicit_invalidate(&mut self, node: NodeId, first: usize, end: usize) {
        let cfg = self.cluster.cfg().clone();
        self.cluster.record(
            node,
            Event::Ctl {
                prim: CtlPrim::ImplicitInvalidate,
            },
        );
        self.cluster
            .charge(node, CTL_CALL_BASE_NS, ChargeKind::CtlCall);
        let mut cost = 0;
        for b in first..end {
            self.cluster.set_tag(node, b, Access::Invalid);
            cost += cfg.tag_change_ns;
        }
        self.cluster.charge(node, cost, ChargeKind::CtlCall);
        // Invalidate conflicts with memoized implicit_writable on the same
        // range (the memo would skip re-tagging): drop any overlapping memo.
        self.iw_memo
            .retain(|&(n, f, e)| n != node || e <= first || f >= end);
    }

    /// A non-owner writer flushes its modifications of `[first, end)` back
    /// to the owner and invalidates itself (§4.2, non-owner writes). The
    /// owner ends with the only, current, writable copy and the directory
    /// reflects it. Thin wrapper over the plan/apply pipeline with one
    /// entry and a serial apply.
    pub fn flush_range(
        &mut self,
        writer: NodeId,
        owner: NodeId,
        first: usize,
        end: usize,
        bulk: bool,
    ) {
        let plans = self.plan_flushes(
            &[FlushEntry {
                writer,
                owner,
                first,
                end,
                array: NO_ARRAY,
            }],
            bulk,
        );
        self.apply_plans(&plans, 1);
        self.recycle_plans(plans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout};

    fn dsm(nprocs: usize) -> Dsm {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(8192);
        Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
    }

    #[test]
    fn payload_grouping_bulk_vs_single() {
        let single = group_payloads(0, 10, 128, false, 4096);
        assert_eq!(single.len(), 10);
        assert!(single.iter().all(|p| p.n_blocks == 1));
        let bulk = group_payloads(0, 10, 128, true, 4096); // 32 blocks per payload
        assert_eq!(bulk.len(), 1);
        assert_eq!(bulk[0].n_blocks, 10);
        let bulk2 = group_payloads(0, 70, 128, true, 4096);
        assert_eq!(bulk2.len(), 3);
        assert_eq!(bulk2.iter().map(|p| p.n_blocks).sum::<usize>(), 70);
        assert!(group_payloads(5, 5, 128, true, 4096).is_empty());
    }

    #[test]
    fn full_contract_moves_data_without_misses() {
        let mut d = dsm(2);
        // Owner = node 1 for blocks 0..4 (home = node 0 for page 0).
        d.mk_writable(1, 0, 4);
        d.release_barrier();
        d.implicit_writable(0, 0, 4, false);
        d.release_barrier();
        // Owner computes and pushes.
        for w in 0..64 {
            d.cluster.node_mem_mut(1)[w] = w as f64;
        }
        d.send_range(1, &[0], 0, 4, true);
        d.ready_to_recv(0);
        // Reader sees the data fault-free.
        assert_eq!(d.cluster.node_mem(0)[63], 63.0);
        assert_eq!(d.cluster.stats(0).read_misses, 0);
        assert_eq!(d.cluster.stats(0).write_misses, 0);
        // Cleanup: invalidate readers, barrier → consistent.
        d.implicit_invalidate(0, 0, 4);
        d.release_barrier();
        d.check_consistency().unwrap();
        assert!(d.dir_state(0).is_excl_by(1));
    }

    #[test]
    fn mk_writable_takes_exclusive_ownership() {
        let mut d = dsm(4);
        // Home of block 0 is node 0; a third node has read it.
        d.read_access(2, 0);
        d.mk_writable(1, 0, 2);
        assert!(d.dir_state(0).is_excl_by(1));
        assert!(d.dir_state(1).is_excl_by(1));
        assert_eq!(d.cluster.tag(2, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadWrite);
        // Not counted as misses.
        assert_eq!(d.cluster.stats(1).write_misses, 0);
        assert_eq!(d.cluster.stats(1).mk_writable_calls, 1);
    }

    #[test]
    fn mk_writable_idempotent_and_cheap_second_time() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 8);
        let t = d.cluster.clock_ns(1);
        d.mk_writable(1, 0, 8);
        let dt = d.cluster.clock_ns(1) - t;
        assert!(
            dt <= CTL_CALL_BASE_NS,
            "second call should skip all blocks, cost {dt}"
        );
    }

    #[test]
    fn implicit_writable_memo_fast_path() {
        let mut d = dsm(2);
        assert!(d.implicit_writable(0, 0, 8, true));
        let t = d.cluster.clock_ns(0);
        assert!(!d.implicit_writable(0, 0, 8, true));
        assert_eq!(d.cluster.clock_ns(0) - t, MEMO_TEST_NS);
        // Different range: full path again.
        assert!(d.implicit_writable(0, 8, 16, true));
    }

    #[test]
    fn implicit_invalidate_clears_memo() {
        let mut d = dsm(2);
        d.implicit_writable(0, 0, 8, true);
        d.implicit_invalidate(0, 0, 8);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        // Memo dropped → next call re-tags.
        assert!(d.implicit_writable(0, 0, 8, true));
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
    }

    #[test]
    fn bulk_transfer_sends_fewer_messages() {
        let mut d1 = dsm(2);
        let mut d2 = dsm(2);
        for d in [&mut d1, &mut d2] {
            d.mk_writable(1, 0, 32);
            d.implicit_writable(0, 0, 32, false);
        }
        d1.send_range(1, &[0], 0, 32, false);
        d2.send_range(1, &[0], 0, 32, true);
        let m1 = d1.cluster.stats(1).msgs_sent;
        let m2 = d2.cluster.stats(1).msgs_sent;
        assert!(m2 < m1, "bulk {m2} should be fewer than per-block {m1}");
        // Same bytes of payload either way.
        d1.ready_to_recv(0);
        d2.ready_to_recv(0);
        assert!(
            d2.cluster.clock_ns(0) < d1.cluster.clock_ns(0),
            "bulk transfer should complete sooner"
        );
    }

    #[test]
    fn flush_range_returns_data_to_owner() {
        let mut d = dsm(2);
        // Owner node 0 (also home); writer node 1 modifies blocks 0..2.
        d.mk_writable(0, 0, 2);
        d.implicit_writable(1, 0, 2, false);
        d.cluster.node_mem_mut(1)[5] = 5.5;
        d.flush_range(1, 0, 0, 2, true);
        assert_eq!(d.cluster.node_mem(0)[5], 5.5);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
        assert!(d.dir_state(0).is_excl_by(0));
        d.release_barrier();
        d.check_consistency().unwrap();
    }

    #[test]
    fn ready_to_recv_waits_for_arrival() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 16);
        d.implicit_writable(0, 0, 16, false);
        // Node 0's clock is far behind node 1's by now? Equalize first.
        d.release_barrier();
        d.send_range(1, &[0], 0, 16, true);
        let before = d.cluster.clock_ns(0);
        d.ready_to_recv(0);
        assert!(d.cluster.clock_ns(0) > before);
        assert!(d.cluster.stats(0).stall_ns > 0);
    }

    /// Expand a plan's payloads into the flat block list they deliver.
    fn payload_blocks(p: &TransferPlan) -> Vec<usize> {
        p.payloads
            .iter()
            .flat_map(|q| q.start_block..q.start_block + q.n_blocks)
            .collect()
    }

    /// An empty range is pure bookkeeping: the call-site event and base
    /// charge land at the owner, but no plan (and no data movement) is
    /// emitted — exactly what the direct path did.
    #[test]
    fn plan_sends_empty_range_is_bookkeeping_only() {
        let mut d = dsm(2);
        let t0 = d.cluster.clock_ns(1);
        let plans = d.plan_sends(
            &[SendEntry {
                owner: 1,
                readers: vec![0],
                first: 4,
                end: 4,
                array: NO_ARRAY,
            }],
            true,
        );
        assert!(plans.is_empty(), "empty range must plan nothing");
        assert_eq!(d.cluster.stats(1).send_range_calls, 1);
        assert_eq!(d.cluster.clock_ns(1) - t0, CTL_CALL_BASE_NS);
        d.apply_plans(&plans, 4); // no-op, must not panic or charge
        assert_eq!(d.cluster.clock_ns(1) - t0, CTL_CALL_BASE_NS);
    }

    /// A one-block range becomes one plan per reader carrying exactly that
    /// block.
    #[test]
    fn plan_sends_one_block() {
        let mut d = dsm(3);
        let plans = d.plan_sends(
            &[SendEntry {
                owner: 0,
                readers: vec![2, 1],
                first: 7,
                end: 8,
                array: NO_ARRAY,
            }],
            false,
        );
        assert_eq!(plans.len(), 2);
        // Stable (src, dst) order regardless of the readers' order.
        assert_eq!((plans[0].src, plans[0].dst), (0, 1));
        assert_eq!((plans[1].src, plans[1].dst), (0, 2));
        for p in &plans {
            assert_eq!(p.op, PlanOp::Push);
            assert_eq!(p.ranges, vec![(7, 8)]);
            assert_eq!(payload_blocks(p), vec![7]);
        }
    }

    /// A range crossing a page boundary still tiles exactly `[first, end)`
    /// — payload grouping is in block space and never splits or pads at
    /// page edges.
    #[test]
    fn plan_sends_cross_page_range() {
        let mut d = dsm(2);
        let blocks_per_page = d.cluster.words_per_page() / d.cluster.words_per_block();
        let (f, e) = (blocks_per_page - 2, blocks_per_page + 3);
        assert_ne!(
            d.cluster.home_of_block(f),
            d.cluster.home_of_block(e - 1),
            "range must actually span two differently-homed pages"
        );
        for bulk in [false, true] {
            let plans = d.plan_sends(
                &[SendEntry {
                    owner: 1,
                    readers: vec![0],
                    first: f,
                    end: e,
                    array: NO_ARRAY,
                }],
                bulk,
            );
            assert_eq!(plans.len(), 1);
            assert_eq!(payload_blocks(&plans[0]), (f..e).collect::<Vec<_>>());
        }
    }

    /// Multi-entry, multi-reader: the plans partition exactly the blocks
    /// the direct path (one `send_range` per entry) would have pushed —
    /// per (owner, reader) pair, the payload blocks are the concatenation
    /// of that pair's entry ranges, in entry order, nothing more or less.
    #[test]
    fn plans_partition_direct_path_blocks() {
        use std::collections::BTreeMap;
        let mut d = dsm(4);
        let entries = [
            SendEntry {
                owner: 1,
                readers: vec![0, 2],
                first: 0,
                end: 5,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 3,
                readers: vec![0],
                first: 10,
                end: 11,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 1,
                readers: vec![2],
                first: 3, // overlaps the first entry: re-pushed, like the direct path
                end: 9,
                array: NO_ARRAY,
            },
        ];
        let plans = d.plan_sends(&entries, true);
        let mut expect: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for en in &entries {
            for &r in &en.readers {
                expect
                    .entry((en.owner, r))
                    .or_default()
                    .extend(en.first..en.end);
            }
        }
        assert_eq!(plans.len(), expect.len());
        for p in &plans {
            assert_eq!(
                payload_blocks(p),
                expect[&(p.src, p.dst)],
                "plan {} -> {} must carry exactly the direct path's blocks",
                p.src,
                p.dst
            );
        }
    }

    /// Batched plan/apply is observably identical to the direct per-entry
    /// `send_range` path: same clocks, same stats, same memory, and the
    /// same `ready_to_recv` stall at every reader.
    #[test]
    fn batched_plan_apply_matches_direct_send_range() {
        let entries = [
            SendEntry {
                owner: 1,
                readers: vec![0, 2],
                first: 0,
                end: 12,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 3,
                readers: vec![2],
                first: 16,
                end: 40,
                array: NO_ARRAY,
            },
        ];
        let mut direct = dsm(4);
        let mut batched = dsm(4);
        for d in [&mut direct, &mut batched] {
            for w in 0..1024 {
                d.cluster.node_mem_mut(w % 4)[w] = w as f64 + 0.5;
            }
        }
        for en in &entries {
            direct.send_range(en.owner, &en.readers, en.first, en.end, true);
        }
        let plans = batched.plan_sends(&entries, true);
        batched.apply_plans(&plans, 1);
        for n in [0, 2] {
            direct.ready_to_recv(n);
            batched.ready_to_recv(n);
        }
        for n in 0..4 {
            assert_eq!(
                direct.cluster.clock_ns(n),
                batched.cluster.clock_ns(n),
                "clock of node {n}"
            );
            assert_eq!(
                direct.cluster.stats(n),
                batched.cluster.stats(n),
                "stats of node {n}"
            );
            assert_eq!(
                direct.cluster.node_mem(n),
                batched.cluster.node_mem(n),
                "memory of node {n}"
            );
        }
    }

    /// Above the volume threshold, a threaded apply must stay byte-
    /// identical to the serial apply — clocks, stats, memory, and trace.
    #[test]
    fn apply_plans_threaded_matches_serial() {
        let entries = [
            SendEntry {
                owner: 0,
                readers: vec![1],
                first: 0,
                end: 160,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 2,
                readers: vec![3],
                first: 200,
                end: 360,
                array: NO_ARRAY,
            },
            SendEntry {
                owner: 0,
                readers: vec![1], // merges into the (0, 1) plan: two ranges
                first: 400,
                end: 410,
                array: NO_ARRAY,
            },
        ];
        let run = |workers: usize| {
            let mut d = dsm(4);
            let wpb = d.cluster.words_per_block();
            assert!(
                330 * wpb >= PAR_APPLY_MIN_WORDS,
                "volume must clear the serial-apply threshold"
            );
            for w in 0..8192 {
                d.cluster.node_mem_mut(w % 4)[w] = w as f64 * 1.5;
            }
            let plans = d.plan_sends(&entries, true);
            assert_eq!(plans.len(), 2, "the (0, 1) entries must merge");
            assert_eq!(plans[0].ranges.len(), 2);
            d.apply_plans(&plans, workers);
            d.ready_to_recv(1);
            d.ready_to_recv(3);
            d
        };
        let serial = run(1);
        let threaded = run(4);
        for n in 0..4 {
            assert_eq!(
                serial.cluster.clock_ns(n),
                threaded.cluster.clock_ns(n),
                "clock of node {n}"
            );
            assert_eq!(
                serial.cluster.stats(n),
                threaded.cluster.stats(n),
                "stats of node {n}"
            );
            assert_eq!(
                serial.cluster.node_mem(n),
                threaded.cluster.node_mem(n),
                "memory of node {n}"
            );
        }
        assert_eq!(serial.cluster.trace_json(), threaded.cluster.trace_json());
    }

    /// Flush plans partition the flushed blocks the same way, and an empty
    /// flush entry plans nothing.
    #[test]
    fn plan_flushes_partition_and_edge_cases() {
        let mut d = dsm(3);
        let entries = [
            FlushEntry {
                writer: 1,
                owner: 0,
                first: 0,
                end: 4,
                array: NO_ARRAY,
            },
            FlushEntry {
                writer: 1,
                owner: 0,
                first: 6,
                end: 6, // empty: bookkeeping only
                array: NO_ARRAY,
            },
            FlushEntry {
                writer: 2,
                owner: 0,
                first: 8,
                end: 9,
                array: NO_ARRAY,
            },
        ];
        let plans = d.plan_flushes(&entries, true);
        assert_eq!(plans.len(), 2);
        assert_eq!((plans[0].src, plans[0].dst), (1, 0));
        assert_eq!(plans[0].op, PlanOp::Flush);
        assert_eq!(payload_blocks(&plans[0]), vec![0, 1, 2, 3]);
        assert_eq!((plans[1].src, plans[1].dst), (2, 0));
        assert_eq!(payload_blocks(&plans[1]), vec![8]);
        // The empty entry still paid its call-site bookkeeping.
        assert_eq!(d.cluster.stats(1).flush_range_calls, 2);
    }

    #[test]
    fn ctl_stats_aggregate() {
        let mut d = dsm(2);
        d.mk_writable(1, 0, 4);
        d.implicit_writable(0, 0, 4, false);
        d.send_range(1, &[0], 0, 4, true);
        d.ready_to_recv(0);
        d.implicit_invalidate(0, 0, 4);
        let s = d.ctl_stats();
        assert_eq!(s.mk_writable, 1);
        assert_eq!(s.implicit_writable, 1);
        assert_eq!(s.send_range, 1);
        assert_eq!(s.ready_recv, 1);
        assert_eq!(s.implicit_invalidate, 1);
        assert_eq!(s.blocks_pushed, 4);
    }
}
