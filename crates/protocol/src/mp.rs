//! The message-passing backend: PGI's message-passing run-time ported to
//! Tempest messages (§5–§6).
//!
//! The paper compares its shared-memory versions against `pghpf`'s
//! message-passing backend running over Tempest's messaging layer, and
//! observes that message passing wins only on `lu` — elsewhere it runs
//! *slower* than the dual-cpu shared-memory versions, "particularly so in
//! cg", which the authors attribute to per-message bottlenecks in the
//! PGI messaging run-time. This module models exactly that: transfers move
//! real data between node copies with no coherence state at all, paying a
//! fixed per-message software overhead (`mp_per_message_ns`) plus a
//! per-element marshalling cost (`mp_per_element_ns`) on each side.

use crate::proto::Dsm;
use crate::wire::{WireHeader, WireMsg};
use fgdsm_tempest::{ChargeKind, Cluster, Event, NodeId, ReduceOp, NO_ARRAY, NO_BLOCK};

/// A planned batch of strided sends from one source to one destination —
/// the message-passing analogue of [`crate::ctl::TransferPlan`], applied
/// by [`MpRuntime::apply_send_plans`].
#[derive(Clone, Debug)]
pub struct MpSendPlan {
    pub src: NodeId,
    pub dst: NodeId,
    /// `(base, run_len, stride, count)` sections in call-site order.
    pub sections: Vec<(usize, usize, usize, usize)>,
}

/// Runtime state of the message-passing backend: per-node inbox arrival
/// times and pending unpack work.
pub struct MpRuntime {
    inbox_arrival: Vec<u64>,
    inbox_msgs: Vec<u64>,
    inbox_elems: Vec<u64>,
    /// Bytes delivered pre-packed (broadcast images): receivers only pay
    /// a contiguous copy, not per-element unmarshalling.
    inbox_bulk_bytes: Vec<u64>,
    /// Free lists for [`MpSendPlan`] batches, recycled across supersteps
    /// by [`MpRuntime::recycle_send_plans`] (capacity-retaining, like the
    /// ctl backend's plan scratch).
    plan_carcasses: Vec<MpSendPlan>,
    plan_vecs: fgdsm_tempest::VecPool<MpSendPlan>,
}

/// Most plan carcasses the runtime retains (see `PLAN_CARCASS_CAP` in
/// `ctl`): bounds scratch memory under pathological plan counts.
const MP_PLAN_CARCASS_CAP: usize = 128;

impl MpRuntime {
    /// Create the runtime for an `nprocs`-node cluster.
    pub fn new(nprocs: usize) -> Self {
        MpRuntime {
            inbox_arrival: vec![0; nprocs],
            inbox_msgs: vec![0; nprocs],
            inbox_elems: vec![0; nprocs],
            inbox_bulk_bytes: vec![0; nprocs],
            plan_carcasses: Vec::new(),
            plan_vecs: fgdsm_tempest::VecPool::default(),
        }
    }

    /// An empty [`MpSendPlan`] for `(src, dst)` — recycled with warm
    /// `sections` capacity when a carcass is available.
    pub fn take_send_plan(&mut self, src: NodeId, dst: NodeId) -> MpSendPlan {
        match self.plan_carcasses.pop() {
            Some(mut p) => {
                p.src = src;
                p.dst = dst;
                p
            }
            None => MpSendPlan {
                src,
                dst,
                sections: vec![],
            },
        }
    }

    /// An empty plan vector recycled from the scratch pool.
    pub fn take_send_plan_vec(&mut self) -> Vec<MpSendPlan> {
        self.plan_vecs.take()
    }

    /// Return a spent plan batch to the scratch pool (outer vector and
    /// each plan's `sections` capacity retained). Purely an allocation
    /// optimization — dropping the batch is always correct.
    pub fn recycle_send_plans(&mut self, mut plans: Vec<MpSendPlan>) {
        for mut p in plans.drain(..) {
            if self.plan_carcasses.len() < MP_PLAN_CARCASS_CAP {
                p.sections.clear();
                self.plan_carcasses.push(p);
            }
        }
        self.plan_vecs.put(plans);
    }

    /// Send `len` words starting at word offset `start` from `src`'s copy
    /// to `dst`'s copy, as one marshalled message.
    pub fn send(&mut self, cl: &mut Cluster, src: NodeId, dst: NodeId, start: usize, len: usize) {
        assert_ne!(src, dst);
        let cfg = cl.cfg().clone();
        let bytes = len * 8;
        // Sender: runtime overhead + pack + inject + wire occupancy.
        let cost = cfg.mp_per_message_ns
            + len as u64 * cfg.mp_per_element_ns
            + cfg.msg_send_ns
            + bytes as u64 * cfg.per_byte_ns;
        cl.charge(src, cost, ChargeKind::Stall);
        cl.note_msg_at(src, dst, bytes, start / cfg.words_per_block());
        cl.copy_words(src, dst, start, len);
        cl.map_range(dst, start, len);
        let arrival = cl.clock_ns(src) + cfg.net_latency_ns;
        self.inbox_arrival[dst] = self.inbox_arrival[dst].max(arrival);
        self.inbox_msgs[dst] += 1;
        self.inbox_elems[dst] += len as u64;
    }

    /// Send a strided region as `count` runs of `run_len` words separated
    /// by `stride` — marshalled into a single message (the MP runtime
    /// packs non-contiguous sections).
    #[allow(clippy::too_many_arguments)]
    pub fn send_strided(
        &mut self,
        cl: &mut Cluster,
        src: NodeId,
        dst: NodeId,
        base: usize,
        run_len: usize,
        stride: usize,
        count: usize,
    ) {
        assert_ne!(src, dst);
        let cfg = cl.cfg().clone();
        let elems = run_len * count;
        let bytes = elems * 8;
        // The ported runtime issues one message per contiguous run of the
        // section, paying its software overhead each time — cheap for
        // whole-column ghosts, expensive for the pencil-shaped 3-D
        // sections of pde.
        let cost = count as u64 * (cfg.mp_per_message_ns + cfg.msg_send_ns)
            + elems as u64 * cfg.mp_per_element_ns
            + bytes as u64 * cfg.per_byte_ns;
        cl.charge(src, cost, ChargeKind::Stall);
        for i in 0..count {
            let s = base + i * stride;
            cl.note_msg_at(src, dst, run_len * 8, s / cfg.words_per_block());
            cl.copy_words(src, dst, s, run_len);
            cl.map_range(dst, s, run_len);
        }
        let arrival = cl.clock_ns(src) + cfg.net_latency_ns;
        self.inbox_arrival[dst] = self.inbox_arrival[dst].max(arrival);
        self.inbox_msgs[dst] += count as u64;
        self.inbox_elems[dst] += elems as u64;
    }

    /// Apply a batch of planned strided sends — the message-passing
    /// analogue of [`crate::ctl::TransferPlan`]. Node-disjoint plans run
    /// concurrently over disjoint shard pairs (see
    /// [`Cluster::apply_pairwise`]); inbox state folds in plan index
    /// order, so the result is byte-identical to calling
    /// [`MpRuntime::send_strided`] per section in plan order.
    ///
    /// In strict wire mode each section is posted as a
    /// [`WireMsg::Strided`] envelope, and the flush that follows lands
    /// every one from its decoded payload before the apply runs — same
    /// charges, same counters, bit-identical data.
    pub fn apply_send_plans(&mut self, d: &mut Dsm, plans: &[MpSendPlan], workers: usize) {
        if plans.is_empty() {
            return;
        }
        let landed = mp_wire_post(d, plans);
        d.wire_flush();
        let cl = &mut d.cluster;
        let cfg = cl.cfg().clone();
        let total_elems: usize = plans
            .iter()
            .flat_map(|p| p.sections.iter())
            .map(|&(_, run_len, _, count)| run_len * count)
            .sum();
        let workers = if total_elems < crate::ctl::PAR_APPLY_MIN_WORDS {
            1
        } else {
            workers
        };
        let pairs: Vec<(NodeId, NodeId)> = plans.iter().map(|p| (p.src, p.dst)).collect();
        let outcomes = cl.apply_pairwise(&pairs, workers, |k, src, dst| {
            let plan = &plans[k];
            let (mut arrival, mut msgs, mut elems_total) = (0u64, 0u64, 0u64);
            for &(base, run_len, stride, count) in &plan.sections {
                let elems = run_len * count;
                let bytes = elems * 8;
                // Same accounting as `send_strided`: one message per
                // contiguous run, per-element marshalling, wire occupancy.
                let cost = count as u64 * (cfg.mp_per_message_ns + cfg.msg_send_ns)
                    + elems as u64 * cfg.mp_per_element_ns
                    + bytes as u64 * cfg.per_byte_ns;
                src.charge(cost, ChargeKind::Stall);
                for i in 0..count {
                    let s = base + i * stride;
                    src.note_msg_at(run_len * 8, src.block_of(s));
                    dst.note_msg_recv(run_len * 8);
                    if !landed {
                        dst.mem_mut()[s..s + run_len].copy_from_slice(&src.mem()[s..s + run_len]);
                    }
                    dst.map_range(s, run_len);
                }
                arrival = arrival.max(src.clock_ns() + cfg.net_latency_ns);
                msgs += count as u64;
                elems_total += elems as u64;
            }
            (arrival, msgs, elems_total)
        });
        for (k, (arrival, msgs, elems)) in outcomes.into_iter().enumerate() {
            let dst = plans[k].dst;
            self.inbox_arrival[dst] = self.inbox_arrival[dst].max(arrival);
            self.inbox_msgs[dst] += msgs;
            self.inbox_elems[dst] += elems;
        }
    }

    /// Broadcast a strided region from `src` to several receivers through
    /// the runtime's combining tree (the path `pghpf` uses for `lu`'s
    /// pivot-column broadcast): the section is packed once and forwarded
    /// along a log₂-depth tree, so the sender's occupancy does not grow
    /// with the receiver count.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast(
        &mut self,
        d: &mut Dsm,
        src: NodeId,
        dsts: &[NodeId],
        base: usize,
        run_len: usize,
        stride: usize,
        count: usize,
    ) {
        let cfg = d.cluster.cfg().clone();
        let elems = run_len * count;
        let bytes = elems * 8;
        // Sender: one runtime call, one *contiguous* pack (the collective
        // primitives are hand-optimized low-level code, unlike the generic
        // per-element section marshalling), one injection.
        let cost = cfg.mp_per_message_ns
            + 2 * bytes as u64 * cfg.per_byte_ns // memcpy + wire occupancy
            + cfg.msg_send_ns;
        d.cluster.charge(src, cost, ChargeKind::Stall);
        let depth = (usize::BITS - dsts.len().leading_zeros()) as u64; // ⌈log₂(n+1)⌉
        let arrival = d.cluster.clock_ns(src)
            + depth
                * (cfg.net_latency_ns + cfg.handler_dispatch_ns + bytes as u64 * cfg.per_byte_ns);
        for &dst in dsts {
            debug_assert_ne!(dst, src);
            // Star accounting: the payload reaches every receiver, so one
            // logical message per destination keeps the cluster-wide
            // sent/received counters balanced (time is still tree-shaped).
            d.cluster.note_msg(src, dst, bytes);
            if d.wire_strict() {
                // One forwarded image per receiver: the packed section
                // rides a Strided envelope and lands from the decoded
                // payload at the next flush.
                let msg = strided_msg(d, src, dst, (base, run_len, stride, count));
                d.wire_post(msg);
                for i in 0..count {
                    d.cluster.map_range(dst, base + i * stride, run_len);
                }
            } else {
                for i in 0..count {
                    let s = base + i * stride;
                    d.cluster.copy_words(src, dst, s, run_len);
                    d.cluster.map_range(dst, s, run_len);
                }
            }
            self.inbox_arrival[dst] = self.inbox_arrival[dst].max(arrival);
            self.inbox_msgs[dst] += 1;
            self.inbox_bulk_bytes[dst] += bytes as u64;
        }
    }

    /// Block until all messages addressed to `node` have arrived, then pay
    /// the unpack cost.
    pub fn recv_all(&mut self, cl: &mut Cluster, node: NodeId) {
        let cfg = cl.cfg().clone();
        let now = cl.clock_ns(node);
        if self.inbox_arrival[node] > now {
            cl.charge(node, self.inbox_arrival[node] - now, ChargeKind::Stall);
        }
        let unpack = self.inbox_msgs[node] * cfg.handler_dispatch_ns
            + self.inbox_elems[node] * cfg.mp_per_element_ns
            + self.inbox_bulk_bytes[node] * cfg.per_byte_ns;
        cl.charge(node, unpack, ChargeKind::Stall);
        self.inbox_arrival[node] = 0;
        self.inbox_msgs[node] = 0;
        self.inbox_elems[node] = 0;
        self.inbox_bulk_bytes[node] = 0;
    }

    /// All-reduce through the MP runtime: a *linear* gather-and-broadcast
    /// (P−1 rounds) where every message pays the runtime's per-message
    /// overhead — the cost that makes `cg` "particularly" slower under
    /// message passing in the paper (§6).
    pub fn allreduce(&mut self, cl: &mut Cluster, partials: &[f64], op: ReduceOp) -> f64 {
        let cfg = cl.cfg().clone();
        let nprocs = cl.nprocs();
        assert_eq!(partials.len(), nprocs);
        let rounds = nprocs as u64 - 1;
        let per_round = cfg.mp_per_message_ns
            + cfg.msg_send_ns
            + cfg.net_latency_ns
            + 8 * cfg.per_byte_ns
            + cfg.handler_dispatch_ns;
        for n in 0..nprocs {
            cl.charge(n, rounds * per_round, ChargeKind::Stall);
            cl.record(n, Event::Reduction);
            // Every node both sends and receives one 8-byte partial per
            // round; recording both sides keeps the traffic counters
            // balanced.
            for _ in 0..rounds {
                cl.record(
                    n,
                    Event::Msg {
                        bytes: 8,
                        block: NO_BLOCK,
                    },
                );
                cl.record(n, Event::MsgRecv { bytes: 8 });
            }
        }
        // Globally synchronizing, like the shared-memory reduction.
        let max = (0..nprocs).map(|n| cl.clock_ns(n)).max().unwrap_or(0);
        for n in 0..nprocs {
            let wait = max - cl.clock_ns(n);
            if wait > 0 {
                cl.charge(n, wait, ChargeKind::Stall);
            }
        }
        match op {
            ReduceOp::Sum => partials.iter().sum(),
            ReduceOp::Max => partials.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ReduceOp::Min => partials.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// Pack one strided section of `src`'s memory into a
/// [`WireMsg::Strided`] envelope addressed to `dst`, settling any pending
/// landing on the runs first (the hazard rule).
fn strided_msg(
    d: &mut Dsm,
    src: NodeId,
    dst: NodeId,
    (base, run_len, stride, count): (usize, usize, usize, usize),
) -> WireMsg {
    for i in 0..count {
        d.wire_settle(src, base + i * stride, run_len);
    }
    let ctx = d.cluster.node_trace(src).context();
    let b0 = d.cluster.block_of(base);
    let hdr = WireHeader::for_blocks(src, dst, ctx, NO_ARRAY, b0, 1);
    let mut words = d.wire.as_mut().unwrap().words_pool.take();
    let mem = d.cluster.node_mem(src);
    for i in 0..count {
        let s = base + i * stride;
        words.extend(mem[s..s + run_len].iter().map(|x| x.to_bits()));
    }
    WireMsg::Strided {
        hdr,
        base: base as u64,
        run_len: run_len as u32,
        stride: stride as u64,
        count: count as u32,
        words,
    }
}

/// Strict wire mode's encode stage for the message-passing backend: post
/// each plan section as a [`WireMsg::Strided`] envelope, payload copied
/// out of the source shard now. Returns whether anything was posted
/// (`false` on the fast path). Mirrors the ctl pipeline's plan-time
/// encode.
fn mp_wire_post(d: &mut Dsm, plans: &[MpSendPlan]) -> bool {
    if !d.wire_strict() {
        return false;
    }
    for plan in plans {
        for &section in &plan.sections {
            let msg = strided_msg(d, plan.src, plan.dst, section);
            d.wire_post(msg);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{CostModel, HomePolicy, SegmentLayout};

    fn cluster(n: usize) -> Cluster {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Cluster::new(n, cfg, &layout, HomePolicy::RoundRobin)
    }

    #[test]
    fn send_recv_moves_data_and_charges_overhead() {
        let mut cl = cluster(2);
        let mut mp = MpRuntime::new(2);
        cl.node_mem_mut(0)[100] = 3.25;
        mp.send(&mut cl, 0, 1, 96, 16);
        mp.recv_all(&mut cl, 1);
        assert_eq!(cl.node_mem(1)[100], 3.25);
        // Sender paid at least the per-message software overhead.
        assert!(cl.stats(0).stall_ns >= cl.cfg().mp_per_message_ns);
        assert!(cl.stats(1).stall_ns > 0);
        assert_eq!(cl.stats(0).msgs_sent, 1);
    }

    #[test]
    fn strided_send_one_message_per_run() {
        let mut cl = cluster(2);
        let mut mp = MpRuntime::new(2);
        cl.node_mem_mut(0)[10] = 1.0;
        cl.node_mem_mut(0)[42] = 2.0;
        mp.send_strided(&mut cl, 0, 1, 10, 1, 32, 2);
        mp.recv_all(&mut cl, 1);
        assert_eq!(cl.node_mem(1)[10], 1.0);
        assert_eq!(cl.node_mem(1)[42], 2.0);
        // The runtime transmits each contiguous run separately, paying its
        // per-message overhead twice.
        assert_eq!(cl.stats(0).msgs_sent, 2);
        assert!(cl.stats(0).stall_ns >= 2 * cl.cfg().mp_per_message_ns);
    }

    #[test]
    fn broadcast_reaches_all_with_single_pack() {
        let mut d = Dsm::new(cluster(4));
        let mut mp = MpRuntime::new(4);
        d.cluster.node_mem_mut(0)[5] = 9.0;
        mp.broadcast(&mut d, 0, &[1, 2, 3], 0, 16, 1, 1);
        for n in 1..4 {
            mp.recv_all(&mut d.cluster, n);
            assert_eq!(d.cluster.node_mem(n)[5], 9.0);
        }
        // Sender pays the runtime overhead once, not once per receiver.
        assert!(d.cluster.stats(0).stall_ns < 2 * d.cluster.cfg().mp_per_message_ns);
    }

    #[test]
    fn mp_reduction_slower_than_sm_reduction() {
        // The PGI runtime's per-message overhead makes MP reductions more
        // expensive than the shared-memory low-level-message reduction.
        let mut cl_sm = cluster(4);
        let mut cl_mp = cluster(4);
        let mut mp = MpRuntime::new(4);
        let v1 = cl_sm.allreduce(&[1.0, 2.0, 3.0, 4.0], ReduceOp::Sum);
        let v2 = mp.allreduce(&mut cl_mp, &[1.0, 2.0, 3.0, 4.0], ReduceOp::Sum);
        assert_eq!(v1, v2);
        assert!(cl_mp.clock_ns(0) > cl_sm.clock_ns(0));
    }

    #[test]
    fn recv_resets_inbox() {
        let mut cl = cluster(2);
        let mut mp = MpRuntime::new(2);
        mp.send(&mut cl, 0, 1, 0, 8);
        mp.recv_all(&mut cl, 1);
        let t = cl.clock_ns(1);
        mp.recv_all(&mut cl, 1);
        // Second recv with empty inbox: no stall.
        assert_eq!(cl.clock_ns(1), t);
    }
}
