//! The DSM facade and the [`Protocol`] plug-in interface.
//!
//! [`Dsm`] owns the Tempest cluster, the block directory, and the
//! protocol-neutral machinery every coherence protocol builds on (twins,
//! word diffs, home transfers). The *policy* — what happens on a fault and
//! at a release — lives behind the [`Protocol`] trait: the paper's
//! directory-based eager-invalidate multiple-writer release consistency
//! ([`crate::eager::EagerInvalidate`], §3/§5) and the §3 aside's
//! write-update alternative ([`crate::update::WriteUpdate`]) are the two
//! built-in implementations, and third-party protocols can plug in through
//! [`Dsm::with_protocol_impl`] using the same public building blocks.

use crate::dir::DirState;
use crate::eager::EagerInvalidate;
use crate::update::WriteUpdate;
use crate::wire::{reconcile_stats, Batch, WireHeader, WireMsg, WireTransport};
use fgdsm_tempest::metrics::{class_name, MetricsRegistry, WireSpan};
use fgdsm_tempest::{Access, Cluster, Mailbox, NodeId, VecPool, NO_ARRAY};
use std::collections::{BTreeMap, BTreeSet};

/// Which built-in default coherence protocol the DSM runs.
///
/// The paper's system uses eager-invalidate multiple-writer release
/// consistency; §3 notes that "general update-based protocols have
/// analogous problems" — [`ProtocolKind::WriteUpdate`] lets the benchmarks
/// quantify that: copies stay valid (no re-fetch misses), but every
/// release propagates each writer's dirty words to *every* sharer,
/// whether or not it will read them again.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProtocolKind {
    /// Directory-based eager-invalidate MW release consistency (paper §5).
    #[default]
    EagerInvalidate,
    /// Write-update: writers keep sharers' copies current at each release.
    WriteUpdate,
}

/// A pluggable default coherence protocol.
///
/// Implementations receive the [`Dsm`] (cluster + directory + twin
/// machinery) and decide how faults are serviced and what a release point
/// does. The executor never sees this trait — it calls the [`Dsm`] facade
/// methods, which dispatch here.
pub trait Protocol {
    /// Short protocol name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Whether the §4.2 compiler-directed control contract (`mk_writable`
    /// / `implicit_writable` / `send_range` / …) is sound on top of this
    /// protocol. The optimized executor refuses `OptLevel::ctl` otherwise.
    fn supports_ctl(&self) -> bool;

    /// Service a read fault: bring block `b` to at least `ReadOnly` at
    /// `p`. Only called when `p` has no valid copy.
    fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// Service a write fault where `p` is the interval's only writer of
    /// the block.
    fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// Service a write fault on a block written by *multiple* nodes in
    /// the same interval (false sharing at column boundaries, §4.1).
    fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize);

    /// Release point: propagate/merge interval writes. The facade runs
    /// the global barrier afterwards.
    fn release(&mut self, d: &mut Dsm);

    /// Verify protocol invariants (directory vs. tags vs. data); called
    /// by tests after barriers.
    fn check(&self, d: &Dsm) -> Result<(), String>;
}

/// A fine-grain DSM: the Tempest cluster plus the block directory, the
/// protocol-neutral twin/diff machinery, and the compiler-control runtime
/// state — with the coherence *policy* behind a [`Protocol`] object.
pub struct Dsm {
    /// The underlying simulated cluster (public: executors run kernels
    /// directly against node memory).
    pub cluster: Cluster,
    dir: Vec<DirState>,
    /// Blocks whose directory state differs from the initial
    /// home-owns-everything assignment (`Excl{owner: home}`). Together
    /// with the per-shard dirty tag sets this bounds every consistency
    /// scan by the traffic footprint instead of the segment size.
    dirty_dirs: BTreeSet<usize>,
    /// Twins for multiple-writer blocks: (block, writer) → snapshot.
    twins: BTreeMap<(usize, NodeId), Box<[f64]>>,
    /// Per-receiver compiler-directed transfer inbox: latest arrival time
    /// and pending payload/block counts (reset by `ready_to_recv`).
    pub(crate) inbox_arrival: Vec<u64>,
    pub(crate) inbox_payloads: Vec<u64>,
    pub(crate) inbox_blocks: Vec<u64>,
    /// Memo for run-time overhead elimination: ranges already made
    /// implicitly writable at a node (§4.3's "first time around" test).
    /// Doubles as the record of compiler-controlled tags, which the
    /// post-run check reads through the per-node index built by
    /// [`Dsm::ctl_windows`] rather than by scanning the set per block.
    pub(crate) iw_memo: std::collections::BTreeSet<(NodeId, usize, usize)>,
    /// Capacity-retaining free lists for transfer plans, recycled across
    /// supersteps by [`Dsm::recycle_plans`] so steady-state planning
    /// allocates nothing.
    pub(crate) plan_scratch: crate::ctl::PlanScratch,
    /// Strict wire mode: when present, every inter-node data movement is
    /// encoded into a [`WireMsg`] envelope and posted; [`Dsm::wire_flush`]
    /// carries the posted frames and lands them from the decoded payloads
    /// (`None` = zero-copy fast path).
    pub(crate) wire: Option<WireState>,
    /// Active contract mutations (fuzzer teeth; all off by default).
    #[cfg(feature = "fault-inject")]
    injection: Injection,
    /// The active protocol; taken out during dispatch to avoid a double
    /// borrow, always put back (`None` only mid-call).
    proto: Option<Box<dyn Protocol>>,
}

/// The compiler-controlled windows of every node, indexed for lookup:
/// per node, the union of its memoized `implicit_writable` ranges as
/// disjoint `(first, end)` block ranges in ascending order. Built by
/// [`Dsm::ctl_windows`].
pub(crate) struct CtlWindows(Vec<Vec<(usize, usize)>>);

impl CtlWindows {
    /// Whether block `b` at `node` lies in one of its windows — exactly
    /// when some memo entry `(node, first, end)` has `first <= b < end`.
    pub(crate) fn contains(&self, node: NodeId, b: usize) -> bool {
        let ranges = &self.0[node];
        let idx = ranges.partition_point(|&(_, end)| end <= b);
        idx < ranges.len() && ranges[idx].0 <= b
    }
}

/// Everything strict wire mode needs: the per-node [`Mailbox`] staging
/// encoded frames, the blocks those frames will land on, the transport
/// that carries them, payload-buffer recycling, and frame/byte counters
/// for reconciliation against `NodeStats`.
pub(crate) struct WireState {
    pub mailbox: Mailbox,
    /// Per node: the blocks a posted, not yet landed frame will write.
    /// The hazard rule reads it — any read of one of these blocks at that
    /// node flushes first.
    pub pending: Vec<BTreeSet<usize>>,
    pub transport: Box<dyn WireTransport>,
    /// Recycled payload buffers (PR-6 scratch discipline): a post takes
    /// one to fill and hands it back once encoded. Decoded payloads are
    /// dropped after landing, so the pool stays one buffer deep instead
    /// of growing by one buffer per frame landed.
    pub words_pool: VecPool<u64>,
    /// Envelopes posted so far.
    pub frames: u64,
    /// Total on-wire payload bytes ([`WireMsg::payload_bytes`]).
    pub payload_bytes: u64,
    /// Host wall-clock spent inside the transport's waves, in ns. Real
    /// time (like `ClusterReport::wall_ns`), so it is kept out of every
    /// canonical artifact — it exists so the bench layer can put
    /// *measured* transport latency next to the *predicted* virtual
    /// comm clock.
    pub route_ns: u64,
    /// One-shot marker: the `corrupt_envelope` injection has fired.
    /// Only consulted when the `fault-inject` feature is compiled in.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    pub corrupted: bool,
    /// One-shot marker: the `skip_hazard_flush` injection has fired.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    pub hazard_skipped: bool,
    /// Coordinator-side double-entry book, per destination node: frames
    /// and payload bytes staged toward each peer. Always maintained (two
    /// adds per frame), reconciled against each remote's `ByeStats` at
    /// [`Dsm::wire_finish`].
    pub dst_frames: Vec<u64>,
    pub dst_payload: Vec<u64>,
    /// Wall-clock telemetry, present only when enabled — `None` costs
    /// nothing on the hot path and keeps canonical artifacts untouched.
    pub metrics: Option<WireMetrics>,
}

/// The coordinator's wall-clock telemetry state: per-class histograms
/// and counters, the per-batch route histogram, the epoch every span
/// timestamp is relative to, and the socket-batch spans for the merged
/// Chrome trace.
pub(crate) struct WireMetrics {
    pub reg: MetricsRegistry,
    pub epoch: std::time::Instant,
    pub spans: Vec<WireSpan>,
    /// One-shot marker: the `undercount_metrics` injection has fired.
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    pub undercounted: bool,
}

impl WireMetrics {
    fn new() -> Self {
        WireMetrics {
            reg: MetricsRegistry::new(),
            epoch: std::time::Instant::now(),
            spans: Vec::new(),
            undercounted: false,
        }
    }
}

impl WireState {
    fn new(nprocs: usize, transport: Box<dyn WireTransport>) -> Self {
        WireState {
            mailbox: Mailbox::new(nprocs),
            pending: vec![BTreeSet::new(); nprocs],
            transport,
            words_pool: VecPool::default(),
            frames: 0,
            payload_bytes: 0,
            route_ns: 0,
            corrupted: false,
            hazard_skipped: false,
            dst_frames: vec![0; nprocs],
            dst_payload: vec![0; nprocs],
            metrics: None,
        }
    }

    /// Book one staged envelope: the global and per-destination counters
    /// (always), plus the per-class counters and encode histogram when
    /// telemetry is on. `undercount` is the armed `undercount_metrics`
    /// injection token — it skips the per-class payload counter exactly
    /// once, which the fuzz oracle's conservation invariant must catch.
    fn note_encoded(
        &mut self,
        kind: u8,
        dst: usize,
        payload: u64,
        encode_ns: u64,
        undercount: bool,
    ) {
        self.frames += 1;
        self.payload_bytes += payload;
        self.dst_frames[dst] += 1;
        self.dst_payload[dst] += payload;
        if let Some(m) = self.metrics.as_mut() {
            let class = class_name(kind);
            m.reg.counter_add(&format!("frames.{class}"), 1);
            if !undercount {
                m.reg
                    .counter_add(&format!("payload_bytes.{class}"), payload);
            }
            m.reg.record_ns(&format!("encode.{class}"), encode_ns);
        }
    }

    /// Start an encode/decode/apply stopwatch — `None` (no clock read at
    /// all) when telemetry is off.
    fn stopwatch(&self) -> Option<std::time::Instant> {
        self.metrics.as_ref().map(|_| std::time::Instant::now())
    }

    /// Record a `<stage>.<class>` histogram sample against a started
    /// stopwatch (the key is only built when telemetry is on).
    fn lap(&mut self, stage: &str, kind: u8, t0: Option<std::time::Instant>) {
        if let (Some(m), Some(t0)) = (self.metrics.as_mut(), t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            m.reg
                .record_ns(&format!("{stage}.{}", class_name(kind)), ns);
        }
    }

    /// Carry one wave through the transport, accumulating measured wall
    /// time. A transport-level failure (peer gone, timeout, a short or
    /// garbled reply) unwinds with the typed [`crate::wire::WireError`]
    /// itself as the panic payload, so executors can `catch_unwind` +
    /// downcast it back into a typed result instead of scraping a
    /// message string.
    ///
    /// With telemetry on, each batch books one `route.batch` sample and
    /// one [`WireSpan`] (for the merged Chrome trace) carrying its frame
    /// and byte counts. A batch's duration is the transport's `busy_ns`
    /// for it; the spans are laid end to end from the wave's start, so
    /// they never overlap and sum to at most the measured route time.
    fn route(&mut self, wave: &mut [Batch]) {
        let pre = self.metrics.as_ref().map(|m| {
            let sizes: Vec<(u32, u64)> = wave
                .iter()
                .map(|b| {
                    let bytes = b.frames.iter().map(|f| f.len() as u64).sum();
                    (b.frames.len() as u32, bytes)
                })
                .collect();
            (sizes, m.epoch.elapsed().as_nanos() as u64)
        });
        let t0 = std::time::Instant::now();
        let routed = self.transport.route_wave(wave);
        self.route_ns += t0.elapsed().as_nanos() as u64;
        if let Err(e) = routed {
            std::panic::panic_any(e);
        }
        if let (Some(m), Some((sizes, mut start_ns))) = (self.metrics.as_mut(), pre) {
            for (b, (frames, bytes)) in wave.iter().zip(sizes) {
                m.spans.push(WireSpan {
                    dst: b.dst as u32,
                    start_ns,
                    dur_ns: b.busy_ns,
                    frames,
                    bytes,
                });
                m.reg.record_ns("route.batch", b.busy_ns);
                start_ns += b.busy_ns;
            }
        }
    }
}

/// Deliberately damage an encoded frame for the `corrupt_envelope`
/// must-catch injection: flipping a version bit leaves the payload
/// intact, so only a decoder that actually validates will notice.
fn corrupt_frame(buf: &mut [u8]) {
    if buf.len() > 2 {
        buf[2] ^= 0x40;
    }
}

/// Deliberate contract violations for the differential fuzzer's
/// *must-catch* suite: each knob silently corrupts one §4.2 primitive so
/// the harness can assert the cross-backend oracle actually detects the
/// resulting incoherence. Only compiled under the `fault-inject` feature;
/// production builds carry no injection state.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Off-by-one section bound: `send_range` delivers one block fewer
    /// than the contract promised, leaving the readers' last block tagged
    /// ReadWrite over stale data — the §3 a(513,1)/a(1,2) failure mode.
    pub skew_send_range: bool,
    /// Skip `flush_range` entirely: a non-owner writer's modifications
    /// never reach the owner, so later owner-side sends push stale data.
    pub skip_flush_range: bool,
    /// Redirect every `send_range` push to read from the range's *home*
    /// node instead of the recorded exclusive owner whenever the home is
    /// a third party: the §4.3 RTOE hazard — a stale owner memo pushing
    /// a copy that was never flushed home.
    pub stale_owner_push: bool,
    /// Reverse the plan order inside `apply_plans` when the resolve phase
    /// runs parallel (`workers > 1`): a deliberately nondeterministic
    /// merge, making threaded-resolve reports and traces diverge from the
    /// serial plan order the contract guarantees.
    pub reorder_plan_apply: bool,
    /// Rotate the parallel-apply outcome vector before folding it, so
    /// pool/thread results are merged out of plan-index order — the
    /// exact mistake a worker-pool integration could make, which the
    /// determinism oracle must catch (arrival times and inbox counters
    /// land on the wrong receivers).
    pub misfold_pool: bool,
    /// Flip a byte inside the first envelope routed in strict wire mode:
    /// `WireMsg::from_bytes` must reject the frame and fail the run
    /// loudly, proving decode validation has teeth (a vacuous decoder
    /// would apply the payload anyway and diverge from nothing).
    pub corrupt_envelope: bool,
    /// Skip the telemetry registry's per-class `payload_bytes` counter
    /// for the first staged envelope (the double-entry counters and the
    /// run itself stay correct): the fuzz oracle's metrics-conservation
    /// invariant — Σ per-class payload counters == `wire_payload_bytes`
    /// — must catch the shortfall, proving the invariant has teeth.
    pub undercount_metrics: bool,
    /// Skip the first hazard flush in strict wire mode: one read of a
    /// block whose landing is still pending sees the stale contents. The
    /// fuzz oracle must catch the resulting divergence, proving the
    /// deferred-landing hazard rule has teeth.
    pub skip_hazard_flush: bool,
}

impl Dsm {
    /// Wrap a cluster; every block starts exclusively owned by its home.
    /// Runs the paper's eager-invalidate protocol.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_protocol(cluster, ProtocolKind::EagerInvalidate)
    }

    /// Wrap a cluster with one of the built-in protocols.
    pub fn with_protocol(cluster: Cluster, kind: ProtocolKind) -> Self {
        let proto: Box<dyn Protocol> = match kind {
            ProtocolKind::EagerInvalidate => Box::new(EagerInvalidate::new()),
            ProtocolKind::WriteUpdate => Box::new(WriteUpdate::new()),
        };
        Self::with_protocol_impl(cluster, proto)
    }

    /// Wrap a cluster with an arbitrary [`Protocol`] implementation.
    pub fn with_protocol_impl(cluster: Cluster, proto: Box<dyn Protocol>) -> Self {
        assert!(cluster.nprocs() <= 64, "directory masks support ≤64 nodes");
        let n_blocks = cluster.n_blocks();
        let nprocs = cluster.nprocs();
        let dir = (0..n_blocks)
            .map(|b| DirState::Excl {
                owner: cluster.home_of_block(b),
            })
            .collect();
        Dsm {
            cluster,
            dir,
            dirty_dirs: BTreeSet::new(),
            twins: BTreeMap::new(),
            inbox_arrival: vec![0; nprocs],
            inbox_payloads: vec![0; nprocs],
            inbox_blocks: vec![0; nprocs],
            iw_memo: std::collections::BTreeSet::new(),
            plan_scratch: crate::ctl::PlanScratch::default(),
            wire: None,
            #[cfg(feature = "fault-inject")]
            injection: Injection::default(),
            proto: Some(proto),
        }
    }

    /// Switch on strict wire mode: from here on, every inter-node data
    /// movement is posted as an encoded [`WireMsg`] and lands when
    /// [`Dsm::wire_flush`] carries it through `transport`. Observable
    /// behavior (clocks, stats, traces, data) is byte-identical to the
    /// fast path once flushed — only the data path changes. A caller
    /// that reads or writes node memory directly (kernels, result
    /// gathers) flushes first; the facade's own readers follow the
    /// hazard rule by themselves.
    pub fn set_wire(&mut self, transport: Box<dyn WireTransport>) {
        let nprocs = self.cluster.nprocs();
        self.wire = Some(WireState::new(nprocs, transport));
    }

    /// Whether strict wire mode is active.
    pub fn wire_strict(&self) -> bool {
        self.wire.is_some()
    }

    /// Switch on wall-clock telemetry for the active wire transport:
    /// per-class encode/route/decode/apply histograms and socket-batch
    /// spans. No-op on the fast path (no wire, nothing to time); costs
    /// nothing when never called.
    pub fn enable_wire_metrics(&mut self) {
        if let Some(w) = self.wire.as_mut() {
            w.metrics = Some(WireMetrics::new());
        }
    }

    /// Whether wall-clock telemetry is recording.
    pub fn wire_metrics_on(&self) -> bool {
        self.wire.as_ref().is_some_and(|w| w.metrics.is_some())
    }

    /// End-of-run telemetry harvest: tear down the transport's remote
    /// peers, reconcile each node's `ByeStats` book against the
    /// coordinator's per-destination counters (panicking with a typed
    /// [`crate::wire::WireError::StatsMismatch`] naming the diverging
    /// counter), then merge every process's registry under node-tagged
    /// keys (`coord.*`, `node<i>.*`). Returns the merged registry (None
    /// when telemetry was off) and the recorded socket-batch spans.
    pub fn wire_finish(&mut self) -> (Option<MetricsRegistry>, Vec<WireSpan>) {
        let Some(w) = self.wire.as_mut() else {
            return (None, Vec::new());
        };
        debug_assert!(
            w.mailbox.all_delivered(),
            "wire_finish with frames never flushed"
        );
        let reports = w.transport.finish();
        for r in &reports {
            let node = r.node as usize;
            let local_frames = w.dst_frames.get(node).copied().unwrap_or(0);
            let local_payload = w.dst_payload.get(node).copied().unwrap_or(0);
            if let Err(e) = reconcile_stats(r.node, local_frames, local_payload, r) {
                std::panic::panic_any(e);
            }
        }
        let Some(m) = w.metrics.take() else {
            return (None, Vec::new());
        };
        let mut merged = MetricsRegistry::new();
        merged.merge_tagged("coord", &m.reg);
        for r in &reports {
            if r.metrics.is_empty() {
                continue;
            }
            match MetricsRegistry::from_bytes(&r.metrics) {
                Ok(reg) => merged.merge_tagged(&format!("node{}", r.node), &reg),
                Err(e) => panic!("wire: node {} shipped a bad metrics blob: {e}", r.node),
            }
        }
        (Some(merged), m.spans)
    }

    /// `(frames posted, payload bytes)` so far; `(0, 0)` on the fast
    /// path. Exposed outside the report so wire accounting can be
    /// reconciled against `NodeStats` without perturbing byte-identity.
    pub fn wire_stats(&self) -> (u64, u64) {
        self.wire
            .as_ref()
            .map_or((0, 0), |w| (w.frames, w.payload_bytes))
    }

    /// Measured host wall-clock spent inside the transport's waves, in
    /// ns (`0` on the fast path). Real time, never part of canonical
    /// artifacts — the bench layer reads it to compare measured transport
    /// latency against the virtual cost model.
    pub fn wire_route_ns(&self) -> u64 {
        self.wire.as_ref().map_or(0, |w| w.route_ns)
    }

    /// Arm (or disarm) the must-catch contract mutations. Compiled only
    /// under the `fault-inject` feature.
    #[cfg(feature = "fault-inject")]
    pub fn set_injection(&mut self, injection: Injection) {
        self.injection = injection;
    }

    /// Whether `send_range` should drop its last block (always false
    /// without the `fault-inject` feature).
    pub(crate) fn inj_skew_send_range(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.injection.skew_send_range
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Whether `flush_range` should be skipped entirely (always false
    /// without the `fault-inject` feature).
    pub(crate) fn inj_skip_flush_range(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.injection.skip_flush_range
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Whether `send_range` should push the home's (possibly stale) copy
    /// instead of the owner's (always false without the `fault-inject`
    /// feature).
    pub(crate) fn inj_stale_owner_push(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.injection.stale_owner_push
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Whether `apply_plans` should reverse its plan order under a
    /// parallel resolve (always false without the `fault-inject` feature).
    pub(crate) fn inj_reorder_plan_apply(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.injection.reorder_plan_apply
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Whether parallel `apply_plans` should fold its outcomes rotated
    /// out of plan-index order (always false without the `fault-inject`
    /// feature).
    pub(crate) fn inj_misfold_pool(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            self.injection.misfold_pool
        }
        #[cfg(not(feature = "fault-inject"))]
        {
            false
        }
    }

    /// Consume the one-shot `corrupt_envelope` token: true exactly once
    /// per run, for the first posted frame, when the injection is armed
    /// and strict wire mode is active.
    fn take_corrupt_token(&mut self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            if self.injection.corrupt_envelope {
                if let Some(w) = self.wire.as_mut() {
                    if !w.corrupted {
                        w.corrupted = true;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Consume the one-shot `skip_hazard_flush` token: true exactly once
    /// per run, for the first hazard flush, when the injection is armed.
    fn take_skip_hazard_token(&mut self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            if self.injection.skip_hazard_flush {
                if let Some(w) = self.wire.as_mut() {
                    if !w.hazard_skipped {
                        w.hazard_skipped = true;
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Consume the one-shot `undercount_metrics` token: true exactly
    /// once per run, for the first staged envelope, when the injection
    /// is armed and telemetry is recording.
    fn take_undercount_token(&mut self) -> bool {
        #[cfg(feature = "fault-inject")]
        {
            if self.injection.undercount_metrics {
                if let Some(m) = self.wire.as_mut().and_then(|w| w.metrics.as_mut()) {
                    if !m.undercounted {
                        m.undercounted = true;
                        return true;
                    }
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Strict wire mode: post → flush → land
    // ------------------------------------------------------------------
    //
    // A transfer is *posted*: its payload is copied out of the source
    // node's memory, encoded into a mailbox frame for the destination,
    // and the blocks it will write there are recorded as pending. A
    // *flush* routes every posted frame in one wave — at most one batch
    // per destination — and *lands* each delivered envelope in its
    // destination's memory, in posting order. Virtual-time charges stay
    // at the call sites, so when a frame lands changes no artifact.
    //
    // The hazard rule keeps deferred landing invisible: before anything
    // reads a node's memory (a copy or diff source, a twin, a diff mask,
    // a merge, a plan payload, an index array), the reader calls
    // `settle_blocks`, which flushes when a pending landing overlaps the
    // blocks read. The engine also flushes before kernels run, at the
    // end of each loop, and before gathering results.

    /// Post one envelope: encode it into a frame for its destination,
    /// book it, and record the blocks it will land on as pending. The
    /// payload buffer is recycled.
    pub(crate) fn wire_post(&mut self, msg: WireMsg) {
        let corrupt = self.take_corrupt_token();
        let undercount = self.take_undercount_token();
        let wpb = self.cluster.words_per_block();
        let w = self.wire.as_mut().expect("wire_post: strict mode off");
        let (kind, dst, payload) = (msg.kind(), msg.hdr().dst as usize, msg.payload_bytes());
        let mut buf = w.mailbox.take_buf();
        let t_enc = w.stopwatch();
        msg.encode(&mut buf);
        let encode_ns = t_enc.map_or(0, |t| t.elapsed().as_nanos() as u64);
        w.note_encoded(kind, dst, payload, encode_ns, undercount);
        if corrupt {
            corrupt_frame(&mut buf);
        }
        let pending = &mut w.pending[dst];
        let mut last = usize::MAX;
        msg.scatter(wpb, |a, _| {
            if a / wpb != last {
                last = a / wpb;
                pending.insert(last);
            }
        });
        w.words_pool.put(msg.into_words());
        w.mailbox.post(dst, buf);
    }

    /// Route every posted frame in one wave and land each delivered
    /// envelope in its destination's memory, in posting order. A frame
    /// the decoder rejects fails the run loudly (dropped traffic is never
    /// papered over). No-op when nothing is posted — always, on the fast
    /// path.
    pub fn wire_flush(&mut self) {
        let Dsm { wire, cluster, .. } = self;
        let Some(w) = wire.as_mut() else {
            return;
        };
        if w.mailbox.all_delivered() {
            return;
        }
        let mut wave: Vec<Batch> = (0..cluster.nprocs())
            .filter_map(|dst| {
                let frames = w.mailbox.take_inbox(dst);
                (!frames.is_empty()).then_some(Batch {
                    dst,
                    frames,
                    busy_ns: 0,
                })
            })
            .collect();
        w.route(&mut wave);
        for p in &mut w.pending {
            p.clear();
        }
        let wpb = cluster.words_per_block();
        for batch in wave {
            let mem = cluster.node_mem_mut(batch.dst);
            for frame in batch.frames {
                let t_dec = w.stopwatch();
                let msg = match WireMsg::from_bytes(&frame) {
                    Ok(m) => m,
                    Err(e) => panic!("wire: envelope decode failed at node {}: {e}", batch.dst),
                };
                w.lap("decode", msg.kind(), t_dec);
                let t_apply = w.stopwatch();
                msg.scatter(wpb, |a, bits| mem[a] = f64::from_bits(bits));
                w.lap("apply", msg.kind(), t_apply);
                w.mailbox.recycle_buf(frame);
            }
        }
    }

    /// The hazard rule: about to read blocks `first..=last` of `node`'s
    /// memory, flush if a pending landing overlaps them.
    pub(crate) fn settle_blocks(&mut self, node: NodeId, first: usize, last: usize) {
        let Some(w) = self.wire.as_ref() else {
            return;
        };
        if w.pending[node].range(first..=last).next().is_none() {
            return;
        }
        if self.take_skip_hazard_token() {
            return;
        }
        self.wire_flush();
    }

    /// The hazard rule for a word range: about to read words
    /// `[start, start + len)` of `node`'s memory, flush if a pending
    /// landing overlaps their blocks. For readers outside this crate
    /// (the engine's inspector reads index arrays straight from memory).
    pub fn wire_settle(&mut self, node: NodeId, start: usize, len: usize) {
        if len > 0 && self.wire.is_some() {
            let (b0, b1) = (
                self.cluster.block_of(start),
                self.cluster.block_of(start + len - 1),
            );
            self.settle_blocks(node, b0, b1);
        }
    }

    /// Move `len` words `src → dst` starting at word `start`. Fast path:
    /// a direct shard-to-shard copy. Strict wire mode: the words are
    /// posted as an encoded [`WireMsg::Copy`] and land from the decoded
    /// payload at the next flush — behaviorally identical, bit for bit.
    /// Charges and message accounting stay at the call sites.
    pub fn wire_copy(&mut self, src: NodeId, dst: NodeId, start: usize, len: usize) {
        if src == dst || len == 0 {
            return;
        }
        if self.wire.is_none() {
            self.cluster.copy_words(src, dst, start, len);
            return;
        }
        self.wire_settle(src, start, len);
        let ctx = self.cluster.node_trace(src).context();
        let b0 = self.cluster.block_of(start);
        let b1 = self.cluster.block_of(start + len - 1);
        let hdr = WireHeader::for_blocks(src, dst, ctx, NO_ARRAY, b0, b1 - b0 + 1);
        let mut words = self.wire.as_mut().unwrap().words_pool.take();
        words.extend(
            self.cluster.node_mem(src)[start..start + len]
                .iter()
                .map(|x| x.to_bits()),
        );
        self.wire_post(WireMsg::Copy {
            hdr,
            start_word: start as u64,
            words,
        });
    }

    /// The single home of (array, block) diff attribution: account the
    /// word-diff message `src → dst` for block `b` (the mask word plus
    /// one word per dirty bit, [`crate::wire::diff_bytes`]) and move the
    /// masked words — posted as a [`WireMsg::Diff`] in strict wire mode.
    /// Returns the on-wire bytes for the caller's latency charge.
    pub fn wire_diff(&mut self, src: NodeId, dst: NodeId, b: usize, mask: u64) -> usize {
        let bytes = crate::wire::diff_bytes(mask);
        self.cluster.note_msg_at(src, dst, bytes, b);
        if self.wire.is_none() {
            self.cluster.merge_block_words(src, dst, b, mask);
            return bytes;
        }
        self.settle_blocks(src, b, b);
        let ctx = self.cluster.node_trace(src).context();
        let hdr = WireHeader::for_blocks(src, dst, ctx, NO_ARRAY, b, 1);
        let (s, _) = self.cluster.block_words(b);
        let mut words = self.wire.as_mut().unwrap().words_pool.take();
        let mem = self.cluster.node_mem(src);
        for bit in 0..64u32 {
            if mask & (1u64 << bit) != 0 {
                words.push(mem[s + bit as usize].to_bits());
            }
        }
        self.wire_post(WireMsg::Diff {
            hdr,
            block: b as u64,
            mask,
            words,
        });
        bytes
    }

    fn proto(&self) -> &dyn Protocol {
        self.proto.as_deref().expect("protocol re-entered")
    }

    /// Name of the protocol in force.
    pub fn protocol_name(&self) -> &'static str {
        self.proto().name()
    }

    /// Whether the active protocol supports the §4.2 ctl contract.
    pub fn supports_ctl(&self) -> bool {
        self.proto().supports_ctl()
    }

    /// Directory state of a block (inspection/testing).
    pub fn dir_state(&self, b: usize) -> DirState {
        self.dir[b]
    }

    /// Overwrite a block's directory state (protocol transitions and
    /// compiler-control state changes). Maintains the dirty-directory
    /// set: a block is dirty while its state differs from the initial
    /// `Excl{owner: home}`.
    pub fn set_dir(&mut self, b: usize, s: DirState) {
        self.dir[b] = s;
        if s.is_excl_by(self.cluster.home_of_block(b)) {
            self.dirty_dirs.remove(&b);
        } else {
            self.dirty_dirs.insert(b);
        }
    }

    /// Blocks whose directory state deviates from the initial
    /// home-exclusive assignment (ascending order).
    pub fn dirty_dir_blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty_dirs.iter().copied()
    }

    /// Every block that any protocol state — the directory or any node's
    /// access tag — has moved off the initial assignment. Untouched
    /// blocks provably satisfy the protocol invariants (home holds the
    /// only, writable, zero-initialized copy), so consistency checks and
    /// gathers iterate this set instead of the whole segment.
    pub fn touched_blocks(&self) -> BTreeSet<usize> {
        let mut out = self.dirty_dirs.clone();
        for n in 0..self.cluster.nprocs() {
            out.extend(self.cluster.shard(n).dirty_blocks().iter().copied());
        }
        out
    }

    /// Handler-occupancy cost scaled for the cpu configuration.
    #[inline]
    pub fn hc(&self, ns: u64) -> u64 {
        self.cluster.cfg().handler_cost(ns)
    }

    // ------------------------------------------------------------------
    // Protocol-neutral building blocks (public: protocols — including
    // external ones — compose these)
    // ------------------------------------------------------------------

    /// Snapshot a block's current contents at `node` into a twin buffer.
    pub fn make_twin(&mut self, node: NodeId, b: usize) {
        self.settle_blocks(node, b, b);
        let (s, e) = self.cluster.block_words(b);
        let data: Box<[f64]> = self.cluster.node_mem(node)[s..e].into();
        self.twins.insert((b, node), data);
    }

    /// Whether `node` currently holds a twin of block `b`.
    pub fn has_twin(&self, node: NodeId, b: usize) -> bool {
        self.twins.contains_key(&(b, node))
    }

    /// Drop `node`'s twin of block `b` (end of a write interval).
    pub fn remove_twin(&mut self, node: NodeId, b: usize) {
        self.twins.remove(&(b, node));
    }

    /// Word-diff a writer's block against its twin; returns the dirty mask.
    pub fn diff_mask(&mut self, node: NodeId, b: usize) -> u64 {
        self.settle_blocks(node, b, b);
        let twin = &self.twins[&(b, node)];
        let (s, e) = self.cluster.block_words(b);
        let cur = &self.cluster.node_mem(node)[s..e];
        let mut mask = 0u64;
        for (i, (c, t)) in cur.iter().zip(twin.iter()).enumerate() {
            if c.to_bits() != t.to_bits() {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Copy the words of block `b` selected by `mask` from `src`'s copy
    /// into `dst`'s, in place — a local merge with no message (the
    /// message-carrying merge is [`Dsm::wire_diff`]). Both copies are
    /// settled first, so a pending landing on either is not overtaken.
    pub fn merge_block_words(&mut self, src: NodeId, dst: NodeId, b: usize, mask: u64) {
        self.settle_blocks(src, b, b);
        self.settle_blocks(dst, b, b);
        self.cluster.merge_block_words(src, dst, b, mask);
    }

    /// Cost and data movement for the home shipping its (current) copy of
    /// block `b` to `p`. Returns the stall to charge at `p`.
    pub fn data_home_to(&mut self, p: NodeId, h: NodeId, b: usize) -> u64 {
        let cfg = self.cluster.cfg().clone();
        let (s, e) = self.cluster.block_words(b);
        if p == h {
            // Local: the data is already in the home's copy.
            return cfg.tag_change_ns;
        }
        self.cluster.charge_handler(h, cfg.block_copy_ns);
        self.cluster.note_msg_at(h, p, cfg.block_bytes, b);
        self.wire_copy(h, p, s, e - s);
        self.hc(cfg.block_copy_ns)
            + cfg.one_way_ns(cfg.block_bytes)
            + self.hc(cfg.handler_dispatch_ns)
            + cfg.block_copy_ns
            + cfg.tag_change_ns
    }

    /// During compiler control a reader may legitimately hold ReadWrite on
    /// a block the directory believes exclusive elsewhere (Figure 2C/2D).
    /// Under run-time-overhead elimination those windows extend across
    /// supersteps: `implicit_writable(.., memoize=true)` leaves the range
    /// in `iw_memo` and the matching `implicit_invalidate` is skipped, so
    /// the memo is exactly the record of blocks whose tags are under
    /// compiler control. `check_consistency` excuses those pairs, looking
    /// them up in this index: built once per check, one pass over the
    /// memo, then O(log n) per (node, block) query.
    pub(crate) fn ctl_windows(&self) -> CtlWindows {
        let mut per_node: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.cluster.nprocs()];
        // The memo iterates in (node, first, end) order, so each node's
        // ranges arrive sorted by `first`: merging overlaps in one pass
        // leaves disjoint, ascending windows.
        for &(n, first, end) in &self.iw_memo {
            if first >= end {
                continue;
            }
            let ranges = &mut per_node[n];
            match ranges.last_mut() {
                Some(last) if first <= last.1 => last.1 = last.1.max(end),
                _ => ranges.push((first, end)),
            }
        }
        CtlWindows(per_node)
    }

    /// Drop every memoized `implicit_writable` range, forcing the next
    /// calls back onto the slow (re-tagging) path. The memo records which
    /// tags are under compiler control, so dropping an entry also drops
    /// the tags it covers (a free `implicit_invalidate`) — afterwards the
    /// state is exactly "as if run-time-overhead elimination had not
    /// kicked in yet". The contract must survive this at any superstep
    /// boundary, which is what the fault-injection harness checks.
    pub fn clear_iw_memo(&mut self) {
        let memo = std::mem::take(&mut self.iw_memo);
        for (n, first, end) in memo {
            for b in first..end {
                self.cluster.set_tag(n, b, Access::Invalid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Facade: default-protocol transactions (dispatch to the Protocol)
    // ------------------------------------------------------------------

    /// Run `f` against the active protocol, which is temporarily taken
    /// out of `self` so it can borrow the whole [`Dsm`] mutably.
    fn with_proto<R>(&mut self, f: impl FnOnce(&mut dyn Protocol, &mut Dsm) -> R) -> R {
        let mut proto = self.proto.take().expect("protocol re-entered");
        let r = f(proto.as_mut(), self);
        self.proto = Some(proto);
        r
    }

    /// Service a read fault: bring block `b` to at least `ReadOnly` at
    /// `p`. No-op (and no cost) if `p` already has a valid copy — "inner
    /// cache blocks are brought once and for ever into the local memory
    /// and pay no further overhead" (§2).
    pub fn read_access(&mut self, p: NodeId, b: usize) {
        if self.cluster.tag(p, b) != Access::Invalid {
            return;
        }
        self.with_proto(|proto, d| proto.read_access(d, p, b));
    }

    /// Service a write fault where `p` is the interval's single writer.
    pub fn write_access_excl(&mut self, p: NodeId, b: usize) {
        self.with_proto(|proto, d| proto.write_access_excl(d, p, b));
    }

    /// Service a write fault on a block that *multiple* nodes write in
    /// the same interval.
    pub fn write_access_multi(&mut self, p: NodeId, b: usize) {
        self.with_proto(|proto, d| proto.write_access_multi(d, p, b));
    }

    /// Release point: let the protocol propagate interval writes, then
    /// execute the global barrier.
    pub fn release_barrier(&mut self) {
        self.with_proto(|proto, d| proto.release(d));
        self.cluster.barrier();
    }

    /// Check internal consistency between directory state, tags and data;
    /// run after every executor run and by tests after barriers ("a final
    /// barrier assures that things are consistent again with the
    /// information at the directory"). Cost is bounded by the traffic
    /// footprint: only [`touched_blocks`](Dsm::touched_blocks) are
    /// scanned, and the eager protocol's compiler-control excuse is one
    /// lookup in an index of `iw_memo` built once per call
    /// ([`Dsm::ctl_windows`]).
    pub fn check_consistency(&self) -> Result<(), String> {
        self.proto().check(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdsm_tempest::{ChargeKind, CostModel, HomePolicy, SegmentLayout};

    fn dsm(nprocs: usize, cfg: CostModel) -> Dsm {
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Dsm::new(Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin))
    }

    #[test]
    fn protocol_identity_is_queryable() {
        let d = dsm(2, CostModel::paper_dual_cpu());
        assert_eq!(d.protocol_name(), "eager-invalidate");
        assert!(d.supports_ctl());
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(512);
        let u = Dsm::with_protocol(
            Cluster::new(2, cfg, &layout, HomePolicy::RoundRobin),
            ProtocolKind::WriteUpdate,
        );
        assert_eq!(u.protocol_name(), "write-update");
        assert!(!u.supports_ctl());
    }

    #[test]
    fn third_party_protocols_plug_in() {
        /// A deliberately naive protocol: every fault is a full home
        /// fetch, releases do nothing but the barrier. Exists to prove
        /// the trait boundary is sufficient for external policies.
        struct AlwaysFetch;
        impl Protocol for AlwaysFetch {
            fn name(&self) -> &'static str {
                "always-fetch"
            }
            fn supports_ctl(&self) -> bool {
                false
            }
            fn read_access(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                let h = d.cluster.home_of_block(b);
                let (s, e) = d.cluster.block_words(b);
                d.cluster.map_range(p, s, e - s);
                let stall = d.data_home_to(p, h, b);
                d.cluster.set_tag(p, b, Access::ReadOnly);
                d.cluster.charge(p, stall, ChargeKind::Stall);
            }
            fn write_access_excl(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                self.read_access(d, p, b);
                d.cluster.set_tag(p, b, Access::ReadWrite);
                d.set_dir(b, DirState::Excl { owner: p });
            }
            fn write_access_multi(&mut self, d: &mut Dsm, p: NodeId, b: usize) {
                self.write_access_excl(d, p, b);
            }
            fn release(&mut self, _d: &mut Dsm) {}
            fn check(&self, _d: &Dsm) -> Result<(), String> {
                Ok(())
            }
        }
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(1024);
        let mut d = Dsm::with_protocol_impl(
            Cluster::new(2, cfg, &layout, HomePolicy::RoundRobin),
            Box::new(AlwaysFetch),
        );
        assert_eq!(d.protocol_name(), "always-fetch");
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 3.5;
        d.release_barrier();
        assert!(d.dir_state(0).is_excl_by(1));
        assert_eq!(d.cluster.node_mem(1)[0], 3.5);
    }

    #[test]
    fn clean_read_miss_costs_table1() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Block 0 homes on node 0; node 1 reads it. Pre-map the page so the
        // measured cost is the miss itself, not the one-time mapping.
        d.cluster.map_range(1, 0, 16);
        let before = d.cluster.clock_ns(1);
        d.read_access(1, 0);
        let delta = d.cluster.clock_ns(1) - before;
        let expect = d.cluster.cfg().read_miss_ns();
        assert_eq!(delta, expect, "clean read miss must match Table 1 model");
        assert_eq!(d.cluster.stats(1).read_misses, 1);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadOnly);
        // The home (initial exclusive owner) downgrades and joins the set.
        assert_eq!(
            d.dir_state(0),
            DirState::Shared {
                readers: DirState::bit(1) | DirState::bit(0)
            }
        );
    }

    #[test]
    fn second_read_is_free() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        let t = d.cluster.clock_ns(1);
        d.read_access(1, 0);
        assert_eq!(d.cluster.clock_ns(1), t);
        assert_eq!(d.cluster.stats(1).read_misses, 1);
    }

    #[test]
    fn four_hop_read_through_owner() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Node 1 takes block 0 (home 0) exclusively, writes, then node 2 reads.
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 7.5;
        let before = d.cluster.clock_ns(2);
        d.read_access(2, 0);
        assert!(d.cluster.clock_ns(2) - before > d.cluster.cfg().read_miss_ns());
        // Data travelled owner → home → reader.
        assert_eq!(d.cluster.node_mem(2)[0], 7.5);
        assert_eq!(d.cluster.node_mem(0)[0], 7.5);
        assert_eq!(d.cluster.tag(1, 0), Access::ReadOnly);
        match d.dir_state(0) {
            DirState::Shared { readers } => {
                assert_ne!(readers & DirState::bit(1), 0);
                assert_ne!(readers & DirState::bit(2), 0);
            }
            s => panic!("expected Shared, got {s:?}"),
        }
    }

    #[test]
    fn write_upgrade_invalidates_readers_eagerly() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        d.read_access(2, 0);
        // Node 3 writes: both readers and home lose their copies.
        d.cluster.map_range(3, 0, 16); // exclude one-time mapping from stall
        let stall_before = d.cluster.stats(3).stall_ns;
        d.write_access_excl(3, 0);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(2, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(0, 0), Access::Invalid);
        assert_eq!(d.cluster.tag(3, 0), Access::ReadWrite);
        assert!(d.dir_state(0).is_excl_by(3));
        // Eager: the writer's stall is far below a full read miss.
        let stall = d.cluster.stats(3).stall_ns - stall_before;
        assert!(stall < d.cluster.cfg().read_miss_ns());
    }

    #[test]
    fn producer_consumer_roundtrip_moves_data() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[3] = 42.0;
        d.release_barrier();
        d.read_access(0, 0);
        assert_eq!(d.cluster.node_mem(0)[3], 42.0);
        d.check_consistency().unwrap();
    }

    #[test]
    fn multi_writer_merges_diffs_at_release() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        // Both nodes write disjoint words of block 0 (home node 0).
        d.write_access_multi(0, 0);
        d.write_access_multi(1, 0);
        d.cluster.node_mem_mut(0)[0] = 1.0;
        d.cluster.node_mem_mut(1)[1] = 2.0;
        d.release_barrier();
        // Home (node 0) holds the merge.
        assert_eq!(d.cluster.node_mem(0)[0], 1.0);
        assert_eq!(d.cluster.node_mem(0)[1], 2.0);
        assert!(d.dir_state(0).is_excl_by(0));
        assert_eq!(d.cluster.tag(0, 0), Access::ReadWrite);
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
        d.check_consistency().unwrap();
    }

    #[test]
    fn multi_writer_remote_home_merge() {
        let mut d = dsm(4, CostModel::paper_dual_cpu());
        // Block 0 homes at node 0; writers are 2 and 3.
        d.write_access_multi(2, 0);
        d.write_access_multi(3, 0);
        d.cluster.node_mem_mut(2)[4] = 4.0;
        d.cluster.node_mem_mut(3)[5] = 5.0;
        d.release_barrier();
        assert_eq!(d.cluster.node_mem(0)[4], 4.0);
        assert_eq!(d.cluster.node_mem(0)[5], 5.0);
        d.check_consistency().unwrap();
        // A later reader sees both writes.
        d.read_access(1, 0);
        assert_eq!(d.cluster.node_mem(1)[4], 4.0);
        assert_eq!(d.cluster.node_mem(1)[5], 5.0);
    }

    #[test]
    fn exclusive_survives_release() {
        // RTOE's precondition: owners keep blocks writable across barriers.
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.release_barrier();
        assert!(d.dir_state(0).is_excl_by(1));
        assert_eq!(d.cluster.tag(1, 0), Access::ReadWrite);
        let misses = d.cluster.stats(1).write_misses;
        d.write_access_excl(1, 0); // no-op
        assert_eq!(d.cluster.stats(1).write_misses, misses);
    }

    #[test]
    fn single_cpu_misses_cost_more() {
        let mut dd = dsm(2, CostModel::paper_dual_cpu());
        let mut ds = dsm(2, CostModel::paper_single_cpu());
        dd.read_access(1, 0);
        ds.read_access(1, 0);
        assert!(ds.cluster.stats(1).stall_ns > dd.cluster.stats(1).stall_ns);
        // Single-cpu: home's handler occupancy also advanced home's clock.
        assert!(ds.cluster.clock_ns(0) > 0);
        assert_eq!(dd.cluster.clock_ns(0), 0);
    }

    #[test]
    fn faults_appear_in_the_trace() {
        use fgdsm_tempest::{Event, FaultKind};
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.read_access(1, 0);
        d.write_access_excl(1, 1);
        let read_faults = d
            .cluster
            .node_trace(1)
            .entries()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::Fault {
                        block: 0,
                        kind: FaultKind::Read
                    }
                )
            })
            .count();
        assert_eq!(read_faults, 1, "read fault must be a typed trace event");
        assert!(
            d.cluster.node_trace(1).entries().any(|e| matches!(
                e.event,
                Event::Fault {
                    block: 1,
                    kind: FaultKind::Write
                }
            )),
            "write fault must be a typed trace event"
        );
    }

    fn dsm_update(nprocs: usize) -> Dsm {
        let cfg = CostModel::paper_dual_cpu();
        let mut layout = SegmentLayout::new(cfg.words_per_page());
        layout.alloc(4096);
        Dsm::with_protocol(
            Cluster::new(nprocs, cfg, &layout, HomePolicy::RoundRobin),
            ProtocolKind::WriteUpdate,
        )
    }

    #[test]
    fn update_protocol_keeps_reader_copies_fresh() {
        let mut d = dsm_update(4);
        // Reader 2 fetches block 0 once …
        d.read_access(2, 0);
        assert_eq!(d.cluster.stats(2).read_misses, 1);
        // … then writer 1 updates it across three intervals; the reader
        // never faults again but always sees current data.
        for step in 0..3 {
            d.write_access_excl(1, 0);
            d.cluster.node_mem_mut(1)[5] = step as f64 + 1.0;
            d.release_barrier();
            d.check_consistency().unwrap();
            d.read_access(2, 0); // no-op: copy still valid
            assert_eq!(d.cluster.node_mem(2)[5], step as f64 + 1.0);
        }
        assert_eq!(
            d.cluster.stats(2).read_misses,
            1,
            "no re-fetch under update"
        );
    }

    #[test]
    fn update_protocol_pays_per_sharer_traffic() {
        // The §3 trade-off: with three sharers, every release carries the
        // writer's dirty words to each of them, read or not.
        let mut d = dsm_update(4);
        for r in [0usize, 2, 3] {
            d.read_access(r, 0);
        }
        let msgs_before = d.cluster.stats(1).msgs_sent;
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[0] = 9.0;
        d.release_barrier();
        let update_msgs = d.cluster.stats(1).msgs_sent - msgs_before;
        assert!(
            update_msgs >= 3,
            "writer must update home and every sharer, sent {update_msgs}"
        );
        d.check_consistency().unwrap();
    }

    #[test]
    fn update_protocol_multi_writer_merges() {
        let mut d = dsm_update(2);
        d.write_access_excl(0, 0);
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(0)[0] = 1.0;
        d.cluster.node_mem_mut(1)[1] = 2.0;
        d.release_barrier();
        d.check_consistency().unwrap();
        for n in 0..2 {
            assert_eq!(d.cluster.node_mem(n)[0], 1.0, "node {n} word 0");
            assert_eq!(d.cluster.node_mem(n)[1], 2.0, "node {n} word 1");
        }
    }

    #[test]
    fn write_fault_after_invalidation_refetches_data() {
        let mut d = dsm(2, CostModel::paper_dual_cpu());
        d.write_access_excl(1, 0);
        d.cluster.node_mem_mut(1)[2] = 9.0;
        d.release_barrier();
        // Node 0 (home) steals the block back for writing.
        d.write_access_excl(0, 0);
        assert_eq!(d.cluster.node_mem(0)[2], 9.0);
        assert!(d.dir_state(0).is_excl_by(0));
        assert_eq!(d.cluster.tag(1, 0), Access::Invalid);
    }
}
