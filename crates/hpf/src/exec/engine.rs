//! The backend-agnostic BSP superstep driver and the shared execution
//! state ([`EngineCore`]) every backend works against.
//!
//! The driver walks the program statement list; for each parallel loop it
//! analyzes accesses (with a compile-time cache for static loops) and
//! runs one superstep in two explicit phases:
//!
//! * **Resolve phase**: the backend's [`CommBackend::resolve`] discovers
//!   and services every cross-node fault / ctl transfer / message the
//!   loop needs, against the state the previous superstep left behind.
//!   Default-protocol faults and the ctl tag transitions run sequentially
//!   in deterministic node order; the bulk data movement is planned
//!   sequentially and applied over disjoint shard pairs, concurrently
//!   when `resolve_workers > 1` (see [`fgdsm_protocol::TransferPlan`]) —
//!   with shared state folded in plan index order, so the threading never
//!   changes a report or trace byte.
//! * **Compute phase** ([`compute_phase`]): each node's kernel runs
//!   against its own [`NodeShard`] with zero cross-node access, so the
//!   driver may dispatch the shards across the run's persistent
//!   [`WorkerPool`]. Every charge, event and memory write in this phase
//!   is shard-local and its cost is a pure function of the loop
//!   analysis, so the schedule cannot perturb the virtual-time results:
//!   serial and threaded runs are byte-identical.
//!
//! Afterwards the backend observes writes, performs the reduction, runs
//! `post_loop`, and the driver stamps a superstep boundary into the event
//! trace. Nothing in this module inspects which backend is running.

use super::backend::CommBackend;
use super::{ExecConfig, HomeAssign, RunResult};
use crate::analysis::{self, LoopAccess};
use crate::ir::{ArrayHandle, KernelCtx, ParLoop, Program, RefMode, Stmt};
use crate::plan::{covering_blocks_into, ArrayMeta};
use fgdsm_protocol::Dsm;
use fgdsm_section::{Env, Range, Section};
use fgdsm_tempest::{
    CacheAligned, ChargeKind, Cluster, HomePolicy, Job, NodeShard, SegmentLayout, WorkerPool,
    NO_LOOP, NO_STEP,
};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// Minimum total kernel iteration count (summed over nodes) before the
/// compute phase dispatches onto worker threads: below this, even parked
/// pool workers cost more to wake than the kernels cost to run, and a
/// serial compute is faster. The compute analogue of
/// [`fgdsm_protocol::PAR_APPLY_MIN_WORDS`]; determinism is unaffected
/// either way.
pub const PAR_COMPUTE_MIN_POINTS: u64 = 2048;

/// Shared execution state: the program binding, the DSM, and the helpers
/// every backend composes (section linearization, default-protocol
/// resolution, the indirect-access inspector, directory-based gather).
pub struct EngineCore<'p> {
    pub prog: &'p Program,
    pub cfg: &'p ExecConfig,
    pub metas: Vec<ArrayMeta>,
    pub handles: Vec<ArrayHandle>,
    pub dsm: Dsm,
    pub env: Env,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Words per cache block.
    pub wpb: usize,
    /// Resolved compute-phase worker count (from `cfg.parallel`, capped
    /// later by `nprocs`). Resolved once per run so `FGDSM_PAR` is read
    /// a single time.
    pub workers: usize,
    /// Resolved worker count for the resolve phase's plan-apply stage
    /// (`cfg.resolve_parallel`, falling back to `cfg.parallel`).
    pub resolve_workers: usize,
    /// Supersteps executed so far; salts the `shuffle_resolve`
    /// perturbation so each loop instance gets a distinct node order.
    pub supersteps: u64,
    /// Compile-time analysis cache: loops whose access structure mentions
    /// no symbolic variables are analyzed once (keyed by loop address,
    /// stable for the duration of a run).
    analysis_cache: BTreeMap<usize, Rc<LoopAccess>>,
    /// Profiler loop ids in program order, keyed by loop address like
    /// `analysis_cache` (assigned by `run` over the body it executes).
    loop_ids: BTreeMap<usize, u32>,
    /// Superstep index of the in-flight superstep ([`NO_STEP`] between
    /// loops); stamps [`PlannedXfer`](super::PlannedXfer) records.
    pub cur_step: u32,
    /// Loop id of the in-flight superstep ([`NO_LOOP`] between loops).
    pub cur_loop: u32,
    /// Contract-planned transfer volumes, recorded by the backends via
    /// [`EngineCore::note_planned`] — the "predicted" side of the
    /// profiler's predicted-vs-observed comparison.
    pub planned: Vec<super::PlannedXfer>,
    /// Recycled compute-phase reduction slots, one padded cache line per
    /// node so concurrent workers' stores never share a line.
    partials_scratch: Vec<CacheAligned<f64>>,
    /// Default-protocol block covers of the loops whose covers cannot
    /// change within a run (static, no indirect reference), keyed by
    /// loop address like `analysis_cache` and shared by `Rc` so a hit
    /// costs no copy.
    cover_cache: BTreeMap<usize, Rc<Covers>>,
    /// Recycled covers for the loops `cover_cache` cannot serve — reused
    /// across supersteps with their buffers' capacity intact.
    cover_scratch: Covers,
}

/// One loop's default-protocol block covers: per node, the merged
/// `(first, end)` block ranges it writes and reads, and the blocks that
/// need the multiple-writer (twin/diff) path.
#[derive(Default, Debug, PartialEq)]
struct Covers {
    wcover: Vec<Vec<(usize, usize)>>,
    rcover: Vec<Vec<(usize, usize)>>,
    multi: BTreeSet<usize>,
}

/// Allocate every program array into a fresh page-aligned segment layout.
/// Shared by the engine and the sequential reference interpreter so both
/// agree on absolute word addresses (and therefore on `ArrayMeta` bases).
pub(crate) fn layout_arrays(
    prog: &Program,
    cfg: &ExecConfig,
) -> (SegmentLayout, Vec<ArrayMeta>, Vec<ArrayHandle>) {
    let mut layout = SegmentLayout::new(cfg.cost.words_per_page());
    let mut metas = Vec::with_capacity(prog.arrays.len());
    let mut handles = Vec::with_capacity(prog.arrays.len());
    for (i, a) in prog.arrays.iter().enumerate() {
        let base = layout.alloc(a.len());
        metas.push(ArrayMeta {
            id: crate::dist::ArrayId(i),
            base,
            layout: a.layout(),
        });
        handles.push(ArrayHandle::new(base, &a.extents));
    }
    (layout, metas, handles)
}

impl<'p> EngineCore<'p> {
    pub fn new(prog: &'p Program, cfg: &'p ExecConfig) -> Self {
        let (layout, metas, handles) = layout_arrays(prog, cfg);
        let policy = match cfg.home {
            HomeAssign::RoundRobin => HomePolicy::RoundRobin,
            HomeAssign::Blocked => HomePolicy::Blocked,
            HomeAssign::DataAligned => {
                let wpp = cfg.cost.words_per_page();
                let n_pages = layout.total_words().max(wpp).div_ceil(wpp);
                let mut homes: Vec<usize> = (0..n_pages).map(|p| p % cfg.nprocs).collect(); // padding pages interleave
                for (i, a) in prog.arrays.iter().enumerate() {
                    let meta = &metas[i];
                    let last_stride = meta.layout.stride(a.extents.len() - 1);
                    let first_page = meta.base / wpp;
                    let end_page = (meta.base + a.len()).div_ceil(wpp);
                    #[allow(clippy::needless_range_loop)]
                    for page in first_page..end_page {
                        let off = (page * wpp).saturating_sub(meta.base);
                        let j = ((off / last_stride) as i64).min(a.dist_extent() as i64 - 1);
                        homes[page] = a.owner_of(j, cfg.nprocs);
                    }
                }
                HomePolicy::Explicit(homes)
            }
        };
        let cluster = Cluster::new(cfg.nprocs, cfg.cost.clone(), &layout, policy);
        #[allow(unused_mut)]
        let mut dsm = Dsm::with_protocol(cluster, cfg.protocol);
        #[cfg(feature = "fault-inject")]
        dsm.set_injection(fgdsm_protocol::Injection {
            skew_send_range: cfg.inject.skew_send_range,
            skip_flush_range: cfg.inject.skip_flush_range,
            stale_owner_push: cfg.inject.stale_owner_push,
            reorder_plan_apply: cfg.inject.reorder_plan_apply,
            misfold_pool: cfg.inject.misfold_pool,
            corrupt_envelope: cfg.inject.corrupt_envelope,
            undercount_metrics: cfg.inject.undercount_metrics,
            skip_hazard_flush: cfg.inject.skip_hazard_flush,
        });
        #[cfg(not(feature = "fault-inject"))]
        assert!(
            !cfg.inject.skew_send_range
                && !cfg.inject.skip_flush_range
                && !cfg.inject.stale_owner_push
                && !cfg.inject.reorder_plan_apply
                && !cfg.inject.misfold_pool
                && !cfg.inject.corrupt_envelope
                && !cfg.inject.undercount_metrics
                && !cfg.inject.skip_hazard_flush,
            "protocol-level fault injection requires the `fault-inject` feature"
        );
        // Strict wire mode: the tcp backend always routes envelopes
        // through spawned node processes; the other backends do so when
        // `WireMode` asks (loopback transport — same encode/decode
        // round-trip, no threads).
        match cfg.backend {
            super::Backend::Tcp => {
                let geom = fgdsm_net::NetGeometry {
                    nprocs: cfg.nprocs,
                    wpb: cfg.cost.words_per_block() as u32,
                    seg_words: layout.total_words() as u64,
                };
                let opts = fgdsm_net::SocketOpts {
                    corrupt_frame_len: cfg.inject.corrupt_frame_len,
                    node_fault: cfg.inject.tcp_node_fault,
                    metrics: cfg.metrics.enabled(),
                    ..fgdsm_net::SocketOpts::default()
                };
                match fgdsm_net::SocketTransport::spawn(geom, opts) {
                    Ok(t) => dsm.set_wire(Box::new(t)),
                    Err(e) => panic!(
                        "tcp backend: cannot start node processes: {e} \
                         (check fgdsm_hpf::exec::tcp_available() before \
                         selecting Backend::Tcp)"
                    ),
                }
            }
            _ if cfg.wire.is_strict() => {
                dsm.set_wire(Box::new(fgdsm_protocol::Loopback));
            }
            _ => {}
        }
        // Wall-clock telemetry: a side channel over the wire seam only —
        // virtual-time state never sees it, so canonical artifacts stay
        // byte-identical with it on or off.
        if cfg.metrics.enabled() {
            dsm.enable_wire_metrics();
        }
        EngineCore {
            prog,
            cfg,
            metas,
            handles,
            dsm,
            env: cfg.base_env.clone(),
            scalars: prog.scalars.iter().copied().collect(),
            wpb: cfg.cost.words_per_block(),
            workers: cfg.parallel.workers(),
            resolve_workers: cfg.resolve_parallel.unwrap_or(cfg.parallel).workers(),
            supersteps: 0,
            analysis_cache: BTreeMap::new(),
            loop_ids: BTreeMap::new(),
            cur_step: NO_STEP,
            cur_loop: NO_LOOP,
            planned: Vec::new(),
            partials_scratch: Vec::new(),
            cover_cache: BTreeMap::new(),
            cover_scratch: Covers::default(),
        }
    }

    /// Profiler id of a loop: its position in program order, assigned by
    /// `run` before execution starts ([`NO_LOOP`] if unregistered).
    pub fn loop_id(&self, l: &ParLoop) -> u32 {
        self.loop_ids
            .get(&(l as *const ParLoop as usize))
            .copied()
            .unwrap_or(NO_LOOP)
    }

    /// Record a contract-planned transfer of `blocks` whole cache blocks
    /// of `array`, attributed to the in-flight superstep.
    pub fn note_planned(&mut self, array: usize, blocks: u64) {
        self.planned.push(super::PlannedXfer {
            step: self.cur_step,
            loop_id: self.cur_loop,
            array: array as u32,
            blocks,
            bytes: blocks * self.cfg.cost.block_bytes as u64,
        });
    }

    /// Per-loop access analysis with the compile-time/run-time split of
    /// §4.1: loops with a fixed access structure are analyzed once;
    /// symbolic loops re-evaluate their descriptors under the current
    /// environment.
    fn analyze(&mut self, l: &ParLoop) -> Rc<LoopAccess> {
        let key = l as *const ParLoop as usize;
        if let Some(hit) = self.analysis_cache.get(&key) {
            return hit.clone();
        }
        let fresh = Rc::new(analysis::analyze(self.prog, l, &self.env, self.cfg.nprocs));
        if l.is_static() {
            self.analysis_cache.insert(key, fresh.clone());
        }
        fresh
    }

    /// Word runs (absolute) of a section, with a fallback for shapes the
    /// linearizer declines (enumerate points; only small sections occur).
    pub fn section_runs(&self, array: usize, sec: &Section) -> Vec<(usize, usize)> {
        let meta = &self.metas[array];
        if let Some(lr) = meta.runs(sec) {
            return lr.iter_runs().collect();
        }
        assert!(
            sec.count() <= 1 << 20,
            "unoptimizable section too large to enumerate"
        );
        sec.points().iter().map(|pt| (meta.offset(pt), 1)).collect()
    }

    /// Default-protocol access resolution: make every declared section
    /// accessible before kernels run, counting faults. Sub-phases: all
    /// nodes' writes (with multi-writer detection for false-shared
    /// boundary blocks), then all nodes' reads.
    ///
    /// The block covers are a pure function of the loop and its analysis
    /// unless the loop is symbolic (its sections move with the
    /// environment) or gathers through an index array (the inspector
    /// reads node memory). Every other loop builds them once per run and
    /// replays them from `cover_cache` on each later superstep; the
    /// uncached loops rebuild them into the recycled `cover_scratch`.
    pub fn resolve_default(&mut self, l: &ParLoop, acc: &LoopAccess) {
        let key = l as *const ParLoop as usize;
        if let Some(hit) = self.cover_cache.get(&key).cloned() {
            // Debug builds prove the cache is never stale: every hit is
            // checked against a fresh build.
            #[cfg(debug_assertions)]
            {
                let mut fresh = Covers::default();
                self.build_covers(l, acc, &mut fresh);
                assert_eq!(fresh, *hit, "stale cached covers for loop `{}`", l.name);
            }
            self.fault_in(&hit);
            return;
        }
        if l.is_static() && !l.refs.iter().any(|r| r.is_indirect()) {
            let mut covers = Covers::default();
            self.build_covers(l, acc, &mut covers);
            let covers = Rc::new(covers);
            self.cover_cache.insert(key, covers.clone());
            self.fault_in(&covers);
        } else {
            // Recycled across supersteps (taken out of `self` so the
            // `&mut self` calls below can borrow it; restored after).
            let mut covers = std::mem::take(&mut self.cover_scratch);
            self.build_covers(l, acc, &mut covers);
            self.fault_in(&covers);
            self.cover_scratch = covers;
        }
    }

    /// Build one loop's default-protocol block covers into `out`,
    /// reusing its buffers' capacity: per node, the merged covering block
    /// ranges of its writes and reads, then the boundary blocks that need
    /// the multiple-writer path.
    #[allow(clippy::needless_range_loop)] // per-node loops index several parallel vecs
    fn build_covers(&mut self, l: &ParLoop, acc: &LoopAccess, out: &mut Covers) {
        let nprocs = self.cfg.nprocs;
        let wpb = self.wpb;
        let Covers {
            wcover,
            rcover,
            multi,
        } = out;
        wcover.resize_with(nprocs, Vec::new);
        rcover.resize_with(nprocs, Vec::new);
        // Boundary candidates: the first and last block of every raw write
        // run (before merging). A block written by two nodes necessarily
        // contains a section boundary of each, so it is an extremal block
        // of at least one raw run of every writer.
        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        for p in 0..nprocs {
            let mut wruns = fgdsm_section::LinearRanges::empty();
            let mut rruns = fgdsm_section::LinearRanges::empty();
            for (ri, r) in l.refs.iter().enumerate() {
                let sec = &acc.sections[p][ri];
                if sec.is_empty() {
                    continue;
                }
                if r.is_indirect() {
                    // Inspector: resolve the blocks this node actually
                    // touches by reading the index array (a real DSM
                    // faults on demand; the conservative section would
                    // grossly over-fault).
                    for off in self.inspect_indirect(p, r, &acc.iters[p]) {
                        rruns.runs.push(fgdsm_section::StridedRange {
                            base: off,
                            run_len: 1,
                            stride: 0,
                            count: 1,
                        });
                    }
                    continue;
                }
                let runs = self.section_runs(r.array.0, sec);
                if r.mode == RefMode::Write {
                    for &(s, len) in &runs {
                        if len > 0 {
                            candidates.insert(s / wpb);
                            candidates.insert((s + len - 1) / wpb);
                        }
                    }
                }
                let target = match r.mode {
                    RefMode::Write => &mut wruns,
                    RefMode::Read => &mut rruns,
                };
                for (s, len) in runs {
                    target.runs.push(fgdsm_section::StridedRange {
                        base: s,
                        run_len: len,
                        stride: 0,
                        count: 1,
                    });
                }
            }
            covering_blocks_into(&wruns, wpb, &mut wcover[p]);
            covering_blocks_into(&rruns, wpb, &mut rcover[p]);
        }
        // A candidate block needs the multiple-writer (twin/diff) path if
        // two or more nodes write it, or if one node writes it while
        // another reads it in the same interval — in the real system the
        // writer would simply re-fault after the reader's downgrade; in
        // the BSP engine the writer must keep its writable copy through
        // the read sub-phase.
        let contains = |ranges: &[(usize, usize)], b: usize| -> bool {
            let idx = ranges.partition_point(|&(_, e)| e <= b);
            idx < ranges.len() && ranges[idx].0 <= b
        };
        multi.clear();
        multi.extend(candidates.into_iter().filter(|&b| {
            let writers: Vec<usize> = (0..nprocs).filter(|&p| contains(&wcover[p], b)).collect();
            writers.len() >= 2
                || (writers.len() == 1
                    && (0..nprocs).any(|p| p != writers[0] && contains(&rcover[p], b)))
        }));
    }

    /// Service the faults a loop's covers describe: every node's writes,
    /// then every node's reads.
    fn fault_in(&mut self, covers: &Covers) {
        // Node visiting order for the sub-phases. Under the tolerated
        // `shuffle_resolve` perturbation the order is randomized per
        // superstep: the protocol contract must be insensitive to which
        // node faults first.
        let mut order: Vec<usize> = (0..self.cfg.nprocs).collect();
        if let Some(seed) = self.cfg.inject.shuffle_resolve {
            fgdsm_testkit::Rng::new(seed ^ self.supersteps).shuffle(&mut order);
        }
        // Sub-phase: writes.
        for &p in &order {
            for &(f, e) in &covers.wcover[p] {
                for b in f..e {
                    if covers.multi.contains(&b) {
                        self.dsm.write_access_multi(p, b);
                    } else {
                        self.dsm.write_access_excl(p, b);
                    }
                }
            }
        }
        // Sub-phase: reads.
        for &p in &order {
            for &(f, e) in &covers.rcover[p] {
                for b in f..e {
                    self.dsm.read_access(p, b);
                }
            }
        }
    }

    /// Inspector for indirect references (`x(idx(i))`): enumerate the
    /// element offsets node `p` will gather, by reading its (owned,
    /// current) copy of the index array — settled first, so a pending
    /// strict-wire landing on it is not overtaken. Supports the common
    /// 1-D gather.
    pub fn inspect_indirect(
        &mut self,
        p: usize,
        r: &crate::ir::ARef,
        iter: &[Range],
    ) -> Vec<usize> {
        use crate::ir::Subscript;
        let [Subscript::Indirect(idx_aid, c)] = r.subs.as_slice() else {
            panic!("indirect references must be 1-D gathers x(idx(i))");
        };
        let idx_base = self.metas[idx_aid.0].base;
        if let Some(last) = iter[0].last() {
            let first = idx_base + (iter[0].lo + c) as usize;
            self.dsm
                .wire_settle(p, first, idx_base + (last + c) as usize + 1 - first);
        }
        let target = &self.metas[r.array.0];
        let extent = self.prog.array(r.array).len() as i64;
        let mem = self.dsm.cluster.node_mem(p);
        let mut out = Vec::with_capacity(iter[0].count() as usize);
        for i in iter[0].iter() {
            let v = mem[idx_base + (i + c) as usize];
            let j = v as i64;
            assert!(
                (0..extent).contains(&j),
                "indirect index {j} out of bounds (extent {extent})"
            );
            out.push(target.base + j as usize);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Gather the canonical segment contents by directory state: copy
    /// from the node the directory records as holding current data (the
    /// gather the shared-memory backends use). Bulk-copies each page from
    /// its home — the canonical source for every `Shared`/`Multi` block
    /// and for every block traffic never moved — then patches the blocks
    /// the directory records as exclusively owned away from home, so the
    /// per-block work scales with traffic instead of segment size.
    pub fn gather_by_directory(&self) -> Vec<f64> {
        let cl = &self.dsm.cluster;
        let words = cl.seg_words();
        let wpp = cl.words_per_page();
        let mut out = vec![0.0f64; words];
        for page_start in (0..words).step_by(wpp) {
            let end = (page_start + wpp).min(words);
            let h = cl.home_of_word(page_start);
            out[page_start..end].copy_from_slice(&cl.node_mem(h)[page_start..end]);
        }
        for b in self.dsm.dirty_dir_blocks() {
            if let fgdsm_protocol::DirState::Excl { owner } = self.dsm.dir_state(b) {
                let (s, e) = cl.block_words(b);
                out[s..e].copy_from_slice(&cl.node_mem(owner)[s..e]);
            }
        }
        out
    }
}

/// Run `prog` under `cfg` with the given communication backend. When
/// `want_trace` is set, the structured event-trace JSON is also rendered
/// and returned (the same document `FGDSM_TRACE=<path>` writes).
pub(super) fn run(
    prog: &Program,
    cfg: &ExecConfig,
    mut backend: Box<dyn CommBackend>,
    want_trace: bool,
    want_chrome: bool,
) -> (RunResult, Option<String>, Option<String>) {
    let wall_start = std::time::Instant::now();
    let mut core = EngineCore::new(prog, cfg);
    // Persistent worker pool: spawned once here, reused by every
    // superstep's compute phase and resolve-apply waves. Skipped when
    // both phases are pinned serial.
    let pool_workers = core.workers.max(core.resolve_workers);
    if pool_workers > 1 {
        core.dsm
            .cluster
            .set_worker_pool(Some(Arc::new(WorkerPool::new(pool_workers))));
    }
    backend.validate(&core);
    let body = prog.body.clone();
    // Register profiler loop ids over the body actually executed (the
    // clone), in program order — the same order `Program::par_loops`
    // yields, so report consumers can map ids back to loop names.
    for (i, l) in crate::ir::par_loops_of(&body).into_iter().enumerate() {
        core.loop_ids.insert(l as *const ParLoop as usize, i as u32);
    }
    exec_stmts(&mut core, backend.as_mut(), &body);
    // Final synchronization so the report reflects a completed program.
    backend.finish(&mut core);
    core.dsm.wire_flush();
    let data = backend.gather(&mut core);
    let (pre_skipped, pre_performed) = backend.pre_stats();
    let mut trace = None;
    if want_trace {
        trace = Some(core.dsm.cluster.trace_json());
    }
    if let Ok(path) = std::env::var("FGDSM_TRACE") {
        if !path.is_empty() {
            let json = trace
                .clone()
                .unwrap_or_else(|| core.dsm.cluster.trace_json());
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("FGDSM_TRACE: cannot write {path}: {e}");
            }
        }
    }
    let mut chrome = None;
    if want_chrome {
        chrome = Some(core.dsm.cluster.trace_chrome());
    }
    if let Ok(path) = std::env::var("FGDSM_CHROME") {
        if !path.is_empty() {
            let json = chrome
                .clone()
                .unwrap_or_else(|| core.dsm.cluster.trace_chrome());
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("FGDSM_CHROME: cannot write {path}: {e}");
            }
        }
    }
    let mut report = core.dsm.cluster.report();
    // Host time, stamped outside the deterministic virtual-time state
    // (excluded from the canonical report encoding).
    report.wall_ns = wall_start.elapsed().as_nanos() as u64;
    report.wire_route_ns = core.dsm.wire_route_ns();
    // Post-run invariants: the protocol left a consistent directory and
    // the trace is sane. These hold for every backend on every program;
    // the fuzz oracle (and every test) gets them for free.
    if let Err(e) = core.dsm.check_consistency() {
        panic!("post-run protocol consistency check failed: {e}");
    }
    assert!(
        report.traffic_balanced(),
        "post-run trace invariant violated: sent {} msgs / {} bytes but received {} msgs / {} bytes",
        report.total_msgs(),
        report.total_bytes(),
        report.total_msgs_recv(),
        report.total_bytes_recv()
    );
    assert!(
        core.dsm.cluster.clocks_monotone(),
        "post-run trace invariant violated: a node clock moved backwards"
    );
    // Profiler invariants: per-superstep interval deltas sum exactly to
    // the whole-run per-node stats, and the block heatmaps account for
    // every miss and byte. Pure functions of virtual-time state, so they
    // hold on every backend / scheduling combination.
    if let Err(e) = report.check_profile_invariants() {
        panic!("post-run profile invariant violated: {e}");
    }
    let (wire_frames, wire_payload_bytes) = core.dsm.wire_stats();
    // Orderly wire teardown: collect the peers' `ByeStats`, reconcile
    // their double-entry books against ours (divergence is a loud, typed
    // panic), and merge every process's metric registry under node-tagged
    // keys. Runs with metrics on or off — reconciliation is free and
    // should always happen on an orderly shutdown.
    let (metrics, wire_spans) = core.dsm.wire_finish();
    let result = RunResult {
        report,
        scalars: core.scalars,
        data,
        metas: core.metas,
        ctl: core.dsm.ctl_stats(),
        pre_skipped,
        pre_performed,
        planned: core.planned,
        wire_frames,
        wire_payload_bytes,
        metrics,
        wire_spans,
    };
    (result, trace, chrome)
}

fn exec_stmts(core: &mut EngineCore, backend: &mut dyn CommBackend, stmts: &[Stmt]) {
    for s in stmts {
        match s {
            Stmt::Par(l) => exec_par(core, backend, l),
            Stmt::Time { var, count, body } => {
                let saved = core.env.get(*var);
                for t in 0..*count {
                    core.env.set(*var, t);
                    exec_stmts(core, backend, body);
                }
                if let Some(v) = saved {
                    core.env.set(*var, v);
                }
            }
            Stmt::Scalar { name, f } => {
                let v = f(&core.scalars);
                core.scalars.insert(name, v);
                for n in 0..core.cfg.nprocs {
                    core.dsm.cluster.charge(n, 100, ChargeKind::Compute);
                }
            }
        }
    }
}

/// One superstep, in two explicit phases: the **resolve phase** (backend
/// communication against the previous superstep's state — planned
/// sequentially, applied over disjoint shard pairs with up to
/// `resolve_workers` threads), then the **compute phase** (kernels on
/// their own shards, possibly threaded), then write observation,
/// reduction, backend cleanup and the superstep boundary.
fn exec_par(core: &mut EngineCore, backend: &mut dyn CommBackend, l: &ParLoop) {
    let nprocs = core.cfg.nprocs;
    let acc = core.analyze(l);
    let acc = &*acc;
    core.supersteps += 1;

    // Open the profiler interval: every event from here to the closing
    // `end_superstep` is stamped with (superstep index, loop id).
    let step = (core.supersteps - 1) as u32;
    let loop_id = core.loop_id(l);
    core.cur_step = step;
    core.cur_loop = loop_id;
    core.dsm.cluster.begin_superstep(step, loop_id);

    // --- Resolve phase: all cross-node traffic, deterministic order. ---
    if core.cfg.inject.clear_iw_memo {
        // Tolerated perturbation: forget every first-time memoization
        // before the loop resolves, as if each loop instance were the
        // first. `clear_iw_memo` also invalidates the covered tags so the
        // RTOE excuse is not needed for copies that no longer exist.
        core.dsm.clear_iw_memo();
    }
    backend.resolve(core, l, acc);
    // Strict wire mode: every transfer the resolve phase posted lands
    // before any kernel reads node memory.
    core.dsm.wire_flush();

    // --- Compute phase: zero cross-node access from here to the join. --
    // One padded cache line per node (recycled across supersteps):
    // adjacent nodes' reduction slots never false-share even when a
    // chunk boundary puts them on different workers.
    let mut partials = std::mem::take(&mut core.partials_scratch);
    partials.clear();
    partials.resize(nprocs, CacheAligned(0.0));
    compute_phase(core, l, acc, &mut partials);

    backend.note_kernel_writes(core, l, acc);

    // Reduction.
    if let Some(rs) = l.reduction {
        let plain: Vec<f64> = partials.iter().map(|c| c.0).collect();
        let v = backend.reduce(core, &plain, rs.op);
        core.scalars.insert(rs.target, v);
    }
    core.partials_scratch = partials;

    // End of loop: backend cleanup + synchronization, then close the
    // profiler interval (stamps the superstep boundary into the event
    // trace, snapshots per-node stats, and runs the false-sharing scan).
    backend.post_loop(core, l, acc);
    core.dsm.wire_flush();
    core.dsm.cluster.end_superstep(step, loop_id);
    core.cur_step = NO_STEP;
    core.cur_loop = NO_LOOP;
}

/// The compute phase of one superstep: run each node's kernel against
/// that node's shard, charging the (analysis-determined) compute cost to
/// the shard's clock. Per-node work touches only `&mut NodeShard` plus
/// shared immutable state, so the shards can be split across the run's
/// persistent [`WorkerPool`]. Contiguous chunking keeps each shard on
/// exactly one worker and per-shard state makes the outcome independent
/// of the schedule — the serial path below produces byte-identical
/// traces.
/// Loops below [`PAR_COMPUTE_MIN_POINTS`] total iterations run serially
/// regardless: waking workers would cost more than the kernels.
fn compute_phase(
    core: &mut EngineCore,
    l: &ParLoop,
    acc: &LoopAccess,
    partials: &mut [CacheAligned<f64>],
) {
    let EngineCore {
        cfg,
        handles,
        dsm,
        env,
        scalars,
        workers,
        ..
    } = core;
    let nprocs = cfg.nprocs;
    let (env, scalars, handles) = (&*env, &*scalars, &handles[..]);
    let cache = &cfg.cache;

    let run_node = |sh: &mut NodeShard, partial: &mut CacheAligned<f64>| {
        let p = sh.id();
        let iter = &acc.iters[p];
        if iter.iter().any(Range::is_empty) {
            return;
        }
        let points: u64 = iter.iter().map(Range::count).product();
        let ws_bytes: u64 = acc.sections[p].iter().map(|s| s.count() * 8).sum();
        let factor = cache.factor(ws_bytes);
        let cost = (points as f64 * l.cost_per_iter_ns as f64 * factor) as u64;
        sh.charge(cost, ChargeKind::Compute);
        let mut ctx = KernelCtx {
            mem: sh.mem_mut(),
            iter,
            env,
            scalars,
            partial: 0.0,
            node: p,
            nprocs,
            handles,
        };
        l.kernel.call(&mut ctx);
        partial.0 = ctx.partial;
    };

    // Volume gate: total kernel iterations this superstep, summed over
    // nodes. Tiny steps (grav's moment loops, scalar-ish updates) run
    // serially even when `FGDSM_PAR` asks for workers.
    let total_points: u64 = (0..nprocs)
        .map(|p| {
            let iter = &acc.iters[p];
            if iter.iter().any(Range::is_empty) {
                0
            } else {
                iter.iter().map(Range::count).product()
            }
        })
        .sum();
    let mut workers = (*workers).min(nprocs).max(1);
    if total_points < PAR_COMPUTE_MIN_POINTS {
        workers = 1;
    }
    let pool = (workers > 1).then(|| dsm.cluster.worker_pool(workers));
    let shards = dsm.cluster.shards_mut();
    if let Some(pool) = pool {
        let chunk = nprocs.div_ceil(workers);
        let run_node = &run_node;
        let jobs: Vec<Job> = shards
            .chunks_mut(chunk)
            .zip(partials.chunks_mut(chunk))
            .map(|(shard_chunk, partial_chunk)| {
                Box::new(move || {
                    for (sh, partial) in shard_chunk.iter_mut().zip(partial_chunk.iter_mut()) {
                        run_node(sh, partial);
                    }
                }) as Job
            })
            .collect();
        pool.run(jobs);
    } else {
        for (sh, partial) in shards.iter_mut().zip(partials.iter_mut()) {
            run_node(sh, partial);
        }
    }
}
