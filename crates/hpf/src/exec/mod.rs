//! Executors: run a mini-HPF program over the simulated DSM.
//!
//! The executor is split into a backend-agnostic BSP **superstep driver**
//! ([`engine`]) and three pluggable **communication backends** behind the
//! [`backend::CommBackend`] trait:
//!
//! * [`sm_unopt::SmUnopt`] — every remote access goes through the default
//!   protocol: before a loop's kernels run, each node's declared
//!   read/write sections are resolved block-by-block (faults,
//!   invalidations, 4-hop forwards), exactly what the authors'
//!   unoptimized shared-memory compiler emits.
//! * [`sm_opt::SmOpt`] — the compiler-orchestrated incoherence of §4.2:
//!   per-loop access analysis finds the producer→consumer transfers,
//!   `shmem_limits` shrinks them to whole blocks, and the §4.2 call
//!   contract (`mk_writable` / barrier / `implicit_writable` / barrier /
//!   `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
//!   moves the data; boundary blocks and cold misses still take the
//!   default path. [`OptLevel`] toggles bulk transfer, run-time overhead
//!   elimination and the PRE extension (Figure 4).
//! * [`mp::Mp`] — the message-passing backend: owner-computes with direct
//!   marshalled messages, no coherence machinery at all, paying the PGI
//!   runtime's per-message overhead.
//!
//! Every transfer can instead be forced through an encoded
//! [`fgdsm_protocol::WireMsg`] envelope: [`WireMode`] /
//! `FGDSM_WIRE=strict` round-trip it through the in-process loopback
//! transport under any backend, and [`Backend::Tcp`] runs `sm_opt`'s full
//! contract with every envelope framed over a socket to a spawned
//! `fgdsm-node` process. Both are byte-identical to the zero-copy fast
//! path (determinism suite + fuzz oracle).
//!
//! Execution is BSP, and every superstep is split into two explicit
//! phases. The **resolve phase** discovers every cross-node transfer the
//! loop needs against the state the previous superstep left behind; its
//! data movement is split into a sequential *plan* pass (call-site
//! bookkeeping, payload grouping — see [`fgdsm_protocol::TransferPlan`])
//! and an *apply* stage that executes node-disjoint plans concurrently
//! over disjoint shard pairs, folding shared state in plan index order.
//! The **compute phase** then runs each node's kernel against that
//! node's own [`fgdsm_tempest::NodeShard`] only — zero cross-node access
//! — dispatched across a persistent [`fgdsm_tempest::WorkerPool`].
//! Neither phase's threading changes a single virtual-time charge:
//! serial and parallel runs produce byte-identical reports and traces.
//! [`ParallelMode`] / the `FGDSM_PAR` env var select the worker count
//! for both phases ([`ExecConfig::resolve_parallel`] can pin the resolve
//! phase separately).
//!
//! Set `FGDSM_TRACE=<path>` to export the structured event trace of a run
//! as JSON (see [`fgdsm_tempest::NodeTrace`]), or call [`execute_traced`]
//! to get the same document back directly.

pub mod backend;
pub mod engine;
pub mod mp;
pub mod reference;
pub mod sm_opt;
pub mod sm_unopt;

pub use reference::{execute_reference, ReferenceResult};

use crate::ir::Program;
use crate::plan::{ArrayMeta, OptLevel};
use backend::CommBackend;
use fgdsm_protocol::{CtlStats, ProtocolKind};
use fgdsm_section::Env;
use fgdsm_tempest::{CacheModel, ClusterReport, CostModel, MetricsRegistry, WireSpan};
use std::collections::BTreeMap;

/// Can the `tcp` backend run here? True when the sandbox lets us bind a
/// loopback TCP or Unix-domain socket (honors `FGDSM_NET`). Callers that
/// get `false` should skip with a notice rather than fail.
pub fn tcp_available() -> bool {
    fgdsm_net::available_kind().is_some()
}

/// Which executor to use.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Default protocol only.
    SmUnopt,
    /// Compiler-orchestrated incoherence at the given optimization level.
    SmOpt(OptLevel),
    /// Message-passing backend.
    Mp,
    /// Socket-backed multi-process distributed backend: `sm_opt`'s full
    /// contract, but every inter-node transfer is framed over a real
    /// socket (TCP loopback, or Unix-domain where TCP is forbidden) to a
    /// spawned `fgdsm-node` worker *process* that owns a mirror of the
    /// shard words, decodes each envelope with the paranoid wire
    /// decoder, applies it, and re-encodes the reply from its own
    /// memory. Byte-identical to `sm_opt` at the full optimization
    /// level. A dead node surfaces as a typed
    /// [`fgdsm_protocol::WireError::PeerGone`], a wedged one as
    /// [`fgdsm_protocol::WireError::Timeout`] once the
    /// `FGDSM_NET_TIMEOUT_MS` recv deadline fires — both catchable via
    /// [`try_execute`].
    Tcp,
}

/// Whether inter-node data movement must round-trip through encoded
/// [`fgdsm_protocol::WireMsg`] envelopes. The strict path exists for
/// differential testing: it is behaviorally identical to the zero-copy
/// fast path — same charges, same counters, bit-identical data — and the
/// determinism suite holds it to that.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WireMode {
    /// Honor the `FGDSM_WIRE` env var (`strict` → strict); fast
    /// otherwise.
    #[default]
    Auto,
    /// Zero-copy fast path (shard-to-shard copies).
    Fast,
    /// Envelope every transfer: encode → transport → decode → apply.
    Strict,
}

impl WireMode {
    /// Resolve to the concrete strictness (reads `FGDSM_WIRE` on `Auto`).
    pub fn is_strict(self) -> bool {
        match self {
            WireMode::Strict => true,
            WireMode::Fast => false,
            WireMode::Auto => std::env::var("FGDSM_WIRE")
                .map(|v| v.trim().eq_ignore_ascii_case("strict"))
                .unwrap_or(false),
        }
    }
}

/// Whether wall-clock telemetry (the [`fgdsm_tempest::metrics`]
/// registry: per-`WireMsg`-class encode/route/decode/apply histograms on
/// the coordinator, recv/apply/re-encode histograms in the workers) is
/// recorded for a run. Purely a side-channel knob: canonical reports,
/// traces, and profiles are byte-identical with metrics on or off — the
/// guard suite holds it to that. Zero-cost when off: no clocks are read.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MetricsMode {
    /// Honor the `FGDSM_METRICS` env var (`1`/`true`/`on` → on); off
    /// otherwise.
    #[default]
    Auto,
    /// Record wall-clock telemetry.
    On,
    /// No telemetry, no clock reads.
    Off,
}

impl MetricsMode {
    /// Resolve to the concrete setting (reads `FGDSM_METRICS` on `Auto`).
    pub fn enabled(self) -> bool {
        match self {
            MetricsMode::On => true,
            MetricsMode::Off => false,
            MetricsMode::Auto => fgdsm_tempest::metrics::env_enabled(),
        }
    }
}

/// How page homes are assigned relative to the data distribution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HomeAssign {
    /// The HPF runtime places pages to match each array's distribution,
    /// so owners of BLOCK-distributed data are home to their own pages
    /// (CYCLIC arrays still interleave owners within a page). This is how
    /// the paper's system behaves: first writes by owners do not fault;
    /// `lu` pays page *mapping* cost, not ownership misses.
    #[default]
    DataAligned,
    /// Pages round-robin across nodes regardless of the distribution.
    RoundRobin,
    /// Contiguous page chunks per node.
    Blocked,
}

/// How the compute phase and the resolve phase's apply stage are
/// scheduled onto host threads. Purely a wall-clock knob: virtual-time
/// charges are per-shard and plan merges are index-ordered, so every
/// setting produces byte-identical [`ClusterReport`]s and trace streams.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ParallelMode {
    /// Honor the `FGDSM_PAR` env var (`0` or `1` → serial, `n` → `n`
    /// workers); if unset, use the host's available cores.
    #[default]
    Auto,
    /// Run everything on the driver thread, one node at a time.
    Serial,
    /// Dispatch each phase across up to `n` persistent pool workers.
    Threads(usize),
}

impl ParallelMode {
    /// Resolve to a concrete worker count (≥ 1).
    pub fn workers(self) -> usize {
        match self {
            ParallelMode::Serial => 1,
            ParallelMode::Threads(n) => n.max(1),
            ParallelMode::Auto => match std::env::var("FGDSM_PAR") {
                Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
                Err(_) => std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            },
        }
    }
}

/// How worker threads are provisioned when a phase runs parallel. The
/// persistent [`fgdsm_tempest::WorkerPool`] is the only strategy; the
/// enum stays for callers that pin it explicitly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PoolMode {
    /// One long-lived [`fgdsm_tempest::WorkerPool`] per `execute`, shared
    /// by the compute phase and the resolve phase's apply waves.
    #[default]
    Persistent,
}

/// A full execution configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    pub nprocs: usize,
    pub cost: CostModel,
    pub cache: CacheModel,
    pub home: HomeAssign,
    pub backend: Backend,
    /// Default coherence protocol (compiler-orchestrated incoherence is
    /// only supported over the eager-invalidate protocol).
    pub protocol: ProtocolKind,
    /// Bindings for problem-level symbolics referenced by the program.
    pub base_env: Env,
    /// Host-thread scheduling for both superstep phases (wall-clock only;
    /// never affects results).
    pub parallel: ParallelMode,
    /// Override the resolve phase's apply-stage scheduling; `None` follows
    /// `parallel`. Lets tests pin serial resolve against threaded compute
    /// (and vice versa) in one run.
    pub resolve_parallel: Option<ParallelMode>,
    /// Worker provisioning for parallel phases (always the persistent
    /// pool; wall-clock only, never affects results).
    pub pool: PoolMode,
    /// Wire discipline for inter-node data movement: zero-copy fast path
    /// or strict envelope round-tripping (`FGDSM_WIRE=strict`). The
    /// `tcp` backend is always strict regardless of this knob.
    pub wire: WireMode,
    /// Wall-clock telemetry (`FGDSM_METRICS=1`): per-message-class
    /// latency histograms on both sides of the wire, merged into
    /// [`RunResult::metrics`]. Side-channel only — canonical artifacts
    /// are byte-identical either way.
    pub metrics: MetricsMode,
    /// Fault-injection knobs for the differential fuzzer (all off by
    /// default; the protocol-level mutations additionally require the
    /// `fault-inject` cargo feature).
    pub inject: InjectConfig,
}

/// Fault-injection configuration: *tolerated* perturbations the §4.2
/// contract must survive without changing results, plus *must-catch*
/// protocol mutations (forwarded to
/// [`fgdsm_protocol::Dsm::set_injection`]) whose incoherence the
/// differential oracle has to detect. Everything defaults to off and the
/// tolerated knobs are honest config — they only reorder or de-optimize
/// work the contract already claims is order-independent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectConfig {
    /// Shuffle the node service order of the default-protocol resolve
    /// sub-phases with this seed. Faults of independent nodes commute, so
    /// results must not change.
    pub shuffle_resolve: Option<u64>,
    /// Clear the `implicit_writable` memo (and the tags it records)
    /// before every superstep's resolve, de-optimizing run-time-overhead
    /// elimination back to the slow path.
    pub clear_iw_memo: bool,
    /// Shrink every compiler-controlled block range by one block at each
    /// end, forcing those boundary blocks onto the default-protocol path.
    pub force_boundary: bool,
    /// Must-catch: off-by-one `send_range` bounds (needs `fault-inject`).
    pub skew_send_range: bool,
    /// Must-catch: skip `flush_range` entirely (needs `fault-inject`).
    pub skip_flush_range: bool,
    /// Must-catch: redirect `send_range` pushes to the (possibly stale)
    /// home copy whenever the home is a third party — the §4.3 stale
    /// owner-memo hazard (needs `fault-inject`).
    pub stale_owner_push: bool,
    /// Must-catch: reverse the plan order of the resolve phase's apply
    /// stage under a parallel resolve — a nondeterministic merge the
    /// differential oracle must detect (needs `fault-inject`).
    pub reorder_plan_apply: bool,
    /// Must-catch: fold the parallel apply stage's outcomes rotated out
    /// of plan-index order — the merge mistake a worker-pool integration
    /// could make (needs `fault-inject`).
    pub misfold_pool: bool,
    /// Must-catch: flip a byte inside the first envelope routed in strict
    /// wire mode — `WireMsg::from_bytes` must reject the frame and fail
    /// the run loudly, proving decode validation has teeth (needs
    /// `fault-inject` and an envelope path: `FGDSM_WIRE=strict` or the
    /// `tcp` backend).
    pub corrupt_envelope: bool,
    /// Must-catch: overwrite the length prefix of the first data frame
    /// the coordinator sends with an oversized value — the node's
    /// framing layer must reject it against [`fgdsm_protocol::MAX_FRAME_BYTES`]
    /// before allocating, and the run must fail loudly. Transport-level
    /// (lives in `fgdsm-net`, not the protocol), so it does **not**
    /// require the `fault-inject` feature — but it only has an effect on
    /// the `tcp` backend.
    pub corrupt_frame_len: bool,
    /// Fault-tolerance harness knob: arm node `n` of the `tcp` backend
    /// with a [`fgdsm_net::NodeFault`] (exit or wedge after a batch
    /// count). The coordinator must surface a typed
    /// [`fgdsm_protocol::WireError`] within the configured deadline —
    /// no hang, no partial artifact. Transport-level; no effect on
    /// in-process backends.
    pub tcp_node_fault: Option<(u32, fgdsm_net::NodeFault)>,
    /// Must-catch: skip the coordinator's per-class `payload_bytes.*`
    /// metrics counter for the first envelope encoded — the run itself
    /// and the double-entry books stay correct, so only the telemetry
    /// conservation invariant ([`RunResult::check_metrics_conservation`])
    /// can catch the undercount (needs `fault-inject`, metrics on, and
    /// an envelope path).
    pub undercount_metrics: bool,
    /// Must-catch: skip the first hazard flush of strict wire mode, so
    /// one read of a block whose deferred landing is still pending sees
    /// stale contents — the oracle must catch the divergence, proving the
    /// hazard rule has teeth (needs `fault-inject` and an envelope path).
    pub skip_hazard_flush: bool,
}

impl ExecConfig {
    /// Unoptimized shared memory on the paper's dual-cpu cluster.
    pub fn sm_unopt(nprocs: usize) -> Self {
        ExecConfig {
            nprocs,
            cost: CostModel::paper_dual_cpu(),
            cache: CacheModel::paper(),
            home: HomeAssign::DataAligned,
            backend: Backend::SmUnopt,
            protocol: ProtocolKind::EagerInvalidate,
            base_env: Env::new(),
            parallel: ParallelMode::Auto,
            resolve_parallel: None,
            pool: PoolMode::Persistent,
            wire: WireMode::Auto,
            metrics: MetricsMode::Auto,
            inject: InjectConfig::default(),
        }
    }

    /// Optimized shared memory (full §4.2 + §4.3 optimizations).
    pub fn sm_opt(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::SmOpt(OptLevel::full()),
            ..Self::sm_unopt(nprocs)
        }
    }

    /// Message-passing backend.
    pub fn mp(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::Mp,
            ..Self::sm_unopt(nprocs)
        }
    }

    /// Socket-backed multi-process backend (`FGDSM_BACKEND=tcp`): the
    /// full `sm_opt` contract with every transfer framed over loopback
    /// TCP (or UDS) to spawned `fgdsm-node` worker processes. Check
    /// [`tcp_available`] first — sandboxes may forbid sockets.
    pub fn tcp(nprocs: usize) -> Self {
        ExecConfig {
            backend: Backend::Tcp,
            ..Self::sm_unopt(nprocs)
        }
    }

    /// Switch to the single-cpu cost model.
    pub fn single_cpu(mut self) -> Self {
        self.cost = CostModel {
            cpu: fgdsm_tempest::CpuMode::Single,
            ..self.cost
        };
        self
    }

    /// Replace the optimization level (must be an SmOpt config).
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.backend = Backend::SmOpt(opt);
        self
    }

    /// Run the default protocol as write-update instead of
    /// eager-invalidate (unoptimized shared memory only).
    pub fn write_update(mut self) -> Self {
        self.protocol = ProtocolKind::WriteUpdate;
        self
    }

    /// Pin both superstep phases to the driver thread.
    pub fn serial(mut self) -> Self {
        self.parallel = ParallelMode::Serial;
        self
    }

    /// Dispatch both superstep phases across up to `n` pool workers.
    pub fn threads(mut self, n: usize) -> Self {
        self.parallel = ParallelMode::Threads(n);
        self
    }

    /// Pin the resolve phase's apply stage to the driver thread, leaving
    /// the compute phase on `parallel`.
    pub fn resolve_serial(mut self) -> Self {
        self.resolve_parallel = Some(ParallelMode::Serial);
        self
    }

    /// Dispatch the resolve phase's apply stage across up to `n` pool
    /// workers, leaving the compute phase on `parallel`.
    pub fn resolve_threads(mut self, n: usize) -> Self {
        self.resolve_parallel = Some(ParallelMode::Threads(n));
        self
    }

    /// Pin the persistent worker pool (the only strategy and already
    /// the default).
    pub fn pooled(mut self) -> Self {
        self.pool = PoolMode::Persistent;
        self
    }

    /// Force every inter-node transfer through an encoded wire envelope
    /// (the `FGDSM_WIRE=strict` differential-testing path).
    pub fn strict(mut self) -> Self {
        self.wire = WireMode::Strict;
        self
    }

    /// Record wall-clock telemetry for this run regardless of
    /// `FGDSM_METRICS`.
    pub fn metered(mut self) -> Self {
        self.metrics = MetricsMode::On;
        self
    }

    /// Disable wall-clock telemetry for this run regardless of
    /// `FGDSM_METRICS`.
    pub fn unmetered(mut self) -> Self {
        self.metrics = MetricsMode::Off;
        self
    }

    /// Replace the fault-injection configuration.
    pub fn with_inject(mut self, inject: InjectConfig) -> Self {
        self.inject = inject;
        self
    }
}

/// One contract-planned transfer: the §4.2 schedule decided to move
/// `blocks` whole cache blocks of `array` during superstep `step` (loop
/// `loop_id`). The profiler compares these against the measured per-loop
/// traffic to expose loops the contract failed to cover (bytes moved by
/// default-protocol faults instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedXfer {
    pub step: u32,
    pub loop_id: u32,
    pub array: u32,
    pub blocks: u64,
    pub bytes: u64,
}

/// The result of executing a program.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub report: ClusterReport,
    pub scalars: BTreeMap<&'static str, f64>,
    /// Gathered canonical contents of the global segment.
    pub data: Vec<f64>,
    pub metas: Vec<ArrayMeta>,
    pub ctl: CtlStats,
    /// PRE statistics: transfers skipped as redundant / performed.
    pub pre_skipped: u64,
    pub pre_performed: u64,
    /// Contract-planned transfer volumes, in planning order (empty for
    /// backends that plan nothing: `sm_unopt`, `mp`).
    pub planned: Vec<PlannedXfer>,
    /// Envelope frames routed through the wire layer (0 on the zero-copy
    /// fast path). Wire accounting only — deliberately outside the
    /// canonical report so strict and fast runs stay byte-identical.
    pub wire_frames: u64,
    /// Total on-wire payload bytes carried by those frames.
    pub wire_payload_bytes: u64,
    /// Merged wall-clock telemetry (`None` when metrics are off):
    /// coordinator keys under `coord.`, per-worker keys under `node<i>.`
    /// for the `tcp` backend. Side-channel only — never feeds the
    /// canonical report.
    pub metrics: Option<MetricsRegistry>,
    /// Wall-clock spans of the wire transport's batch round-trips
    /// (empty when metrics are off), feeding the merged Chrome trace.
    pub wire_spans: Vec<WireSpan>,
}

impl RunResult {
    /// Extract the gathered contents of one array.
    pub fn array(&self, prog: &Program, id: crate::dist::ArrayId) -> Vec<f64> {
        let meta = &self.metas[id.0];
        let len = prog.array(id).len();
        self.data[meta.base..meta.base + len].to_vec()
    }

    /// Total execution time in seconds (Figure 3's quantity).
    pub fn total_s(&self) -> f64 {
        self.report.total_s()
    }

    /// Measured host time spent inside the wire transport's `route`
    /// calls (0 on the zero-copy fast path). Real time, like
    /// [`fgdsm_tempest::ClusterReport::wall_ns`] — outside the canonical
    /// report so strict/fast/socket runs stay byte-identical.
    pub fn wire_route_ns(&self) -> u64 {
        self.report.wire_route_ns
    }

    /// The merged wall-clock metrics registry, if telemetry was on.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Double-entry conservation over the telemetry side channel: the
    /// per-class `payload_bytes.*` counters — coordinator's, and each
    /// worker's when present — must each sum to exactly
    /// [`RunResult::wire_payload_bytes`]. `Ok(())` when metrics are off
    /// (nothing to check) or no frames were routed.
    pub fn check_metrics_conservation(&self) -> Result<(), String> {
        let Some(reg) = self.metrics.as_ref() else {
            return Ok(());
        };
        let coord: u64 = reg
            .iter()
            .filter(|(k, _)| k.starts_with("coord.payload_bytes."))
            .filter_map(|(_, m)| m.as_counter())
            .sum();
        if coord != self.wire_payload_bytes {
            return Err(format!(
                "metrics conservation: coordinator per-class payload counters sum to {coord}, \
                 but the run routed {} payload bytes",
                self.wire_payload_bytes
            ));
        }
        // Worker registries (tcp backend only): every node that shipped
        // metrics home must account for the full payload volume it saw.
        let mut nodes: Vec<&str> = reg
            .iter()
            .filter_map(|(k, _)| k.split_once('.').map(|(tag, _)| tag))
            .filter(|tag| tag.starts_with("node"))
            .collect();
        nodes.dedup();
        let per_node_total: u64 = nodes
            .iter()
            .map(|tag| {
                reg.iter()
                    .filter(|(k, _)| {
                        k.strip_prefix(tag)
                            .and_then(|r| r.strip_prefix('.'))
                            .is_some_and(|r| r.starts_with("payload_bytes."))
                    })
                    .filter_map(|(_, m)| m.as_counter())
                    .sum::<u64>()
            })
            .sum();
        if !nodes.is_empty() && per_node_total != self.wire_payload_bytes {
            return Err(format!(
                "metrics conservation: worker per-class payload counters sum to {per_node_total} \
                 across {} nodes, but the run routed {} payload bytes",
                nodes.len(),
                self.wire_payload_bytes
            ));
        }
        Ok(())
    }

    /// Splice this run's wall-clock wire spans (and per-process track
    /// labels) into a canonical Chrome trace, producing one merged
    /// Perfetto document: the coordinator's virtual-time tracks plus a
    /// wall-clock pid track per worker process. The canonical `base` is
    /// never modified — this is a derived, side-channel document.
    pub fn merged_chrome(&self, base: &str) -> String {
        fgdsm_tempest::metrics::merge_chrome(base, &self.wire_spans)
    }
}

/// Instantiate the communication backend for a configuration — the one
/// and only place the [`Backend`] enum is dispatched on.
fn make_backend(cfg: &ExecConfig) -> Box<dyn CommBackend> {
    match cfg.backend {
        Backend::SmUnopt => Box::new(sm_unopt::SmUnopt),
        Backend::SmOpt(opt) => Box::new(sm_opt::SmOpt::new(opt)),
        Backend::Mp => Box::new(mp::Mp::new(cfg.nprocs)),
        // The socket transport is the engine's business; the contract is
        // sm_opt's at the full optimization level.
        Backend::Tcp => Box::new(sm_opt::SmOpt::new(OptLevel::full())),
    }
}

/// Execute `prog` under `cfg`.
pub fn execute(prog: &Program, cfg: &ExecConfig) -> RunResult {
    engine::run(prog, cfg, make_backend(cfg), false, false).0
}

/// How an execution failed. The engine reports failures by panicking —
/// typed [`fgdsm_protocol::WireError`] payloads for transport-level
/// failures (peer death, recv deadline, framing cap), strings for
/// everything else (decode rejections, invariant violations).
/// [`try_execute`] catches both and hands them back as values.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// The wire transport failed: a peer process died, a recv deadline
    /// fired, or a frame length exceeded the cap.
    Wire(fgdsm_protocol::WireError),
    /// Any other engine panic, stringified (decode failures keep their
    /// pinned `wire: envelope decode failed in transit: …` message).
    Panic(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Wire(e) => write!(f, "wire transport failed: {e}"),
            ExecError::Panic(msg) => write!(f, "execution panicked: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execute `prog` under `cfg`, catching engine failures as typed values
/// instead of unwinding. This is the fault-tolerant entry point for the
/// distributed backends: a killed `fgdsm-node` process surfaces as
/// `Err(ExecError::Wire(WireError::PeerGone(n)))`, a wedged one as
/// `Err(ExecError::Wire(WireError::Timeout(n)))` — within the configured
/// recv deadline, with no partial artifacts. Successful runs are
/// indistinguishable from [`execute`].
pub fn try_execute(prog: &Program, cfg: &ExecConfig) -> Result<RunResult, ExecError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(prog, cfg))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            let payload = match payload.downcast::<fgdsm_protocol::WireError>() {
                Ok(we) => return Err(ExecError::Wire(*we)),
                Err(p) => p,
            };
            let msg = match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => match p.downcast::<&'static str>() {
                    Ok(s) => (*s).to_string(),
                    Err(_) => "non-string panic payload".to_string(),
                },
            };
            Err(ExecError::Panic(msg))
        }
    }
}

/// Execute `prog` under `cfg` and also return the structured event-trace
/// JSON (the same document `FGDSM_TRACE=<path>` would write), without
/// touching the process environment — tests that compare trace streams
/// across configurations use this to stay race-free under a parallel
/// test harness.
pub fn execute_traced(prog: &Program, cfg: &ExecConfig) -> (RunResult, String) {
    let (result, trace, _) = engine::run(prog, cfg, make_backend(cfg), true, false);
    (result, trace.expect("trace requested"))
}

/// Execute `prog` under `cfg` and also return both profiler exports: the
/// structured event-trace JSON and the Chrome trace-event timeline (the
/// documents `FGDSM_TRACE=<path>` / `FGDSM_CHROME=<path>` would write).
/// Both are pure functions of virtual-time state — byte-identical across
/// serial and threaded runs.
pub fn execute_profiled(prog: &Program, cfg: &ExecConfig) -> (RunResult, String, String) {
    let (result, trace, chrome) = engine::run(prog, cfg, make_backend(cfg), true, true);
    (
        result,
        trace.expect("trace requested"),
        chrome.expect("chrome trace requested"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use crate::ir::{ARef, Kernel, KernelCtx, ParLoop, Stmt, Subscript};
    use fgdsm_section::SymRange;

    const A: crate::dist::ArrayId = crate::dist::ArrayId(0);

    fn fill_kernel(ctx: &mut KernelCtx) {
        let a = ctx.h(A);
        for j in ctx.iter[1].iter() {
            for i in ctx.iter[0].iter() {
                ctx.mem[a.at2(i, j)] = (i + 100 * j) as f64;
            }
        }
    }

    fn tiny_program(rows: usize, cols: usize, dist: Dist) -> Program {
        let mut b = Program::builder();
        let a = b.array("a", &[rows, cols], dist);
        b.stmt(Stmt::Par(ParLoop {
            name: "fill",
            iter: vec![
                SymRange::new(0, rows as i64 - 1),
                SymRange::new(0, cols as i64 - 1),
            ],
            dist: crate::ir::CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(fill_kernel),
            cost_per_iter_ns: 20,
            reduction: None,
        }));
        b.build()
    }

    #[test]
    fn config_builders() {
        let c = ExecConfig::sm_opt(8).single_cpu();
        assert!(matches!(c.backend, Backend::SmOpt(_)));
        assert_eq!(c.cost.cpu, fgdsm_tempest::CpuMode::Single);
        let c2 = ExecConfig::sm_unopt(4).with_opt(OptLevel::base());
        assert!(matches!(c2.backend, Backend::SmOpt(o) if o.ctl && !o.bulk));
        assert!(matches!(ExecConfig::mp(2).backend, Backend::Mp));
    }

    #[test]
    fn parallel_mode_resolves_to_worker_counts() {
        assert_eq!(ParallelMode::Serial.workers(), 1);
        assert_eq!(ParallelMode::Threads(0).workers(), 1);
        assert_eq!(ParallelMode::Threads(4).workers(), 4);
        assert!(ParallelMode::Auto.workers() >= 1);
        assert_eq!(
            ExecConfig::sm_unopt(4).threads(2).parallel,
            ParallelMode::Threads(2)
        );
        assert_eq!(
            ExecConfig::sm_unopt(4).serial().parallel,
            ParallelMode::Serial
        );
        // resolve_parallel defaults to following `parallel`, and the
        // builders pin it independently.
        assert_eq!(ExecConfig::sm_unopt(4).resolve_parallel, None);
        assert_eq!(
            ExecConfig::sm_unopt(4)
                .serial()
                .resolve_threads(3)
                .resolve_parallel,
            Some(ParallelMode::Threads(3))
        );
        assert_eq!(
            ExecConfig::sm_unopt(4).resolve_serial().resolve_parallel,
            Some(ParallelMode::Serial)
        );
    }

    #[test]
    fn threaded_compute_phase_matches_serial_exactly() {
        // Uneven split on purpose: 4 shards over 3 workers.
        let prog = tiny_program(64, 64, Dist::Block);
        let (rs, ts) = execute_traced(&prog, &ExecConfig::sm_unopt(4).serial());
        let (rp, tp) = execute_traced(&prog, &ExecConfig::sm_unopt(4).threads(3));
        assert_eq!(rs.report.to_json(), rp.report.to_json());
        assert_eq!(ts, tp, "per-node event streams must be identical");
        assert_eq!(rs.data, rp.data);
        assert_eq!(rs.scalars, rp.scalars);
    }

    #[test]
    fn data_aligned_homes_eliminate_owner_cold_write_faults() {
        let prog = tiny_program(64, 64, Dist::Block);
        let mut aligned = ExecConfig::sm_unopt(4);
        aligned.home = HomeAssign::DataAligned;
        let mut rr = ExecConfig::sm_unopt(4);
        rr.home = HomeAssign::RoundRobin;
        let ra = execute(&prog, &aligned);
        let rb = execute(&prog, &rr);
        // Owners are home to their data: the init writes never fault.
        let misses_aligned: u64 = ra.report.nodes.iter().map(|n| n.misses()).sum();
        let misses_rr: u64 = rb.report.nodes.iter().map(|n| n.misses()).sum();
        assert_eq!(misses_aligned, 0, "aligned homes: no cold write faults");
        assert!(misses_rr > 0, "round-robin homes: owners must fault");
        // Same data either way.
        assert_eq!(ra.data, rb.data);
    }

    #[test]
    fn all_home_policies_agree_on_data() {
        let prog = tiny_program(40, 24, Dist::Cyclic);
        let mut results = Vec::new();
        for home in [
            HomeAssign::DataAligned,
            HomeAssign::RoundRobin,
            HomeAssign::Blocked,
        ] {
            let mut cfg = ExecConfig::sm_opt(4);
            cfg.home = home;
            results.push(execute(&prog, &cfg).data);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn run_result_array_extracts_values() {
        let prog = tiny_program(8, 6, Dist::Block);
        let r = execute(&prog, &ExecConfig::sm_unopt(2));
        let a = r.array(&prog, A);
        assert_eq!(a.len(), 48);
        assert_eq!(a[0], 0.0);
        assert_eq!(a[8], 100.0); // (0,1)
        assert_eq!(a[7 + 5 * 8], (7 + 500) as f64);
    }

    #[test]
    fn makespan_is_positive_and_monotone_with_work() {
        // Page-aligned owner chunks on both sizes, so the comparison is
        // pure compute (no boundary faults).
        let small = tiny_program(64, 32, Dist::Block);
        let big = tiny_program(128, 64, Dist::Block);
        let rs = execute(&small, &ExecConfig::sm_unopt(2));
        let rb = execute(&big, &ExecConfig::sm_unopt(2));
        assert!(rs.total_s() > 0.0);
        assert!(rb.total_s() > rs.total_s());
    }

    #[test]
    fn scalar_statements_update_replicated_state() {
        let mut b = Program::builder();
        let a = b.array("a", &[8, 8], Dist::Block);
        b.scalar("x", 2.0);
        b.stmt(Stmt::Par(ParLoop {
            name: "fill",
            iter: vec![SymRange::new(0, 7), SymRange::new(0, 7)],
            dist: crate::ir::CompDist::Owner(a),
            refs: vec![ARef::write(
                a,
                vec![Subscript::loop_var(0), Subscript::loop_var(1)],
            )],
            kernel: Kernel::new(fill_kernel),
            cost_per_iter_ns: 10,
            reduction: None,
        }));
        b.stmt(Stmt::Scalar {
            name: "x",
            f: |s| s["x"] * 10.0 + 1.0,
        });
        b.stmt(Stmt::Scalar {
            name: "y",
            f: |s| s["x"] - 1.0,
        });
        let prog = b.build();
        let r = execute(&prog, &ExecConfig::sm_unopt(2));
        assert_eq!(r.scalars["x"], 21.0);
        assert_eq!(r.scalars["y"], 20.0);
    }

    #[test]
    #[should_panic(expected = "eager-invalidate")]
    fn ctl_over_write_update_is_rejected() {
        let prog = tiny_program(8, 8, Dist::Block);
        let cfg = ExecConfig::sm_opt(2).write_update();
        execute(&prog, &cfg);
    }
}
