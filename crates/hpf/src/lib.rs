//! # fgdsm-hpf: the paper's primary contribution
//!
//! A mini-HPF front end and the compiler passes of §4:
//!
//! * [`dist`] — HPF data distributions (last-dimension BLOCK/CYCLIC) and
//!   the owner relation;
//! * [`ir`] — the program representation: distributed arrays,
//!   INDEPENDENT parallel loops with affine array references, sequential
//!   time loops, reductions, and native kernels;
//! * [`analysis`] — access-set analysis: non-owner-read / non-owner-write
//!   sets per processor, split into point-to-point transfers (§4.1);
//! * [`plan`] — `shmem_limits` block subsetting and the optimization
//!   levels of Figure 4 (base / +bulk / +run-time-overhead-elimination),
//!   plus the PRE extension;
//! * [`redundancy`] — the transfer cache behind redundant-communication
//!   elimination (§4.3);
//! * [`report`] — `-Minfo`-style diagnostics of the per-loop analysis
//!   and planning decisions;
//! * [`exec`] — execution: a backend-agnostic BSP superstep driver
//!   ([`exec::engine`]) plus three pluggable communication backends
//!   behind the [`exec::backend::CommBackend`] trait — unoptimized
//!   shared memory ([`exec::sm_unopt`]), optimized shared memory with
//!   compiler-orchestrated incoherence ([`exec::sm_opt`]) and message
//!   passing ([`exec::mp`]) — all over the same program.
//!   `FGDSM_WIRE=strict` round-trips every transfer through encoded wire
//!   envelopes in process, and [`exec::Backend::Tcp`] carries them over
//!   sockets to spawned node processes. Set `FGDSM_TRACE=<path>` to
//!   export a run's structured event trace as JSON.

pub mod analysis;
pub mod contract;
pub mod dist;
pub mod exec;
pub mod ir;
pub mod plan;
pub mod redundancy;
pub mod report;

pub use analysis::{analyze, LoopAccess, Transfer};
pub use contract::{ContractTracker, CtlOp};
pub use dist::{ArrayDecl, ArrayId, Dist};
pub use exec::{
    execute, execute_profiled, execute_reference, execute_traced, tcp_available, try_execute,
    Backend, ExecConfig, ExecError, InjectConfig, MetricsMode, ParallelMode, PlannedXfer, PoolMode,
    ReferenceResult, RunResult, WireMode,
};
pub use ir::{
    ARef, ArrayHandle, CompDist, Kernel, KernelCtx, KernelFn, ParLoop, Program, ProgramBuilder,
    ReduceSpec, RefMode, Stmt, Subscript,
};
pub use plan::{covering_blocks, shmem_limits, ArrayMeta, CtlRanges, OptLevel};
pub use redundancy::PreCache;
pub use report::{analyze_program, render, LoopReport, TransferReport};
