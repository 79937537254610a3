//! CI performance gate for the host-speed engine.
//!
//! Two subcommands, `smoke|wire`:
//!
//! * `smoke` — run two representative applications (jacobi, pde) at the
//!   reduced benchmark scale stretched by factor 8 (`FGDSM_SCALE=8`
//!   territory, where threading must win) under the optimized backend,
//!   three timed runs each serial and threaded, and **fail** (exit 1) if
//!   the threaded median exceeds 1.2× the serial median for any app —
//!   i.e. threading must at least roughly break even on problems of this
//!   size, pool and all.
//! * `wire` — the wire-seam overhead gate: same two applications and
//!   factor-8 stretch as `smoke`, serial `sm_opt` runs only, and **fail**
//!   if the strict wire mode's median exceeds 2.0× the fast path's —
//!   encoding every transfer into an envelope and decoding it back must
//!   stay within small-constant-factor territory of the zero-copy fast
//!   path. The baseline pins `WireMode::Fast`, so `FGDSM_WIRE` cannot
//!   leak into it.
//!
//!     cargo run --release -p fgdsm-bench --bin perf_gate -- smoke
//!     cargo run --release -p fgdsm-bench --bin perf_gate -- wire

use fgdsm_apps::{suite_scaled, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, ExecConfig, WireMode};
use fgdsm_testkit::{summarize_ns, Stopwatch};

/// Threaded may be at most this multiple of serial in the smoke gate.
const SMOKE_RATIO: f64 = 1.2;
/// Strict wire mode may cost at most this multiple of the fast path.
const WIRE_RATIO: f64 = 2.0;
const SMOKE_FACTOR: usize = 8;
const SMOKE_RUNS: usize = 3;
const SMOKE_APPS: [&str; 2] = ["jacobi", "pde"];

fn median_ns(prog: &fgdsm_hpf::Program, cfg: &ExecConfig, runs: usize) -> u64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let sw = Stopwatch::new();
        std::hint::black_box(execute(prog, cfg));
        samples.push(sw.elapsed_ns().max(1));
    }
    summarize_ns(&samples).1
}

fn smoke() -> bool {
    let workers = std::env::var("FGDSM_PAR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize)
        .max(2);
    let mut ok = true;
    for spec in suite_scaled(Scale::Bench, SMOKE_FACTOR)
        .into_iter()
        .filter(|s| SMOKE_APPS.contains(&s.name))
    {
        let serial = median_ns(
            &spec.program,
            &ExecConfig::sm_opt(NPROCS).serial(),
            SMOKE_RUNS,
        );
        let threaded = median_ns(
            &spec.program,
            &ExecConfig::sm_opt(NPROCS).threads(workers),
            SMOKE_RUNS,
        );
        let ratio = threaded as f64 / serial as f64;
        let verdict = if ratio <= SMOKE_RATIO { "ok" } else { "FAIL" };
        println!(
            "perf-smoke {:<8} scale {SMOKE_FACTOR}: serial {serial} ns, threaded({workers}) \
             {threaded} ns, ratio {ratio:.2} (limit {SMOKE_RATIO}) — {verdict}",
            spec.name
        );
        ok &= ratio <= SMOKE_RATIO;
    }
    ok
}

fn wire_smoke() -> bool {
    let mut fast_cfg = ExecConfig::sm_opt(NPROCS).serial();
    fast_cfg.wire = WireMode::Fast;
    let strict_cfg = ExecConfig::sm_opt(NPROCS).serial().strict();
    let mut ok = true;
    for spec in suite_scaled(Scale::Bench, SMOKE_FACTOR)
        .into_iter()
        .filter(|s| SMOKE_APPS.contains(&s.name))
    {
        let fast = median_ns(&spec.program, &fast_cfg, SMOKE_RUNS);
        let strict = median_ns(&spec.program, &strict_cfg, SMOKE_RUNS);
        let ratio = strict as f64 / fast as f64;
        let verdict = if ratio <= WIRE_RATIO { "ok" } else { "FAIL" };
        println!(
            "perf-wire {:<8} scale {SMOKE_FACTOR}: fast {fast} ns, strict {strict} ns, \
             ratio {ratio:.2} (limit {WIRE_RATIO}) — {verdict}",
            spec.name
        );
        ok &= ratio <= WIRE_RATIO;
    }
    ok
}

fn main() {
    let ok = match std::env::args().nth(1).as_deref() {
        None | Some("smoke") => smoke(),
        Some("wire") => wire_smoke(),
        Some(other) => {
            eprintln!("unknown subcommand `{other}` (usage: perf_gate smoke|wire)");
            false
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
