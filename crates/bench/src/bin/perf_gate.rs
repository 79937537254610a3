//! CI performance gate for the host-speed engine.
//!
//! Two subcommands:
//!
//! * `smoke` — run two representative applications (jacobi, pde) at the
//!   reduced benchmark scale stretched by factor 8 (`FGDSM_SCALE=8`
//!   territory, where threading must win) under the optimized backend,
//!   three timed runs each serial and threaded, and **fail** (exit 1) if
//!   the threaded median exceeds 1.2× the serial median for any app —
//!   i.e. threading must at least roughly break even on problems of this
//!   size, pool and all.
//! * `trend <prev.json>` — compare the threads/serial median ratios of
//!   the working tree's `bench_results/host_perf.json` against a previous
//!   committed artifact (extracted in ci.sh with `git show`). A missing,
//!   unparseable, or old-format previous file is tolerated (the gate
//!   prints a note and passes); a current ratio more than 1.25× worse
//!   than the previous one fails.
//! * `wire` — the wire-seam overhead gate: same two applications and
//!   factor-8 stretch as `smoke`, serial `sm_opt` runs only, and **fail**
//!   if the strict wire mode's median exceeds 2.0× the fast path's —
//!   encoding every transfer into an envelope and decoding it back must
//!   stay within small-constant-factor territory of the zero-copy fast
//!   path. The baseline pins `WireMode::Fast`, so `FGDSM_WIRE` cannot
//!   leak into it.
//!
//!     cargo run --release -p fgdsm-bench --bin perf_gate -- smoke
//!     cargo run --release -p fgdsm-bench --bin perf_gate -- trend target/host_perf_prev.json
//!     cargo run --release -p fgdsm-bench --bin perf_gate -- wire

use fgdsm_apps::{suite_scaled, Scale};
use fgdsm_bench::json::{self, Value};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, ExecConfig, WireMode};
use fgdsm_testkit::{summarize_ns, Stopwatch};

/// Threaded may be at most this multiple of serial in the smoke gate.
const SMOKE_RATIO: f64 = 1.2;
/// A (app, backend, scale) ratio may regress by at most this factor
/// between two committed artifacts.
const TREND_RATIO: f64 = 1.25;
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
            &ExecConfig::sm_opt(NPROCS).threads(workers).pooled(),
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

/// `(app, backend, scale) → threads/serial median ratio` of one artifact.
/// `None` when the document misses the fields the ratio needs (an
/// old-format artifact).
fn ratios(doc: &Value) -> Option<Vec<((String, String, u64), f64)>> {
    let rows = doc.as_arr()?;
    let mut medians = Vec::new();
    for r in rows {
        let key = (
            r.get("app")?.as_str()?.to_string(),
            r.get("backend")?.as_str()?.to_string(),
            r.get("scale")?.as_u64()?,
        );
        let par = r.get("par")?.as_str()?.to_string();
        medians.push((key, par, r.get("median_ns")?.as_u64()?));
    }
    let lookup = |key: &(String, String, u64), par: &str| {
        medians
            .iter()
            .find(|(k, p, _)| k == key && p == par)
            .map(|&(_, _, m)| m)
    };
    let mut out = Vec::new();
    for (key, par, _) in &medians {
        if par != "serial" || out.iter().any(|(k, _)| k == key) {
            continue;
        }
        if let (Some(s), Some(t)) = (lookup(key, "serial"), lookup(key, "threads")) {
            out.push((key.clone(), t as f64 / s as f64));
        }
    }
    Some(out)
}

fn trend(prev_path: &str) -> bool {
    let current_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench_results/host_perf.json");
    let Ok(current_text) = std::fs::read_to_string(&current_path) else {
        println!(
            "perf-trend: no current {} — skipping",
            current_path.display()
        );
        return true;
    };
    let Ok(prev_text) = std::fs::read_to_string(prev_path) else {
        println!("perf-trend: no previous artifact at {prev_path} — skipping");
        return true;
    };
    let current = match json::parse(&current_text).ok().as_ref().and_then(ratios) {
        Some(r) => r,
        None => {
            println!("perf-trend: current artifact lacks scale rows — skipping");
            return true;
        }
    };
    let prev = match json::parse(&prev_text).ok().as_ref().and_then(ratios) {
        Some(r) if !r.is_empty() => r,
        _ => {
            println!("perf-trend: previous artifact is old-format or empty — skipping");
            return true;
        }
    };
    let mut ok = true;
    for (key, cur_ratio) in &current {
        let Some((_, prev_ratio)) = prev.iter().find(|(k, _)| k == key) else {
            continue;
        };
        let (app, backend, scale) = key;
        if *cur_ratio > prev_ratio * TREND_RATIO {
            println!(
                "perf-trend FAIL {app}/{backend}/scale{scale}: threads/serial ratio \
                 {cur_ratio:.2} vs previous {prev_ratio:.2} (limit ×{TREND_RATIO})"
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "perf-trend ok: {} (app, backend, scale) ratios within ×{TREND_RATIO} of previous",
            current.len()
        );
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ok = match args.get(1).map(String::as_str) {
        None | Some("smoke") => smoke(),
        Some("wire") => wire_smoke(),
        Some("trend") => {
            let prev = args.get(2).map(String::as_str).unwrap_or("");
            if prev.is_empty() {
                eprintln!("usage: perf_gate trend <prev.json>");
                false
            } else {
                trend(prev)
            }
        }
        Some(other) => {
            eprintln!(
                "unknown subcommand `{other}` (expected `smoke`, `wire`, or `trend <prev.json>`)"
            );
            false
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
