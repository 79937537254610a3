//! Perf-trend regression tracker: append-only, git-stamped wall-clock
//! summaries so every PR's perf trajectory is *recorded* instead of
//! overwritten.
//!
//! Each invocation runs the application suite once per app on the best
//! available envelope path (the `tcp` backend when the sandbox allows
//! sockets, strict-wire `sm_opt` otherwise) with telemetry on, and
//! appends one JSONL row per app to `bench_results/trend.jsonl`
//! (override the path with `FGDSM_TREND_OUT`): the git stamp, median
//! host wall time over
//! `FGDSM_TREND_RUNS` runs (default 3), the on-wire payload volume, and
//! the p99 of the coordinator's per-batch wall-clock route histogram
//! (`coord.route.batch`, one sample per socket batch). It then
//! renders a PR-over-PR delta table comparing the newest git stamp
//! against the previous one in the file.
//!
//! `perf_trend check` validates every line of the file against the row
//! schema without running anything — the CI step that keeps the
//! append-only log parseable forever.
//!
//!     cargo run --release -p fgdsm-bench --bin perf_trend
//!     cargo run --release -p fgdsm-bench --bin perf_trend -- check
//!     FGDSM_TEST=1 FGDSM_TREND_OUT=/tmp/t.jsonl cargo run -p fgdsm-bench --bin perf_trend

use fgdsm_bench::host_perf::{git_describe, refuse_dirty_tree};
use fgdsm_bench::json::{self, ToJson, Value};
use fgdsm_bench::{json_row, scale, scale_label};
use fgdsm_hpf::{execute, ExecConfig};
use fgdsm_testkit::Stopwatch;

const NPROCS: usize = 8;

json_row! {
    /// One app's perf-trend sample. Appended, never rewritten: the file
    /// accumulates one group of rows per PR.
    #[derive(Clone)]
    struct TrendRow {
        git: String,
        app: String,
        backend: String,
        scale: u64,
        wall_ns: u64,
        wire_payload_bytes: u64,
        route_p99_ns: u64,
    }
}

/// The schema every `trend.jsonl` line must satisfy, name → expected
/// type tag (`s` string / `u` unsigned integer).
const SCHEMA: &[(&str, char)] = &[
    ("git", 's'),
    ("app", 's'),
    ("backend", 's'),
    ("scale", 'u'),
    ("wall_ns", 'u'),
    ("wire_payload_bytes", 'u'),
    ("route_p99_ns", 'u'),
];

fn trend_path() -> String {
    std::env::var("FGDSM_TREND_OUT").unwrap_or_else(|_| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("bench_results/trend.jsonl")
            .to_string_lossy()
            .into_owned()
    })
}

/// Validate one JSONL line against [`SCHEMA`]; returns the parsed object.
fn check_line(lineno: usize, line: &str) -> Value {
    let v =
        json::parse(line).unwrap_or_else(|e| panic!("trend.jsonl line {lineno}: not JSON: {e}"));
    for &(key, ty) in SCHEMA {
        let field = v
            .get(key)
            .unwrap_or_else(|| panic!("trend.jsonl line {lineno}: missing key `{key}`"));
        let ok = match ty {
            's' => field.as_str().is_some(),
            _ => field.as_u64().is_some(),
        };
        assert!(
            ok,
            "trend.jsonl line {lineno}: key `{key}` has the wrong type: {field:?}"
        );
    }
    v
}

/// Parse (and schema-check) every row currently in the file.
fn read_rows(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| check_line(i + 1, l))
        .collect()
}

/// Git stamps in order of first appearance (the file is append-only, so
/// this is PR order).
fn stamps(rows: &[Value]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in rows {
        let g = r.get("git").and_then(Value::as_str).unwrap().to_string();
        if out.last() != Some(&g) && !out.contains(&g) {
            out.push(g);
        }
    }
    out
}

fn pct_delta(old: u64, new: u64) -> String {
    if old == 0 {
        return "n/a".into();
    }
    format!("{:+.1}%", (new as f64 - old as f64) / old as f64 * 100.0)
}

/// PR-over-PR delta table: the newest stamp's rows against the previous
/// stamp's, matched by (app, backend).
fn delta_table(rows: &[Value]) {
    let stamps = stamps(rows);
    let Some(new) = stamps.last() else {
        println!("trend: no rows yet");
        return;
    };
    let prev = stamps.len().checked_sub(2).map(|i| &stamps[i]);
    println!(
        "perf trend — {} vs {}",
        new,
        prev.map(String::as_str).unwrap_or("(first sample)")
    );
    println!(
        "{:<10} {:<8} {:>14} {:>9} {:>13} {:>9} {:>13} {:>9}",
        "app", "backend", "wall_ns", "Δwall", "payload_B", "Δpayload", "route_p99_ns", "Δp99"
    );
    let field = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap();
    let text = |r: &Value, k: &str| r.get(k).and_then(Value::as_str).unwrap().to_string();
    for r in rows.iter().filter(|r| &text(r, "git") == new) {
        let old = prev.and_then(|p| {
            rows.iter().find(|o| {
                &text(o, "git") == p
                    && text(o, "app") == text(r, "app")
                    && text(o, "backend") == text(r, "backend")
            })
        });
        let delta = |k: &str| {
            old.map(|o| pct_delta(field(o, k), field(r, k)))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<10} {:<8} {:>14} {:>9} {:>13} {:>9} {:>13} {:>9}",
            text(r, "app"),
            text(r, "backend"),
            field(r, "wall_ns"),
            delta("wall_ns"),
            field(r, "wire_payload_bytes"),
            delta("wire_payload_bytes"),
            field(r, "route_p99_ns"),
            delta("route_p99_ns"),
        );
    }
}

/// Measure one trend row per app: median wall time of `runs` metered
/// executions, plus the last run's wire payload and merged route-p99.
fn measure(git: &str, runs: usize) -> Vec<TrendRow> {
    let (backend, cfg) = if fgdsm_hpf::tcp_available() {
        ("tcp", ExecConfig::tcp(NPROCS).metered())
    } else {
        eprintln!("notice: sandbox forbids sockets; perf_trend samples strict-wire sm_opt");
        (
            "sm_opt/strict",
            ExecConfig::sm_opt(NPROCS).strict().metered(),
        )
    };
    let factor = std::env::var("FGDSM_SCALE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for spec in fgdsm_apps::suite(scale()) {
        let mut samples = Vec::with_capacity(runs);
        let mut last = None;
        for _ in 0..runs {
            let sw = Stopwatch::new();
            let run = execute(&spec.program, &cfg);
            samples.push(sw.elapsed_ns().max(1));
            last = Some(run);
        }
        let run = last.unwrap();
        samples.sort_unstable();
        let reg = run.metrics().expect("metered run has a registry");
        // The coordinator's per-batch route histogram — the p99 a PR
        // must not silently regress (0 when nothing was routed).
        let route_p99_ns = reg
            .hist("coord.route.batch")
            .map_or(0, |h| h.percentile(0.99));
        rows.push(TrendRow {
            git: git.to_string(),
            app: spec.name.to_string(),
            backend: backend.to_string(),
            scale: factor,
            wall_ns: samples[samples.len() / 2],
            wire_payload_bytes: run.wire_payload_bytes,
            route_p99_ns,
        });
    }
    rows
}

fn main() {
    let path = trend_path();
    if std::env::args().nth(1).as_deref() == Some("check") {
        let rows = read_rows(&path);
        assert!(!rows.is_empty(), "perf_trend check: {path} has no rows");
        println!("trend.jsonl: {} rows, schema OK", rows.len());
        delta_table(&rows);
        return;
    }
    let runs = std::env::var("FGDSM_TREND_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3usize)
        .max(1);
    let git = git_describe();
    if std::env::var("FGDSM_TREND_OUT").is_err() && refuse_dirty_tree(&git) {
        eprintln!(
            "NOT appending to bench_results/trend.jsonl: working tree is dirty ({git}). \
             Commit first, set FGDSM_TREND_OUT, or set FGDSM_BENCH_FORCE=1."
        );
        std::process::exit(1);
    }
    println!(
        "perf trend — {} — {} run(s) per app, {git}\n",
        scale_label(scale()),
        runs
    );
    let rows = measure(&git, runs);
    let mut out = String::new();
    for r in &rows {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    // Append-only: never rewrite history. Every line (old and new) is
    // schema-checked on readback below.
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .unwrap_or_else(|e| panic!("appending {path}: {e}"));
    println!("appended {} rows to {path}\n", rows.len());
    delta_table(&read_rows(&path));
}
