//! Smoke tests for the host-performance harness: the committed
//! `bench_results/host_perf.json` artifact must parse, cover the full
//! application × backend matrix, and carry sane summaries (positive
//! medians, p10 ≤ median ≤ p90); and a fresh tiny-scale measurement must
//! round-trip through the emitter and parser with the same guarantees.

use fgdsm_apps::{suite, Scale};
use fgdsm_bench::host_perf::{measure, speedup_table, MODES};
use fgdsm_bench::json::{self, ToJson, Value};

/// Every measured backend, `tcp` (the socket-backed multi-process
/// runtime) last so an availability-truncated slice is contiguous.
const BACKENDS: [&str; 4] = ["sm_unopt", "sm_opt", "mp", "tcp"];

/// Validate one parsed harness document against the full matrix over
/// `backends`, one row block per required scale factor.
fn check_rows(doc: &Value, ctx: &str, scales: &[u64], backends: &[&str]) {
    let rows = doc
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}: not an array"));
    let apps: Vec<&'static str> = suite(Scale::Test).iter().map(|s| s.name).collect();
    assert_eq!(apps.len(), 6, "the paper's suite has six applications");
    for &scale in scales {
        for app in &apps {
            for &backend in backends {
                for par in MODES {
                    let row = rows
                        .iter()
                        .find(|r| {
                            r.get("app").and_then(Value::as_str) == Some(app)
                                && r.get("backend").and_then(Value::as_str) == Some(backend)
                                && r.get("par").and_then(Value::as_str) == Some(par)
                                && r.get("scale").and_then(Value::as_u64) == Some(scale)
                        })
                        .unwrap_or_else(|| {
                            panic!("{ctx}: missing row {app}/{backend}/{par} at scale {scale}")
                        });
                    let field = |k: &str| {
                        row.get(k)
                            .and_then(Value::as_u64)
                            .unwrap_or_else(|| panic!("{ctx}: {app}/{backend}/{par}: bad `{k}`"))
                    };
                    let (runs, median, p10, p90) = (
                        field("runs"),
                        field("median_ns"),
                        field("p10_ns"),
                        field("p90_ns"),
                    );
                    assert!(runs >= 1, "{ctx}: {app}/{backend}/{par}: runs = {runs}");
                    assert!(
                        median > 0,
                        "{ctx}: {app}/{backend}/{par}: median_ns must be positive"
                    );
                    assert!(
                        p10 <= median && median <= p90,
                        "{ctx}: {app}/{backend}/{par}: p10 {p10} ≤ median {median} ≤ p90 {p90} violated"
                    );
                    let threads = field("threads");
                    if par == "serial" {
                        assert_eq!(threads, 1, "{ctx}: {app}/{backend}/{par}: serial threads");
                    } else {
                        assert!(
                            threads >= 2,
                            "{ctx}: {app}/{backend}/{par}: threaded row with {threads} thread(s)"
                        );
                    }
                    let pool = row
                        .get("pool")
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{ctx}: {app}/{backend}/{par}: missing pool"));
                    assert!(
                        matches!(pool, "none" | "persistent" | "scoped"),
                        "{ctx}: {app}/{backend}/{par}: bad pool `{pool}`"
                    );
                    assert!(
                        row.get("git_describe")
                            .and_then(Value::as_str)
                            .is_some_and(|s| !s.is_empty()),
                        "{ctx}: {app}/{backend}/{par}: missing git_describe"
                    );
                }
            }
        }
    }
}

/// The committed artifact regenerated by `ci.sh` / the harness.
#[test]
fn committed_host_perf_json_is_complete_and_sane() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench_results/host_perf.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — run the host_perf bin to regenerate",
            path.display()
        )
    });
    let doc = json::parse(&text).expect("host_perf.json must parse");
    // The committed artifact must cover the unscaled sizes plus the
    // factor-8 stretch where the threaded modes are required to win —
    // including the `tcp` rows, which the regeneration environment must
    // therefore allow sockets to produce.
    check_rows(&doc, "bench_results/host_perf.json", &[1, 8], &BACKENDS);
}

/// A fresh 1-run tiny-scale measurement round-trips emitter → parser and
/// satisfies the same invariants; the speedup table covers every cell.
/// The `tcp` rows participate only where the sandbox allows sockets.
#[test]
fn fresh_measurement_round_trips() {
    let backends: &[&str] = if fgdsm_hpf::tcp_available() {
        &BACKENDS
    } else {
        eprintln!("notice: sandbox forbids sockets; fresh measurement checks no tcp rows");
        &BACKENDS[..BACKENDS.len() - 1]
    };
    let rows = measure(Scale::Test, &[1, 2], 1, 2);
    assert_eq!(rows.len(), 2 * 6 * backends.len() * MODES.len());
    let doc = json::parse(&rows.to_json()).expect("emitted JSON must parse");
    check_rows(&doc, "fresh measurement", &[1, 2], backends);
    let table = speedup_table(&rows);
    assert_eq!(
        table.lines().count(),
        1 + 2 * 6 * backends.len(),
        "speedup table: one header plus one line per (app, backend, scale):\n{table}"
    );
}
