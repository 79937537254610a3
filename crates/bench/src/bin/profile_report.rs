//! Loop-attributed communication profile: predicted vs. observed traffic
//! per IR loop, under the unoptimized and optimized shared-memory
//! backends.
//!
//! For each application the report decomposes the whole-run counters into
//! one row per parallel loop (per-superstep interval stats folded by
//! loop id), pairs the measured payload bytes with the §4.2 contract's
//! *planned* section volume, and marks loops where default-protocol
//! faults survived under the optimized backend — traffic the contract
//! was supposed to orchestrate but did not (`!` in the `byp` column).
//! False-sharing flags (multi-word blocks faulted by ≥2 nodes in one
//! superstep) are summarized per run, and every run's Chrome-trace
//! export is validated as well-formed before the table is trusted.
//!
//! `FGDSM_BACKEND=tcp` appends the socket-backed multi-process backend
//! to the per-app matrix; each tcp run additionally self-asserts the
//! strict-wire accounting invariants (every heatmap byte attributed for
//! reduction-free apps, wire payload reconciling with the cluster's
//! `bytes_sent`), and the report closes with a predicted-vs-measured
//! latency table putting the Table-1 cost model's virtual communication
//! time next to the host nanoseconds the real socket round-trips
//! actually took.
//!
//!     cargo run --release -p fgdsm-bench --bin profile_report
//!     cargo run --release -p fgdsm-bench --bin profile_report -- jacobi
//!     FGDSM_BACKEND=tcp cargo run --release -p fgdsm-bench --bin profile_report -- jacobi
//!     FGDSM_CHROME=/tmp/j.json cargo run --release -p fgdsm-bench --bin profile_report -- jacobi

use fgdsm_apps::suite;
use fgdsm_bench::{json, json_row, save_json, scale};
use fgdsm_hpf::{execute_profiled, ExecConfig, RunResult};
use fgdsm_tempest::NO_LOOP;
use std::collections::BTreeMap;

const NPROCS: usize = 8;

json_row! {
    struct Row {
        app: &'static str,
        backend: &'static str,
        loop_name: String,
        supersteps: u64,
        compute_ns: u64,
        comm_ns: u64,
        misses: u64,
        bytes_sent: u64,
        planned_bytes: u64,
    }
}

json_row! {
    struct CalRow {
        app: &'static str,
        batches: u64,
        frames: u64,
        batch_bytes: u64,
        table1_alpha_ns: u64,
        table1_beta_ns_per_byte: u64,
        fit_alpha_ns: f64,
        fit_beta_ns_per_byte: f64,
        measured_p50_ns: u64,
        measured_p99_ns: u64,
        measured_mean_ns: u64,
    }
}

/// Calibration: fit the paper's message cost form `α + β·bytes` by least
/// squares over a metered `tcp` run's socket batches, and set it next to
/// Table 1's (the cost model's short-message round trip and per-byte
/// cost, 40 µs and 20 MB/s), one row per app. The batch percentiles come
/// from the coordinator's `route.batch` histogram, which samples each
/// batch exactly once — the row would be meaningless if it sampled a
/// batch once per frame.
fn calibration_row(app: &'static str, run: &RunResult) -> CalRow {
    let reg = run
        .metrics()
        .unwrap_or_else(|| panic!("{app}/tcp: calibration needs a metered run"));
    let h = reg
        .hist("coord.route.batch")
        .unwrap_or_else(|| panic!("{app}/tcp: frames were routed but no route.batch histogram"));
    let spans = &run.wire_spans;
    assert_eq!(
        h.count(),
        spans.len() as u64,
        "{app}/tcp: route.batch must have one sample per batch"
    );
    let span_frames: u64 = spans.iter().map(|s| u64::from(s.frames)).sum();
    assert_eq!(
        span_frames, run.wire_frames,
        "{app}/tcp: the batches must carry every routed frame"
    );
    let cost = fgdsm_tempest::CostModel::paper_dual_cpu();
    let (alpha, beta) = fgdsm_tempest::metrics::fit_cost_form(spans);
    CalRow {
        app,
        batches: h.count(),
        frames: run.wire_frames,
        batch_bytes: spans.iter().map(|s| s.bytes).sum(),
        table1_alpha_ns: cost.roundtrip_ns(0),
        table1_beta_ns_per_byte: cost.per_byte_ns,
        fit_alpha_ns: alpha,
        fit_beta_ns_per_byte: beta,
        measured_p50_ns: h.percentile(0.50),
        measured_p99_ns: h.percentile(0.99),
        measured_mean_ns: h.sum() / h.count().max(1),
    }
}

/// Render the per-app calibration table.
fn calibration_table(rows: &[CalRow]) {
    println!(
        "calibration — Table 1 cost form vs alpha + beta*bytes fitted over socket batches (tcp)"
    );
    println!(
        "{:<10} {:>8} {:>8} {:>11} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "app",
        "batches",
        "frames",
        "bytes",
        "t1_alpha",
        "t1_beta",
        "fit_alpha",
        "fit_beta",
        "p50_ns",
        "p99_ns"
    );
    for r in rows {
        println!(
            "{:<10} {:>8} {:>8} {:>11} {:>10} {:>10} {:>10.0} {:>10.2} {:>10} {:>10}",
            r.app,
            r.batches,
            r.frames,
            r.batch_bytes,
            r.table1_alpha_ns,
            r.table1_beta_ns_per_byte,
            r.fit_alpha_ns,
            r.fit_beta_ns_per_byte,
            r.measured_p50_ns,
            r.measured_p99_ns,
        );
    }
}

/// Assert the Chrome-trace export is a well-formed JSON array of
/// complete-span (`X`), instant (`i`), and metadata (`M`) events, each
/// carrying the `pid`/`tid`/`ts` fields Perfetto requires. (`M` only
/// appears in merged traces — the per-process `process_name` labels.)
fn validate_chrome(app: &str, backend: &str, chrome: &str) {
    let v = json::parse(chrome)
        .unwrap_or_else(|e| panic!("{app}/{backend}: chrome trace is not JSON: {e}"));
    let events = v
        .as_arr()
        .unwrap_or_else(|| panic!("{app}/{backend}: chrome trace is not an array"));
    assert!(
        !events.is_empty(),
        "{app}/{backend}: chrome trace has no events"
    );
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or_else(|| panic!("{app}/{backend}: event without ph: {ev:?}"));
        assert!(
            ph == "X" || ph == "i" || ph == "M",
            "{app}/{backend}: unexpected phase {ph:?}"
        );
        for key in ["pid", "tid"] {
            assert!(
                ev.get(key).and_then(|v| v.as_u64()).is_some(),
                "{app}/{backend}: event missing {key}: {ev:?}"
            );
        }
        assert!(
            ev.get("ts").and_then(|v| v.as_f64()).is_some(),
            "{app}/{backend}: event missing ts: {ev:?}"
        );
        assert!(
            ev.get("name").and_then(|n| n.as_str()).is_some(),
            "{app}/{backend}: event missing name"
        );
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(|d| d.as_f64()).is_some(),
                "{app}/{backend}: span missing dur"
            );
        }
    }
}

/// Extra backends requested through `FGDSM_BACKEND` (only `tcp`),
/// appended after the standard two. Requesting `tcp` in a sandbox that
/// forbids sockets is a loud error — the CI gate probes availability
/// before setting the variable.
fn extra_backends() -> Vec<(&'static str, ExecConfig)> {
    match std::env::var("FGDSM_BACKEND").ok().as_deref() {
        None | Some("") => Vec::new(),
        Some("tcp") => {
            assert!(
                fgdsm_hpf::tcp_available(),
                "FGDSM_BACKEND=tcp but the sandbox forbids sockets \
                 (probe with `fgdsm-node --probe tcp` first)"
            );
            // Metered: the tcp run feeds the calibration table and the
            // merged Perfetto trace. Telemetry is a side channel, so the
            // profile rows are byte-identical to an unmetered run.
            vec![("tcp", ExecConfig::tcp(NPROCS).metered())]
        }
        Some(other) => {
            panic!("FGDSM_BACKEND: unknown backend `{other}` (expected `tcp`)")
        }
    }
}

/// Strict-wire accounting invariants of a `tcp` run: the run
/// actually moved envelopes, the payload words they carried never exceed
/// the protocol's own byte accounting (`bytes_sent` adds fixed
/// per-message headers on top, reduction traffic is counted but not
/// enveloped), and for reduction-free apps every heatmap byte is
/// block-attributed — reductions are the only traffic with no home
/// block, so nothing else may leak into `unattributed_bytes`. The run
/// must also accrue *measured* route time: real socket round-trips cost
/// host nanoseconds the in-process backends never see.
fn check_wire_invariants(app: &str, run: &RunResult) {
    let mut whole = fgdsm_tempest::NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    assert!(
        run.wire_frames > 0 || whole.bytes_sent == 0,
        "{app}/tcp: traffic flowed ({} bytes) but no envelopes were routed",
        whole.bytes_sent
    );
    assert!(
        run.wire_payload_bytes > 0 || whole.bytes_sent == 0,
        "{app}/tcp: envelopes routed but carried no payload"
    );
    assert!(
        run.wire_payload_bytes <= whole.bytes_sent,
        "{app}/tcp: wire payload {} exceeds cluster bytes_sent {}",
        run.wire_payload_bytes,
        whole.bytes_sent
    );
    if whole.reductions == 0 {
        for (n, hm) in run.report.heatmaps.iter().enumerate() {
            assert_eq!(
                hm.unattributed_bytes, 0,
                "{app}/tcp: node {n} sent unattributed bytes in a reduction-free app"
            );
        }
    }
    assert!(
        run.wire_route_ns() > 0 || run.wire_frames == 0,
        "{app}/tcp: socket round-trips must accrue measured route time"
    );
    println!(
        "    wire: {} frames, {} payload bytes ({} cluster bytes_sent)",
        run.wire_frames, run.wire_payload_bytes, whole.bytes_sent
    );
}

/// One app's predicted-vs-measured latency comparison: the Table-1 cost
/// model's virtual communication time against the host time the real
/// socket round-trips took.
struct LatencyRow {
    app: &'static str,
    predicted_comm_ns: u64,
    measured_route_ns: u64,
    frames: u64,
    payload_bytes: u64,
}

/// Render the closing predicted-vs-measured table for the `tcp` runs.
/// The two columns answer different questions — the predicted side is
/// the simulated network of Table 1 (fixed per-message latency plus
/// bandwidth), the measured side is loopback-socket host time — so the
/// table validates *liveness and proportionality* of the cost model
/// (more frames cost more on both clocks), not equality.
fn latency_table(rows: &[LatencyRow]) {
    println!("predicted vs measured wire latency — Table 1 cost model vs host sockets");
    println!(
        "{:<10} {:>15} {:>15} {:>8} {:>11} {:>13} {:>13}",
        "app", "predicted_ns", "measured_ns", "frames", "payload_B", "pred_ns/frm", "meas_ns/frm"
    );
    for r in rows {
        let per = |ns: u64| if r.frames == 0 { 0 } else { ns / r.frames };
        println!(
            "{:<10} {:>15} {:>15} {:>8} {:>11} {:>13} {:>13}",
            r.app,
            r.predicted_comm_ns,
            r.measured_route_ns,
            r.frames,
            r.payload_bytes,
            per(r.predicted_comm_ns),
            per(r.measured_route_ns),
        );
    }
}

fn report_run(
    app: &'static str,
    backend: &'static str,
    loop_names: &[&'static str],
    run: &RunResult,
    chrome: &str,
    rows: &mut Vec<Row>,
) {
    validate_chrome(app, backend, chrome);

    // Planned (contract-orchestrated) bytes per loop, from the backend's
    // plan-time records. Empty for sm_unopt: everything is "unplanned".
    let mut planned: BTreeMap<u32, u64> = BTreeMap::new();
    for x in &run.planned {
        *planned.entry(x.loop_id).or_default() += x.bytes;
    }

    let handler_in_comm = run.report.handler_in_comm;
    let table = run.report.loop_table();
    println!("  {backend} (virtual {:.3}s)", run.total_s());
    println!(
        "    {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>12}  byp",
        "loop", "steps", "compute_ns", "comm_ns", "misses", "bytes", "planned_B"
    );
    let mut sum = fgdsm_tempest::NodeStats::default();
    for row in &table {
        let name = if row.loop_id == NO_LOOP {
            "(outside)"
        } else {
            loop_names
                .get(row.loop_id as usize)
                .copied()
                .unwrap_or("<?>")
        };
        let planned_bytes = planned.get(&row.loop_id).copied().unwrap_or(0);
        // Under the optimized backend, misses inside a planned loop mean
        // traffic bypassed the contract onto the default-protocol path.
        let bypassed = backend == "sm-opt" && row.loop_id != NO_LOOP && row.total.misses() > 0;
        println!(
            "    {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>12}  {}",
            name,
            row.supersteps,
            row.total.compute_ns,
            row.total.comm_ns(handler_in_comm),
            row.total.misses(),
            row.total.bytes_sent,
            planned_bytes,
            if bypassed { "!" } else { "" }
        );
        rows.push(Row {
            app,
            backend,
            loop_name: name.to_string(),
            supersteps: row.supersteps,
            compute_ns: row.total.compute_ns,
            comm_ns: row.total.comm_ns(handler_in_comm),
            misses: row.total.misses(),
            bytes_sent: row.total.bytes_sent,
            planned_bytes,
        });
        sum.accumulate(&row.total);
    }

    // The table is a decomposition, not a sample: summing every row must
    // reproduce the whole-run cluster counters field by field.
    let mut whole = fgdsm_tempest::NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    assert_eq!(
        sum, whole,
        "{app}/{backend}: per-loop table does not sum to the whole run"
    );

    let fs = &run.report.false_sharing;
    if fs.is_empty() {
        println!("    false sharing: none");
    } else {
        let blocks: std::collections::BTreeSet<u32> = fs.iter().map(|f| f.block).collect();
        println!(
            "    false sharing: {} flags over {} blocks (first: step {} loop {} block {} nodes {:?})",
            fs.len(),
            blocks.len(),
            fs[0].step,
            fs[0].loop_id,
            fs[0].block,
            fs[0].nodes
        );
    }
}

/// Co-residency demo: jacobi's Test geometry is block-aligned at 8
/// procs (6 columns × 96 words = 36 blocks per node), so the detector
/// finds nothing — the hazard `shmem_limits` exists for is absent by
/// construction. Re-running at one column per node makes every ghost
/// column a two-reader section: the unoptimized run faults co-resident
/// blocks all over, while the §4.2 contract covers the fully-aligned
/// interior blocks, leaving only the partial head/tail blocks (which
/// `shmem_limits` correctly refuses to orchestrate) on the default path.
fn false_sharing_demo() {
    use fgdsm_apps::{jacobi, Scale};
    use std::collections::BTreeSet;
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    let nprocs = 48; // one column per node: two remote readers per ghost column
    let un = fgdsm_hpf::execute(&prog, &ExecConfig::sm_unopt(nprocs));
    let op = fgdsm_hpf::execute(&prog, &ExecConfig::sm_opt(nprocs));
    let un_blocks: BTreeSet<u32> = un.report.false_sharing.iter().map(|f| f.block).collect();
    let op_blocks: BTreeSet<u32> = op.report.false_sharing.iter().map(|f| f.block).collect();
    let covered: Vec<u32> = un_blocks.difference(&op_blocks).copied().collect();
    println!("co-residency demo — jacobi at {nprocs} procs (one column per node)");
    println!(
        "  sm-unopt: {} flags over {} blocks | sm-opt: {} flags over {} blocks",
        un.report.false_sharing.len(),
        un_blocks.len(),
        op.report.false_sharing.len(),
        op_blocks.len(),
    );
    println!(
        "  {} co-resident blocks in the unoptimized run are clean under the contract",
        covered.len()
    );
    assert!(
        !un.report.false_sharing.is_empty(),
        "unoptimized jacobi at one column per node must exhibit co-resident faults"
    );
    assert!(
        !covered.is_empty(),
        "the contract must clean at least one block the unoptimized run faults multi-node"
    );
    assert!(
        op.report.false_sharing.len() < un.report.false_sharing.len(),
        "the contract must strictly reduce co-resident faulting"
    );
}

fn main() {
    let filter = std::env::args().nth(1);
    println!(
        "profile report — {} — {} procs\n",
        fgdsm_bench::scale_label(scale()),
        NPROCS
    );
    let mut rows = Vec::new();
    let mut latency = Vec::new();
    let mut calibration = Vec::new();
    let mut ran = 0;
    for spec in suite(scale()) {
        if let Some(f) = &filter {
            if spec.name != f.as_str() {
                continue;
            }
        }
        ran += 1;
        println!("{}", spec.name);
        let loop_names: Vec<&'static str> =
            spec.program.par_loops().iter().map(|l| l.name).collect();
        let mut backends = vec![
            ("sm-unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm-opt", ExecConfig::sm_opt(NPROCS)),
        ];
        backends.extend(extra_backends());
        for (backend, cfg) in backends {
            let (run, _trace, chrome) = execute_profiled(&spec.program, &cfg);
            report_run(spec.name, backend, &loop_names, &run, &chrome, &mut rows);
            if backend == "tcp" {
                check_wire_invariants(spec.name, &run);
                let mut whole = fgdsm_tempest::NodeStats::default();
                for n in &run.report.nodes {
                    whole.accumulate(n);
                }
                latency.push(LatencyRow {
                    app: spec.name,
                    predicted_comm_ns: whole.comm_ns(run.report.handler_in_comm),
                    measured_route_ns: run.wire_route_ns(),
                    frames: run.wire_frames,
                    payload_bytes: run.wire_payload_bytes,
                });
                // Metered run: the telemetry side channel must conserve
                // the wire's payload accounting on both sides of the
                // socket, and the merged Perfetto trace (virtual-clock
                // coordinator tracks + wall-clock worker pid tracks)
                // must validate like any other chrome export.
                run.check_metrics_conservation()
                    .unwrap_or_else(|e| panic!("{}/tcp: {e}", spec.name));
                let merged = run.merged_chrome(&chrome);
                validate_chrome(spec.name, "tcp-merged", &merged);
                if let Ok(path) = std::env::var("FGDSM_MERGED_CHROME") {
                    if !path.is_empty() {
                        if let Err(e) = std::fs::write(&path, &merged) {
                            eprintln!("FGDSM_MERGED_CHROME: cannot write {path}: {e}");
                        }
                    }
                }
                calibration.push(calibration_row(spec.name, &run));
            }
        }
        println!();
    }
    assert!(ran > 0, "no app matched {filter:?}");
    if !latency.is_empty() {
        latency_table(&latency);
        println!();
    }
    if !calibration.is_empty() {
        calibration_table(&calibration);
        println!();
        // FGDSM_CALIB_OUT redirects to a scratch path, like
        // FGDSM_PROFILE_OUT below.
        match std::env::var("FGDSM_CALIB_OUT") {
            Ok(path) => {
                use fgdsm_bench::json::ToJson;
                if let Err(e) = std::fs::write(&path, format!("{}\n", calibration.to_json())) {
                    eprintln!("FGDSM_CALIB_OUT: cannot write {path}: {e}");
                }
            }
            Err(_) => save_json("calibration", &calibration),
        }
    }
    if filter.is_none() || filter.as_deref() == Some("jacobi") {
        false_sharing_demo();
    }
    // FGDSM_PROFILE_OUT redirects the rows to a scratch path (the ci
    // smoke runs at test scale and must not clobber the committed
    // bench-scale artifact).
    match std::env::var("FGDSM_PROFILE_OUT") {
        Ok(path) => {
            use fgdsm_bench::json::ToJson;
            if let Err(e) = std::fs::write(&path, format!("{}\n", rows.to_json())) {
                eprintln!("FGDSM_PROFILE_OUT: cannot write {path}: {e}");
            }
        }
        Err(_) => save_json("profile", &rows),
    }
}
