//! Wall-clock telemetry guards.
//!
//! Two properties pin the metrics layer:
//!
//! * **Byte-identity**: telemetry is a pure side channel. Every canonical
//!   artifact — report JSON, structured trace, profile JSON, Chrome
//!   trace, gathered data, scalars — must be byte-identical with metrics
//!   on vs off, across the serial, threaded, strict-wire, and (when the
//!   sandbox allows sockets) `tcp` configurations.
//! * **Liveness + conservation**: a metered `tcp` run must actually
//!   populate per-class histograms on both sides of the socket, merge
//!   the workers' registries under node-tagged keys, conserve the wire's
//!   payload accounting, and splice into a merged Perfetto trace that
//!   the bench JSON parser accepts.

use fgdsm_apps::{jacobi, suite, Scale};
use fgdsm_bench::{json, NPROCS};
use fgdsm_hpf::{execute_profiled, tcp_available, ExecConfig};

/// Canonical artifacts are byte-identical with telemetry on vs off.
#[test]
fn metrics_on_vs_off_canonical_artifacts_are_byte_identical() {
    let prog = jacobi::build(&jacobi::Params::at(Scale::Test));
    let mut configs: Vec<(&str, ExecConfig)> = vec![
        ("sm_opt/serial", ExecConfig::sm_opt(NPROCS).serial()),
        ("sm_opt/threads", ExecConfig::sm_opt(NPROCS).threads(3)),
        ("sm_opt/strict", ExecConfig::sm_opt(NPROCS).strict()),
    ];
    if tcp_available() {
        configs.push(("tcp", ExecConfig::tcp(NPROCS)));
    } else {
        eprintln!("notice: sandbox forbids sockets; byte-identity guard skips the tcp config");
    }
    for (name, cfg) in configs {
        let (off, off_trace, off_chrome) = execute_profiled(&prog, &cfg.clone().unmetered());
        let (on, on_trace, on_chrome) = execute_profiled(&prog, &cfg.clone().metered());
        assert_eq!(
            off.report.to_json(),
            on.report.to_json(),
            "{name}: metered report diverged"
        );
        assert_eq!(off_trace, on_trace, "{name}: metered trace diverged");
        assert_eq!(off_chrome, on_chrome, "{name}: metered chrome diverged");
        assert_eq!(
            off.report.profile_json(),
            on.report.profile_json(),
            "{name}: metered profile diverged"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&off.data), bits(&on.data), "{name}: data diverged");
        assert_eq!(off.scalars, on.scalars, "{name}: scalars diverged");
        assert!(
            off.metrics().is_none(),
            "{name}: unmetered run must carry no registry"
        );
        assert!(
            off.wire_spans.is_empty(),
            "{name}: unmetered run must record no wire spans"
        );
        // On the wire configurations the metered run must have recorded
        // something; the fast path has no wire seam to observe.
        if off.wire_frames > 0 {
            let reg = on
                .metrics()
                .unwrap_or_else(|| panic!("{name}: metered wire run must carry a registry"));
            assert!(!reg.is_empty(), "{name}: metered registry is empty");
            assert!(
                on.check_metrics_conservation().is_ok(),
                "{name}: {:?}",
                on.check_metrics_conservation()
            );
        }
    }
}

/// A metered `tcp` run of the whole suite: per-class histograms on both
/// sides, node-tagged worker keys, conservation, and a valid merged
/// Perfetto document.
#[test]
fn tcp_telemetry_populates_both_sides_and_merges_cleanly() {
    if !tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; \
             skipping tcp_telemetry_populates_both_sides_and_merges_cleanly"
        );
        return;
    }
    for spec in suite(Scale::Test) {
        let (run, _trace, chrome) =
            execute_profiled(&spec.program, &ExecConfig::tcp(NPROCS).metered());
        let reg = run.metrics().expect("metered tcp run has a registry");

        // Coordinator side: for every exercised class the per-frame
        // stages are histogrammed, one sample per frame.
        let mut exercised = 0u64;
        for kind in 0u8..=4 {
            let class = fgdsm_tempest::metrics::class_name(kind);
            let frames = reg.counter(&format!("coord.frames.{class}"));
            if frames == 0 {
                continue;
            }
            exercised += frames;
            for stage in ["encode", "decode", "apply"] {
                let h = reg
                    .hist(&format!("coord.{stage}.{class}"))
                    .unwrap_or_else(|| panic!("{}: no coord.{stage}.{class} histogram", spec.name));
                assert_eq!(
                    h.count(),
                    frames,
                    "{}: coord.{stage}.{class} must sample every frame",
                    spec.name
                );
            }
        }
        assert_eq!(
            exercised, run.wire_frames,
            "{}: per-class frame counters must cover every routed frame",
            spec.name
        );
        // Routing is booked per batch: one `route.batch` sample per
        // wire span, and the spans together carry every frame.
        let batches = reg
            .hist("coord.route.batch")
            .unwrap_or_else(|| panic!("{}: no coord.route.batch histogram", spec.name));
        assert_eq!(
            batches.count(),
            run.wire_spans.len() as u64,
            "{}: coord.route.batch must sample every batch once",
            spec.name
        );
        let span_frames: u64 = run.wire_spans.iter().map(|s| u64::from(s.frames)).sum();
        assert_eq!(
            span_frames, run.wire_frames,
            "{}: the batch spans must carry every routed frame",
            spec.name
        );

        // Worker side: at least one node shipped a registry home, with
        // recv histograms under its node-tagged prefix.
        let worker_keys: Vec<&str> = reg
            .iter()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("node"))
            .collect();
        assert!(
            !worker_keys.is_empty(),
            "{}: no node-tagged worker metrics were merged",
            spec.name
        );
        assert!(
            worker_keys.iter().any(|k| k.contains(".recv.")),
            "{}: workers recorded no recv histograms: {worker_keys:?}",
            spec.name
        );

        run.check_metrics_conservation()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));

        // Merged Perfetto document: parses, keeps the virtual-clock
        // coordinator events on pid 0, adds worker pid tracks with
        // wall-clock socket-batch spans and process_name metadata.
        assert!(
            !run.wire_spans.is_empty(),
            "{}: metered tcp run recorded no socket-batch spans",
            spec.name
        );
        let merged = run.merged_chrome(&chrome);
        let v = json::parse(&merged)
            .unwrap_or_else(|e| panic!("{}: merged chrome is not JSON: {e}", spec.name));
        let events = v.as_arr().expect("merged chrome is an array");
        let pid = |ev: &json::Value| ev.get("pid").and_then(|p| p.as_u64()).unwrap();
        let ph = |ev: &json::Value| ev.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
        assert!(
            events.iter().any(|e| pid(e) == 0),
            "{}: merged trace lost the coordinator track",
            spec.name
        );
        assert!(
            events.iter().any(|e| pid(e) >= 1 && ph(e) == "X"),
            "{}: merged trace has no worker wall-clock spans",
            spec.name
        );
        let labels = events.iter().filter(|e| ph(e) == "M").count();
        assert!(
            labels >= 2,
            "{}: merged trace must label the coordinator and at least one worker, got {labels}",
            spec.name
        );
    }
}
