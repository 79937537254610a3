//! Wire-layer accounting invariants for strict wire mode in process.
//!
//! Strict wire mode (`FGDSM_WIRE=strict`) is the in-process proof of the
//! wire seam: every inter-node transfer is encoded into an owned
//! `WireMsg` byte frame, handed through the loopback transport, and
//! decoded before it is applied — no shared-memory shortcut exists.
//! These tests pin down what that buys us across the whole Table 2
//! suite:
//!
//! * the frame and payload counters are live (`wire_frames > 0` whenever
//!   the cluster moved any bytes at all) and reconcile against the
//!   simulator's own accounting (`wire_payload_bytes ≤ Σ bytes_sent`,
//!   since `NodeStats` charges a fixed per-message header on top of the
//!   data the envelope carries, and reductions are noted but never
//!   enveloped);
//! * the zero-copy fast path routes *nothing* through the wire layer, so
//!   the counters prove which path ran.
//!
//! That strict runs stay byte-identical to the fast path in every
//! canonical artifact is pinned by the determinism suite
//! (`strict_wire_matches_fast_path`).

use fgdsm_apps::{suite, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, ExecConfig};
use fgdsm_tempest::NodeStats;

/// Sum the per-node stats of one run into a whole-cluster view.
fn cluster_totals(run: &fgdsm_hpf::RunResult) -> NodeStats {
    let mut whole = NodeStats::default();
    for n in &run.report.nodes {
        whole.accumulate(n);
    }
    whole
}

/// Strict `sm_opt` must route every transfer through envelopes, and the
/// envelope accounting must reconcile with the simulator's byte charges.
#[test]
fn strict_wire_accounting_reconciles() {
    for spec in suite(Scale::Test) {
        let run = execute(&spec.program, &ExecConfig::sm_opt(NPROCS).strict());
        let whole = cluster_totals(&run);
        assert!(
            whole.bytes_sent > 0,
            "{}: suite app moved no bytes — not a useful wire check",
            spec.name
        );
        assert!(
            run.wire_frames > 0,
            "{}: strict run moved {} bytes but routed no wire frames",
            spec.name,
            whole.bytes_sent
        );
        assert!(
            run.wire_payload_bytes > 0,
            "{}: strict run routed {} frames with no payload",
            spec.name,
            run.wire_frames
        );
        assert!(
            run.wire_payload_bytes <= whole.bytes_sent,
            "{}: wire payload {} exceeds cluster bytes_sent {} — envelopes \
             carry data the simulator never charged for",
            spec.name,
            run.wire_payload_bytes,
            whole.bytes_sent
        );
        if whole.reductions == 0 {
            for (n, hm) in run.report.heatmaps.iter().enumerate() {
                assert_eq!(
                    hm.unattributed_bytes, 0,
                    "{}: node {n} has unattributed bytes without reductions",
                    spec.name
                );
            }
        }
    }
}

/// The zero-copy fast path must not touch the wire layer: its counters
/// stay at zero, which is how we know strict mode actually exercised the
/// envelopes.
#[test]
fn fast_path_routes_no_frames() {
    for spec in suite(Scale::Test) {
        for (backend, cfg) in [
            ("sm_unopt", ExecConfig::sm_unopt(NPROCS)),
            ("sm_opt", ExecConfig::sm_opt(NPROCS)),
            ("mp", ExecConfig::mp(NPROCS)),
        ] {
            let run = execute(&spec.program, &cfg);
            assert_eq!(
                (run.wire_frames, run.wire_payload_bytes),
                (0, 0),
                "{}/{backend}: fast path leaked into the wire layer",
                spec.name
            );
            let strict = execute(&spec.program, &cfg.clone().strict());
            assert!(
                strict.wire_frames >= run.wire_frames,
                "{}/{backend}: strict mode routed fewer frames than fast path",
                spec.name
            );
        }
    }
}
