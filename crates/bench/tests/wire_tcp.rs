//! Wire-layer accounting invariants for the socket-backed `tcp` backend.
//!
//! The `tcp` backend carries the same envelope discipline as strict wire
//! mode over real sockets to spawned `fgdsm-node` worker processes, so
//! the same accounting invariants hold — plus two it alone can prove:
//!
//! * the measured route time (`wire_route_ns`) is live: socket
//!   round-trips cost real host nanoseconds, which the virtual clock
//!   never sees (canonical artifacts stay byte-identical to `sm_opt`);
//! * the *nodes'* own counters reconcile with the coordinator's: each
//!   worker reports its served frame and payload totals in `ByeStats`
//!   at orderly teardown, and the sums must match what the coordinator
//!   routed — double-entry bookkeeping across address spaces.
//!
//! Every test skips with a notice when the sandbox forbids sockets.

use fgdsm_apps::{suite, Scale};
use fgdsm_bench::NPROCS;
use fgdsm_hpf::{execute, tcp_available, ExecConfig};
use fgdsm_net::{NetGeometry, SocketOpts, SocketTransport};
use fgdsm_protocol::wire::WireHeader;
use fgdsm_protocol::{WireMsg, WireTransport};

/// The tcp backend must route every transfer through the sockets, the
/// envelope accounting must reconcile with the simulator's byte charges,
/// and — unlike every in-process backend — the measured route time must
/// be nonzero while the canonical artifacts stay byte-identical to
/// `sm_opt`.
#[test]
fn tcp_wire_accounting_reconciles_and_artifacts_match_sm_opt() {
    if !tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping tcp_wire_accounting_reconciles_and_artifacts_match_sm_opt"
        );
        return;
    }
    for spec in suite(Scale::Test) {
        let tcp = execute(&spec.program, &ExecConfig::tcp(NPROCS));
        let smopt = execute(&spec.program, &ExecConfig::sm_opt(NPROCS));
        let bytes_sent: u64 = tcp.report.nodes.iter().map(|n| n.bytes_sent).sum();
        assert!(
            tcp.wire_frames > 0,
            "{}: tcp run moved {bytes_sent} bytes but routed no wire frames",
            spec.name
        );
        assert!(
            tcp.wire_payload_bytes > 0 && tcp.wire_payload_bytes <= bytes_sent,
            "{}: wire payload {} must be positive and ≤ cluster bytes_sent {}",
            spec.name,
            tcp.wire_payload_bytes,
            bytes_sent
        );
        assert!(
            tcp.wire_route_ns() > 0,
            "{}: socket round-trips must accrue measured route time",
            spec.name
        );
        assert_eq!(
            smopt.wire_route_ns(),
            0,
            "{}: the in-process fast path never routes",
            spec.name
        );
        assert_eq!(
            tcp.report.to_json(),
            smopt.report.to_json(),
            "{}: tcp report diverged from sm_opt",
            spec.name
        );
        assert_eq!(
            tcp.report.profile_json(),
            smopt.report.profile_json(),
            "{}: tcp profile artifact diverged from sm_opt",
            spec.name
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&tcp.data),
            bits(&smopt.data),
            "{}: tcp gathered data diverged from sm_opt",
            spec.name
        );
        assert_eq!(
            tcp.scalars, smopt.scalars,
            "{}: tcp scalars diverged from sm_opt",
            spec.name
        );
    }
}

/// Double-entry bookkeeping across address spaces: drive a transport
/// directly, count what the coordinator routes, and check the workers'
/// `ByeStats` totals agree frame for frame and byte for byte — while
/// every reply round-trips as the identity.
#[test]
fn remote_bye_stats_reconcile_with_coordinator_counts() {
    if !tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping remote_bye_stats_reconcile_with_coordinator_counts"
        );
        return;
    }
    let geom = NetGeometry {
        nprocs: 3,
        wpb: 4,
        seg_words: 64,
    };
    let mut t = SocketTransport::spawn(geom, SocketOpts::default())
        .expect("tcp_available said sockets work");
    let msgs_for = |dst: usize| {
        vec![
            WireMsg::Push {
                hdr: WireHeader::for_blocks(0, dst, (0, 0), 7, 2, 2),
                start_block: 2,
                n_blocks: 2,
                words: vec![11, 22, 33, 44],
            },
            WireMsg::Diff {
                hdr: WireHeader::for_blocks(0, dst, (0, 1), 7, 3, 1),
                block: 3,
                mask: 0b1011,
                words: vec![9, 8, 7],
            },
        ]
    };
    let (mut sent_frames, mut sent_payload) = (0u64, 0u64);
    // Two batches per node so the per-node serve loop iterates.
    for _ in 0..2 {
        for dst in 1..geom.nprocs {
            let msgs = msgs_for(dst);
            let frames: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_bytes()).collect();
            sent_frames += frames.len() as u64;
            sent_payload += msgs.iter().map(|m| m.payload_bytes()).sum::<u64>();
            let back = t.route(dst, frames.clone()).expect("clean route");
            assert_eq!(back, frames, "apply + re-encode must be the identity");
        }
    }
    t.shutdown();
    let (remote_frames, remote_payload, reporters) = t.remote_stats();
    assert_eq!(
        reporters, geom.nprocs,
        "every worker must report ByeStats at orderly teardown \
         (node 0 served nothing but still reports)"
    );
    assert_eq!(
        (remote_frames, remote_payload),
        (sent_frames, sent_payload),
        "workers' served totals must reconcile with the coordinator's routed totals"
    );
}
