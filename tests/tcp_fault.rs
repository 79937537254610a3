//! Fault tolerance of the socket-backed `tcp` backend: killing,
//! wedging or garbling an `fgdsm-node` worker process mid-superstep must
//! surface a clean *typed* error at the coordinator —
//! [`WireError::PeerGone`] on EOF, [`WireError::Timeout`] once the recv
//! deadline fires, [`WireError::ReplyCount`] for a reply a frame short —
//! within a bounded wall time, with no hang and no partial trace
//! artifact.
//!
//! The tests mutate process-global environment (`FGDSM_NET_TIMEOUT_MS`,
//! `FGDSM_TRACE`), so they serialize on one mutex.

use fgdsm::hpf::{try_execute, ExecConfig, ExecError, InjectConfig};
use fgdsm::net::NodeFault;
use fgdsm::protocol::WireError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static ENV_LOCK: Mutex<()> = Mutex::new(());

const NPROCS: usize = 2;

fn comm_heavy_program() -> fgdsm::hpf::Program {
    // Jacobi at test scale: every superstep ships boundary rows between
    // the two nodes, so the faulted node is guaranteed to see batches.
    let params = fgdsm::apps::jacobi::Params::at(fgdsm::apps::Scale::Test);
    fgdsm::apps::jacobi::build(&params)
}

fn tcp_cfg(fault: NodeFault, node: u32) -> ExecConfig {
    ExecConfig::tcp(NPROCS).serial().with_inject(InjectConfig {
        tcp_node_fault: Some((node, fault)),
        ..InjectConfig::default()
    })
}

/// Run one faulted execution under a watchdog: returns the error and
/// checks the run neither hung past `deadline` nor left a partial
/// `FGDSM_TRACE` artifact behind.
fn run_faulted(fault: NodeFault, node: u32, deadline: Duration) -> ExecError {
    let trace_path = std::env::temp_dir().join(format!(
        "fgdsm-tcp-fault-{}-{node}.trace.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    std::env::set_var("FGDSM_TRACE", &trace_path);
    let prog = comm_heavy_program();
    let t0 = Instant::now();
    let r = try_execute(&prog, &tcp_cfg(fault, node));
    let elapsed = t0.elapsed();
    std::env::remove_var("FGDSM_TRACE");
    assert!(
        elapsed < deadline,
        "faulted run must fail within {deadline:?}, took {elapsed:?}"
    );
    assert!(
        !trace_path.exists(),
        "a failed run must not leave a partial trace artifact at {}",
        trace_path.display()
    );
    r.expect_err("a killed/wedged node must fail the run")
}

/// A node that exits mid-superstep (EOF on the coordinator's next read)
/// surfaces as a typed `PeerGone` naming that node.
#[test]
fn killed_node_yields_typed_peer_gone() {
    let _g = ENV_LOCK.lock().unwrap();
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping killed_node_yields_typed_peer_gone");
        return;
    }
    let e = run_faulted(NodeFault::ExitAfterBatches(0), 1, Duration::from_secs(60));
    match e {
        ExecError::Wire(WireError::PeerGone(p)) => {
            assert_eq!(p, 1, "error must name the dead node")
        }
        other => panic!("want Wire(PeerGone(1)), got {other:?}"),
    }
}

/// A node that stops replying (process alive, socket open) trips the
/// coordinator's recv deadline and surfaces as a typed `Timeout` naming
/// that node — the explicit non-EOF half of the failure semantics.
#[test]
fn wedged_node_yields_typed_timeout_within_deadline() {
    let _g = ENV_LOCK.lock().unwrap();
    if !fgdsm::hpf::tcp_available() {
        eprintln!(
            "notice: sandbox forbids sockets; skipping wedged_node_yields_typed_timeout_within_deadline"
        );
        return;
    }
    // Short recv deadline so the wedge converts to a typed error fast;
    // the watchdog bound proves the deadline (not a hang) ended the run.
    std::env::set_var("FGDSM_NET_TIMEOUT_MS", "500");
    let e = run_faulted(NodeFault::WedgeAfterBatches(0), 1, Duration::from_secs(30));
    std::env::remove_var("FGDSM_NET_TIMEOUT_MS");
    match e {
        ExecError::Wire(WireError::Timeout(p)) => {
            assert_eq!(p, 1, "error must name the wedged node")
        }
        other => panic!("want Wire(Timeout(1)), got {other:?}"),
    }
}

/// A node that answers a batch one frame short surfaces as a typed
/// `ReplyCount` naming that node and both counts. In the two-node
/// jacobi, node 0's first batch travels in a wave that also carries a
/// batch for node 1, so node 0's reply — read first — fails while node
/// 1's reply is still in flight: the coordinator must return without
/// reading it and tear the fleet down without hanging.
#[test]
fn short_reply_yields_typed_reply_count() {
    let _g = ENV_LOCK.lock().unwrap();
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping short_reply_yields_typed_reply_count");
        return;
    }
    let e = run_faulted(
        NodeFault::ShortReplyAfterBatches(0),
        0,
        Duration::from_secs(30),
    );
    match e {
        ExecError::Wire(WireError::ReplyCount { node, sent, got }) => {
            assert_eq!(node, 0, "error must name the node that replied short");
            assert_eq!(got + 1, sent, "the reply was exactly one frame short");
        }
        other => panic!("want Wire(ReplyCount {{ node: 0, .. }}), got {other:?}"),
    }
}

/// The same fleet-spawning path with no fault armed must succeed and
/// match the in-process `sm_opt` backend bit for bit — the positive
/// control for the two failure tests above.
#[test]
fn unfaulted_tcp_run_matches_sm_opt() {
    let _g = ENV_LOCK.lock().unwrap();
    if !fgdsm::hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping unfaulted_tcp_run_matches_sm_opt");
        return;
    }
    let prog = comm_heavy_program();
    let tcp = try_execute(&prog, &ExecConfig::tcp(NPROCS).serial()).expect("clean tcp run");
    let smopt = fgdsm::hpf::execute(&prog, &ExecConfig::sm_opt(NPROCS).serial());
    assert_eq!(tcp.report.to_json(), smopt.report.to_json());
    assert_eq!(tcp.data, smopt.data);
    assert!(
        tcp.wire_frames > 0,
        "jacobi must route envelopes over the sockets"
    );
    assert!(
        tcp.wire_route_ns() > 0,
        "socket round-trips must accrue measured route time"
    );
    assert_eq!(
        smopt.wire_route_ns(),
        0,
        "the in-process fast path never routes"
    );
}
