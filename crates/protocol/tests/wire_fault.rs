//! A transport-level failure on the in-process wire path must unwind
//! with the typed [`WireError`] itself as the panic payload, so
//! executors can `catch_unwind` + downcast it back into a typed result
//! (the contract `fgdsm_hpf::try_execute` relies on). The socket-backed
//! tests reach the same path only where the sandbox allows sockets; this
//! one runs everywhere.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fgdsm_protocol::{Batch, Dsm, SendEntry, WireError, WireTransport};
use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout, NO_ARRAY};

/// A transport whose every peer has already hung up.
struct DeadPeers;

impl WireTransport for DeadPeers {
    fn route_wave(&mut self, wave: &mut [Batch]) -> Result<(), WireError> {
        Err(WireError::PeerGone(wave[0].dst as u32))
    }
}

#[test]
fn planned_send_to_a_gone_peer_unwinds_with_typed_error() {
    let cost = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cost.words_per_page());
    layout.alloc(8192);
    let mut d = Dsm::new(Cluster::new(2, cost, &layout, HomePolicy::RoundRobin));
    d.set_wire(Box::new(DeadPeers));
    d.mk_writable(0, 0, 2);
    let plans = d.plan_sends(
        &[SendEntry {
            owner: 0,
            readers: vec![1],
            first: 0,
            end: 2,
            array: NO_ARRAY,
        }],
        true,
    );
    assert!(!plans.is_empty(), "the send must plan a transfer to node 1");
    let r = catch_unwind(AssertUnwindSafe(|| d.apply_plans(&plans, 1)));
    let payload = r.expect_err("routing to a gone peer must fail the send");
    let err = payload
        .downcast::<WireError>()
        .expect("panic payload must be the typed WireError");
    assert_eq!(*err, WireError::PeerGone(1));
}
