//! The deferred-landing hazard rule on the loopback wire path: each
//! protocol path that reads a node's memory while a transfer to that
//! node is still pending must settle it first, so a strict-wire DSM ends
//! byte-identical to the fast path in memory and in the report.

use fgdsm_protocol::{Dsm, Loopback, MpRuntime};
use fgdsm_tempest::{Cluster, CostModel, HomePolicy, SegmentLayout};

const NPROCS: usize = 4;

fn dsm(strict: bool) -> Dsm {
    let cost = CostModel::paper_dual_cpu();
    let mut layout = SegmentLayout::new(cost.words_per_page());
    layout.alloc(4 * cost.words_per_page());
    let mut d = Dsm::new(Cluster::new(NPROCS, cost, &layout, HomePolicy::RoundRobin));
    if strict {
        d.set_wire(Box::new(Loopback));
    }
    d
}

/// First block of page `page` (RoundRobin: homed at node `page % 4`).
fn block_of_page(d: &Dsm, page: usize) -> usize {
    page * d.cluster.words_per_page() / d.cluster.words_per_block()
}

/// Run `steps` on a fast-path DSM and on a loopback strict-wire DSM,
/// flush the strict one, and require identical memory and reports.
fn assert_matches_fast_path(steps: impl Fn(&mut Dsm)) {
    let mut fast = dsm(false);
    let mut strict = dsm(true);
    steps(&mut fast);
    steps(&mut strict);
    strict.wire_flush();
    assert!(strict.wire_stats().0 > 0, "the strict run must post frames");
    for n in 0..NPROCS {
        let bits =
            |d: &Dsm| -> Vec<u64> { d.cluster.node_mem(n).iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&strict), bits(&fast), "node {n} memory diverged");
    }
    assert_eq!(
        strict.cluster.report().to_json(),
        fast.cluster.report().to_json()
    );
    strict.check_consistency().unwrap();
}

/// 4-hop read in one sub-phase: the owner's copy travels to the home
/// (a pending landing there), then the home serves the reader — which
/// reads exactly the block still in flight.
#[test]
fn four_hop_read_settles_the_home_copy() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 0); // homed at node 0
        let (s, _) = d.cluster.block_words(b);
        d.write_access_excl(1, b);
        // The store is a kernel's: like the engine, land first.
        d.wire_flush();
        d.cluster.node_mem_mut(1)[s + 2] = 7.5;
        d.read_access(2, b);
        d.wire_flush();
        assert_eq!(
            d.cluster.node_mem(2)[s + 2],
            7.5,
            "reader got the owner's data"
        );
    });
}

/// A read of a `Multi` block. Each writer joins by fetching the merge
/// base from the home and twinning it while the fetch is still pending.
/// At the read, the first writer's diff is pending at the home when the
/// home — itself a writer — diffs and re-twins the block and serves the
/// reader.
#[test]
fn multi_read_settles_fetches_and_diffs() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 2); // homed at node 2
        let (s, e) = d.cluster.block_words(b);
        // The home's initial contents: the merge base the writers fetch.
        d.cluster.node_mem_mut(2)[s..e].fill(0.5);
        d.write_access_multi(1, b);
        d.write_access_multi(2, b);
        d.wire_flush();
        d.cluster.node_mem_mut(1)[s] = 1.0;
        d.cluster.node_mem_mut(2)[s + 1] = 2.0;
        d.read_access(3, b);
        d.wire_flush();
        assert_eq!(d.cluster.node_mem(3)[s], 1.0, "reader sees writer 1's word");
        assert_eq!(
            d.cluster.node_mem(3)[s + 1],
            2.0,
            "reader sees writer 2's word"
        );
        d.release_barrier();
    });
}

/// The facade's block readers — a diff mask, a diff's source words and a
/// twin — each settle a copy posted to the block just before them.
#[test]
fn block_readers_settle_pending_landings() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 0); // homed at node 0
        let (s, e) = d.cluster.block_words(b);
        let fill_and_copy = |d: &mut Dsm, v: f64| {
            d.cluster.node_mem_mut(3)[s..e].fill(v);
            d.wire_copy(3, 1, s, e - s);
        };
        d.make_twin(1, b);
        fill_and_copy(d, 1.5);
        let mask = d.diff_mask(1, b);
        assert_eq!(mask.count_ones() as usize, e - s, "the mask saw the copy");
        fill_and_copy(d, 2.5);
        d.wire_diff(1, 0, b, mask);
        fill_and_copy(d, 3.5);
        d.make_twin(1, b);
        assert_eq!(d.diff_mask(1, b), 0, "the twin saw the copy");
        d.wire_flush();
        assert_eq!(d.cluster.node_mem(0)[s], 2.5, "the diff carried the copy");
    });
}

/// A local owner==home merge onto a block whose landing is pending
/// settles it: right after the merge the home's memory already holds the
/// landed copy, exactly as on the fast path.
#[test]
fn owner_home_merge_settles_a_pending_landing() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 0); // homed at node 0
        let (s, e) = d.cluster.block_words(b);
        d.cluster.node_mem_mut(1)[s..e].fill(4.25);
        d.wire_copy(1, 0, s, e - s);
        d.merge_block_words(0, 0, b, 0b1);
        assert_eq!(
            d.cluster.node_mem(0)[s],
            4.25,
            "the merge saw the landed copy"
        );
    });
}

/// A §4.2 push whose owner had to fetch the blocks first: `mk_writable`
/// posts the home's copy to the owner, and the plan's payload encode
/// reads those very blocks.
#[test]
fn plan_encode_settles_a_pending_fetch() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 0); // homed at node 0
        let (s, e) = d.cluster.block_words(b);
        d.cluster.node_mem_mut(0)[s..e].fill(6.5);
        d.mk_writable(1, b, b + 1);
        d.release_barrier();
        d.implicit_writable(2, b, b + 1, false);
        d.send_range(1, &[2], b, b + 1, true);
        d.ready_to_recv(2);
        assert_eq!(d.cluster.node_mem(2)[s], 6.5, "the push carried the fetch");
        d.implicit_invalidate(2, b, b + 1);
        d.release_barrier();
    });
}

/// A message-passing section packed from words a copy to the sender
/// has not landed yet.
#[test]
fn strided_pack_settles_a_pending_copy() {
    assert_matches_fast_path(|d| {
        let b = block_of_page(d, 0); // homed at node 0
        let (s, e) = d.cluster.block_words(b);
        d.cluster.node_mem_mut(0)[s..e].fill(8.5);
        d.wire_copy(0, 1, s, e - s);
        let mut mp = MpRuntime::new(NPROCS);
        mp.broadcast(d, 1, &[2, 3], s, 2, 4, 3);
        d.wire_flush();
        assert_eq!(
            d.cluster.node_mem(3)[s + 8],
            8.5,
            "the section carried the copy"
        );
    });
}
