//! Fault-injection contract tests: tolerated perturbations must keep
//! every backend bit-identical to the reference; must-catch protocol
//! mutations must make the oracle report a divergence; and a diverging
//! case must shrink to a smaller spec that still diverges.

use fgdsm_fuzz::{
    case_seed, check_spec, check_spec_tcp, gen_spec, shrink, ArraySpec, Detector, FStmt, Fault,
    FuzzSpec, LoopSpec, ReadSpec,
};
use fgdsm_hpf::InjectConfig;
use fgdsm_testkit::Rng;

const TOLERATED_SEEDS: u64 = 25;

/// Tolerated perturbations — randomized resolve order, a cleared
/// `implicit_writable` memo, and boundary blocks forced onto the default
/// path — must not change any result on any backend.
#[test]
fn tolerated_perturbations_are_invisible() {
    for case in 0..TOLERATED_SEEDS {
        let seed = case_seed(0xA110_CAFE, case);
        let mut rng = Rng::new(seed);
        let mut spec = gen_spec(&mut rng, seed);
        spec.inject = InjectConfig {
            shuffle_resolve: Some(seed.rotate_left(17)),
            clear_iw_memo: true,
            force_boundary: true,
            skew_send_range: false,
            skip_flush_range: false,
            stale_owner_push: false,
            reorder_plan_apply: false,
            misfold_pool: false,
            corrupt_envelope: false,
            corrupt_frame_len: false,
            undercount_metrics: false,
            skip_hazard_flush: false,
            tcp_node_fault: None,
        };
        if let Err(d) = check_spec(&spec) {
            panic!("tolerated perturbation diverged at seed {seed:#x}: {d}");
        }
    }
}

/// A 2-D block-distributed write array plus a 1-D array read by every
/// node at `b(i)`: the shared read section spans whole cache blocks, so
/// the optimized backend ships it with `send_range` — which the
/// injection skews by one element at each end.
fn skew_victim() -> FuzzSpec {
    FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 96,
        n2: [40, 8],
        arrays: vec![
            ArraySpec {
                rank2: true,
                cyclic: false,
                index_for: None,
            },
            ArraySpec {
                rank2: false,
                cyclic: false,
                index_for: None,
            },
        ],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: None,
            self_read: false,
            reads: vec![ReadSpec {
                array: 1,
                off: [0, 0],
                via: None,
            }],
            reduce: None,
            use_t: false,
            use_acc: false,
        })],
        time: None,
        inject: InjectConfig {
            skew_send_range: true,
            ..InjectConfig::default()
        },
    }
}

#[test]
fn must_catch_skewed_send_range() {
    let spec = skew_victim();
    let d = check_spec(&spec).expect_err("off-by-one send_range must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "skew only exists on the ctl path, diverged at {d}"
    );
}

/// Three nodes all read the same 1-D range, so each owner pushes to two
/// readers — at least two conflicting `TransferPlan`s per owner. The
/// injection reverses the plan order whenever the resolve phase runs
/// with more than one worker, so payload arrival times (and therefore
/// the readers' `ready_to_recv` stalls) differ between the serial
/// baseline and the threaded runs: a nondeterministic merge the oracle's
/// report/trace comparison must detect. Data stays bitwise correct (the
/// copies are disjoint), so only the determinism check can catch this.
fn reorder_victim() -> FuzzSpec {
    FuzzSpec {
        nprocs: 3,
        // 12 distributed columns over 3 nodes: every node owns columns
        // inside the loop bounds [2, 9], so every node reads the shared
        // 1-D array and each owner pushes to two readers.
        n2: [40, 12],
        inject: InjectConfig {
            reorder_plan_apply: true,
            ..InjectConfig::default()
        },
        ..skew_victim()
    }
}

#[test]
fn must_catch_reordered_plan_apply() {
    let spec = reorder_victim();
    let d = check_spec(&spec).expect_err("reordered plan apply must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "plans only exist on the ctl path, diverged at {d}"
    );
    assert!(
        d.config.ends_with("threads2") || d.config.ends_with("threads4"),
        "the serial baseline is unaffected; divergence must be in a threaded run, got {d}"
    );
    assert!(
        d.detail.contains("diverges from serial run"),
        "must be caught by the determinism comparison, not the reference: {d}"
    );
}

/// Same sharing pattern as [`reorder_victim`] — at least two conflicting
/// `TransferPlan`s per owner — but the injection rotates the parallel
/// apply stage's outcome vector out of plan-index order before the fold:
/// the merge mistake a worker-pool integration could make. Serial runs
/// fold a single outcome stream and are unaffected, so only the
/// threaded-vs-serial determinism comparison can catch it.
fn misfold_victim() -> FuzzSpec {
    FuzzSpec {
        inject: InjectConfig {
            misfold_pool: true,
            ..InjectConfig::default()
        },
        ..reorder_victim()
    }
}

#[test]
fn must_catch_misfolded_pool_results() {
    let spec = misfold_victim();
    let d = check_spec(&spec).expect_err("out-of-order pool fold must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "plans only exist on the ctl path, diverged at {d}"
    );
    assert!(
        !d.config.ends_with("serial"),
        "the serial baseline is unaffected; divergence must be in a threaded run, got {d}"
    );
    assert!(
        d.detail.contains("diverges from serial run"),
        "must be caught by the determinism comparison, not the reference: {d}"
    );
}

/// The same traffic-heavy program as [`skew_victim`], but with a byte
/// flipped inside the first envelope routed in strict wire mode: decode
/// validation must reject the frame and fail the run loudly. The
/// fast-path configs never see an envelope, so the divergence must land
/// on a `wire-strict` config — proving the injection (and thus the
/// validation) lives on the wire seam itself.
#[test]
fn must_catch_corrupt_envelope() {
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        corrupt_envelope: true,
        ..InjectConfig::default()
    };
    let d = check_spec(&spec).expect_err("corrupt envelope must be detected");
    assert!(
        d.config.contains("wire-strict"),
        "only envelope paths can observe the corruption, diverged at {d}"
    );
    assert!(
        d.detail.contains("panic"),
        "a corrupt frame must fail the run loudly, not diverge quietly: {d}"
    );
    assert!(
        d.detail.contains("envelope decode failed"),
        "failure must come from wire decode validation: {d}"
    );
}

/// The same traffic-heavy program as [`skew_victim`], but the `tcp`
/// coordinator overwrites the length prefix of the first data frame it
/// sends with an oversized value: the node's framing layer must reject
/// it against the frame cap *before allocating*, reply with a decode
/// error, and fail the run loudly. Skipped (with a notice) when the
/// sandbox forbids sockets.
#[test]
fn must_catch_corrupt_frame_len() {
    if !fgdsm_hpf::tcp_available() {
        eprintln!("notice: sandbox forbids sockets; skipping must_catch_corrupt_frame_len");
        return;
    }
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        corrupt_frame_len: true,
        ..InjectConfig::default()
    };
    let d = check_spec_tcp(&spec).expect_err("corrupt frame length must be detected");
    assert!(
        d.config.starts_with("tcp"),
        "only the socket path frames messages, diverged at {d}"
    );
    assert!(
        d.detail.contains("panic"),
        "a corrupt frame must fail the run loudly, not diverge quietly: {d}"
    );
    assert!(
        d.detail.contains("exceeds cap"),
        "failure must come from the framing cap: {d}"
    );
}

/// The same traffic-heavy program as [`skew_victim`], but the
/// coordinator's telemetry skips the per-class `payload_bytes.*` counter
/// for the first staged envelope. Data, scalars, and every canonical
/// artifact stay bitwise correct — the books behind `wire_payload_bytes`
/// are untouched — so only the oracle's metrics-conservation invariant
/// can catch it, and only on a config that routes envelopes.
#[test]
fn must_catch_undercounted_metrics() {
    let mut spec = skew_victim();
    spec.inject = InjectConfig {
        undercount_metrics: true,
        ..InjectConfig::default()
    };
    let d = check_spec(&spec).expect_err("undercounted telemetry must be detected");
    assert!(
        d.config.contains("wire-strict"),
        "only envelope paths record wire telemetry, diverged at {d}"
    );
    assert!(
        d.detail.contains("metrics conservation violated"),
        "must be caught by the conservation invariant, not a data compare: {d}"
    );
}

/// Four nodes write a 2-D array under a *cyclic* distribution while
/// reading a block-distributed 1-D array: cache blocks straddle columns
/// of different writers, so each writer joins a `Multi` block by
/// fetching the merge base from the home and then snapshotting its twin
/// of that very block. In strict wire mode the fetch is still a pending
/// landing when the twin is taken — a hazard the rule must flush. The
/// injection skips that flush once: the twin snapshots stale contents,
/// the diff ships the wrong words, and the merged result diverges.
fn hazard_victim() -> FuzzSpec {
    FuzzSpec {
        seed: 0,
        nprocs: 4,
        n1: 63,
        n2: [32, 6],
        arrays: vec![
            ArraySpec {
                rank2: false,
                cyclic: false,
                index_for: None,
            },
            ArraySpec {
                rank2: true,
                cyclic: true,
                index_for: None,
            },
        ],
        body: vec![FStmt::Loop(LoopSpec {
            write: 1,
            dist_by: None,
            self_read: false,
            reads: vec![ReadSpec {
                array: 0,
                off: [1, 0],
                via: None,
            }],
            reduce: None,
            use_t: false,
            use_acc: false,
        })],
        time: None,
        inject: InjectConfig {
            skip_hazard_flush: true,
            ..InjectConfig::default()
        },
    }
}

/// Skipping one hazard flush must make a strict-wire config diverge —
/// only envelope paths defer landings, so only they can observe it.
#[test]
fn must_catch_skipped_hazard_flush() {
    let spec = hazard_victim();
    check_spec(&FuzzSpec {
        inject: InjectConfig::default(),
        ..spec.clone()
    })
    .expect("the victim agrees everywhere without the injection");
    let d = check_spec(&spec).expect_err("a skipped hazard flush must be detected");
    assert!(
        d.config.contains("wire-strict"),
        "only deferred landings can observe the skip, diverged at {d}"
    );
}

/// A block-distributed 2-D array written under a *cyclic* partition
/// (`dist_by`): every superstep performs non-owner writes that the
/// optimized backend must flush home with `flush_range` — which the
/// injection skips entirely.
fn flush_victim() -> FuzzSpec {
    FuzzSpec {
        seed: 0,
        nprocs: 2,
        n1: 42,
        n2: [40, 8],
        arrays: vec![
            ArraySpec {
                rank2: true,
                cyclic: false,
                index_for: None,
            },
            ArraySpec {
                rank2: true,
                cyclic: true,
                index_for: None,
            },
        ],
        body: vec![FStmt::Loop(LoopSpec {
            write: 0,
            dist_by: Some(1),
            self_read: false,
            reads: vec![],
            reduce: None,
            use_t: false,
            use_acc: false,
        })],
        time: None,
        inject: InjectConfig {
            skip_flush_range: true,
            ..InjectConfig::default()
        },
    }
}

#[test]
fn must_catch_skipped_flush_range() {
    let spec = flush_victim();
    let d = check_spec(&spec).expect_err("skipped flush_range must be detected");
    assert!(
        d.config.starts_with("sm_opt"),
        "flush_range only exists on the ctl path, diverged at {d}"
    );
}

/// The taxonomy sweep: every engine-detectable fault in the shared
/// [`Fault`] taxonomy, armed through [`Fault::arm`] on its canonical
/// victim program, must make the oracle report a divergence. Faults the
/// taxonomy routes to the model checker (whose symptom needs states the
/// engine's layouts never reach) are must-catch over in `fgdsm-model`'s
/// mutation sweep instead — this test pins that nothing falls through.
#[test]
fn must_catch_every_engine_fault_in_taxonomy() {
    for f in Fault::ALL {
        match f.detected_by() {
            Detector::Engine | Detector::Both => {
                let mut spec = match f {
                    Fault::SkewSendRange
                    | Fault::CorruptEnvelope
                    | Fault::CorruptFrameLen
                    | Fault::UndercountMetrics => skew_victim(),
                    Fault::SkipHazardFlush => hazard_victim(),
                    Fault::SkipFlushRange => flush_victim(),
                    Fault::ReorderPlanApply | Fault::MisfoldPool => reorder_victim(),
                    Fault::StaleOwnerPush => unreachable!("model-level fault"),
                };
                spec.inject = Default::default();
                f.arm(&mut spec.inject);
                if f == Fault::CorruptFrameLen {
                    // Transport-level: only the socket path frames
                    // messages, so this fault is must-catch through the
                    // tcp oracle (skipped when the sandbox forbids
                    // sockets — `must_catch_corrupt_frame_len` carries
                    // the full assertions).
                    if fgdsm_hpf::tcp_available() {
                        check_spec_tcp(&spec)
                            .expect_err(&format!("taxonomy fault {} must be caught", f.name()));
                    } else {
                        eprintln!(
                            "notice: sandbox forbids sockets; corrupt_frame_len covered by \
                             must_catch_corrupt_frame_len when they are available"
                        );
                    }
                    continue;
                }
                check_spec(&spec)
                    .expect_err(&format!("taxonomy fault {} must be caught", f.name()));
            }
            Detector::Model => {
                // Covered by fgdsm-model's must-catch mutation sweep.
                assert_eq!(f, Fault::StaleOwnerPush);
            }
        }
    }
}

/// Pad a diverging spec with junk (an unused array, an extra harmless
/// loop, a time wrap) and check the shrinker strips it back down while
/// preserving the divergence, then renders a reproducer.
#[test]
fn shrinker_minimizes_divergent_cases() {
    let mut spec = skew_victim();
    spec.arrays.push(ArraySpec {
        rank2: false,
        cyclic: true,
        index_for: None,
    });
    spec.body.push(FStmt::Loop(LoopSpec {
        write: 2,
        dist_by: None,
        self_read: true,
        reads: vec![ReadSpec {
            array: 1,
            off: [1, 0],
            via: None,
        }],
        reduce: Some(0),
        use_t: true,
        use_acc: true,
    }));
    spec.body.push(FStmt::Scalar(0));
    spec.time = Some((0, 3, 2));
    assert!(
        check_spec(&spec).is_err(),
        "padded victim must still diverge"
    );

    let small = shrink(&spec);
    let d = check_spec(&small).expect_err("shrunk spec must still diverge");
    assert!(
        small.body.len() < spec.body.len(),
        "shrinker failed to drop the junk statements"
    );
    assert!(
        small.arrays.len() < spec.arrays.len(),
        "shrinker failed to drop the unused array"
    );
    assert!(
        small.time.is_none(),
        "shrinker failed to unwrap the time loop"
    );

    let repro = small.to_rust();
    assert!(
        repro.contains("#[test]"),
        "reproducer must be a runnable test"
    );
    assert!(
        repro.contains("check_spec(&spec).unwrap()"),
        "missing oracle call:\n{repro}"
    );
    assert!(
        repro.contains("skew_send_range: true"),
        "missing injection knob:\n{repro}"
    );
    println!("shrunk divergence: {d}\n{repro}");
}
