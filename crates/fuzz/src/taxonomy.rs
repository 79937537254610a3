//! The shared must-catch fault taxonomy: one enum naming every seeded
//! protocol/contract mutation, used by both the differential fuzzer's
//! must-catch suite (engine-level detection through [`crate::check_spec`])
//! and the `fgdsm-model` checker's mutation sweep (model-level detection
//! with a minimal counterexample trace).
//!
//! Keeping the taxonomy in one place guarantees the two harnesses agree
//! on *what* faults exist; [`Fault::detected_by`] records *where* each
//! one is provably caught. A fault whose symptom the engine's layouts
//! never produce (e.g. [`Fault::StaleOwnerPush`], which needs a
//! third-party home) is still must-catch — at the model level.

use fgdsm_hpf::InjectConfig;

/// Where a seeded fault is provably detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    /// The engine-level differential oracle ([`crate::check_spec`])
    /// reports a divergence or a loud failure.
    Engine,
    /// The `fgdsm-model` bounded checker finds an invariant-violating
    /// interleaving and prints a minimal counterexample trace.
    Model,
    /// Both harnesses catch it independently.
    Both,
}

/// Every seeded must-catch mutation of the §4.2 contract / coherence
/// protocol, across both harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Off-by-one `send_range` bound: one block fewer than promised.
    SkewSendRange,
    /// `flush_range` skipped entirely: non-owner writes never go home.
    SkipFlushRange,
    /// Plans applied in reverse order under a parallel resolve.
    ReorderPlanApply,
    /// Parallel-apply outcomes folded out of plan-index order.
    MisfoldPool,
    /// A byte flipped in the first strict-mode wire envelope.
    CorruptEnvelope,
    /// The length prefix of the first framed data message on the `tcp`
    /// backend overwritten with an oversized value — the node's framing
    /// cap must reject it before allocating.
    CorruptFrameLen,
    /// `send_range` pushes the home's (possibly stale) copy instead of
    /// the recorded exclusive owner's — the §4.3 stale-memo hazard.
    StaleOwnerPush,
    /// The coordinator's per-class `payload_bytes.*` telemetry counter
    /// skipped for the first staged envelope. Run results and every
    /// canonical artifact stay bitwise correct — only the oracle's
    /// metrics-conservation invariant (Σ payload counters across the
    /// coordinator and worker registries == the wire's payload total)
    /// can catch it.
    UndercountMetrics,
    /// The first hazard flush of strict wire mode skipped: one read of a
    /// block whose deferred landing is still pending sees stale
    /// contents.
    SkipHazardFlush,
}

impl Fault {
    /// Every fault, in declaration order.
    pub const ALL: [Fault; 9] = [
        Fault::SkewSendRange,
        Fault::SkipFlushRange,
        Fault::ReorderPlanApply,
        Fault::MisfoldPool,
        Fault::CorruptEnvelope,
        Fault::CorruptFrameLen,
        Fault::StaleOwnerPush,
        Fault::UndercountMetrics,
        Fault::SkipHazardFlush,
    ];

    /// Stable display name (matches the `InjectConfig` field).
    pub fn name(self) -> &'static str {
        match self {
            Fault::SkewSendRange => "skew_send_range",
            Fault::SkipFlushRange => "skip_flush_range",
            Fault::ReorderPlanApply => "reorder_plan_apply",
            Fault::MisfoldPool => "misfold_pool",
            Fault::CorruptEnvelope => "corrupt_envelope",
            Fault::CorruptFrameLen => "corrupt_frame_len",
            Fault::StaleOwnerPush => "stale_owner_push",
            Fault::UndercountMetrics => "undercount_metrics",
            Fault::SkipHazardFlush => "skip_hazard_flush",
        }
    }

    /// Arm this fault's injection knob on an engine config.
    pub fn arm(self, inject: &mut InjectConfig) {
        match self {
            Fault::SkewSendRange => inject.skew_send_range = true,
            Fault::SkipFlushRange => inject.skip_flush_range = true,
            Fault::ReorderPlanApply => inject.reorder_plan_apply = true,
            Fault::MisfoldPool => inject.misfold_pool = true,
            Fault::CorruptEnvelope => inject.corrupt_envelope = true,
            Fault::CorruptFrameLen => inject.corrupt_frame_len = true,
            Fault::StaleOwnerPush => inject.stale_owner_push = true,
            Fault::UndercountMetrics => inject.undercount_metrics = true,
            Fault::SkipHazardFlush => inject.skip_hazard_flush = true,
        }
    }

    /// Where the fault is provably caught. Threading/wire faults only
    /// exist below the model's level of abstraction, so the model sweep
    /// covers the data-movement mutations and the engine suite covers
    /// the rest.
    pub fn detected_by(self) -> Detector {
        match self {
            Fault::SkewSendRange | Fault::SkipFlushRange => Detector::Both,
            // `UndercountMetrics` never changes data movement, so the
            // model has nothing to observe; the engine oracle's
            // metrics-conservation invariant is its only detector.
            // `SkipHazardFlush` breaks deferred landing, a strict-wire
            // mechanism below the model's level of abstraction.
            Fault::ReorderPlanApply
            | Fault::MisfoldPool
            | Fault::CorruptEnvelope
            | Fault::CorruptFrameLen
            | Fault::UndercountMetrics
            | Fault::SkipHazardFlush => Detector::Engine,
            // Engine layouts keep owner == home for pushed ranges, so the
            // symptom needs the model's 3-node third-party-home states.
            Fault::StaleOwnerPush => Detector::Model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each fault arms exactly its own knob, and every knob is owned by
    /// exactly one fault.
    #[test]
    fn arms_are_disjoint_and_complete() {
        let mut armed = Vec::new();
        for f in Fault::ALL {
            let mut i = InjectConfig::default();
            f.arm(&mut i);
            assert_ne!(i, InjectConfig::default(), "{} armed nothing", f.name());
            armed.push(i);
        }
        for (a, fa) in armed.iter().zip(Fault::ALL) {
            for (b, fb) in armed.iter().zip(Fault::ALL) {
                if fa != fb {
                    assert_ne!(a, b, "{} and {} arm the same knob", fa.name(), fb.name());
                }
            }
        }
    }

    /// Every engine-detectable fault has a must-catch test in
    /// `tests/harness.rs`; every model-detectable fault has one in
    /// `fgdsm-model`'s mutation sweep. This test just pins the split so
    /// a new fault can't silently land undetected anywhere.
    #[test]
    fn every_fault_is_detected_somewhere() {
        for f in Fault::ALL {
            let d = f.detected_by();
            assert!(
                matches!(d, Detector::Engine | Detector::Model | Detector::Both),
                "{} has no detector",
                f.name()
            );
        }
    }
}
