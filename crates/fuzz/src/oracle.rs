//! The cross-backend differential oracle.
//!
//! One fuzz case is checked by running its program through the
//! sequential reference interpreter and then through every backend ×
//! optimization-toggle × parallelism combination, comparing final array
//! contents and scalars **bitwise** against the reference. Within each
//! backend the fully serial run is additionally the determinism
//! baseline: every threaded run — which now parallelizes both the
//! resolve phase's plan-apply stage and the compute phase — must
//! reproduce its report JSON and canonical trace JSON byte-for-byte.
//! The engine itself asserts the protocol consistency check and the
//! trace invariants (balanced message/byte counters, monotone per-node
//! clocks) after every run, so a violated invariant surfaces here as a
//! panic — which the oracle converts into a [`Divergence`] like any
//! wrong answer.

use crate::gen::FuzzSpec;
use fgdsm_hpf::{execute_profiled, execute_reference, ArrayId, ExecConfig, OptLevel};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One detected disagreement between a backend run and the reference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which run diverged, e.g. `sm_opt[ctl+bulk+rtoe]/threads`.
    pub config: String,
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.detail)
    }
}

fn opt_label(o: &OptLevel) -> String {
    if !o.ctl {
        return "ctl-off".into();
    }
    let mut s = String::from("ctl");
    if o.bulk {
        s.push_str("+bulk");
    }
    if o.rtoe {
        s.push_str("+rtoe");
    }
    if o.pre {
        s.push_str("+pre");
    }
    s
}

/// The `sm_opt` config label at the full optimization level — the
/// config its strict-wire twin is pinned byte-identical to.
fn sm_opt_full_label() -> String {
    format!("sm_opt[{}]", opt_label(&OptLevel::full()))
}

/// The strict-wire twin of [`sm_opt_full_label`].
fn sm_opt_full_strict_label() -> String {
    format!("{}/wire-strict", sm_opt_full_label())
}

/// The backend matrix for a spec: `sm_unopt`, `sm_opt` at every
/// [`OptLevel`] toggle combination, and `mp` — unless the spec performs
/// non-owner writes, which the owner-computes `mp` backend does not
/// model (it never flushes written data back to the distribution owner).
/// After the fast-path configs, the same corners re-run in strict wire
/// mode (every transfer round-trips through encoded [`fgdsm_hpf`] wire
/// envelopes over a loopback transport); the `sm_opt[full]` one's serial
/// run must additionally be byte-identical to its fast-path twin's.
pub fn backend_configs(spec: &FuzzSpec) -> Vec<(String, ExecConfig)> {
    let n = spec.nprocs;
    let mut v = vec![("sm_unopt".to_string(), ExecConfig::sm_unopt(n))];
    for o in OptLevel::all_combos() {
        v.push((
            format!("sm_opt[{}]", opt_label(&o)),
            ExecConfig::sm_unopt(n).with_opt(o),
        ));
    }
    if !spec.has_nonowner_writes() {
        v.push(("mp".to_string(), ExecConfig::mp(n)));
    }
    v.push((
        "sm_unopt/wire-strict".to_string(),
        ExecConfig::sm_unopt(n).strict(),
    ));
    v.push((
        sm_opt_full_strict_label(),
        ExecConfig::sm_unopt(n).with_opt(OptLevel::full()).strict(),
    ));
    if !spec.has_nonowner_writes() {
        v.push(("mp/wire-strict".to_string(), ExecConfig::mp(n).strict()));
    }
    v
}

fn panic_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .or_else(|| {
            // Transport failures unwind with a typed payload (see
            // `fgdsm_protocol::WireError`); render it so a divergence
            // report names the peer and failure kind.
            p.downcast_ref::<fgdsm_protocol::WireError>()
                .map(|e| e.to_string())
        })
        .unwrap_or_else(|| "non-string panic".into())
}

/// First byte position where two strings differ, with a short excerpt of
/// each side for the divergence report.
fn first_diff(a: &str, b: &str) -> String {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let snip = |s: &str| {
        let lo = at.saturating_sub(20);
        let hi = (at + 20).min(s.len());
        s.get(lo..hi).unwrap_or("<end>").to_string()
    };
    format!("first diff at byte {at}: `{}` vs `{}`", snip(a), snip(b))
}

/// Run the full differential matrix for one spec. `Ok(())` means every
/// run agreed with the reference bit-for-bit, every threaded run (both
/// phases parallel: resolve apply with 2 and 4 workers, compute likewise)
/// reproduced the serial run's report and trace byte-for-byte, and no
/// run panicked.
pub fn check_spec(spec: &FuzzSpec) -> Result<(), Divergence> {
    let prog = spec.build();
    let reference = execute_reference(&prog, &ExecConfig::sm_unopt(spec.nprocs));
    // `sm_opt[full]/wire-strict` is `sm_opt[full]` behind the envelope
    // seam, so beyond agreeing with the reference it must reproduce that
    // config's serial artifacts byte for byte — the pin that proves the
    // wire seam changes nothing observable.
    let mut smopt_full_serial: Option<(String, String, String)> = None;
    for (name, cfg) in backend_configs(spec) {
        // (report JSON, trace JSON, profile JSON) of the serial run — the
        // determinism baseline for this backend's threaded runs, which
        // dispatch on the persistent worker pool (size 2 and 4).
        let mut baseline: Option<(String, String, String)> = None;
        for (mode, workers) in [("serial", 1usize), ("threads2", 2), ("threads4", 4)] {
            // Telemetry is forced on: canonical artifacts are pinned
            // byte-identical metrics on/off elsewhere, so metering every
            // oracle run costs nothing observable — and it lets the
            // per-case conservation invariant below (and its
            // `undercount_metrics` must-catch) fire on every wire config.
            let cfg = match workers {
                1 => cfg.clone().serial(),
                w => cfg.clone().threads(w),
            }
            .metered()
            .with_inject(spec.inject);
            let label = format!("{name}/{mode}");
            let (r, trace, _chrome) =
                match catch_unwind(AssertUnwindSafe(|| execute_profiled(&prog, &cfg))) {
                    Err(p) => {
                        return Err(Divergence {
                            config: label,
                            detail: format!("panic: {}", panic_msg(&p)),
                        })
                    }
                    Ok(rt) => rt,
                };
            // Post-run profile invariants: per-superstep interval stats
            // sum exactly to the whole-run `NodeStats`, and heatmap
            // totals match the miss / pushed / bytes counters. The engine
            // asserts these too; checking here keeps a violation
            // attributable to the fuzz case even if that assert moves.
            if let Err(e) = r.report.check_profile_invariants() {
                return Err(Divergence {
                    config: label,
                    detail: format!("profile invariant violated: {e}"),
                });
            }
            // Telemetry double-entry: on a metered wire run, the
            // per-class `payload_bytes.*` counters across the coordinator
            // and worker registries must sum exactly to the wire's own
            // payload total. The only detector for a silently
            // undercounting telemetry path.
            if let Err(e) = r.check_metrics_conservation() {
                return Err(Divergence {
                    config: label,
                    detail: format!("metrics conservation violated: {e}"),
                });
            }
            for ai in 0..prog.arrays.len() {
                let want = reference.array(&prog, ArrayId(ai));
                let got = r.array(&prog, ArrayId(ai));
                if let Some(at) = (0..want.len()).find(|&k| want[k].to_bits() != got[k].to_bits()) {
                    return Err(Divergence {
                        config: label,
                        detail: format!(
                            "array `{}` diverges at flat index {at}: reference {} vs {}",
                            prog.arrays[ai].name, want[at], got[at]
                        ),
                    });
                }
            }
            for (k, want) in &reference.scalars {
                let got = r.scalars.get(k).copied();
                if got.map(f64::to_bits) != Some(want.to_bits()) {
                    return Err(Divergence {
                        config: label,
                        detail: format!("scalar `{k}` diverges: reference {want} vs {got:?}"),
                    });
                }
            }
            let report = r.report.to_json();
            let profile = r.report.profile_json();
            match &baseline {
                None => baseline = Some((report, trace, profile)),
                Some((srep, strace, sprof)) => {
                    if *srep != report {
                        return Err(Divergence {
                            config: label,
                            detail: format!(
                                "report diverges from serial run ({})",
                                first_diff(srep, &report)
                            ),
                        });
                    }
                    if *strace != trace {
                        return Err(Divergence {
                            config: label,
                            detail: format!(
                                "trace diverges from serial run ({})",
                                first_diff(strace, &trace)
                            ),
                        });
                    }
                    if *sprof != profile {
                        return Err(Divergence {
                            config: label,
                            detail: format!(
                                "profile artifacts diverge from serial run ({})",
                                first_diff(sprof, &profile)
                            ),
                        });
                    }
                }
            }
        }
        let serial = baseline.expect("serial mode always runs");
        if name == sm_opt_full_label() {
            smopt_full_serial = Some(serial);
        } else if name == sm_opt_full_strict_label() {
            let want = smopt_full_serial
                .as_ref()
                .expect("sm_opt[full] runs before its strict twin in the matrix");
            for (what, w, g) in [
                ("report", &want.0, &serial.0),
                ("trace", &want.1, &serial.1),
                ("profile artifacts", &want.2, &serial.2),
            ] {
                if w != g {
                    return Err(Divergence {
                        config: format!("{name}/serial"),
                        detail: format!(
                            "{what} diverges from sm_opt[full]/serial ({})",
                            first_diff(w, g)
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Differential check of the socket-backed `tcp` backend for one spec:
/// a serial tcp run — every inter-node transfer framed over a real
/// socket to spawned `fgdsm-node` worker processes — must agree with
/// the sequential reference bitwise AND reproduce `sm_opt[full]`'s
/// serial report, trace and profile artifacts byte for byte, exactly as
/// `sm_opt[full]/wire-strict` does inside [`check_spec`].
///
/// Kept out of [`backend_configs`]: one tcp run spawns a whole process
/// fleet, so the corpus replays a separately sized slice through this
/// oracle (`FGDSM_FUZZ_TCP_CASES`). Callers must gate on
/// [`fgdsm_hpf::tcp_available`] — sandboxes may forbid sockets.
pub fn check_spec_tcp(spec: &FuzzSpec) -> Result<(), Divergence> {
    let prog = spec.build();
    let reference = execute_reference(&prog, &ExecConfig::sm_unopt(spec.nprocs));
    let smopt_cfg = ExecConfig::sm_unopt(spec.nprocs)
        .with_opt(OptLevel::full())
        .serial()
        .with_inject(spec.inject);
    let (want, want_trace, _) =
        match catch_unwind(AssertUnwindSafe(|| execute_profiled(&prog, &smopt_cfg))) {
            Err(p) => {
                return Err(Divergence {
                    config: format!("{}/serial", sm_opt_full_label()),
                    detail: format!("panic: {}", panic_msg(&p)),
                })
            }
            Ok(rt) => rt,
        };
    let tcp_cfg = ExecConfig::tcp(spec.nprocs)
        .serial()
        .metered()
        .with_inject(spec.inject);
    let (r, trace, _) = match catch_unwind(AssertUnwindSafe(|| execute_profiled(&prog, &tcp_cfg))) {
        Err(p) => {
            return Err(Divergence {
                config: "tcp/serial".into(),
                detail: format!("panic: {}", panic_msg(&p)),
            })
        }
        Ok(rt) => rt,
    };
    for ai in 0..prog.arrays.len() {
        let wanted = reference.array(&prog, ArrayId(ai));
        let got = r.array(&prog, ArrayId(ai));
        if let Some(at) = (0..wanted.len()).find(|&k| wanted[k].to_bits() != got[k].to_bits()) {
            return Err(Divergence {
                config: "tcp/serial".into(),
                detail: format!(
                    "array `{}` diverges at flat index {at}: reference {} vs {}",
                    prog.arrays[ai].name, wanted[at], got[at]
                ),
            });
        }
    }
    for (k, wanted) in &reference.scalars {
        let got = r.scalars.get(k).copied();
        if got.map(f64::to_bits) != Some(wanted.to_bits()) {
            return Err(Divergence {
                config: "tcp/serial".into(),
                detail: format!("scalar `{k}` diverges: reference {wanted} vs {got:?}"),
            });
        }
    }
    // Same telemetry double-entry as `check_spec`, now spanning the
    // socket: worker registries shipped home in `ByeStats` must conserve
    // the payload accounting together with the coordinator's.
    if let Err(e) = r.check_metrics_conservation() {
        return Err(Divergence {
            config: "tcp/serial".into(),
            detail: format!("metrics conservation violated: {e}"),
        });
    }
    for (what, w, g) in [
        ("report", want.report.to_json(), r.report.to_json()),
        ("trace", want_trace, trace),
        (
            "profile artifacts",
            want.report.profile_json(),
            r.report.profile_json(),
        ),
    ] {
        if w != g {
            return Err(Divergence {
                config: "tcp/serial".into(),
                detail: format!(
                    "{what} diverges from {}/serial ({})",
                    sm_opt_full_label(),
                    first_diff(&w, &g)
                ),
            });
        }
    }
    Ok(())
}
