//! The three named workloads: which programs run on which backends, the
//! pinned configuration of every run, and the seed permutation of the
//! (app, backend) order within a pass.

use fgdsm_apps::{irreg, suite, AppSpec, Scale};
use fgdsm_hpf::{ExecConfig, WireMode};

/// Simulated nodes in every run: the paper's cluster size.
pub const NPROCS: usize = 8;

/// The Table-2 apps in Table-2 order.
pub const FIG3_APPS: [&str; 6] = ["pde", "shallow", "grav", "lu", "cg", "jacobi"];

/// Work-growth factor applied to `irreg` in the `irregular` workload.
pub const IRREG_SCALE: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    SmUnopt,
    SmOpt,
    Mp,
    Tcp,
}

impl BackendKind {
    pub const ALL: [BackendKind; 4] = [
        BackendKind::SmUnopt,
        BackendKind::SmOpt,
        BackendKind::Mp,
        BackendKind::Tcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BackendKind::SmUnopt => "sm_unopt",
            BackendKind::SmOpt => "sm_opt",
            BackendKind::Mp => "mp",
            BackendKind::Tcp => "tcp",
        }
    }

    /// The run's configuration with every knob that an `FGDSM_*` variable
    /// could otherwise resolve pinned explicitly: serial phases, the
    /// persistent pool, the zero-copy wire (the `tcp` backend is always
    /// strict regardless), and telemetry on or off.
    pub fn config(self, metered: bool) -> ExecConfig {
        let base = match self {
            BackendKind::SmUnopt => ExecConfig::sm_unopt(NPROCS),
            BackendKind::SmOpt => ExecConfig::sm_opt(NPROCS),
            BackendKind::Mp => ExecConfig::mp(NPROCS),
            BackendKind::Tcp => ExecConfig::tcp(NPROCS),
        };
        let mut cfg = base.serial().resolve_serial().pooled();
        cfg.wire = WireMode::Fast;
        if metered {
            cfg.metered()
        } else {
            cfg.unmetered()
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Fig3Inproc,
    Fig3Tcp,
    Irregular,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig3Inproc, Workload::Fig3Tcp, Workload::Irregular];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Inproc => "fig3-inproc",
            Workload::Fig3Tcp => "fig3-tcp",
            Workload::Irregular => "irregular",
        }
    }

    pub fn backends(self) -> &'static [BackendKind] {
        match self {
            Workload::Fig3Inproc => &[BackendKind::SmUnopt, BackendKind::SmOpt, BackendKind::Mp],
            Workload::Fig3Tcp => &[BackendKind::Tcp],
            Workload::Irregular => &[BackendKind::SmOpt, BackendKind::Tcp],
        }
    }

    pub fn app_names(self) -> &'static [&'static str] {
        match self {
            Workload::Fig3Inproc | Workload::Fig3Tcp => &FIG3_APPS,
            Workload::Irregular => &["irreg"],
        }
    }

    pub fn uses_tcp(self) -> bool {
        self.backends().contains(&BackendKind::Tcp)
    }

    /// Build the workload's programs, in [`Workload::app_names`] order.
    pub fn build_apps(self) -> Vec<AppSpec> {
        match self {
            Workload::Fig3Inproc | Workload::Fig3Tcp => suite(Scale::Bench),
            Workload::Irregular => vec![irreg::spec(
                &irreg::Params::at(Scale::Bench).scaled(IRREG_SCALE),
            )],
        }
    }

    /// Every (app index, backend) pair of one pass, in canonical order.
    pub fn pairs(self) -> Vec<(usize, BackendKind)> {
        (0..self.app_names().len())
            .flat_map(|a| self.backends().iter().map(move |&b| (a, b)))
            .collect()
    }

    /// The pass order for `seed`: [`Workload::pairs`] shuffled.
    pub fn order(self, seed: u64) -> Vec<(usize, BackendKind)> {
        let mut pairs = self.pairs();
        shuffle(&mut pairs, seed);
        pairs
    }
}

/// Every (app, backend) pair any workload runs, as metric-name parts.
pub fn all_run_names() -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        for (a, b) in w.pairs() {
            let pair = (w.app_names()[a], b.name());
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
    }
    out
}

/// splitmix64: a small, well-mixed generator, enough for a permutation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_deterministic_and_covers_each_pair_once() {
        for w in Workload::ALL {
            let canonical = w.pairs();
            for seed in [0, 1, 7, 42, u64::MAX] {
                let a = w.order(seed);
                assert_eq!(a, w.order(seed), "{} seed {seed}", w.name());
                assert_eq!(a.len(), canonical.len());
                for p in &canonical {
                    assert_eq!(a.iter().filter(|q| *q == p).count(), 1, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn seeds_change_the_order() {
        let w = Workload::Fig3Inproc;
        let distinct: std::collections::BTreeSet<String> =
            (0..8).map(|s| format!("{:?}", w.order(s))).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn workloads_parse_by_name() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig3"), None);
    }

    #[test]
    fn configs_pin_every_env_knob() {
        use fgdsm_hpf::{MetricsMode, ParallelMode, PoolMode};
        for b in BackendKind::ALL {
            for metered in [false, true] {
                let cfg = b.config(metered);
                assert_eq!(cfg.nprocs, NPROCS);
                assert_eq!(cfg.parallel, ParallelMode::Serial);
                assert_eq!(cfg.resolve_parallel, Some(ParallelMode::Serial));
                assert_eq!(cfg.pool, PoolMode::Persistent);
                assert_eq!(cfg.wire, WireMode::Fast);
                let want = if metered {
                    MetricsMode::On
                } else {
                    MetricsMode::Off
                };
                assert_eq!(cfg.metrics, want);
            }
        }
    }
}
