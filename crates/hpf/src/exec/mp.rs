//! The message-passing backend: owner-computes with direct marshalled
//! messages, no coherence machinery at all.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::analysis::LoopAccess;
use crate::ir::{ParLoop, RefMode};
use fgdsm_protocol::{MpRuntime, MpSendPlan};
use fgdsm_tempest::ReduceOp;
use std::collections::{BTreeMap, BTreeSet};

/// One marshalled message per (owner → user, section) pair — except that
/// a section shipped from one owner to three or more readers (e.g. `lu`'s
/// pivot column) goes through the runtime's broadcast tree, as `pghpf`'s
/// runtime does. Pays the PGI runtime's per-message overhead.
pub struct Mp {
    mp: MpRuntime,
}

impl Mp {
    pub fn new(nprocs: usize) -> Self {
        Mp {
            mp: MpRuntime::new(nprocs),
        }
    }
}

impl CommBackend for Mp {
    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        let mut users: BTreeSet<usize> = BTreeSet::new();
        // Planned strided sends, merged per (owner, user) pair.
        let mut plans: BTreeMap<(usize, usize), MpSendPlan> = BTreeMap::new();
        // Group identical sections by (owner, array, section).
        let mut groups: BTreeMap<(usize, usize, String), Vec<usize>> = BTreeMap::new();
        for t in acc.read_transfers.iter().chain(&acc.write_transfers) {
            groups
                .entry((t.owner, t.array, format!("{}", t.section)))
                .or_default()
                .push(t.user);
        }
        for t in acc.read_transfers.iter().chain(&acc.write_transfers) {
            let meta = &core.metas[t.array];
            let Some(runs) = meta.runs(&t.section) else {
                // Fall back to per-point packing in one message.
                let pts = t.section.points();
                for pt in &pts {
                    let off = meta.offset(pt);
                    core.dsm.wire_copy(t.owner, t.user, off, 1);
                }
                continue;
            };
            let group = &groups[&(t.owner, t.array, format!("{}", t.section))];
            if group.len() >= 3 {
                // Broadcast once, on behalf of the whole group.
                if group[0] == t.user {
                    for sr in &runs.runs {
                        self.mp.broadcast(
                            &mut core.dsm,
                            t.owner,
                            group,
                            sr.base,
                            sr.run_len,
                            sr.stride.max(1),
                            sr.count,
                        );
                    }
                }
            } else {
                // Plan → apply: accumulate the strided sections per
                // (owner, user) pair; disjoint pairs apply concurrently
                // after the broadcasts, with inboxes folded in plan order.
                let plan = plans
                    .entry((t.owner, t.user))
                    .or_insert_with(|| self.mp.take_send_plan(t.owner, t.user));
                for sr in &runs.runs {
                    plan.sections
                        .push((sr.base, sr.run_len, sr.stride.max(1), sr.count));
                }
            }
            users.insert(t.user);
        }
        let mut plan_vec = self.mp.take_send_plan_vec();
        plan_vec.extend(plans.into_values());
        let plans = plan_vec;
        self.mp
            .apply_send_plans(&mut core.dsm, &plans, core.resolve_workers);
        self.mp.recycle_send_plans(plans);
        for &u in &users {
            self.mp.recv_all(&mut core.dsm.cluster, u);
        }
        // Map each node's own written pages (first touch).
        for p in 0..core.cfg.nprocs {
            for (ri, r) in l.refs.iter().enumerate() {
                if r.mode == RefMode::Write && !acc.sections[p][ri].is_empty() {
                    for (s, len) in core.section_runs(r.array.0, &acc.sections[p][ri]) {
                        core.dsm.cluster.map_range(p, s, len);
                    }
                }
            }
        }
    }

    fn reduce(&mut self, core: &mut EngineCore, partials: &[f64], op: ReduceOp) -> f64 {
        self.mp.allreduce(&mut core.dsm.cluster, partials, op)
    }

    fn post_loop(&mut self, _core: &mut EngineCore, _l: &ParLoop, _acc: &LoopAccess) {
        // Point-to-point synchronization only: no loop-end barrier.
    }

    fn finish(&mut self, core: &mut EngineCore) {
        core.dsm.cluster.barrier();
    }

    /// Gather from the distribution owners (there is no directory).
    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        let words = core.dsm.cluster.seg_words();
        let mut out = vec![0.0f64; words];
        for (i, a) in core.prog.arrays.iter().enumerate() {
            for p in 0..core.cfg.nprocs {
                let sec = a.owner_section(p, core.cfg.nprocs);
                if sec.is_empty() {
                    continue;
                }
                for (s, len) in core.section_runs(i, &sec) {
                    out[s..s + len].copy_from_slice(&core.dsm.cluster.node_mem(p)[s..s + len]);
                }
            }
        }
        out
    }
}
