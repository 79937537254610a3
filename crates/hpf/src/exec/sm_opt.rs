//! The optimized shared-memory backend: compiler-orchestrated incoherence
//! (§4.2) with optional bulk transfer, run-time overhead elimination
//! (§4.3) and partial-redundancy elimination of transfers.

use super::backend::CommBackend;
use super::engine::EngineCore;
use crate::analysis::LoopAccess;
use crate::ir::{ParLoop, RefMode};
use crate::plan::{shmem_limits, OptLevel};
use crate::redundancy::PreCache;
use std::collections::BTreeMap;

/// Per-loop access analysis finds the producer→consumer transfers,
/// `shmem_limits` shrinks them to whole blocks, and the §4.2 call
/// contract (`mk_writable` / barrier / `implicit_writable` / barrier /
/// `send` + `ready_to_recv` / loop / `implicit_invalidate` / barrier)
/// moves the data. Boundary blocks and cold misses still take the default
/// path ([`EngineCore::resolve_default`] runs after the contract).
pub struct SmOpt {
    opt: OptLevel,
    pre: PreCache,
    /// Non-owner-write flushes pending for the current loop's cleanup:
    /// (writer, owner, first, end, array).
    pending_flushes: Vec<(usize, usize, usize, usize, usize)>,
    /// Reader invalidations pending for the current loop's cleanup.
    pending_invalidate: Vec<(usize, usize, usize)>,
}

impl SmOpt {
    pub fn new(opt: OptLevel) -> Self {
        SmOpt {
            opt,
            pre: PreCache::new(),
            pending_flushes: Vec::new(),
            pending_invalidate: Vec::new(),
        }
    }

    /// Build the per-loop compiler-control schedule and execute the §4.2
    /// contract up to (and including) the data push.
    fn comm_ctl(&mut self, core: &mut EngineCore, acc: &LoopAccess) {
        let wpb = core.wpb;
        // Merged send entries: (owner, array, first, end) → readers.
        let mut sends: BTreeMap<(usize, usize, usize, usize), Vec<usize>> = BTreeMap::new();
        // Incoming ranges per node (for implicit_writable / invalidate).
        let mut incoming: BTreeMap<usize, Vec<(usize, usize, usize)>> = BTreeMap::new();
        // Non-owner-write flushes: (writer, owner, first, end, array).
        let mut flushes: Vec<(usize, usize, usize, usize, usize)> = Vec::new();

        let opt = self.opt;
        // Collect per (owner, array, user): the ctl ranges of every
        // transfer, then merge overlapping/adjacent ranges — two stencil
        // references to the same ghost column (e.g. `p(i,j-1)` and
        // `p(i-1,j-1)` in shallow's loop 100) produce almost-identical
        // sections that would otherwise be pushed twice.
        type UserKey = (usize, usize, usize, bool); // (owner, array, user, is_write)
        let mut per_user: BTreeMap<UserKey, Vec<(usize, usize)>> = BTreeMap::new();
        for (t, is_write) in acc
            .read_transfers
            .iter()
            .map(|t| (t, false))
            .chain(acc.write_transfers.iter().map(|t| (t, true)))
        {
            if t.indirect {
                continue; // statically unanalyzable: default protocol only
            }
            let Some(runs) = core.metas[t.array].runs(&t.section) else {
                continue; // unsupported shape: left entirely to the default protocol
            };
            let cr = shmem_limits(&runs, wpb);
            if !cr.ctl.is_empty() {
                per_user
                    .entry((t.owner, t.array, t.user, is_write))
                    .or_default()
                    .extend(cr.ctl.iter().copied());
            }
        }
        for ((owner, array, user, is_write), mut ranges) in per_user {
            ranges.sort_unstable();
            let mut merged: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
            for (f, e) in ranges {
                match merged.last_mut() {
                    Some(last) if f <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((f, e)),
                }
            }
            for (f, e) in merged {
                let (f, e) = if core.cfg.inject.force_boundary {
                    // Tolerated perturbation: retreat each ctl range by one
                    // block per end, forcing the dropped boundary blocks
                    // onto the default-protocol path (resolve_default runs
                    // after the contract and covers every section).
                    (f + 1, e.saturating_sub(1))
                } else {
                    (f, e)
                };
                if f >= e {
                    continue;
                }
                if opt.pre && !is_write && self.pre.is_valid(user, array, f, e, wpb) {
                    self.pre.skipped += 1;
                    continue;
                }
                if !is_write {
                    self.pre.performed += 1;
                }
                sends.entry((owner, array, f, e)).or_default().push(user);
                incoming.entry(user).or_default().push((array, f, e));
                if is_write {
                    flushes.push((user, owner, f, e, array));
                    // The write-back is part of the planned section volume.
                    core.note_planned(array, (e - f) as u64);
                }
            }
        }
        self.pending_flushes = flushes;
        self.pending_invalidate = incoming
            .iter()
            .flat_map(|(&n, v)| v.iter().map(move |&(_, f, e)| (n, f, e)))
            .collect();
        if sends.is_empty() {
            return;
        }

        // Phase A: owners acquire write ownership. RTOE elides the
        // acquire where the default protocol already left the owner
        // exclusive — but a prior loop's boundary-path non-owner writes
        // can have moved a block to another node (its dir-exclusive
        // writer), and sending without reacquiring would push the owner's
        // stale copy over current data. So under RTOE, acquire exactly
        // the blocks whose directory state contradicts the assumption;
        // in the steady state (owners exclusive) no call is issued and
        // no overhead is paid.
        let mut by_owner: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for &(o, _, f, e) in sends.keys() {
            by_owner.entry(o).or_default().push((f, e));
        }
        let mut acquired = false;
        for (o, mut ranges) in by_owner {
            ranges.sort_unstable();
            ranges.dedup();
            for (f, e) in ranges {
                if !self.opt.rtoe {
                    core.dsm.mk_writable(o, f, e);
                    acquired = true;
                    continue;
                }
                let mut b = f;
                while b < e {
                    if core.dsm.dir_state(b).is_excl_by(o) {
                        b += 1;
                        continue;
                    }
                    let s = b;
                    while b < e && !core.dsm.dir_state(b).is_excl_by(o) {
                        b += 1;
                    }
                    core.dsm.mk_writable(o, s, b);
                    acquired = true;
                }
            }
        }
        if acquired {
            core.dsm.release_barrier();
        }

        // Phase B: receivers tag the landing blocks writable.
        for (&n, ranges) in &incoming {
            let mut rs: Vec<(usize, usize)> = ranges.iter().map(|&(_, f, e)| (f, e)).collect();
            rs.sort_unstable();
            rs.dedup();
            for (f, e) in rs {
                core.dsm.implicit_writable(n, f, e, self.opt.rtoe);
            }
        }
        core.dsm.release_barrier();

        // Phase C: owners push, receivers wait on the counting semaphore.
        // Plan → apply: the sequential plan pass does all call-site
        // bookkeeping, then disjoint (owner, reader) plans apply on up to
        // `resolve_workers` threads with a deterministic merge.
        let mut entries: Vec<fgdsm_protocol::SendEntry> = Vec::with_capacity(sends.len());
        for (&(o, a, f, e), readers) in &sends {
            let mut rs = readers.clone();
            rs.sort_unstable();
            rs.dedup();
            if self.opt.pre {
                for &r in &rs {
                    self.pre.record_delivery(r, a, f, e);
                }
            }
            // One copy of the section reaches every reader.
            core.note_planned(a, ((e - f) * rs.len()) as u64);
            entries.push(fgdsm_protocol::SendEntry {
                owner: o,
                readers: rs,
                first: f,
                end: e,
                array: a as u32,
            });
        }
        let plans = core.dsm.plan_sends(&entries, self.opt.bulk);
        core.dsm.apply_plans(&plans, core.resolve_workers);
        core.dsm.recycle_plans(plans);
        for &n in incoming.keys() {
            core.dsm.ready_to_recv(n);
        }
    }

    /// The post-loop half of the contract: readers discard compiler-
    /// controlled copies (skipped under RTOE), non-owner writers flush —
    /// through the same plan/apply pipeline as the pushes, so disjoint
    /// (writer, owner) flushes also apply concurrently.
    fn cleanup_ctl(&mut self, core: &mut EngineCore) {
        let entries: Vec<fgdsm_protocol::FlushEntry> = std::mem::take(&mut self.pending_flushes)
            .into_iter()
            .map(|(w, o, f, e, a)| fgdsm_protocol::FlushEntry {
                writer: w,
                owner: o,
                first: f,
                end: e,
                array: a as u32,
            })
            .collect();
        let plans = core.dsm.plan_flushes(&entries, self.opt.bulk);
        core.dsm.apply_plans(&plans, core.resolve_workers);
        core.dsm.recycle_plans(plans);
        let inval = std::mem::take(&mut self.pending_invalidate);
        if !self.opt.rtoe {
            for (n, f, e) in inval {
                core.dsm.implicit_invalidate(n, f, e);
            }
            // The closing barrier of the contract doubles as the loop-end
            // barrier executed by post_loop.
        }
    }
}

impl CommBackend for SmOpt {
    fn validate(&self, core: &EngineCore) {
        assert!(
            !self.opt.ctl || core.dsm.supports_ctl(),
            "compiler-orchestrated incoherence requires the eager-invalidate protocol \
             (got {})",
            core.dsm.protocol_name()
        );
    }

    fn resolve(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        self.pre.tick();
        if self.opt.ctl {
            self.comm_ctl(core, acc);
        }
        core.resolve_default(l, acc);
    }

    fn note_kernel_writes(&mut self, core: &mut EngineCore, l: &ParLoop, acc: &LoopAccess) {
        if !self.opt.pre {
            return;
        }
        for p in 0..core.cfg.nprocs {
            for (ri, r) in l.refs.iter().enumerate() {
                if r.mode == RefMode::Write && !acc.sections[p][ri].is_empty() {
                    for (s, len) in core.section_runs(r.array.0, &acc.sections[p][ri]) {
                        self.pre.record_write(r.array.0, s, len);
                    }
                }
            }
        }
    }

    fn post_loop(&mut self, core: &mut EngineCore, _l: &ParLoop, _acc: &LoopAccess) {
        if self.opt.ctl {
            self.cleanup_ctl(core);
        }
        core.dsm.release_barrier();
    }

    fn finish(&mut self, core: &mut EngineCore) {
        core.dsm.release_barrier();
    }

    fn gather(&mut self, core: &mut EngineCore) -> Vec<f64> {
        core.gather_by_directory()
    }

    fn pre_stats(&self) -> (u64, u64) {
        (self.pre.skipped, self.pre.performed)
    }
}
