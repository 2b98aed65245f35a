//! The O(n) goodness scan (`kernel/sched.c`'s selection loop), shared by
//! every list-based scheduler.
//!
//! The baseline `schedule()` walks its run queue, skips tasks that
//! `can_schedule()` rejects, evaluates `goodness()` for the rest and
//! keeps the first task with the highest weight. The native baseline,
//! the multi-queue and bubble designs, the learned scheduler's fallback
//! and the policy VM's fused `scan.best` all run that one loop, so it
//! lives here once: [`scan_best`] computes the pass and returns what the
//! caller must charge — one `GoodnessEval` per examined task — instead of
//! charging per candidate.
//!
//! The loop reads the bank's dense member index in list order and each
//! candidate's packed [`HotRecord`](elsc_ktask::HotRecord), so the loads are independent
//! instead of a chain of `run_list` links. A strict `>` in list order
//! keeps "first in list wins ties" exactly.

use elsc_ktask::{CpuId, Lists, MmId, TaskTable, Tid};

use crate::config::SchedConfig;
use crate::goodness::hot_goodness_on;

/// The deciding context of one scan: whose `goodness()` is evaluated
/// and which tasks `can_schedule()` skips.
#[derive(Clone, Copy, Debug)]
pub struct Decider<'a> {
    /// Machine configuration: the topology grades the affinity bonus,
    /// `smp` selects the skip rule.
    pub cfg: &'a SchedConfig,
    /// The deciding CPU.
    pub cpu: CpuId,
    /// The previous task. On UP builds `can_schedule()` skips exactly
    /// this task; `None` skips nothing.
    pub prev: Option<Tid>,
    /// The previous task's address space (the +1 bonus).
    pub prev_mm: MmId,
}

/// The outcome of one [`scan_best`] pass over a list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanBest {
    /// The first task in list order whose goodness is the highest above
    /// the floor; `None` when no examined task beats the floor.
    pub winner: Option<Tid>,
    /// The winner's goodness, or the floor when there is no winner.
    pub goodness: i32,
    /// Tasks examined (not skipped): one `GoodnessEval` each.
    pub examined: u64,
    /// List members walked, examined or skipped.
    pub walked: u64,
    /// How often the best-so-far improved, in list order.
    pub updates: u64,
}

/// One selection pass over list `head`: every member `can_schedule()`
/// admits is examined, and the first with the highest goodness strictly
/// above `floor` wins.
///
/// Pure: the caller charges `examined` goodness evaluations (see
/// [`SchedCtx::charge_goodness`](crate::SchedCtx::charge_goodness)).
///
/// # Panics
///
/// Panics if `lists` is a link-only bank ([`Lists::linked`]): those
/// allow mid-list inserts, so only the link order is authoritative.
pub fn scan_best(
    lists: &Lists,
    head: usize,
    tasks: &TaskTable,
    d: &Decider<'_>,
    floor: i32,
) -> ScanBest {
    debug_assert!(lists.is_indexed(), "scan_best over a link-only bank");
    let lanes = tasks.lanes();
    // Local copies: the compiler keeps them in registers across the
    // loop instead of reloading them through `d` for every member.
    let topo = d.cfg.topology;
    let smp = d.cfg.smp;
    // UP skips only `prev`; a run-queue member is live, so its slab
    // index alone identifies it.
    let up_skip = d.prev.map_or(usize::MAX, |p| p.index());
    let mut best = floor;
    let mut winner = None;
    let mut skipped = 0;
    let mut updates = 0;
    let (front, back) = lists.members(head);
    // Two plain loops over the ring's contiguous runs: a chained
    // iterator re-checks which half it is in on every member.
    for run in [front, back] {
        for &i in run {
            let i = i as usize;
            let rec = lanes.record(i);
            let skip = if smp { rec.has_cpu() } else { i == up_skip };
            if skip {
                skipped += 1;
                continue;
            }
            let g = hot_goodness_on(&topo, rec, d.cpu, d.prev_mm);
            if g > best {
                best = g;
                winner = Some(i);
                updates += 1;
            }
        }
    }
    // Skips are rare on SMP (only running tasks) and at most one on UP,
    // so the loop counts them rather than the examined tasks.
    let walked = (front.len() + back.len()) as u64;
    ScanBest {
        winner: winner.map(|i| tasks.by_index(i).tid),
        goodness: best,
        examined: walked - skipped,
        walked,
        updates,
    }
}
