//! The learned scheduler's per-candidate feature row, computed once for
//! both the machine's `--decision-trace` emitter (training data) and the
//! `learned:<model>` scheduler (inference), so the two cannot skew.

use std::collections::HashMap;

use elsc_ktask::{CpuId, MmId, Task, Tid};
use elsc_simcore::Topology;

use crate::goodness::topo_affinity_bonus;

/// The raw features of `task` as a candidate for `cpu`, in `elsc-learn`'s
/// `FEATURE_NAMES` order: queue `depth`, counter, priority, realtime
/// class, mm match with the outgoing task, topology affinity of its last
/// CPU, and `recency` ([`Recency::of`]).
#[inline]
pub fn candidate_features(
    task: &Task,
    cpu: CpuId,
    prev_mm: MmId,
    topo: &Topology,
    depth: u64,
    recency: u64,
) -> [i64; 7] {
    [
        depth as i64,
        task.counter.max(0) as i64,
        task.priority.max(0) as i64,
        task.policy.class.is_realtime() as i64,
        (task.mm == prev_mm) as i64,
        topo_affinity_bonus(topo, cpu, task.processor).max(0) as i64,
        recency as i64,
    ]
}

/// The recency column's bookkeeping: a decision counter and the
/// decision at which each task last won on any CPU.
#[derive(Debug, Default)]
pub struct Recency {
    decisions: u64,
    last_won: HashMap<Tid, u64>,
}

impl Recency {
    /// Opens a new decision.
    pub fn next_decision(&mut self) {
        self.decisions += 1;
    }

    /// Decisions since `tid` last won, saturated at 255 (never won).
    pub fn of(&self, tid: Tid) -> u64 {
        self.last_won
            .get(&tid)
            .map_or(255, |&won| (self.decisions - won).min(255))
    }

    /// Records `tid` as the current decision's winner.
    pub fn won(&mut self, tid: Tid) {
        self.last_won.insert(tid, self.decisions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{TaskSpec, TaskTable};

    #[test]
    fn recency_counts_decisions_since_the_last_win() {
        let mut tasks = TaskTable::new();
        let a = tasks.spawn(&TaskSpec::named("a"));
        let mut r = Recency::default();
        r.next_decision();
        assert_eq!(r.of(a), 255);
        r.won(a);
        assert_eq!(r.of(a), 0);
        for _ in 0..3 {
            r.next_decision();
        }
        assert_eq!(r.of(a), 3);
        for _ in 0..1000 {
            r.next_decision();
        }
        assert_eq!(r.of(a), 255, "saturates");
    }

    #[test]
    fn features_follow_the_trainer_column_order() {
        let mut tasks = TaskTable::new();
        let t = tasks.spawn(&TaskSpec::named("t").mm(MmId(3)).priority(20));
        tasks.task_mut(t).counter = 6;
        tasks.task_mut(t).processor = 1;
        let topo = Topology::flat(2);
        let f = candidate_features(tasks.task(t), 1, MmId(3), &topo, 4, 9);
        assert_eq!(f, [4, 6, 20, 0, 1, 15, 9]);
        let f = candidate_features(tasks.task(t), 0, MmId(1), &topo, 4, 9);
        assert_eq!(f[4..6], [0, 0], "no mm match, cold CPU");
    }
}
