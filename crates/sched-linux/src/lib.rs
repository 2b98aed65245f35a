//! The baseline scheduler: Linux 2.3.99-pre4's `schedule()` (paper §3).
//!
//! The run queue is a single circular doubly-linked list of all
//! `TASK_RUNNING` tasks, kept in no particular order. Task selection walks
//! the *entire* list, evaluating `goodness()` for every task not currently
//! executing on another processor, and picks the maximum — ties go to the
//! task closer to the front. If the best weight is zero (every runnable
//! task out of quantum, or the only candidate just yielded), the scheduler
//! recalculates the counters of **every task in the system** and scans
//! again.
//!
//! This is the O(n)-per-invocation algorithm whose cost the paper measures
//! at 37–55 % of kernel time under VolanoMark; the reproduction charges
//! one `GoodnessEval` per examined task so that cost surfaces in the
//! simulated machine the same way.
#![warn(missing_docs)]

use elsc_ktask::{CpuId, Lists, SchedClass, Tid};
use elsc_sched_api::{goodness_ignoring_yield_on, Decider, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::CostKind;

/// The stock Linux 2.3.99-pre4 scheduler ("reg" in the paper's figures).
#[derive(Debug)]
pub struct LinuxScheduler {
    /// The single run-queue list (`runqueue_head`).
    lists: Lists,
    /// Number of tasks on the run queue (running tasks included).
    nr_running: usize,
}

impl Default for LinuxScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl LinuxScheduler {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        LinuxScheduler {
            lists: Lists::new(1),
            nr_running: 0,
        }
    }

    /// Collects the run queue front-to-back (tests and examples).
    pub fn queue_order(&self, tasks: &elsc_ktask::TaskTable) -> Vec<u32> {
        self.lists.collect(tasks, 0)
    }
}

impl Scheduler for LinuxScheduler {
    fn name(&self) -> &'static str {
        "reg"
    }

    /// Newly created or awakened tasks go to the *front* of the run queue
    /// (paper §3.2).
    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(
            !ctx.tasks.task(tid).on_runqueue(),
            "double add to run queue"
        );
        self.lists.insert_front(ctx.tasks, 0, tid);
        self.nr_running += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(
            ctx.tasks.task(tid).on_runqueue(),
            "del of task not on run queue"
        );
        self.lists.remove(ctx.tasks, tid);
        self.nr_running -= 1;
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_front(ctx.tasks, 0, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_back(ctx.tasks, 0, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        // Bottom halves + administrative work (paper §3.3.2).
        ctx.meter.charge(ctx.costs, CostKind::SchedBase);
        ctx.stats.cpu_mut(cpu).sched_calls += 1;

        // A blocking or exiting previous task leaves the run queue
        // (`switch (prev->state)` in schedule()).
        {
            let prev_task = ctx.tasks.task(prev);
            if prev != idle && !prev_task.state.is_runnable() && prev_task.on_runqueue() {
                self.del_from_runqueue(ctx, prev);
            }
        }

        // An exhausted round-robin task gets a fresh quantum and goes to
        // the back of the queue.
        {
            let mut prev_task = ctx.tasks.task_mut(prev);
            let requeue = if prev_task.policy.class == SchedClass::Rr && prev_task.counter == 0 {
                prev_task.counter = prev_task.priority;
                prev_task.on_runqueue()
            } else {
                false
            };
            drop(prev_task);
            if requeue {
                self.move_last_runqueue(ctx, prev);
            }
        }

        let prev_mm = ctx.tasks.task(prev).mm;
        // Consume the SCHED_YIELD bit: the yielding task counts as
        // goodness 0 for this invocation only.
        let mut prev_yielded = {
            let mut prev_task = ctx.tasks.task_mut(prev);
            let y = prev_task.policy.yielded;
            prev_task.policy.yielded = false;
            y
        };

        let decider = Decider {
            cfg: ctx.cfg,
            cpu,
            prev: Some(prev),
            prev_mm,
        };
        let next = loop {
            // `c` starts at the idle task's goodness; the previous task is
            // considered first if it is still runnable, so it wins all
            // ties regardless of queue position.
            let mut c = IDLE_GOODNESS;
            let mut next = idle;
            {
                let prev_task = ctx.tasks.task(prev);
                if prev != idle && prev_task.state.is_runnable() {
                    c = if prev_yielded {
                        // `prev_goodness()` consumes the yield: a repeat
                        // pass (after recalculation) sees normal goodness,
                        // otherwise a lone yielder would loop forever.
                        prev_yielded = false;
                        0
                    } else {
                        goodness_ignoring_yield_on(&ctx.cfg.topology, prev_task, cpu, prev_mm)
                    };
                    next = prev;
                    ctx.charge_goodness(cpu, 1);
                }
            }

            // The O(n) scan: every run-queue task not running elsewhere
            // (`can_schedule()` also skips `prev`, counted above).
            let scan = ctx.scan(&self.lists, 0, &decider, c);
            if let Some(winner) = scan.winner {
                c = scan.goodness;
                next = winner;
            }

            if c != 0 {
                break next;
            }
            // Every candidate is out of quantum (or just yielded):
            // recalculate every task in the system and scan again
            // (paper §3.3.2; footnote 1 — an empty run queue schedules
            // the idle task instead, which the `c != 0` test covers
            // because `c` stays at -1000).
            ctx.recalculate(cpu, self.nr_running);
        };

        if next == idle {
            ctx.stats.cpu_mut(cpu).idle_scheduled += 1;
        }
        // Hand over the CPU flag; `processor` is set by the machine so it
        // can observe migrations.
        if next != prev {
            ctx.tasks.task_mut(prev).has_cpu = false;
        }
        ctx.tasks.task_mut(next).has_cpu = true;
        next
    }

    fn nr_running(&self) -> usize {
        self.nr_running
    }

    fn debug_check(&self, tasks: &elsc_ktask::TaskTable) {
        self.lists.check(tasks, 0);
        assert_eq!(
            self.lists.len(tasks, 0),
            self.nr_running,
            "nr_running out of sync with the run queue"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, TaskSpec, TaskState, TaskTable};
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    /// Test harness bundling the context pieces.
    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: LinuxScheduler,
        idle: Tid,
    }

    impl Rig {
        fn new(cfg: SchedConfig) -> Rig {
            let mut tasks = TaskTable::new();
            let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
            tasks.task_mut(idle).counter = 0;
            tasks.task_mut(idle).has_cpu = true;
            Rig {
                tasks,
                stats: SchedStats::new(cfg.nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched: LinuxScheduler::new(),
                idle,
            }
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.add(tid);
            tid
        }

        fn add(&mut self, tid: Tid) {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            self.sched.add_to_runqueue(&mut ctx, tid);
        }

        fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            let next = self.sched.schedule(&mut ctx, cpu, prev, self.idle);
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    #[test]
    fn empty_queue_schedules_idle() {
        let mut rig = Rig::new(SchedConfig::up());
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rig.idle);
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
        // Footnote 1: no recalculation for an empty run queue.
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
    }

    #[test]
    fn picks_highest_goodness() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 5;
        rig.tasks.task_mut(b).counter = 15;
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
        assert!(rig.tasks.task(b).has_cpu);
    }

    #[test]
    fn front_of_queue_wins_ties() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        // Same counter/priority/mm; b was added later so it is at the
        // *front* (add inserts at the head).
        assert_eq!(
            rig.sched.queue_order(&rig.tasks),
            vec![b.index() as u32, a.index() as u32]
        );
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
    }

    #[test]
    fn scan_examines_whole_queue() {
        let mut rig = Rig::new(SchedConfig::up());
        for _ in 0..10 {
            rig.spawn("t");
        }
        rig.schedule(0, rig.idle);
        assert_eq!(rig.stats.cpu(0).tasks_examined, 10);
        let before = rig.stats.cpu(0).tasks_examined;
        // Second call: the whole queue is examined again — the paper's
        // "redundant calculation".
        let t = rig.sched.queue_order(&rig.tasks)[0];
        let running = rig.tasks.by_index(t as usize).tid;
        rig.schedule(0, running);
        assert_eq!(rig.stats.cpu(0).tasks_examined - before, 10);
    }

    #[test]
    fn zero_counters_trigger_system_wide_recalc() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 0;
        rig.tasks.task_mut(b).counter = 0;
        // A blocked task elsewhere in the system also gets recalculated.
        let blocked = rig.tasks.spawn(&TaskSpec::named("blocked"));
        rig.tasks.task_mut(blocked).state = TaskState::Interruptible;
        rig.tasks.task_mut(blocked).counter = 4;

        let next = rig.schedule(0, rig.idle);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        // 3 live non-idle tasks + idle = 4 recalculated.
        assert_eq!(rig.stats.cpu(0).recalc_tasks, 4);
        assert_eq!(rig.tasks.task(a).counter, 20);
        assert_eq!(rig.tasks.task(blocked).counter, 2 + 20);
        assert!(next == a || next == b);
    }

    #[test]
    fn yield_with_other_tasks_runs_the_other() {
        let mut rig = Rig::new(SchedConfig::up());
        let y = rig.spawn("yielder");
        let o = rig.spawn("other");
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o);
        // The yield bit is consumed.
        assert!(!rig.tasks.task(y).policy.yielded);
    }

    #[test]
    fn yield_alone_triggers_recalc_storm() {
        // The pathological behaviour ELSC fixes (paper §5.2 end): a task
        // yielding with no other runnable task forces a system-wide
        // recalculation before being re-chosen.
        let mut rig = Rig::new(SchedConfig::up());
        let y = rig.spawn("yielder");
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }

    #[test]
    fn blocking_prev_leaves_the_queue() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, b);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere() {
        let mut rig = Rig::new(SchedConfig::smp(2));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true; // running on the other CPU
        rig.tasks.task_mut(a).counter = 40;
        rig.tasks.task_mut(b).counter = 1;
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b, "the stronger task is unavailable");
    }

    #[test]
    fn affinity_bonus_steers_selection() {
        let mut rig = Rig::new(SchedConfig::smp(2));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        // Equal static goodness; `a` last ran on CPU 1.
        rig.tasks.task_mut(a).processor = 1;
        rig.tasks.task_mut(b).processor = 0;
        // `b` is at the front (later add), so without the bonus it wins.
        let next = rig.schedule(1, rig.idle);
        assert_eq!(next, a);
    }

    #[test]
    fn mm_bonus_breaks_near_ties() {
        let mut rig = Rig::new(SchedConfig::up());
        let prev = rig.spawn("prev");
        let kin = rig.spawn("kin");
        let stranger = rig.spawn("stranger");
        rig.tasks.task_mut(prev).mm = MmId(7);
        rig.tasks.task_mut(kin).mm = MmId(7);
        rig.tasks.task_mut(stranger).mm = MmId(8);
        // prev blocks; kin and stranger are otherwise identical, stranger
        // is in front of kin.
        rig.tasks.task_mut(prev).has_cpu = true;
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        assert_eq!(
            rig.sched.queue_order(&rig.tasks)[0],
            stranger.index() as u32
        );
        let next = rig.schedule(0, prev);
        assert_eq!(next, kin, "+1 mm bonus wins the tie");
    }

    #[test]
    fn rr_exhaustion_requeues_at_back_with_fresh_quantum() {
        let mut rig = Rig::new(SchedConfig::up());
        let rr = rig
            .tasks
            .spawn(&TaskSpec::named("rr").realtime(SchedClass::Rr, 10));
        rig.add(rr);
        let other = rig
            .tasks
            .spawn(&TaskSpec::named("rr2").realtime(SchedClass::Rr, 10));
        rig.add(other);
        rig.tasks.task_mut(rr).counter = 0;
        rig.tasks.task_mut(rr).has_cpu = true;
        let next = rig.schedule(0, rr);
        // Both RT with equal rt_priority: prev would win ties, but RR
        // exhaustion moved it behind `other`... prev still wins because it
        // is evaluated first. The kernel behaves the same way; what must
        // hold is the quantum refresh and the queue order.
        assert_eq!(rig.tasks.task(rr).counter, rig.tasks.task(rr).priority);
        assert_eq!(
            rig.sched.queue_order(&rig.tasks).last().copied(),
            Some(rr.index() as u32)
        );
        let _ = next;
    }

    #[test]
    fn realtime_always_beats_timesharing() {
        let mut rig = Rig::new(SchedConfig::up());
        let normal = rig.spawn("normal");
        rig.tasks.task_mut(normal).counter = 40;
        let rt = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 0));
        rig.add(rt);
        // Even an exhausted FIFO task outranks the best SCHED_OTHER.
        rig.tasks.task_mut(rt).counter = 0;
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rt);
    }

    #[test]
    fn scheduler_cost_scales_with_queue_length() {
        // The paper's core complaint: cycles per schedule() grow linearly.
        let cost_at = |n: usize| -> u64 {
            let mut rig = Rig::new(SchedConfig::up());
            for _ in 0..n {
                rig.spawn("t");
            }
            rig.meter.take();
            rig.schedule(0, rig.idle);
            rig.meter.take()
        };
        let c10 = cost_at(10);
        let c100 = cost_at(100);
        let c1000 = cost_at(1000);
        assert!(c100 > c10);
        assert!(c1000 > c100);
        // Roughly linear: the per-task term dominates at 1000 tasks.
        let per_task = (c1000 - c100) as f64 / 900.0;
        let expected = CostModel::default().get(CostKind::GoodnessEval) as f64;
        assert!(
            (per_task - expected).abs() < 1.0,
            "per-task cost {per_task} should approximate {expected}"
        );
    }

    #[test]
    fn prev_stays_on_queue_while_running() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, a);
        // Unlike ELSC, the baseline keeps the running task linked.
        assert!(rig.tasks.task(a).on_runqueue());
        assert!(rig.tasks.task(a).in_list());
        assert_eq!(rig.sched.nr_running(), 1);
    }
}
