//! The `learned:<model>` scheduler: model-predicted picks with a
//! verified native fallback.
//!
//! A trained `elsc-learn` model (logistic regression or MLP over the
//! seven per-candidate features) predicts which task `schedule()` should
//! pick. The prediction is never trusted blindly: a **bounded goodness
//! check** — the first `search_limit()` queue candidates, the same bound
//! ELSC's table search uses — verifies the pick is at least as good as
//! anything the bound saw. A verified hit dispatches straight away, so a
//! good model replaces the baseline's O(n) goodness scan with O(n) cheap
//! table-index scores plus an O(limit) verification. A failed check
//! charges one [`CostKind::Mispredict`] (pipeline-flush class) and falls
//! back to the full native scan, so a bad model costs strictly *more*
//! than the baseline — which the machine's accuracy watchdog notices and
//! punishes with deterministic ejection (`learn_eject_k` consecutive
//! misses), reusing the policy watchdog's swap-to-baseline machinery.
//!
//! Run-queue semantics are Linux-style (running tasks stay linked, adds
//! go to the front), so an ejection's drain + reversed re-add into the
//! baseline scheduler preserves queue order exactly.
//!
//! One deliberate train/inference skew: the machine snapshots trace
//! features *before* `schedule()` runs, but inference scores *after* the
//! RR quantum refresh on `prev`. Only exhausted SCHED_RR prevs are
//! affected, and the verification bound catches any pick the skew
//! misleads.

use std::collections::HashMap;

use elsc_ktask::{CpuId, Lists, SchedClass, Tid};
use elsc_learn::{quantize, Model, FEATURES};
use elsc_obs::ObsEvent;
use elsc_sched_api::{
    goodness_ignoring_yield_on, hot_goodness_on, topo_affinity_bonus, Decider, LearnedInfo,
    SchedCtx, Scheduler, IDLE_GOODNESS,
};
use elsc_simcore::CostKind;

/// A scheduler driving its picks from a trained [`Model`].
#[derive(Debug)]
pub struct LearnedScheduler {
    /// The single run-queue list, baseline-style.
    lists: Lists,
    /// Tasks on the run queue (running tasks included).
    nr_running: usize,
    /// The trained scorer.
    model: Model,
    /// Report name, `learned:<model stem>`.
    name: &'static str,
    /// Decision counter for the recency feature (mirrors the machine's
    /// `--decision-trace` bookkeeping, so trained recency columns mean
    /// the same thing at inference).
    decisions: u64,
    /// Decision index of each task's last win on any CPU.
    last_picked: HashMap<Tid, u64>,
    /// Predictions made (one per decision with scorable candidates).
    predictions: u64,
    /// Predictions that survived verification.
    hits: u64,
    /// Outcome of the last decision's prediction, for the machine's
    /// watchdog poll.
    last_outcome: Option<bool>,
}

impl LearnedScheduler {
    /// Builds a scheduler from an already-parsed model. `name` is the
    /// report label, conventionally `learned:<model stem>`.
    pub fn new(name: &'static str, model: Model) -> LearnedScheduler {
        LearnedScheduler {
            lists: Lists::new(1),
            nr_running: 0,
            model,
            name,
            decisions: 0,
            last_picked: HashMap::new(),
            predictions: 0,
            hits: 0,
            last_outcome: None,
        }
    }

    /// Parses a model file's text and builds the scheduler. `stem` is
    /// the model's short name (file stem); the report name becomes
    /// `learned:<stem>` (leaked once per load, like policy names).
    pub fn from_text(stem: &str, text: &str) -> Result<LearnedScheduler, String> {
        let model = Model::parse(text)?;
        let name: &'static str = Box::leak(format!("learned:{stem}").into_boxed_str());
        Ok(LearnedScheduler::new(name, model))
    }

    /// The model architecture label.
    pub fn arch(&self) -> &'static str {
        self.model.arch.name()
    }

    /// Collects the run queue front-to-back (tests and examples).
    pub fn queue_order(&self, tasks: &elsc_ktask::TaskTable) -> Vec<u32> {
        self.lists.collect(tasks, 0)
    }

    /// Scores one candidate: features vs this decision's context, then
    /// the model. `depth` is the queue depth sampled at entry.
    fn score_candidate(
        &self,
        ctx: &SchedCtx<'_>,
        cpu: CpuId,
        tid: Tid,
        depth: u64,
        prev_mm: elsc_ktask::MmId,
    ) -> i64 {
        let task = ctx.tasks.task(tid);
        let recency = self
            .last_picked
            .get(&tid)
            .map_or(255, |&won| (self.decisions - won).min(255));
        let raw: [i64; FEATURES] = [
            depth as i64,
            task.counter.max(0) as i64,
            task.priority.max(0) as i64,
            task.policy.class.is_realtime() as i64,
            (task.mm == prev_mm) as i64,
            topo_affinity_bonus(&ctx.cfg.topology, cpu, task.processor).max(0) as i64,
            recency as i64,
        ];
        self.model.score(&quantize(&raw))
    }

    /// The baseline's selection loop, verbatim: full O(n) goodness scan
    /// with system-wide recalculation when everything is out of quantum.
    /// The misprediction fallback and the no-prediction path both land
    /// here, so the learned scheduler can never pick worse than `reg`.
    fn native_scan(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        cpu: CpuId,
        prev: Tid,
        idle: Tid,
        prev_mm: elsc_ktask::MmId,
        mut prev_yielded: bool,
    ) -> Tid {
        let decider = Decider {
            cfg: ctx.cfg,
            cpu,
            prev: Some(prev),
            prev_mm,
        };
        loop {
            let mut c = IDLE_GOODNESS;
            let mut next = idle;
            {
                let prev_task = ctx.tasks.task(prev);
                if prev != idle && prev_task.state.is_runnable() {
                    c = if prev_yielded {
                        prev_yielded = false;
                        0
                    } else {
                        goodness_ignoring_yield_on(&ctx.cfg.topology, prev_task, cpu, prev_mm)
                    };
                    next = prev;
                    ctx.charge_goodness(cpu, 1);
                }
            }
            let scan = ctx.scan(&self.lists, 0, &decider, c);
            if let Some(winner) = scan.winner {
                c = scan.goodness;
                next = winner;
            }
            if c != 0 {
                return next;
            }
            let stats = ctx.stats.cpu_mut(cpu);
            stats.recalc_entries += 1;
            ctx.emit(ObsEvent::RecalcStart {
                cpu,
                nr_running: self.nr_running as u64,
            });
            let n = elsc_ktask::recalc::recalculate_counters(ctx.tasks);
            ctx.stats.cpu_mut(cpu).recalc_tasks += n as u64;
            ctx.meter
                .charge_n(ctx.costs, CostKind::RecalcPerTask, n as u64);
            ctx.emit(ObsEvent::RecalcEnd {
                cpu,
                updated: n as u64,
            });
        }
    }
}

/// `can_schedule()` for the run-queue member at slab index `i`: SMP skips
/// tasks executing anywhere, UP skips only `prev`.
#[inline]
fn can_schedule(ctx: &SchedCtx<'_>, i: usize, prev: Tid) -> bool {
    if ctx.cfg.smp {
        !ctx.tasks.lanes().record(i).has_cpu()
    } else {
        i != prev.index()
    }
}

impl Scheduler for LearnedScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

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
        ctx.meter.charge(ctx.costs, CostKind::SchedBase);
        ctx.stats.cpu_mut(cpu).sched_calls += 1;
        self.decisions += 1;
        self.last_outcome = None;
        // Queue depth *before* prev leaves, matching the machine's
        // `--decision-trace` sampling point.
        let depth = self.nr_running as u64;

        // Baseline prev handling: blocked/exiting tasks leave the queue,
        // exhausted round-robin tasks requeue with a fresh quantum.
        {
            let prev_task = ctx.tasks.task(prev);
            if prev != idle && !prev_task.state.is_runnable() && prev_task.on_runqueue() {
                self.del_from_runqueue(ctx, prev);
            }
        }
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
        let prev_yielded = {
            let mut prev_task = ctx.tasks.task_mut(prev);
            let y = prev_task.policy.yielded;
            prev_task.policy.yielded = false;
            y
        };

        // Prediction pass: model-score every eligible candidate (prev
        // first, then the queue), one TableIndex charge per score — the
        // fixed-topology model evaluates in constant time, like an ELSC
        // table lookup. First-wins argmax mirrors the trainer's eval.
        let mut pick: Option<(i64, Tid)> = None;
        {
            let prev_runnable = ctx.tasks.task(prev).state.is_runnable();
            if prev != idle && prev_runnable {
                ctx.meter.charge(ctx.costs, CostKind::TableIndex);
                ctx.stats.cpu_mut(cpu).tasks_examined += 1;
                let s = self.score_candidate(ctx, cpu, prev, depth, prev_mm);
                pick = Some((s, prev));
            }
        }
        let (front, back) = self.lists.members(0);
        let mut scored = 0u64;
        for &i in front.iter().chain(back) {
            let i = i as usize;
            if can_schedule(ctx, i, prev) {
                scored += 1;
                let tid = ctx.tasks.by_index(i).tid;
                let s = self.score_candidate(ctx, cpu, tid, depth, prev_mm);
                if pick.is_none_or(|(bs, _)| s > bs) {
                    pick = Some((s, tid));
                }
            }
        }
        ctx.meter.charge_n(ctx.costs, CostKind::TableIndex, scored);
        ctx.stats.cpu_mut(cpu).tasks_examined += scored;

        let next = if let Some((_, predicted)) = pick {
            // Bounded verification: the predicted pick must be schedulable
            // now (goodness > 0, yield respected) and at least as good as
            // the first `search_limit()` queue candidates.
            let g_pick = if predicted == prev && prev_yielded {
                0
            } else {
                goodness_ignoring_yield_on(
                    &ctx.cfg.topology,
                    ctx.tasks.task(predicted),
                    cpu,
                    prev_mm,
                )
            };
            let limit = ctx.cfg.search_limit();
            let (front, back) = self.lists.members(0);
            let lanes = ctx.tasks.lanes();
            let (seen, best_bounded) = front
                .iter()
                .chain(back)
                .map(|&i| i as usize)
                .filter(|&i| can_schedule(ctx, i, prev))
                .take(limit)
                .fold((0u64, IDLE_GOODNESS), |(n, best), i| {
                    let w = hot_goodness_on(&ctx.cfg.topology, lanes.record(i), cpu, prev_mm);
                    (n + 1, best.max(w))
                });
            // The pick's own evaluation plus the bounded candidates.
            ctx.charge_goodness(cpu, 1 + seen);
            if g_pick > 0 && g_pick >= best_bounded {
                self.predictions += 1;
                self.hits += 1;
                self.last_outcome = Some(true);
                predicted
            } else if best_bounded <= 0 && g_pick <= 0 {
                // Nothing within the bound is schedulable either: the
                // world is out of quantum, not the model. No prediction
                // is scored; the native scan recalculates and picks.
                self.native_scan(ctx, cpu, prev, idle, prev_mm, prev_yielded)
            } else {
                self.predictions += 1;
                self.last_outcome = Some(false);
                ctx.meter.charge(ctx.costs, CostKind::Mispredict);
                self.native_scan(ctx, cpu, prev, idle, prev_mm, prev_yielded)
            }
        } else {
            // No scorable candidate (empty queue): the native loop
            // handles idle selection without scoring a prediction.
            self.native_scan(ctx, cpu, prev, idle, prev_mm, prev_yielded)
        };

        if next == idle {
            ctx.stats.cpu_mut(cpu).idle_scheduled += 1;
        } else {
            self.last_picked.insert(next, self.decisions);
        }
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

    fn learned_info(&self) -> Option<LearnedInfo> {
        Some(LearnedInfo {
            name: self.name,
            arch: self.arch(),
        })
    }

    fn take_prediction(&mut self) -> Option<bool> {
        self.last_outcome.take()
    }

    fn prediction_stats(&self) -> (u64, u64) {
        (self.predictions, self.hits)
    }

    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        let mut out = Vec::new();
        while let Some(i) = self.lists.first(0) {
            let tid = ctx.tasks.by_index(i as usize).tid;
            ctx.meter.charge(ctx.costs, CostKind::ListOp);
            self.lists.remove(ctx.tasks, tid);
            out.push(tid);
        }
        self.nr_running = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{TaskSpec, TaskState, TaskTable};
    use elsc_learn::model::Arch;
    use elsc_learn::Q_ONE;
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    /// Model scoring `+counter`: agrees with goodness on equal-priority
    /// timesharing tasks, so its predictions verify.
    fn good_model() -> Model {
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[1] = Q_ONE;
        m
    }

    /// Model scoring `-counter`: prefers exactly the task goodness would
    /// not, so every contested prediction fails verification.
    fn bad_model() -> Model {
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[1] = -Q_ONE;
        m
    }

    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: LearnedScheduler,
        idle: Tid,
    }

    impl Rig {
        fn new(cfg: SchedConfig, model: Model) -> Rig {
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
                sched: LearnedScheduler::new("learned:test", model),
                idle,
            }
        }

        fn spawn(&mut self, name: &'static str, counter: i32) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.tasks.task_mut(tid).counter = counter;
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
            tid
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
    fn verified_hit_dispatches_the_prediction() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        rig.spawn("a", 5);
        let b = rig.spawn("b", 15);
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
        assert_eq!(rig.sched.prediction_stats(), (1, 1));
        assert_eq!(rig.sched.take_prediction(), Some(true));
        assert_eq!(rig.sched.take_prediction(), None, "take clears");
        assert_eq!(rig.meter.kind_cycles()[CostKind::Mispredict as usize], 0);
    }

    #[test]
    fn misprediction_charges_and_falls_back_to_native_pick() {
        let mut rig = Rig::new(SchedConfig::up(), bad_model());
        rig.spawn("a", 5);
        let b = rig.spawn("b", 15);
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b, "fallback must pick the goodness winner");
        assert_eq!(rig.sched.prediction_stats(), (1, 0));
        assert_eq!(rig.sched.take_prediction(), Some(false));
        assert_eq!(
            rig.meter.kind_cycles()[CostKind::Mispredict as usize],
            CostModel::default().get(CostKind::Mispredict)
        );
    }

    #[test]
    fn empty_queue_schedules_idle_without_predicting() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rig.idle);
        assert_eq!(rig.sched.prediction_stats(), (0, 0));
        assert_eq!(rig.sched.take_prediction(), None);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0, "footnote 1 holds");
    }

    #[test]
    fn quantum_exhaustion_recalculates_without_scoring_a_miss() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 0);
        let b = rig.spawn("b", 0);
        let next = rig.schedule(0, rig.idle);
        assert!(next == a || next == b);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(
            rig.sched.prediction_stats(),
            (0, 0),
            "an unschedulable world is not the model's miss"
        );
    }

    #[test]
    fn blocking_prev_leaves_the_queue() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 10);
        let b = rig.spawn("b", 10);
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, b);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere() {
        let mut rig = Rig::new(SchedConfig::smp(2), good_model());
        let a = rig.spawn("a", 40);
        let b = rig.spawn("b", 1);
        rig.tasks.task_mut(a).has_cpu = true; // on the other CPU
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
    }

    #[test]
    fn drain_preserves_queue_order() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 5);
        let b = rig.spawn("b", 5);
        // Adds insert at the front: queue order is b, a.
        let mut ctx = SchedCtx {
            tasks: &mut rig.tasks,
            stats: &mut rig.stats,
            meter: &mut rig.meter,
            costs: &rig.costs,
            cfg: &rig.cfg,
            probe: None,
            locks: None,
        };
        let drained = rig.sched.drain(&mut ctx);
        assert_eq!(drained, vec![b, a]);
        assert_eq!(rig.sched.nr_running(), 0);
        assert!(!ctx.tasks.task(a).on_runqueue());
        assert!(!ctx.tasks.task(b).on_runqueue());
    }

    #[test]
    fn yielding_prev_is_not_verified_as_a_hit() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let y = rig.spawn("y", 20);
        let o = rig.spawn("o", 5);
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o, "the yield must be honoured");
        assert!(!rig.tasks.task(y).policy.yielded, "yield bit consumed");
    }

    #[test]
    fn from_text_round_trips_and_names() {
        let text = good_model().to_text();
        let s = LearnedScheduler::from_text("volano-logreg", &text).unwrap();
        assert_eq!(s.name(), "learned:volano-logreg");
        let info = s.learned_info().unwrap();
        assert_eq!(info.arch, "logreg");
        assert!(LearnedScheduler::from_text("x", "garbage").is_err());
    }

    #[test]
    fn recency_feature_tracks_wins() {
        // A model scoring only recency (prefer least-recently-run) must
        // alternate between two equal tasks... as long as verification
        // lets it, which it does for equal-goodness candidates.
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[6] = Q_ONE;
        let mut rig = Rig::new(SchedConfig::up(), m);
        let a = rig.spawn("a", 10);
        let b = rig.spawn("b", 10);
        let first = rig.schedule(0, rig.idle);
        let prev = first;
        let second = rig.schedule(0, prev);
        assert_ne!(first, second, "least-recent candidate wins round 2");
        assert_eq!(rig.sched.prediction_stats(), (2, 2));
        let _ = (a, b);
    }
}
