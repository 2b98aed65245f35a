//! Differential test of the shared goodness scan: [`scan_best`] over the
//! dense member index against a reference walk of the `run_list` links,
//! evaluating the struct-level `goodness()` specification.
//!
//! Each seed drives a random sequence of the run-queue operations the
//! schedulers perform (`insert_front`, `insert_back`, `remove`,
//! `remove_keep_next`, `move_first`/`move_last`, moves between heads)
//! with random task fields, and after every operation compares one scan
//! per head under random deciding contexts, over UP and SMP skip rules
//! and flat and multi-level trees.

use elsc_ktask::{ListNode, Lists, MmId, SchedClass, TaskSpec, TaskTable, Tid};
use elsc_sched_api::{
    goodness_ignoring_yield_on, scan_best, Decider, ScanBest, SchedConfig, IDLE_GOODNESS,
};
use elsc_simcore::SimRng;

const TASKS: usize = 24;
const HEADS: usize = 3;
const STEPS: usize = 300;

/// The selection loop as `kernel/sched.c` writes it: follow the links,
/// skip what `can_schedule()` rejects, keep the first strict maximum.
fn reference(lists: &Lists, h: usize, tasks: &TaskTable, d: &Decider<'_>, floor: i32) -> ScanBest {
    let mut out = ScanBest {
        winner: None,
        goodness: floor,
        examined: 0,
        walked: 0,
        updates: 0,
    };
    let mut cur = lists.first(h);
    while let Some(i) = cur {
        let t = tasks.by_index(i as usize);
        out.walked += 1;
        let skip = if d.cfg.smp {
            t.has_cpu
        } else {
            Some(t.tid) == d.prev
        };
        if !skip {
            out.examined += 1;
            let g = goodness_ignoring_yield_on(&d.cfg.topology, t, d.cpu, d.prev_mm);
            if g > out.goodness {
                out.goodness = g;
                out.winner = Some(t.tid);
                out.updates += 1;
            }
        }
        cur = lists.next_task(tasks, i);
    }
    out
}

/// Gives task `tid` random scheduler-visible fields.
fn randomize(rng: &mut SimRng, tasks: &mut TaskTable, tid: Tid, nr_cpus: usize) {
    let mut t = tasks.task_mut(tid);
    t.policy.class = if rng.chance(0.1) {
        SchedClass::Fifo
    } else {
        SchedClass::Other
    };
    t.rt_priority = rng.below(100) as i32;
    t.priority = 1 + rng.below(40) as i32;
    // Small counters make ties and zero-quantum tasks common.
    t.counter = if rng.chance(0.2) {
        0
    } else {
        rng.below(12) as i32
    };
    t.processor = rng.below(nr_cpus as u64) as usize;
    t.mm = MmId(rng.below(4) as u32);
    t.has_cpu = rng.chance(0.25);
    t.policy.yielded = rng.chance(0.1);
}

/// One seeded run over one machine shape; panics with the seed on the
/// first disagreement.
fn check(seed: u64, cfg: &SchedConfig) {
    let mut rng = SimRng::new(seed);
    let mut tasks = TaskTable::new();
    let mut lists = Lists::new(HEADS);
    let tids: Vec<Tid> = (0..TASKS)
        .map(|_| tasks.spawn(&TaskSpec::default()))
        .collect();
    // Which head each task is linked into, if any.
    let mut head_of: Vec<Option<usize>> = vec![None; TASKS];
    for step in 0..STEPS {
        let k = rng.below(TASKS as u64) as usize;
        let tid = tids[k];
        match (head_of[k], rng.below(4)) {
            (None, op) => {
                // A `remove_keep_next` marker is cleared before a task is
                // linked again, as the schedulers do.
                tasks.task_mut(tid).run_list = ListNode::detached();
                randomize(&mut rng, &mut tasks, tid, cfg.nr_cpus);
                let h = rng.below(HEADS as u64) as usize;
                if op % 2 == 0 {
                    lists.insert_front(&mut tasks, h, tid);
                } else {
                    lists.insert_back(&mut tasks, h, tid);
                }
                head_of[k] = Some(h);
            }
            (Some(_), 0) => {
                lists.remove(&mut tasks, tid);
                head_of[k] = None;
            }
            (Some(_), 1) => {
                lists.remove_keep_next(&mut tasks, tid);
                head_of[k] = None;
            }
            (Some(h), op) => {
                // move_first / move_last, sometimes onto another head.
                let to = if rng.chance(0.3) {
                    rng.below(HEADS as u64) as usize
                } else {
                    h
                };
                lists.remove(&mut tasks, tid);
                if op == 2 {
                    lists.insert_front(&mut tasks, to, tid);
                } else {
                    lists.insert_back(&mut tasks, to, tid);
                }
                head_of[k] = Some(to);
            }
        }
        // Field churn on a linked task (goodness inputs change in place).
        let j = rng.below(TASKS as u64) as usize;
        if head_of[j].is_some() {
            randomize(&mut rng, &mut tasks, tids[j], cfg.nr_cpus);
        }
        for h in 0..HEADS {
            let prev = if rng.chance(0.8) {
                Some(tids[rng.below(TASKS as u64) as usize])
            } else {
                None
            };
            let d = Decider {
                cfg,
                cpu: rng.below(cfg.nr_cpus as u64) as usize,
                prev,
                prev_mm: MmId(rng.below(4) as u32),
            };
            let floor = match rng.below(3) {
                0 => IDLE_GOODNESS,
                1 => 0,
                _ => rng.below(60) as i32,
            };
            let got = scan_best(&lists, h, &tasks, &d, floor);
            let want = reference(&lists, h, &tasks, &d, floor);
            assert_eq!(
                got,
                want,
                "seed {seed}, step {step}, head {h}, cfg {}: dense scan disagrees \
                 with the link walk",
                cfg.label()
            );
        }
        if step % 50 == 0 {
            for h in 0..HEADS {
                lists.check(&tasks, h);
            }
        }
    }
}

#[test]
fn dense_scan_matches_the_link_walk_on_up() {
    for seed in 0..40 {
        check(seed, &SchedConfig::up());
    }
}

#[test]
fn dense_scan_matches_the_link_walk_on_smp() {
    for seed in 100..140 {
        check(seed, &SchedConfig::smp(4));
    }
}

#[test]
fn dense_scan_matches_the_link_walk_on_a_numa_tree() {
    let cfg = SchedConfig::topo("2N4C2T".parse().unwrap());
    for seed in 200..240 {
        check(seed, &cfg);
    }
}

#[test]
#[should_panic(expected = "link-only bank")]
fn link_only_banks_are_kept_out_of_the_scan() {
    // ELSC's sectioned lists take mid-list inserts, so they carry no
    // dense index and the shared argmax refuses them.
    let mut tasks = TaskTable::new();
    let tid = tasks.spawn(&TaskSpec::default());
    let mut lists = Lists::linked(1);
    lists.insert_back(&mut tasks, 0, tid);
    let cfg = SchedConfig::up();
    let d = Decider {
        cfg: &cfg,
        cpu: 0,
        prev: None,
        prev_mm: MmId::KERNEL,
    };
    scan_best(&lists, 0, &tasks, &d, IDLE_GOODNESS);
}
