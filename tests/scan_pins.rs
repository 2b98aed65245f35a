//! Pins of the shared goodness scan through every scheduler that runs
//! it: the native baseline, the multi-queue and bubble designs, the
//! learned scheduler and the policy VM. Each pass now charges its
//! `GoodnessEval`s in one batch; the pinned totals — examined tasks and
//! goodness cycles charged inside `schedule()` — are those of the
//! original per-candidate loops on the same runs, so any drift in what a
//! scan examines or charges fails here.

use elsc_machine::{MachineConfig, RunReport};
use elsc_obs::Phase;
use elsc_policy::PolicyScheduler;
use elsc_sched_api::Scheduler;
use elsc_sched_ext::{BubbleScheduler, LearnedScheduler, MultiQueueScheduler};
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::{CostKind, Topology};
use elsc_workloads::volanomark::{self, VolanoConfig};

/// A small VolanoMark run: long enough run queues for real scans.
fn run(cfg: MachineConfig, sched: Box<dyn Scheduler>) -> RunReport {
    let w = VolanoConfig {
        rooms: 2,
        users_per_room: 6,
        messages_per_user: 3,
        ..VolanoConfig::default()
    };
    volanomark::run(cfg.with_seed(1), sched, &w)
}

/// `(tasks examined, goodness cycles charged in schedule())`.
fn scan_totals(r: &RunReport) -> (u64, u64) {
    let cycles = (0..r.profile.nr_cpus())
        .map(|cpu| r.profile.cell(cpu, Phase::Schedule, CostKind::GoodnessEval))
        .sum();
    (r.stats.total().tasks_examined, cycles)
}

fn numa() -> Topology {
    "2N2C1T".parse().unwrap()
}

#[test]
fn reg_scan_totals_are_pinned() {
    let up = run(MachineConfig::up(), Box::new(LinuxScheduler::new()));
    assert_eq!(scan_totals(&up), PIN_REG_UP);
    let smp = run(MachineConfig::smp(2), Box::new(LinuxScheduler::new()));
    assert_eq!(scan_totals(&smp), PIN_REG_2P);
}

#[test]
fn mq_scan_totals_are_pinned() {
    let r = run(MachineConfig::smp(2), Box::new(MultiQueueScheduler::new(2)));
    assert_eq!(scan_totals(&r), PIN_MQ_2P);
}

#[test]
fn bubble_scan_totals_are_pinned() {
    let r = run(
        MachineConfig::topo(numa()),
        Box::new(BubbleScheduler::new(numa())),
    );
    assert_eq!(scan_totals(&r), PIN_BUBBLE_NUMA);
}

#[test]
fn learned_scan_totals_are_pinned() {
    let text = include_str!("../models/volano-logreg.model");
    let learned = || Box::new(LearnedScheduler::from_text("volano-logreg", text).unwrap());
    let up = run(MachineConfig::up(), learned());
    assert_eq!(scan_totals(&up), PIN_LEARNED_UP);
    let smp = run(MachineConfig::smp(2), learned());
    assert_eq!(scan_totals(&smp), PIN_LEARNED_2P);
}

#[test]
fn vm_scan_totals_are_pinned() {
    let src = include_str!("../policies/reg.pol");
    let vm = |n| Box::new(PolicyScheduler::load_str(src, n).unwrap());
    let up = run(MachineConfig::up(), vm(1));
    assert_eq!(scan_totals(&up), PIN_VM_UP);
    let smp = run(MachineConfig::smp(2), vm(2));
    assert_eq!(scan_totals(&smp), PIN_VM_2P);
}

const PIN_REG_UP: (u64, u64) = (11395, 683700);
const PIN_REG_2P: (u64, u64) = (10566, 633960);
const PIN_MQ_2P: (u64, u64) = (6147, 368820);
const PIN_BUBBLE_NUMA: (u64, u64) = (4628, 277680);
const PIN_LEARNED_UP: (u64, u64) = (26636, 922320);
const PIN_LEARNED_2P: (u64, u64) = (10998, 637320);
const PIN_VM_UP: (u64, u64) = (11371, 682260);
const PIN_VM_2P: (u64, u64) = (10908, 654480);
