//! Golden pins of the machine's watchdog ejections: the starvation check
//! (`starve.pol`, UP and 2P), the policy-contract path (a budget
//! blowout) and the learned accuracy-collapse check
//! (`models/adversarial.model`). Each case pins the exact ejection
//! instant, the reason, the counters frozen at ejection, and FNV-1a
//! digests of the full report JSON and of the full obs trace (decision
//! trace included), so a refactor that moves an ejection by one
//! decision, or changes a byte around it, fails here.

use std::cell::RefCell;
use std::rc::Rc;

use elsc_lab::hash::fnv1a;
use elsc_machine::{Machine, MachineConfig, RunReport};
use elsc_obs::CallbackSink;
use elsc_policy::PolicyScheduler;
use elsc_sched_api::Scheduler;
use elsc_sched_ext::LearnedScheduler;
use elsc_workloads::stress::{self, StressConfig};
use elsc_workloads::volanomark::{self, VolanoConfig};

const STARVE_POL: &str = include_str!("../policies/starve.pol");
const ADVERSARIAL: &str = include_str!("../models/adversarial.model");

/// The budget-blowout fixture of the machine's watchdog tests: every
/// `pick_next` runs 1024 loop bodies against a 64-instruction budget.
const SPIN_POL: &str = "policy spin\nlists 1\nhook enqueue { enqueue_front(0) }\n\
                        hook pick_next {\n  repeat 1024 { let x = 1 }\n\
                        if runnable(prev) { pick prev }\n  pick idle\n}\n";

/// What a pin compares: `(ejected_at cycle, eject_reason, frozen
/// counters, report digest, trace digest)`. The counters are
/// `(insns_executed, 0)` for policies and `(predictions, hits)` for
/// models.
type Pin = (u64, &'static str, (u64, u64), u64, u64);

/// Runs a populated machine with the decision trace on and returns the
/// report with the digest of its obs trace as JSON lines.
fn traced(
    cfg: MachineConfig,
    sched: Box<dyn Scheduler>,
    build: impl FnOnce(&mut Machine),
) -> (RunReport, u64) {
    let lines = Rc::new(RefCell::new(String::new()));
    let sink = Rc::clone(&lines);
    let mut m = Machine::new(cfg.with_decision_trace(true), sched);
    m.add_sink(Box::new(CallbackSink::new(move |rec| {
        let mut out = sink.borrow_mut();
        out.push_str(&rec.to_json_line());
        out.push('\n');
    })));
    build(&mut m);
    let r = m
        .run()
        .expect("the baseline takes over and the run completes");
    let digest = fnv1a(lines.borrow().as_bytes());
    (r, digest)
}

fn policy_pin(cfg: MachineConfig, sched: PolicyScheduler) -> Pin {
    let w = StressConfig {
        tasks: 8,
        rounds: 4,
        ..StressConfig::default()
    };
    let (r, trace) = traced(cfg, Box::new(sched), |m| stress::build(m, &w));
    let p = r.policy.as_ref().expect("policy summary present");
    assert!(p.ejected);
    (
        p.ejected_at.expect("ejected").get(),
        p.eject_reason.expect("ejected"),
        (p.insns_executed, 0),
        fnv1a(r.to_json().as_bytes()),
        trace,
    )
}

fn learned_pin(cfg: MachineConfig) -> Pin {
    let w = VolanoConfig {
        rooms: 1,
        users_per_room: 4,
        messages_per_user: 2,
        ..VolanoConfig::default()
    };
    let sched = LearnedScheduler::from_text("adversarial", ADVERSARIAL).expect("model parses");
    let (r, trace) = traced(cfg, Box::new(sched), |m| volanomark::build(m, &w));
    let l = r.learned.as_ref().expect("learned summary present");
    assert!(l.ejected);
    (
        l.ejected_at.expect("ejected").get(),
        l.eject_reason.expect("ejected"),
        (l.predictions, l.hits),
        fnv1a(r.to_json().as_bytes()),
        trace,
    )
}

#[test]
fn starvation_ejection_is_pinned_on_up() {
    let sched = PolicyScheduler::load_str(STARVE_POL, 1).unwrap();
    assert_eq!(policy_pin(MachineConfig::up(), sched), PIN_STARVE_UP);
}

#[test]
fn starvation_ejection_is_pinned_on_2p() {
    let sched = PolicyScheduler::load_str(STARVE_POL, 2).unwrap();
    assert_eq!(policy_pin(MachineConfig::smp(2), sched), PIN_STARVE_2P);
}

#[test]
fn budget_ejection_is_pinned() {
    let sched = PolicyScheduler::load_str(SPIN_POL, 1)
        .unwrap()
        .with_budget(64);
    assert_eq!(policy_pin(MachineConfig::up(), sched), PIN_BUDGET_UP);
}

#[test]
fn accuracy_collapse_ejection_is_pinned() {
    assert_eq!(learned_pin(MachineConfig::smp(2)), PIN_ADVERSARIAL_2P);
}

const PIN_STARVE_UP: Pin = (
    28001220,
    "starvation",
    (32, 0),
    9743478703857909364,
    17328043592659553768,
);
const PIN_STARVE_2P: Pin = (
    12003640,
    "starvation",
    (32, 0),
    6307360877069244846,
    15142886868742870179,
);
const PIN_BUDGET_UP: Pin = (
    1850,
    "budget_exhausted",
    (81, 0),
    15542391315255964139,
    343835532702034166,
);
const PIN_ADVERSARIAL_2P: Pin = (
    36295,
    "accuracy_collapse",
    (8, 0),
    4677099220700403351,
    15521205637701299805,
);
