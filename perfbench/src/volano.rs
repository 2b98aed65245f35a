//! The two VolanoMark workloads: `volano-mega` (population-bound, one
//! `elsc` run per repetition) and `volano-paper` (traffic-bound, one run
//! each under `reg`, `policy:reg` and `elsc` per repetition).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use elsc::ElscScheduler;
use elsc_machine::{Machine, MachineConfig, RunReport};
use elsc_policy::PolicyScheduler;
use elsc_sched_api::{PolicyBackend, Scheduler};
use elsc_sched_linux::LinuxScheduler;
use elsc_workloads::volanomark::{self, VolanoConfig};

use crate::trace::{ns_since, CountingSink, HookSpans, Spans, Timed};
use crate::{median, median_of, Options, Outcome, Workload, MIN_REPS, WORKERS};

/// The bundled `reg.pol` program the `policy:reg` leg runs on the VM.
const REG_POL: &str = include_str!("../../policies/reg.pol");

/// Messages each `volano-paper` user sends: the run-length knob.
const PAPER_MESSAGES: usize = 5;

/// One scheduler leg of a workload.
#[derive(Clone, Copy, Debug)]
struct Leg {
    /// Metric label (`sched.<label>.*`).
    label: &'static str,
    /// Simulated CPUs (a flat SMP machine).
    cpus: usize,
}

impl Leg {
    fn scheduler(self) -> Box<dyn Scheduler> {
        match self.label {
            "reg" => Box::new(LinuxScheduler::new()),
            "elsc" => Box::new(ElscScheduler::new()),
            "policy-reg" => Box::new(
                PolicyScheduler::load_str(REG_POL, self.cpus)
                    .expect("the bundled reg.pol verifies")
                    .with_backend(PolicyBackend::Vm),
            ),
            other => unreachable!("unknown leg {other}"),
        }
    }
}

/// A workload's legs and its VolanoMark parameters.
fn shape(workload: Workload) -> (Vec<Leg>, VolanoConfig) {
    match workload {
        Workload::VolanoMega => (
            vec![Leg {
                label: "elsc",
                cpus: 2,
            }],
            VolanoConfig {
                rooms: 1250,
                users_per_room: 20,
                messages_per_user: 1,
                think_cycles: 60_000_000,
                ..VolanoConfig::default()
            },
        ),
        Workload::VolanoPaper => (
            ["reg", "policy-reg", "elsc"]
                .into_iter()
                .map(|label| Leg { label, cpus: 4 })
                .collect(),
            VolanoConfig {
                rooms: 20,
                users_per_room: 20,
                messages_per_user: PAPER_MESSAGES,
                ..VolanoConfig::default()
            },
        ),
        Workload::PaperFigures => unreachable!("paper-figures is not a volano workload"),
    }
}

/// One machine run of one leg, before its checks.
struct LegRun {
    setup_ns: u64,
    run_ns: u64,
    json_ns: u64,
    events: u64,
    report: RunReport,
    json: String,
    /// Per-hook spans and the obs record count (traced runs only).
    hooks: Option<HookSpans>,
    obs_events: u64,
}

fn run_leg(leg: Leg, w: &VolanoConfig, seed: u64, traced: bool) -> Result<LegRun, String> {
    let hooks = traced.then(|| Rc::new(RefCell::new(HookSpans::default())));
    let obs_events = Rc::new(Cell::new(0));
    let start = Instant::now();
    let sched = match &hooks {
        Some(h) => Box::new(Timed::new(leg.scheduler(), h.clone())),
        None => leg.scheduler(),
    };
    let cfg = MachineConfig::smp(leg.cpus)
        .with_seed(seed)
        .with_max_secs(20_000.0);
    let mut m = Machine::new(cfg, sched);
    volanomark::build(&mut m, w);
    let setup_ns = ns_since(start);
    if traced {
        m.add_sink(Box::new(CountingSink(obs_events.clone())));
    }
    let start = Instant::now();
    let result = m.run();
    let run_ns = ns_since(start);
    let events = m.events_dispatched();
    drop(m);
    let report = result.map_err(|e| format!("run failed: {e}"))?;
    let start = Instant::now();
    let json = report.to_json();
    let json_ns = ns_since(start);
    Ok(LegRun {
        setup_ns,
        run_ns,
        json_ns,
        events,
        report,
        json,
        hooks: hooks.map(|h| h.take()),
        obs_events: obs_events.get(),
    })
}

/// The checks every run's output must pass.
fn check(w: &VolanoConfig, run: &LegRun, reference: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    if !run.report.conservation_ok {
        problems.push("conservation_ok is false".to_string());
    }
    let delivered = run.report.ledger.get("messages");
    if delivered != w.total_deliveries() {
        problems.push(format!(
            "ledger messages {delivered} != expected {}",
            w.total_deliveries()
        ));
    }
    if run.report.policy.as_ref().is_some_and(|p| p.ejected) {
        problems.push("policy was ejected; its leg no longer times the VM".to_string());
    }
    if reference.is_some_and(|r| r != run.json) {
        problems.push("report bytes differ from the first run on this seed".to_string());
    }
    if run
        .hooks
        .as_ref()
        .is_some_and(|h| h.total_ns() > run.run_ns)
    {
        problems.push("scheduler hooks took longer than the run".to_string());
    }
    problems
}

/// One checked run reduced to the numbers the metrics need, so that
/// memory does not grow with the repetition count.
#[derive(Clone, Copy, Debug, Default)]
struct Sample {
    setup_s: f64,
    run_s: f64,
    json_s: f64,
    events: f64,
    /// Host seconds inside the scheduler's hooks (traced runs).
    sched_s: f64,
    calls: f64,
    ns_p50: f64,
    ns_p999: f64,
    rq_calls: f64,
    rq_ns_p50: f64,
    obs_events: f64,
    tasks: f64,
    lock_acquisitions: f64,
    messages: f64,
    sim_s: f64,
    examined_per_call: f64,
    sim_cycles_per_call: f64,
    recalc_entries: f64,
    policy_insns: f64,
    overcommit: f64,
    spin_share: f64,
}

impl Sample {
    fn of(run: &LegRun) -> Sample {
        let secs = |ns: u64| ns as f64 / 1e9;
        let total = run.report.stats.total();
        let mut s = Sample {
            setup_s: secs(run.setup_ns),
            run_s: secs(run.run_ns),
            json_s: secs(run.json_ns),
            events: run.events as f64,
            obs_events: run.obs_events as f64,
            tasks: run.report.tasks_spawned as f64,
            lock_acquisitions: run.report.lock_acquisitions as f64,
            messages: run.report.ledger.get("messages") as f64,
            sim_s: run.report.elapsed_secs(),
            examined_per_call: total.tasks_examined_per_schedule(),
            sim_cycles_per_call: total.cycles_per_schedule(),
            recalc_entries: total.recalc_entries as f64,
            policy_insns: run.report.policy.as_ref().map_or(0, |p| p.insns_executed) as f64,
            overcommit: overcommit(&run.report),
            spin_share: spin_share(&run.report),
            ..Sample::default()
        };
        if let Some(h) = &run.hooks {
            s.sched_s = secs(h.total_ns());
            s.calls = h.schedule.count as f64;
            s.ns_p50 = h.schedule.hist.quantile(0.5);
            s.ns_p999 = h.schedule.hist.quantile(0.999);
            s.rq_calls = h.rq.count as f64;
            s.rq_ns_p50 = h.rq.hist.quantile(0.5);
        }
        s
    }
}

/// Every leg's sample in one repetition, in leg order.
type Rep = Vec<Sample>;

fn sum(rep: &Rep, f: impl Fn(&Sample) -> f64) -> f64 {
    rep.iter().map(f).sum()
}

/// The largest value of `f` over every run of `reps`.
fn max(reps: &[Rep], f: impl Fn(&Sample) -> f64) -> f64 {
    reps.iter().flatten().map(f).fold(0.0, f64::max)
}

/// Runs one repetition of every leg, counting each run as an operation.
/// Traced runs add their spans to `spans`.
fn rep(
    legs: &[Leg],
    w: &VolanoConfig,
    opts: Options,
    traced: bool,
    references: &mut [Option<String>],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Option<Rep> {
    let mut samples = Vec::new();
    for (i, &leg) in legs.iter().enumerate() {
        let what = format!("{} run (traced={traced})", leg.label);
        match run_leg(leg, w, opts.seed, traced) {
            Ok(run) => {
                out.op(&what, check(w, &run, references[i].as_deref()));
                if let Some(h) = &run.hooks {
                    spans.record(&format!("setup/{}", leg.label), run.setup_ns);
                    spans.record(&format!("run/{}", leg.label), run.run_ns);
                    spans.record(&format!("to_json/{}", leg.label), run.json_ns);
                    spans.absorb(&format!("run/{}/schedule", leg.label), &h.schedule);
                    spans.absorb(&format!("run/{}/rq", leg.label), &h.rq);
                    spans.absorb(&format!("run/{}/tick", leg.label), &h.tick);
                }
                samples.push(Sample::of(&run));
                references[i].get_or_insert(run.json);
            }
            Err(e) => out.op(&what, vec![e]),
        }
    }
    (samples.len() == legs.len()).then_some(samples)
}

/// What one measuring thread collected.
struct Measured {
    out: Outcome,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    spans: Spans,
    /// Each leg's first report: every later run on the seed, traced or
    /// not, must reproduce its bytes.
    references: Vec<Option<String>>,
}

/// What the measuring threads share: a barrier that keeps their
/// repetitions in step, and the verdict on whether to stop.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
    failed: AtomicBool,
    start: Instant,
}

/// Repeats the workload in step with the other threads until the budget
/// is spent (at least [`MIN_REPS`] times). A traced run interleaves
/// untraced and traced repetitions, so the overhead ratio compares runs
/// made under the same host conditions.
fn measure(legs: &[Leg], w: &VolanoConfig, opts: Options, step: &Lockstep) -> Measured {
    let mut m = Measured {
        out: Outcome::default(),
        plain: Vec::new(),
        traced: Vec::new(),
        spans: Spans::default(),
        references: vec![None; legs.len()],
    };
    loop {
        let before = m.out.failed;
        let mut once = |traced| {
            rep(
                legs,
                w,
                opts,
                traced,
                &mut m.references,
                &mut m.spans,
                &mut m.out,
            )
        };
        m.plain.extend(once(false));
        if opts.trace {
            m.traced.extend(once(true));
        }
        if m.out.failed > before {
            step.failed.store(true, Ordering::SeqCst);
        }
        // One thread decides for all, so every thread runs the same
        // number of repetitions. A failing program fails every
        // repetition; stop early.
        if step.barrier.wait().is_leader() {
            let done = m.plain.len() >= MIN_REPS && step.start.elapsed() >= opts.budget;
            step.stop
                .store(done || step.failed.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        step.barrier.wait();
        if step.stop.load(Ordering::SeqCst) {
            return m;
        }
    }
}

/// Runs a volano workload on [`WORKERS`] threads at once, one copy per
/// host CPU, and derives its metrics.
///
/// Each CPU of a shared host has slow and fast spells of several
/// seconds, independent of the other CPU's. A single thread's median
/// follows the spells of the CPU it happens to run on. So the threads
/// repeat the workload in step, and each end-to-end sample is the mean of
/// one repetition on every CPU.
pub fn run(workload: Workload, opts: Options) -> Outcome {
    let (legs, w) = shape(workload);
    let step = Lockstep {
        barrier: Barrier::new(WORKERS),
        stop: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        start: Instant::now(),
    };
    let threads: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| measure(&legs, &w, opts, &step)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a measuring thread panicked"))
            .collect()
    });
    let mut out = Outcome::default();
    for t in &threads {
        let same = t.references == threads[0].references;
        out.op(
            "compare the threads' reports",
            if same {
                Vec::new()
            } else {
                vec!["threads on one seed produced different report bytes".to_string()]
            },
        );
    }
    // The i-th repetitions of all threads ran at the same time.
    let reps = threads.iter().map(|t| t.plain.len()).min().unwrap_or(0);
    let in_step = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> {
        (0..reps)
            .map(|i| threads.iter().map(|t| f(&t.plain[i])).sum::<f64>() / WORKERS as f64)
            .collect()
    };
    out.set("setup_s", median(&in_step(&|r| sum(r, |l| l.setup_s))));
    let run_s = in_step(&|r| sum(r, |l| l.run_s));
    out.set("run_s", median(&run_s));
    let events = in_step(&|r| sum(r, |l| l.events));
    let throughput: Vec<f64> = events.iter().zip(&run_s).map(|(e, s)| e / s).collect();
    out.set("events_per_s", median(&throughput));

    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans = Spans::default();
    for t in threads {
        out.attempted += t.out.attempted;
        out.failed += t.out.failed;
        out.notes.extend(t.out.notes);
        plain.extend(t.plain);
        traced.extend(t.traced);
        spans.merge(t.spans);
    }
    out.notes.push(format!(
        "repetitions: {reps} untraced on each of {WORKERS} threads, mean run_s each: {run_s:?}"
    ));
    if opts.trace {
        per_layer(&legs, &plain, &traced, &mut out);
        out.notes.extend(spans.render());
    }
    out
}

/// Derives the per-layer metrics from the traced repetitions. Counts and
/// times are summed over a repetition's runs, then the median is taken
/// over repetitions.
fn per_layer(legs: &[Leg], plain: &[Rep], traced: &[Rep], out: &mut Outcome) {
    let total = |f: fn(&Sample) -> f64| median_of(traced, |r| sum(r, f));
    out.set("setup.build_s", total(|l| l.setup_s));
    out.set("setup.tasks", total(|l| l.tasks));
    out.set("machine.events", total(|l| l.events));
    out.set("machine.self_s", total(|l| l.run_s - l.sched_s));
    out.set(
        "machine.self_ns_per_event",
        median_of(traced, |r| {
            sum(r, |l| l.run_s - l.sched_s) * 1e9 / sum(r, |l| l.events)
        }),
    );
    out.set("machine.report_json_s", total(|l| l.json_s));
    out.set("machine.cpu_overcommit_max", max(traced, |l| l.overcommit));
    out.set("simcore.lock.acquisitions", total(|l| l.lock_acquisitions));
    out.set("simcore.lock.spin_share", max(traced, |l| l.spin_share));
    out.set("netsim.messages", total(|l| l.messages));
    out.set(
        "netsim.msgs_per_sim_s",
        median_of(traced, |r| sum(r, |l| l.messages) / sum(r, |l| l.sim_s)),
    );
    out.set("obs.events", total(|l| l.obs_events));
    out.set(
        "trace.overhead",
        total(|l| l.run_s) / median_of(plain, |r| sum(r, |l| l.run_s)),
    );
    for (i, leg) in legs.iter().enumerate() {
        let leg_median = |f: fn(&Sample) -> f64| median_of(traced, |r| f(&r[i]));
        let name = |metric: &str| format!("sched.{}.{metric}", leg.label);
        out.set(&name("calls"), leg_median(|l| l.calls));
        out.set(&name("ns_p50"), leg_median(|l| l.ns_p50));
        out.set(&name("ns_p999"), leg_median(|l| l.ns_p999));
        out.set(&name("share"), leg_median(|l| l.sched_s / l.run_s));
        out.set(&name("rq_calls"), leg_median(|l| l.rq_calls));
        out.set(&name("rq_ns_p50"), leg_median(|l| l.rq_ns_p50));
        out.set(
            &name("examined_per_call"),
            leg_median(|l| l.examined_per_call),
        );
        out.set(
            &name("sim_cycles_per_call"),
            leg_median(|l| l.sim_cycles_per_call),
        );
        if leg.label == "reg" {
            out.set("sched.reg.recalc_entries", leg_median(|l| l.recalc_entries));
        }
        if leg.label == "policy-reg" {
            out.set("policy.insns", leg_median(|l| l.policy_insns));
            out.set(
                "policy.ns_per_insn",
                leg_median(|l| l.sched_s * 1e9 / l.policy_insns),
            );
        }
    }
}

/// Largest per-CPU (work + idle + sched + lock-spin) / elapsed of a
/// report: above 1 means a CPU accounted for more time than elapsed.
fn overcommit(report: &RunReport) -> f64 {
    let elapsed = report.elapsed.get() as f64;
    report
        .stats
        .per_cpu()
        .iter()
        .map(|c| (c.work_cycles + c.idle_cycles + c.sched_cycles + c.lock_spin_cycles) as f64)
        .fold(0.0, f64::max)
        / elapsed
}

/// Run-queue lock spin as a share of all CPU time of a report.
fn spin_share(report: &RunReport) -> f64 {
    report.lock_spin.get() as f64 / (report.elapsed.get() as f64 * report.stats.nr_cpus() as f64)
}
