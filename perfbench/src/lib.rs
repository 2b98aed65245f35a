//! Host-performance benchmark of the ELSC simulator.
//!
//! The simulator has two kinds of performance. *Simulated* time
//! (cycles per `schedule()`, scheduler share, messages per simulated
//! second) is the paper's result and an output of the model. *Host* time
//! is what a user of the simulator waits for. This benchmark measures
//! host time: end to end with tracing off, and layer by layer in a
//! separate traced run. Simulated statistics are checked and reported as
//! per-layer counts only, so a model fix is never scored as a
//! regression. The model is not validated against hardware, so no error
//! figure against the paper is given.
//!
//! The benchmark drives the program only through its public functions
//! (`Machine::new`, `volanomark::build`, `Machine::run`,
//! `RunReport::to_json`, `elsc_lab::run_sweep`, `Cache`, `jsonv`) and
//! measures each layer from outside by timing the calls into it.

mod figures;
mod trace;
mod volano;

use std::collections::BTreeMap;
use std::time::Duration;

/// Host threads every workload uses: one per CPU of the two-CPU host the
/// benchmark was built for.
const WORKERS: usize = 2;

/// Fewest repetitions a run makes (per thread), whatever its time budget.
const MIN_REPS: usize = 3;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
];

/// The scheduler legs the volano workloads time, by metric label.
const SCHED_LEGS: [&str; 3] = ["elsc", "reg", "policy-reg"];

/// Per-scheduler metrics, each reported as `sched.<leg>.<metric>`.
const SCHED_METRICS: [(&str, &str); 8] = [
    ("calls", "count"),
    ("ns_p50", "ns"),
    ("ns_p999", "ns"),
    ("share", "ratio"),
    ("rq_calls", "count"),
    ("rq_ns_p50", "ns"),
    ("examined_per_call", "tasks"),
    ("sim_cycles_per_call", "cycles"),
];

/// Per-layer metrics outside the scheduler legs (traced run): name and
/// unit.
const LAYER_METRICS: [(&str, &str); 24] = [
    ("setup.build_s", "s"),
    ("setup.tasks", "count"),
    ("machine.events", "count"),
    ("machine.self_s", "s"),
    ("machine.self_ns_per_event", "ns"),
    ("machine.report_json_s", "s"),
    ("machine.cpu_overcommit_max", "ratio"),
    ("sched.reg.recalc_entries", "count"),
    ("policy.insns", "count"),
    ("policy.ns_per_insn", "ns"),
    ("simcore.lock.acquisitions", "count"),
    ("simcore.lock.spin_share", "ratio"),
    ("netsim.messages", "count"),
    ("netsim.msgs_per_sim_s", "1/s"),
    ("obs.events", "count"),
    ("lab.cells", "count"),
    ("lab.executed", "count"),
    ("lab.cached", "count"),
    ("lab.cold_s_per_cell", "s"),
    ("lab.warm_sweep_s", "s"),
    ("lab.warm_hit_ratio", "ratio"),
    ("lab.manifest_bytes", "bytes"),
    ("lab.manifest_parse_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Every per-layer metric in reporting order: the scheduler legs first,
/// then the other layers.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let legs = SCHED_LEGS.iter().flat_map(|leg| {
        SCHED_METRICS
            .iter()
            .map(move |(m, unit)| (format!("sched.{leg}.{m}"), *unit))
    });
    legs.chain(LAYER_METRICS.iter().map(|(m, u)| (m.to_string(), *u)))
        .collect()
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100k tasks, think-bound, one message per user, `elsc` on 2P.
    VolanoMega,
    /// The paper's 20-room comparison on 4P under `reg`, `policy:reg`
    /// and `elsc`.
    VolanoPaper,
    /// The lab's paper grid, cold then warm.
    PaperFigures,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the gated ones in this
    /// order.
    pub const ALL: [Workload; 3] = [
        Workload::VolanoMega,
        Workload::VolanoPaper,
        Workload::PaperFigures,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VolanoMega => "volano-mega",
            Workload::VolanoPaper => "volano-paper",
            Workload::PaperFigures => "paper-figures",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: machine runs and lab cells.
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines: failed checks and, when traced, spans.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation, failed when `problems` is non-empty.
    pub fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.notes
                .push(format!("FAILED {what}: {}", problems.join("; ")));
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics a run reports: the end-to-end set untraced, the
    /// per-layer set traced. A metric a workload does not load reads 0.
    pub fn metrics(&self, traced: bool) -> Vec<(String, f64, &'static str)> {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        names
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, if v.is_finite() { v } else { 0.0 }, unit)
            })
            .collect()
    }
}

/// How one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time; repetitions continue until it is spent.
    pub budget: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Runs one workload and returns its measurements and check results.
pub fn run(workload: Workload, opts: Options) -> Outcome {
    let mut out = match workload {
        Workload::VolanoMega | Workload::VolanoPaper => volano::run(workload, opts),
        Workload::PaperFigures => figures::run(opts),
    };
    if let Some(kib) = peak_rss_kib() {
        out.set("peak_rss_mb", kib as f64 / 1024.0);
    } else {
        out.op("read VmHWM", vec!["/proc/self/status has no VmHWM".into()]);
    }
    out
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median over `items` of `f`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
