//! The `paper-figures` workload: the lab's paper grid swept cold into a
//! fresh cache with two workers, then swept again warm.
//!
//! Figures 4 to 6 reuse figure 3's cells and `kernel_share` some of
//! them, so 48 of the 92 cells execute and the rest are cache hits even
//! when cold. The grid's simulated event count is not in the lab's
//! records, so it is taken once per invocation by replaying each
//! executed cell directly on a `Machine`; the replayed report must equal
//! the lab's record byte for byte.

use std::path::PathBuf;
use std::time::Instant;

use elsc_lab::jsonv::Value;
use elsc_lab::{run_sweep, Cache, CellConfig, RunOptions, SweepRun, SweepSpec, WorkloadCell};
use elsc_machine::Machine;
use elsc_workloads::{kbuild, volanomark, KbuildConfig, VolanoConfig};

use crate::trace::{ns_since, Spans};
use crate::{median, median_of, Options, Outcome, MIN_REPS, WORKERS};

/// The lab's paper builtins, in sweep order.
const SPECS: [&str; 7] = [
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "table2",
    "kernel_share",
];

/// Messages per user in the volano figure cells: the run-length knob
/// (the lab builtins default to 20).
const MESSAGES: u64 = 5;

/// Set-up samples per repetition: set-up takes tens of microseconds, so
/// one sample would be mostly timer and host noise.
const SETUP_SAMPLES: usize = 100;

/// Where sweeps keep their caches: inside the working directory, under
/// a per-process name, removed before the run ends.
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench").join(format!("lab-{}", std::process::id()))
}

/// The paper grid on `seed`: every builtin with its seed axis replaced
/// and its message count pinned (the builtins read it from the
/// environment).
fn specs(seed: u64) -> Vec<SweepSpec> {
    SPECS
        .iter()
        .map(|name| {
            let mut spec = SweepSpec::builtin(name).expect("paper builtins exist");
            spec.seeds = vec![seed];
            for (param, values) in &mut spec.params {
                if param == "messages" {
                    *values = vec![MESSAGES];
                }
            }
            spec
        })
        .collect()
}

/// The measured set-up: expand the specs and open a cache at `dir`
/// (the lab creates the directory when it stores the first record).
/// Returns the specs, their cell count and the cache.
fn open(seed: u64, dir: PathBuf) -> (Vec<SweepSpec>, usize, Cache) {
    let specs = specs(seed);
    let cells = specs.iter().map(|s| s.cells().len()).sum();
    (specs, cells, Cache::new(dir))
}

/// One repetition's measurements.
struct Rep {
    setup_ns: Vec<u64>,
    cold_ns: u64,
    warm_ns: u64,
    parse_ns: u64,
    cells: usize,
    executed: usize,
    cached: usize,
    warm_cached: usize,
    manifest_bytes: usize,
}

/// Sweeps every spec into `cache`, recording one span per spec.
fn sweep(specs: &[SweepSpec], cache: &Cache, spans: &mut Spans, tag: &str) -> Vec<SweepRun> {
    let opts = RunOptions {
        workers: WORKERS,
        force: false,
    };
    specs
        .iter()
        .map(|spec| {
            let start = Instant::now();
            let run = run_sweep(spec, cache, &opts);
            spans.record(&format!("run_sweep/{tag}/{}", spec.name), ns_since(start));
            run
        })
        .collect()
}

/// Counts every cell of `runs` as an operation, failing those that
/// failed.
fn count_cells(runs: &[SweepRun], tag: &str, out: &mut Outcome) {
    for run in runs {
        for _ in &run.outcomes {
            out.op(tag, Vec::new());
        }
        for (cell, e) in &run.failures {
            out.op(&format!("{tag} cell {}", cell.id()), vec![e.to_string()]);
        }
    }
}

/// One cold-then-warm repetition. Returns its measurements and the cold
/// sweeps' results.
fn rep(opts: Options, index: usize, spans: &mut Spans, out: &mut Outcome) -> (Rep, Vec<SweepRun>) {
    let base = work_dir().join(format!("rep{index}"));
    // A leftover from an interrupted run would make the cold sweep warm.
    let _ = std::fs::remove_dir_all(&base);
    let mut setup_ns = Vec::new();
    let mut lab = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let opened = open(opts.seed, base.clone());
        setup_ns.push(ns_since(start));
        lab = Some(opened);
    }
    let (specs, cells, cache) = lab.expect("at least one set-up sample");

    let start = Instant::now();
    let cold = sweep(&specs, &cache, spans, "cold");
    let cold_ns = ns_since(start);
    let start = Instant::now();
    let warm = sweep(&specs, &cache, spans, "warm");
    let warm_ns = ns_since(start);
    count_cells(&cold, "cold", out);
    count_cells(&warm, "warm", out);

    let mut manifest_bytes = 0;
    let mut parse_ns = 0;
    for (c, w) in cold.iter().zip(&warm) {
        let what = format!("{} manifest", c.spec.name);
        let (Some(cm), Some(wm)) = (c.manifest(), w.manifest()) else {
            out.op(&what, vec!["a cell failed, so no manifest".into()]);
            continue;
        };
        let mut problems = Vec::new();
        if w.executed != 0 {
            problems.push(format!("warm sweep executed {} cells", w.executed));
        }
        if cm != wm {
            problems.push("warm manifest differs from the cold one".into());
        }
        let start = Instant::now();
        let parsed = Value::parse(&cm);
        let ns = ns_since(start);
        spans.record("manifest_parse", ns);
        parse_ns += ns;
        let listed = parsed
            .as_ref()
            .ok()
            .and_then(|v| v.get("cells"))
            .and_then(Value::as_f64);
        if listed != Some(c.outcomes.len() as f64) {
            problems.push(format!("manifest does not parse back: {:?}", parsed.err()));
        }
        manifest_bytes += cm.len();
        out.op(&what, problems);
    }
    if let Err(e) = std::fs::remove_dir_all(&base) {
        out.op("remove the lab cache", vec![e.to_string()]);
    }
    let rep = Rep {
        setup_ns,
        cold_ns,
        warm_ns,
        parse_ns,
        cells,
        executed: cold.iter().map(|r| r.executed).sum(),
        cached: cold.iter().map(|r| r.cached).sum(),
        warm_cached: warm.iter().map(|r| r.cached).sum(),
        manifest_bytes,
    };
    (rep, cold)
}

/// A replayed cell's report JSON and events dispatched, or why it failed.
type Replayed = Result<(String, u64), String>;

/// Re-runs one lab cell directly on a `Machine`, the way the lab
/// executes it.
fn replay(cell: &CellConfig) -> Replayed {
    let cfg = cell
        .shape
        .machine()
        .with_seed(cell.seed)
        .with_lock_plan(cell.lock_plan);
    let mut m = Machine::new(cfg, cell.sched.build(cell.shape.topology()));
    match cell.workload {
        WorkloadCell::Volano {
            rooms,
            users,
            messages,
            think,
        } => volanomark::build(
            &mut m,
            &VolanoConfig {
                rooms: rooms as usize,
                users_per_room: users as usize,
                messages_per_user: messages as usize,
                think_cycles: think,
                ..VolanoConfig::default()
            },
        ),
        WorkloadCell::Kbuild { jobs, units } => kbuild::build(
            &mut m,
            &KbuildConfig {
                jobs: jobs as usize,
                translation_units: units as usize,
                ..KbuildConfig::default()
            },
        ),
        ref other => return Err(format!("no replay for {} cells", other.name())),
    }
    let report = m.run().map_err(|e| e.to_string())?;
    Ok((report.to_json(), m.events_dispatched()))
}

/// Replays every cell the cold sweep executed, on [`WORKERS`] threads,
/// checking each report against the lab's record. Returns the summed
/// event count.
fn replay_executed(cold: &[SweepRun], out: &mut Outcome) -> u64 {
    let cells: Vec<(&CellConfig, &str)> = cold
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| !o.from_cache)
        .map(|o| (&o.cell, o.record.as_str()))
        .collect();
    // Each thread takes every WORKERS-th cell; replay time is not measured,
    // so a static split is enough.
    let cells = &cells;
    let mut results: Vec<(usize, Replayed)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|first| {
                scope.spawn(move || {
                    (first..cells.len())
                        .step_by(WORKERS)
                        .map(|k| (k, replay(cells[k].0)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("a replayed run panicked"))
            .collect()
    });
    results.sort_by_key(|(k, _)| *k);
    let mut events = 0;
    for ((cell, record), (_, result)) in cells.iter().zip(results) {
        let problems = match result {
            Ok((json, n)) => {
                events += n;
                // The report is the record's last member.
                if record.ends_with(&format!("\"report\":{json}}}")) {
                    Vec::new()
                } else {
                    vec!["direct run's report differs from the lab's record".to_string()]
                }
            }
            Err(e) => vec![e],
        };
        out.op(&format!("replay {}", cell.id()), problems);
    }
    events
}

/// Runs the paper grid for the time budget (at least [`MIN_REPS`]
/// repetitions; traced runs interleave an untraced repetition before
/// each traced one) and derives its metrics.
pub fn run(opts: Options) -> Outcome {
    let mut out = Outcome::default();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut spans = Spans::default();
    let start = Instant::now();
    // The first cold sweep's results, kept for the replay; later ones
    // are dropped so memory does not grow with the repetition count.
    let mut first_cold = None;
    let mut index = 0;
    loop {
        let before = out.failed;
        index += 1;
        let (r, cold) = rep(opts, index, &mut Spans::default(), &mut out);
        plain.push(r);
        first_cold.get_or_insert(cold);
        if opts.trace {
            index += 1;
            traced.push(rep(opts, index, &mut spans, &mut out).0);
        }
        let done = plain.len() >= MIN_REPS && start.elapsed() >= opts.budget;
        if done || out.failed > before {
            break;
        }
    }
    let events = first_cold.map_or(0, |cold| replay_executed(&cold, &mut out)) as f64;
    let _ = std::fs::remove_dir_all(work_dir());
    let _ = std::fs::remove_dir(".perfbench");

    let secs = |ns: u64| ns as f64 / 1e9;
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_ns.iter().map(|&ns| secs(ns)))
        .collect();
    out.notes.push(format!(
        "repetitions: {} untraced, run_s each: {:?}",
        plain.len(),
        plain.iter().map(|r| secs(r.cold_ns)).collect::<Vec<_>>()
    ));
    out.set("setup_s", median(&setups));
    out.set("run_s", median_of(&plain, |r| secs(r.cold_ns)));
    out.set(
        "events_per_s",
        median_of(&plain, |r| events / secs(r.cold_ns)),
    );
    if opts.trace {
        out.set("machine.events", events);
        out.set("lab.cells", median_of(&traced, |r| r.cells as f64));
        out.set("lab.executed", median_of(&traced, |r| r.executed as f64));
        out.set("lab.cached", median_of(&traced, |r| r.cached as f64));
        out.set(
            "lab.cold_s_per_cell",
            median_of(&traced, |r| secs(r.cold_ns) / r.executed as f64),
        );
        out.set("lab.warm_sweep_s", median_of(&traced, |r| secs(r.warm_ns)));
        out.set(
            "lab.warm_hit_ratio",
            median_of(&traced, |r| r.warm_cached as f64 / r.cells as f64),
        );
        out.set(
            "lab.manifest_bytes",
            median_of(&traced, |r| r.manifest_bytes as f64),
        );
        out.set(
            "lab.manifest_parse_s",
            median_of(&traced, |r| secs(r.parse_ns)),
        );
        out.set(
            "trace.overhead",
            median_of(&traced, |r| secs(r.cold_ns)) / median_of(&plain, |r| secs(r.cold_ns)),
        );
        out.notes.extend(spans.render());
    }
    out
}
