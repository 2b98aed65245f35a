//! Host-time tracing from outside the program: a log-linear duration
//! histogram, named spans kept in memory, a timing decorator around any
//! [`Scheduler`], and an event-counting observability sink.
//!
//! Everything here only observes. The decorator delegates every hook and
//! the sink only counts, so a traced run must produce the same report
//! bytes as an untraced one (the benchmark checks this).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use elsc_ktask::{CpuId, TaskTable, Tid};
use elsc_obs::{ObsRecord, Sink};
use elsc_sched_api::{
    LearnedInfo, LockPlan, PolicyBackend, PolicyLoadInfo, PolicyViolation, SchedCtx, Scheduler,
};

/// Sub-buckets per power of two (2^4 = 16, so a bucket is at most 1/16
/// of its value wide).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A log-linear histogram of nanosecond durations: exact below 16 ns,
/// then 16 buckets per octave (relative error under 3.2% at the
/// bucket midpoint).
#[derive(Clone, Debug)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let mantissa = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + mantissa
}

/// Midpoint of a bucket, in the histogram's unit.
fn bucket_mid(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let group = i / SUB;
    let lower = ((SUB + i % SUB) as u64) << (group - 1);
    let width = 1u64 << (group - 1);
    lower as f64 + (width as f64 - 1.0) / 2.0
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
    }

    /// The `q`-quantile (0 < q <= 1) as a bucket midpoint; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// One named span's aggregate: how often it ran, for how long in total,
/// and the distribution of single durations.
#[derive(Clone, Debug, Default)]
pub struct Span {
    /// Completed spans.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Distribution of single durations, ns.
    pub hist: Hist,
}

impl Span {
    /// Adds one completed span of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist.record(ns);
    }
}

/// Coarse spans by name, kept in memory until the benchmark ends.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<String, Span>);

impl Spans {
    /// Records a completed span under `name`.
    pub fn record(&mut self, name: &str, ns: u64) {
        self.0.entry(name.to_string()).or_default().record(ns);
    }

    /// Adds `span`'s samples under `name`.
    pub fn absorb(&mut self, name: &str, span: &Span) {
        let s = self.0.entry(name.to_string()).or_default();
        s.count += span.count;
        s.total_ns += span.total_ns;
        for (mine, theirs) in s.hist.buckets.iter_mut().zip(&span.hist.buckets) {
            *mine += theirs;
        }
        s.hist.count += span.hist.count;
    }

    /// Adds every span of `other`.
    pub fn merge(&mut self, other: Spans) {
        for (name, span) in &other.0 {
            self.absorb(name, span);
        }
    }

    /// One line per span: name, count, total, p50 and p99.9.
    pub fn render(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(name, s)| {
                format!(
                    "span {name}: count={} total_s={:.6} p50_ns={:.0} p999_ns={:.0}",
                    s.count,
                    s.total_ns as f64 / 1e9,
                    s.hist.quantile(0.5),
                    s.hist.quantile(0.999)
                )
            })
            .collect()
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-call spans of one scheduler: the pick, the four run-queue
/// manipulators, and the timer-tick hook.
#[derive(Clone, Debug, Default)]
pub struct HookSpans {
    /// `schedule()` calls.
    pub schedule: Span,
    /// `add_to_runqueue`, `del_from_runqueue`, `move_first_runqueue`,
    /// `move_last_runqueue` and `drain` calls.
    pub rq: Span,
    /// `on_tick` calls (only policy schedulers receive them).
    pub tick: Span,
}

impl HookSpans {
    /// Host time spent inside the scheduler, ns.
    pub fn total_ns(&self) -> u64 {
        self.schedule.total_ns + self.rq.total_ns + self.tick.total_ns
    }
}

/// A [`Scheduler`] that times every hook of the scheduler it wraps and
/// otherwise delegates unchanged.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    spans: Rc<RefCell<HookSpans>>,
}

impl Timed {
    /// Wraps `inner`; hook spans accumulate into `spans`.
    pub fn new(inner: Box<dyn Scheduler>, spans: Rc<RefCell<HookSpans>>) -> Timed {
        Timed { inner, spans }
    }

    fn timed<R>(
        &mut self,
        span: fn(&mut HookSpans) -> &mut Span,
        call: impl FnOnce(&mut dyn Scheduler) -> R,
    ) -> R {
        let start = Instant::now();
        let out = call(self.inner.as_mut());
        let ns = ns_since(start);
        span(&mut self.spans.borrow_mut()).record(ns);
        out
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.timed(|s| &mut s.rq, |s| s.add_to_runqueue(ctx, tid))
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.timed(|s| &mut s.rq, |s| s.del_from_runqueue(ctx, tid))
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.timed(|s| &mut s.rq, |s| s.move_first_runqueue(ctx, tid))
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.timed(|s| &mut s.rq, |s| s.move_last_runqueue(ctx, tid))
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        self.timed(|s| &mut s.schedule, |s| s.schedule(ctx, cpu, prev, idle))
    }

    fn nr_running(&self) -> usize {
        self.inner.nr_running()
    }

    fn lock_plan(&self, nr_cpus: usize) -> LockPlan {
        self.inner.lock_plan(nr_cpus)
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.inner.debug_check(tasks)
    }

    fn loaded_info(&self) -> Option<PolicyLoadInfo> {
        self.inner.loaded_info()
    }

    fn set_policy_backend(&mut self, backend: PolicyBackend) {
        self.inner.set_policy_backend(backend)
    }

    fn take_violation(&mut self) -> Option<PolicyViolation> {
        self.inner.take_violation()
    }

    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        self.timed(|s| &mut s.rq, |s| s.drain(ctx))
    }

    fn policy_insns_executed(&self) -> u64 {
        self.inner.policy_insns_executed()
    }

    fn learned_info(&self) -> Option<LearnedInfo> {
        self.inner.learned_info()
    }

    fn take_prediction(&mut self) -> Option<bool> {
        self.inner.take_prediction()
    }

    fn prediction_stats(&self) -> (u64, u64) {
        self.inner.prediction_stats()
    }

    fn on_tick(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, current: Tid) {
        self.timed(|s| &mut s.tick, |s| s.on_tick(ctx, cpu, current))
    }
}

/// An observability sink that only counts the records it receives.
pub struct CountingSink(pub Rc<Cell<u64>>);

impl Sink for CountingSink {
    fn record(&mut self, _rec: &ObsRecord) {
        self.0.set(self.0.get() + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1, "gap at {v}");
            last = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_truth() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() <= 500.0 / 16.0, "{p50}");
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
