//! The task table: every task in the system.
//!
//! The kernel keeps all tasks on a global list that `for_each_task`
//! iterates — notably in the counter-recalculation loop, which touches
//! *every* task in the system, runnable or not (paper §3.3.2). The
//! [`TaskTable`] is that set: a slab with generation-checked handles.
//!
//! # The hot-field mirror
//!
//! Alongside the slab the table maintains [`HotLanes`]: one packed
//! 32-byte [`HotRecord`] per slot holding exactly the fields the
//! scheduler hot paths read — `counter`, `priority`, `rt_priority`, the
//! `policy` bits, `mm`, `processor`, `rq_hint`/`rq_zero`, and the
//! `run_list` links. Goodness scans and the recalculation loop read
//! these records instead of the full [`Task`] structs, so evaluating one
//! candidate touches one cache line, which is what keeps scheduling
//! decisions cache-resident when the table holds hundreds of thousands of
//! tasks.
//!
//! The records are kept in lockstep with the slab automatically: every
//! mutable access hands out a [`TaskMut`] guard whose `Drop` rewrites the
//! task's record. The slab remains the single source of truth; the
//! records are a read-optimised mirror.

use core::ops::{Deref, DerefMut};

use crate::list::Link;
use crate::task::{CpuId, MmId, Task, TaskSpec, TaskState};
use crate::tid::Tid;

/// One slab slot.
#[derive(Debug)]
struct Slot {
    gen: u32,
    task: Option<Task>,
}

/// Lane flag: the slot holds a live task.
const LANE_LIVE: u8 = 1 << 0;
/// Lane flag: `policy.class` is one of the real-time classes.
const LANE_RT: u8 = 1 << 1;
/// Lane flag: the `SCHED_YIELD` bit.
const LANE_YIELDED: u8 = 1 << 2;
/// Lane flag: `has_cpu`.
const LANE_HAS_CPU: u8 = 1 << 3;
/// Lane flag: inserted into the zero-counter section (ELSC `rq_zero`).
const LANE_RQ_ZERO: u8 = 1 << 4;
/// Lane flag: the recalculation walk touches this task (not a zombie).
const LANE_RECALC: u8 = 1 << 5;

/// Packs a live task's boolean hot fields into its lane flags byte.
#[inline]
fn flags_of(task: &Task) -> u8 {
    let mut flags = LANE_LIVE;
    if task.policy.class.is_realtime() {
        flags |= LANE_RT;
    }
    if task.policy.yielded {
        flags |= LANE_YIELDED;
    }
    if task.has_cpu {
        flags |= LANE_HAS_CPU;
    }
    if task.rq_zero {
        flags |= LANE_RQ_ZERO;
    }
    if task.state != TaskState::Zombie {
        flags |= LANE_RECALC;
    }
    flags
}

/// One task's scheduler-hot fields, packed into a single 32-byte record
/// so that a goodness evaluation touches one cache line: `counter`,
/// `priority`, `rt_priority`, `mm`, `processor`, the `run_list` links
/// and the boolean fields as flag bits.
///
/// Read through [`HotLanes::record`]; written only by the [`TaskMut`]
/// guard and the recalculation sweep.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
pub struct HotRecord {
    counter: i32,
    priority: i32,
    rt_priority: i32,
    mm: u32,
    processor: u32,
    next: u32,
    prev: u32,
    flags: u8,
    rq_hint: u8,
}

// One record, one half cache line: a candidate never straddles two.
const _: () = assert!(core::mem::size_of::<HotRecord>() == 32);

/// Encoded [`Link::Nil`].
const LINK_NIL: u32 = u32::MAX;
/// Tag bit of an encoded [`Link::Head`].
const LINK_HEAD: u32 = 1 << 31;

/// Packs a link into 32 bits: NULL, a head number, or a slab index.
#[inline]
fn encode_link(l: Link) -> u32 {
    match l {
        Link::Nil => LINK_NIL,
        Link::Head(h) => LINK_HEAD | h,
        Link::Task(i) => {
            debug_assert!(i < LINK_HEAD, "slab index {i} too large to pack");
            i
        }
    }
}

/// Inverse of [`encode_link`].
#[inline]
fn decode_link(v: u32) -> Link {
    if v == LINK_NIL {
        Link::Nil
    } else if v & LINK_HEAD != 0 {
        Link::Head(v & !LINK_HEAD)
    } else {
        Link::Task(v)
    }
}

impl HotRecord {
    /// The record of a live task.
    #[inline]
    fn of(task: &Task) -> HotRecord {
        HotRecord {
            counter: task.counter,
            priority: task.priority,
            rt_priority: task.rt_priority,
            mm: task.mm.0,
            processor: task.processor as u32,
            next: encode_link(task.run_list.next),
            prev: encode_link(task.run_list.prev),
            flags: flags_of(task),
            rq_hint: task.rq_hint,
        }
    }

    /// The record of a free slot: dead, detached.
    const DEAD: HotRecord = HotRecord {
        counter: 0,
        priority: 0,
        rt_priority: 0,
        mm: 0,
        processor: 0,
        next: LINK_NIL,
        prev: LINK_NIL,
        flags: 0,
        rq_hint: 0,
    };

    /// Whether the slot holds a live task.
    #[inline]
    pub fn live(&self) -> bool {
        self.flags & LANE_LIVE != 0
    }

    /// `counter`.
    #[inline]
    pub fn counter(&self) -> i32 {
        self.counter
    }

    /// `priority`.
    #[inline]
    pub fn priority(&self) -> i32 {
        self.priority
    }

    /// `rt_priority`.
    #[inline]
    pub fn rt_priority(&self) -> i32 {
        self.rt_priority
    }

    /// The static part of `goodness()`: `counter + priority` (paper §5).
    #[inline]
    pub fn static_goodness(&self) -> i32 {
        self.counter + self.priority
    }

    /// Address space.
    #[inline]
    pub fn mm(&self) -> MmId {
        MmId(self.mm)
    }

    /// Processor the task last ran on.
    #[inline]
    pub fn processor(&self) -> CpuId {
        self.processor as CpuId
    }

    /// Whether the task is real-time (`SCHED_FIFO`/`SCHED_RR`).
    #[inline]
    pub fn is_realtime(&self) -> bool {
        self.flags & LANE_RT != 0
    }

    /// The `SCHED_YIELD` bit.
    #[inline]
    pub fn yielded(&self) -> bool {
        self.flags & LANE_YIELDED != 0
    }

    /// Whether the task is executing on a processor.
    #[inline]
    pub fn has_cpu(&self) -> bool {
        self.flags & LANE_HAS_CPU != 0
    }

    /// Whether the task sits in the zero-counter section of its list
    /// (ELSC only).
    #[inline]
    pub fn rq_zero(&self) -> bool {
        self.flags & LANE_RQ_ZERO != 0
    }

    /// The run-queue class annotation (ELSC only).
    #[inline]
    pub fn rq_hint(&self) -> u8 {
        self.rq_hint
    }

    /// Forward run-queue link.
    #[inline]
    pub fn next(&self) -> Link {
        decode_link(self.next)
    }

    /// Backward run-queue link.
    #[inline]
    pub fn prev(&self) -> Link {
        decode_link(self.prev)
    }
}

/// The packed mirror of the scheduler-hot [`Task`] fields: one
/// [`HotRecord`] per slab slot.
///
/// Indexed by slab index; records of free slots are dead. Obtained
/// read-only via [`TaskTable::lanes`]; kept in lockstep with the slab by
/// the [`TaskMut`] guard.
#[derive(Debug, Default)]
pub struct HotLanes {
    records: Vec<HotRecord>,
}

impl HotLanes {
    /// Number of records (the slab capacity, not the live count).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no records (no slots allocated yet).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The packed record of slab index `idx`.
    #[inline]
    pub fn record(&self, idx: usize) -> &HotRecord {
        &self.records[idx]
    }
}

/// A write guard over one task.
///
/// Dereferences to [`Task`] so existing call sites read and write fields
/// directly; when the guard drops, the task's hot fields are copied into
/// the [`HotLanes`] mirror, keeping it in lockstep with the slab without
/// any manual synchronisation points.
pub struct TaskMut<'a> {
    task: &'a mut Task,
    record: &'a mut HotRecord,
}

impl Deref for TaskMut<'_> {
    type Target = Task;

    #[inline]
    fn deref(&self) -> &Task {
        self.task
    }
}

impl DerefMut for TaskMut<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Task {
        self.task
    }
}

impl Drop for TaskMut<'_> {
    #[inline]
    fn drop(&mut self) {
        *self.record = HotRecord::of(self.task);
    }
}

impl core::fmt::Display for TaskMut<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.task.fmt(f)
    }
}

impl core::fmt::Debug for TaskMut<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.task.fmt(f)
    }
}

/// The set of all tasks in the system.
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<Slot>,
    lanes: HotLanes,
    free: Vec<u32>,
    live: usize,
    spawned: u64,
}

impl TaskTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Creates a new task from `spec` and returns its handle.
    pub fn spawn(&mut self, spec: &TaskSpec) -> Tid {
        self.spawned += 1;
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.task.is_none());
            let tid = Tid::from_raw(idx, slot.gen);
            let task = Task::new(tid, spec);
            self.lanes.records[idx as usize] = HotRecord::of(&task);
            slot.task = Some(task);
            tid
        } else {
            let idx = u32::try_from(self.slots.len()).expect("task table overflow");
            let tid = Tid::from_raw(idx, 0);
            let task = Task::new(tid, spec);
            self.lanes.records.push(HotRecord::of(&task));
            self.slots.push(Slot {
                gen: 0,
                task: Some(task),
            });
            tid
        }
    }

    /// Frees an exited task's slot; its handle becomes stale.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or the task is still linked into a
    /// run-queue list (freeing a queued task would leave dangling links).
    pub fn free(&mut self, tid: Tid) {
        let slot = &mut self.slots[tid.index()];
        assert_eq!(slot.gen, tid.generation(), "free of stale {tid:?}");
        let task = slot.task.take().unwrap_or_else(|| {
            panic!("double free of {tid:?}");
        });
        assert!(
            !task.in_list(),
            "freeing {} while still linked into a run queue",
            task
        );
        slot.gen = slot.gen.wrapping_add(1);
        self.lanes.records[tid.index()] = HotRecord::DEAD;
        self.free.push(tid.index() as u32);
        self.live -= 1;
    }

    /// Looks up a task, returning `None` for stale handles.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&Task> {
        let slot = self.slots.get(tid.index())?;
        if slot.gen != tid.generation() {
            return None;
        }
        slot.task.as_ref()
    }

    /// Mutable lookup, returning `None` for stale handles.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> Option<TaskMut<'_>> {
        let idx = tid.index();
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != tid.generation() {
            return None;
        }
        let task = slot.task.as_mut()?;
        Some(TaskMut {
            task,
            record: &mut self.lanes.records[idx],
        })
    }

    /// Panicking lookup, for code paths where a stale handle is a bug.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[inline]
    #[track_caller]
    pub fn task(&self, tid: Tid) -> &Task {
        self.get(tid)
            .unwrap_or_else(|| panic!("stale task handle {tid:?}"))
    }

    /// Panicking mutable lookup.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[inline]
    #[track_caller]
    pub fn task_mut(&mut self, tid: Tid) -> TaskMut<'_> {
        self.get_mut(tid)
            .unwrap_or_else(|| panic!("stale task handle {tid:?}"))
    }

    /// Lookup by raw slab index; used by the intrusive list code, which
    /// stores indices rather than full handles.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[inline]
    #[track_caller]
    pub fn by_index(&self, idx: usize) -> &Task {
        self.slots[idx]
            .task
            .as_ref()
            .unwrap_or_else(|| panic!("empty task slot {idx}"))
    }

    /// Mutable lookup by raw slab index.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[inline]
    #[track_caller]
    pub fn by_index_mut(&mut self, idx: usize) -> TaskMut<'_> {
        let task = self.slots[idx]
            .task
            .as_mut()
            .unwrap_or_else(|| panic!("empty task slot {idx}"));
        TaskMut {
            task,
            record: &mut self.lanes.records[idx],
        }
    }

    /// Read access to the packed hot-field mirror.
    #[inline]
    pub fn lanes(&self) -> &HotLanes {
        &self.lanes
    }

    /// Number of live tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total tasks ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.spawned
    }

    /// Iterates over all live tasks (`for_each_task`).
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(|s| s.task.as_ref())
    }

    /// Mutably iterates over all live tasks. Each item is a [`TaskMut`]
    /// guard, so lane lockstep is maintained exactly as for single-task
    /// lookups.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = TaskMut<'_>> {
        self.slots
            .iter_mut()
            .zip(self.lanes.records.iter_mut())
            .filter_map(|(slot, record)| slot.task.as_mut().map(|task| TaskMut { task, record }))
    }

    /// Collects the handles of all live tasks.
    pub fn tids(&self) -> Vec<Tid> {
        self.iter().map(|t| t.tid).collect()
    }

    /// The counter-recalculation loop (paper §3.3.2) as a dense record
    /// sweep: `counter = counter/2 + priority` for every live, non-zombie
    /// task, in slab order. With `clear_rq_zero` the ELSC zero-section
    /// annotation is reset in the same pass (the walk ELSC runs just
    /// before [`merging` the zero sections]). Returns the number of tasks
    /// touched so the caller can charge `RecalcPerTask` for each.
    ///
    /// [`merging` the zero sections]: crate::recalc
    pub fn recalc_counters(&mut self, clear_rq_zero: bool) -> usize {
        const WALK: u8 = LANE_LIVE | LANE_RECALC;
        let mut n = 0;
        for (slot, rec) in self.slots.iter_mut().zip(self.lanes.records.iter_mut()) {
            if rec.flags & WALK != WALK {
                continue;
            }
            let c = (rec.counter >> 1) + rec.priority;
            rec.counter = c;
            let task = slot.task.as_mut().expect("live lane flag on an empty slot");
            task.counter = c;
            if clear_rq_zero {
                task.rq_zero = false;
                rec.flags &= !LANE_RQ_ZERO;
            }
            n += 1;
        }
        n
    }

    /// Asserts that every lane entry mirrors its slab task exactly.
    /// Test support: the lockstep invariant the [`TaskMut`] guard
    /// maintains, checked exhaustively.
    ///
    /// # Panics
    ///
    /// Panics on the first mismatch.
    pub fn assert_lanes_in_lockstep(&self) {
        assert_eq!(self.lanes.len(), self.slots.len(), "lane length drifted");
        for (idx, slot) in self.slots.iter().enumerate() {
            let r = self.lanes.record(idx);
            match &slot.task {
                None => assert!(!r.live(), "slot {idx} is free but its record says live"),
                Some(t) => {
                    assert!(r.live(), "slot {idx} live but its record dead");
                    assert_eq!(r.counter(), t.counter, "counter, slot {idx}");
                    assert_eq!(r.priority(), t.priority, "priority, slot {idx}");
                    assert_eq!(r.rt_priority(), t.rt_priority, "rt_priority, slot {idx}");
                    assert_eq!(r.mm(), t.mm, "mm, slot {idx}");
                    assert_eq!(r.processor(), t.processor, "processor, slot {idx}");
                    assert_eq!(
                        r.is_realtime(),
                        t.policy.class.is_realtime(),
                        "rt flag, slot {idx}"
                    );
                    assert_eq!(r.yielded(), t.policy.yielded, "yield flag, slot {idx}");
                    assert_eq!(r.has_cpu(), t.has_cpu, "has_cpu flag, slot {idx}");
                    assert_eq!(r.rq_zero(), t.rq_zero, "rq_zero flag, slot {idx}");
                    assert_eq!(r.rq_hint(), t.rq_hint, "rq_hint, slot {idx}");
                    assert_eq!(r.next(), t.run_list.next, "next link, slot {idx}");
                    assert_eq!(r.prev(), t.run_list.prev, "prev link, slot {idx}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;

    #[test]
    fn spawn_and_lookup() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::named("a"));
        let b = t.spawn(&TaskSpec::named("b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.task(a).name, "a");
        assert_eq!(t.task(b).name, "b");
        assert_eq!(t.task(a).tid, a);
    }

    #[test]
    fn free_makes_handle_stale() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        assert!(t.get(a).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let b = t.spawn(&TaskSpec::default());
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert!(t.get(a).is_none());
        assert!(t.get(b).is_some());
    }

    #[test]
    #[should_panic(expected = "stale task handle")]
    fn panicking_lookup_on_stale() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let _ = t.task(a);
    }

    #[test]
    #[should_panic(expected = "free of stale")]
    fn double_free_panics() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        t.free(a);
    }

    #[test]
    fn iteration_sees_only_live_tasks() {
        let mut t = TaskTable::new();
        let _a = t.spawn(&TaskSpec::named("a"));
        let b = t.spawn(&TaskSpec::named("b"));
        let _c = t.spawn(&TaskSpec::named("c"));
        t.free(b);
        let names: Vec<_> = t.iter().map(|x| x.name).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(t.tids().len(), 2);
    }

    #[test]
    fn iter_mut_can_update_state() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        for mut task in t.iter_mut() {
            task.state = TaskState::Interruptible;
        }
        assert_eq!(t.task(a).state, TaskState::Interruptible);
    }

    #[test]
    fn spawn_counter_is_lifetime_total() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let _ = t.spawn(&TaskSpec::default());
        assert_eq!(t.total_spawned(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn lanes_mirror_every_mutation_path() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::named("a").priority(30).mm(MmId(7)));
        let b = t.spawn(&TaskSpec::named("b"));
        t.assert_lanes_in_lockstep();

        // Single-task guard.
        {
            let mut g = t.task_mut(a);
            g.counter = 5;
            g.policy.yielded = true;
            g.has_cpu = true;
            g.processor = 3;
            g.rq_hint = 9;
            g.rq_zero = true;
        }
        t.assert_lanes_in_lockstep();
        let r = t.lanes().record(a.index());
        assert_eq!(r.counter(), 5);
        assert_eq!(r.static_goodness(), 35);
        assert!(r.yielded());
        assert!(r.has_cpu());
        assert_eq!(r.processor(), 3);
        assert_eq!(r.rq_hint(), 9);
        assert!(r.rq_zero());
        assert_eq!(r.mm(), MmId(7));

        // Index guard and iteration guard.
        t.by_index_mut(b.index()).state = TaskState::Zombie;
        t.assert_lanes_in_lockstep();
        for mut g in t.iter_mut() {
            g.counter += 1;
        }
        t.assert_lanes_in_lockstep();

        // Free clears the lane.
        t.by_index_mut(b.index()).state = TaskState::Running;
        t.free(b);
        t.assert_lanes_in_lockstep();
        assert!(!t.lanes().record(b.index()).live());
    }

    #[test]
    fn lane_recalc_matches_task_sweep() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(20));
        let z = t.spawn(&TaskSpec::default().priority(10));
        t.task_mut(a).counter = 7;
        t.task_mut(z).state = TaskState::Zombie;
        t.task_mut(z).counter = 4;
        assert_eq!(t.recalc_counters(false), 1, "zombie excluded");
        assert_eq!(t.task(a).counter, 7 / 2 + 20);
        assert_eq!(t.task(z).counter, 4, "corpse untouched");
        t.assert_lanes_in_lockstep();
        // The rq_zero-clearing variant resets the annotation in the pass.
        t.task_mut(a).rq_zero = true;
        t.recalc_counters(true);
        assert!(!t.task(a).rq_zero);
        t.assert_lanes_in_lockstep();
    }

    /// Satellite regression test: generation wraparound and stale-handle
    /// rejection after heavy spawn/free churn — the access pattern the
    /// mega workload exercises at 100k+ tasks.
    #[test]
    fn generation_wraparound_and_stale_rejection_under_churn() {
        let mut t = TaskTable::new();
        // Heavy churn on a small slab: every free slot is reused many
        // times, and a handle retained from each round must go stale.
        let mut retained: Vec<Tid> = Vec::new();
        for round in 0..1000 {
            let tid = t.spawn(&TaskSpec::default());
            if round % 7 == 0 {
                retained.push(tid);
            }
            t.free(tid);
        }
        let fresh = t.spawn(&TaskSpec::default());
        for &old in &retained {
            assert!(t.get(old).is_none(), "stale {old:?} resolved");
            assert!(t.get_mut(old).is_none(), "stale {old:?} resolved mutably");
        }
        assert!(t.get(fresh).is_some());
        t.assert_lanes_in_lockstep();

        // Force the generation counter to the wrap point: free must take
        // u32::MAX -> 0 without panicking, and a handle from the MAX
        // generation must not alias generation 0 of the same slot.
        let mut t = TaskTable::new();
        let seed = t.spawn(&TaskSpec::default());
        t.free(seed);
        // The slot now has gen 1; walk it to u32::MAX by direct churn.
        // Simulating 4 billion frees is too slow, so poke the slot's
        // generation directly (test-only, same-crate access).
        t.slots[seed.index()].gen = u32::MAX;
        let old = t.spawn(&TaskSpec::default());
        assert_eq!(old.generation(), u32::MAX);
        t.free(old); // wraps the slot generation to 0
        let newer = t.spawn(&TaskSpec::default());
        assert_eq!(newer.index(), old.index(), "slot reused across the wrap");
        assert_eq!(newer.generation(), 0, "generation wrapped to zero");
        assert!(t.get(old).is_none(), "pre-wrap handle must be stale");
        assert!(t.get(newer).is_some());
        t.assert_lanes_in_lockstep();
    }
}
