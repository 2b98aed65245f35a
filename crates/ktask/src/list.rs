//! Intrusive circular doubly-linked lists — the kernel's `list_head`.
//!
//! Both run-queue designs are built from the same primitive: the baseline
//! scheduler uses a single list, ELSC an array of 30. The linkage for a
//! task lives *inside* the task (`task.run_list`), exactly as in the
//! kernel, so membership is testable from the task alone:
//!
//! * `next != Nil` — the rest of the kernel considers the task "on the
//!   run queue".
//! * `prev != Nil` — the task is actually linked into some list right now.
//!
//! ELSC exploits the difference: a running task is unlinked from its list
//! but must still look on-queue, so only `prev` is cleared
//! (paper §5.1, footnote 3). [`Lists::remove_keep_next`] implements that.
//!
//! Handles inside links are raw slab indices (`u32`), mirroring kernel
//! pointers; the list only ever contains live tasks, enforced by
//! [`crate::table::TaskTable::free`] refusing to free a linked task.
//!
//! # The dense member index
//!
//! Walking a list chases one dependent link load per task. Banks whose
//! lists only ever grow at the ends (every run queue except ELSC's
//! sectioned table) also keep, per head, a dense array of their members'
//! slab indices in list order, so a scan issues independent loads. Each
//! member carries an *order key*: [`Lists::insert_front`] takes the
//! front key minus one and [`Lists::insert_back`] the back key plus one,
//! so keys increase strictly from front to back and a removal finds its
//! member by binary search. [`Lists::new`] builds such an indexed bank;
//! [`Lists::linked`] builds a link-only bank that also allows the
//! mid-list inserts ([`Lists::insert_before`], [`Lists::insert_after`])
//! an index keyed this way cannot represent.

use std::collections::VecDeque;

use crate::table::TaskTable;
use crate::tid::Tid;

/// One link of an intrusive list node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Link {
    /// NULL: detached (or, for `prev` only, "unlinked while running").
    #[default]
    Nil,
    /// Points at list head number `n`.
    Head(u32),
    /// Points at the task in slab slot `n`.
    Task(u32),
}

impl Link {
    /// Whether this link is NULL.
    #[inline]
    pub fn is_nil(self) -> bool {
        matches!(self, Link::Nil)
    }
}

/// The two links embedded in each task (`struct list_head run_list`) and
/// in each list head.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ListNode {
    /// Forward link.
    pub next: Link,
    /// Backward link.
    pub prev: Link,
}

impl ListNode {
    /// A node linked to nothing.
    #[inline]
    pub const fn detached() -> ListNode {
        ListNode {
            next: Link::Nil,
            prev: Link::Nil,
        }
    }
}

/// A bank of circular doubly-linked lists sharing one set of task nodes.
///
/// The baseline run queue is a `Lists` of size 1; the ELSC table is a
/// `Lists` of size 30.
#[derive(Clone, Debug)]
pub struct Lists {
    heads: Vec<ListNode>,
    /// The dense member index; `None` for a link-only bank.
    index: Option<Index>,
}

/// Dense, list-ordered membership of every head of an indexed bank.
#[derive(Clone, Debug, Default)]
struct Index {
    /// Per head: members' slab indices, front to back.
    members: Vec<VecDeque<u32>>,
    /// Per head: members' order keys, parallel to `members`.
    keys: Vec<VecDeque<i64>>,
    /// Per slab index: `(head, key)` of its current membership.
    place: Vec<(u32, i64)>,
}

impl Index {
    /// Records slab index `idx` as the new front (`front`) or back member
    /// of head `h`.
    fn insert(&mut self, h: usize, idx: u32, front: bool) {
        let keys = &mut self.keys[h];
        let key = if front {
            keys.front().map_or(0, |k| k - 1)
        } else {
            keys.back().map_or(0, |k| k + 1)
        };
        if front {
            keys.push_front(key);
            self.members[h].push_front(idx);
        } else {
            keys.push_back(key);
            self.members[h].push_back(idx);
        }
        let i = idx as usize;
        if self.place.len() <= i {
            self.place.resize(i + 1, (0, 0));
        }
        self.place[i] = (h as u32, key);
    }

    /// Drops slab index `idx` from its head.
    fn remove(&mut self, idx: u32) {
        let (h, key) = self.place[idx as usize];
        let h = h as usize;
        let pos = self.keys[h]
            .binary_search(&key)
            .expect("indexed member missing from its head");
        debug_assert_eq!(self.members[h][pos], idx, "order key names another task");
        self.keys[h].remove(pos);
        self.members[h].remove(pos);
    }
}

impl Lists {
    /// Creates `n` empty lists with the dense member index. Tasks may
    /// only be inserted at the ends of their list.
    pub fn new(n: usize) -> Lists {
        Lists {
            heads: Self::empty_heads(n),
            index: Some(Index {
                members: vec![VecDeque::new(); n],
                keys: vec![VecDeque::new(); n],
                place: Vec::new(),
            }),
        }
    }

    /// Creates `n` empty link-only lists: no dense index, but tasks may
    /// be inserted anywhere (ELSC's sectioned lists).
    pub fn linked(n: usize) -> Lists {
        Lists {
            heads: Self::empty_heads(n),
            index: None,
        }
    }

    /// Kernel INIT_LIST_HEAD: an empty head points at itself.
    fn empty_heads(n: usize) -> Vec<ListNode> {
        (0..n as u32)
            .map(|h| ListNode {
                next: Link::Head(h),
                prev: Link::Head(h),
            })
            .collect()
    }

    /// Number of lists in the bank.
    pub fn nr_lists(&self) -> usize {
        self.heads.len()
    }

    /// Whether the bank keeps the dense member index ([`Lists::new`]).
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The members of list `h` as slab indices, front to back, in two
    /// contiguous runs (the dense index is a ring buffer).
    ///
    /// # Panics
    ///
    /// Panics on a link-only bank ([`Lists::linked`]).
    #[inline]
    pub fn members(&self, h: usize) -> (&[u32], &[u32]) {
        self.dense().members[h].as_slices()
    }

    /// Number of tasks in list `h`, from the dense index.
    ///
    /// # Panics
    ///
    /// Panics on a link-only bank ([`Lists::linked`]).
    #[inline]
    pub fn count(&self, h: usize) -> usize {
        self.dense().members[h].len()
    }

    /// The dense index of an indexed bank.
    #[inline]
    fn dense(&self) -> &Index {
        self.index
            .as_ref()
            .expect("dense member index of a link-only bank")
    }

    /// Reads the node a link points to.
    fn node(&self, tasks: &TaskTable, l: Link) -> ListNode {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize],
            Link::Task(i) => tasks.by_index(i as usize).run_list,
        }
    }

    /// Writes the forward link of the node `l` points to.
    fn set_next(&mut self, tasks: &mut TaskTable, l: Link, v: Link) {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize].next = v,
            Link::Task(i) => tasks.by_index_mut(i as usize).run_list.next = v,
        }
    }

    /// Writes the backward link of the node `l` points to.
    fn set_prev(&mut self, tasks: &mut TaskTable, l: Link, v: Link) {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize].prev = v,
            Link::Task(i) => tasks.by_index_mut(i as usize).run_list.prev = v,
        }
    }

    /// Links `tid` between two adjacent nodes (`__list_add`).
    fn insert_between(&mut self, tasks: &mut TaskTable, tid: Tid, before: Link, after: Link) {
        let me = Link::Task(tid.index() as u32);
        {
            let mut t = tasks.task_mut(tid);
            debug_assert!(!t.in_list(), "inserting {} while already linked", t.name);
            t.run_list = ListNode {
                next: after,
                prev: before,
            };
        }
        self.set_next(tasks, before, me);
        self.set_prev(tasks, after, me);
    }

    /// Adds `tid` at the front of list `h` (`list_add`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the task is already linked.
    pub fn insert_front(&mut self, tasks: &mut TaskTable, h: usize, tid: Tid) {
        let head = Link::Head(h as u32);
        let first = self.heads[h].next;
        self.insert_between(tasks, tid, head, first);
        if let Some(index) = &mut self.index {
            index.insert(h, tid.index() as u32, true);
        }
    }

    /// Adds `tid` at the back of list `h` (`list_add_tail`).
    pub fn insert_back(&mut self, tasks: &mut TaskTable, h: usize, tid: Tid) {
        let head = Link::Head(h as u32);
        let last = self.heads[h].prev;
        self.insert_between(tasks, tid, last, head);
        if let Some(index) = &mut self.index {
            index.insert(h, tid.index() as u32, false);
        }
    }

    /// Inserts `tid` immediately after the node `anchor` points at.
    ///
    /// # Panics
    ///
    /// Panics on an indexed bank: a mid-list insert has no order key.
    pub fn insert_after(&mut self, tasks: &mut TaskTable, anchor: Link, tid: Tid) {
        assert!(!self.is_indexed(), "mid-list insert into an indexed bank");
        let after = self.node(tasks, anchor).next;
        self.insert_between(tasks, tid, anchor, after);
    }

    /// Inserts `tid` immediately before the node `anchor` points at.
    ///
    /// # Panics
    ///
    /// Panics on an indexed bank: a mid-list insert has no order key.
    pub fn insert_before(&mut self, tasks: &mut TaskTable, anchor: Link, tid: Tid) {
        assert!(!self.is_indexed(), "mid-list insert into an indexed bank");
        let before = self.node(tasks, anchor).prev;
        self.insert_between(tasks, tid, before, anchor);
    }

    /// Unlinks `tid` and fully detaches its node (`list_del` followed by
    /// NULLing both pointers — the baseline `del_from_runqueue`, which
    /// NULLs `next` to mean "off the run queue").
    ///
    /// # Panics
    ///
    /// Panics if the task is not linked.
    pub fn remove(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.unlink(tasks, tid);
        tasks.task_mut(tid).run_list = ListNode::detached();
    }

    /// Unlinks `tid` but clears only `prev`, leaving `next` dangling
    /// non-NULL so the task still *looks* on-queue — ELSC's manual removal
    /// of the task it is about to run (paper §5.2).
    ///
    /// # Panics
    ///
    /// Panics if the task is not linked.
    pub fn remove_keep_next(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.unlink(tasks, tid);
        // `next` intentionally left stale (non-Nil); `prev` marks off-list.
        tasks.task_mut(tid).run_list.prev = Link::Nil;
    }

    /// Common unlink: points neighbours at each other (`__list_del`).
    fn unlink(&mut self, tasks: &mut TaskTable, tid: Tid) {
        let node = tasks.task(tid).run_list;
        assert!(
            !node.prev.is_nil() && !node.next.is_nil(),
            "unlink of task not in a list"
        );
        self.set_next(tasks, node.prev, node.next);
        self.set_prev(tasks, node.next, node.prev);
        if let Some(index) = &mut self.index {
            index.remove(tid.index() as u32);
        }
    }

    /// First task of list `h`, if any.
    pub fn first(&self, h: usize) -> Option<u32> {
        match self.heads[h].next {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => unreachable!("corrupt list head"),
        }
    }

    /// Last task of list `h`, if any.
    pub fn last(&self, h: usize) -> Option<u32> {
        match self.heads[h].prev {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => unreachable!("corrupt list head"),
        }
    }

    /// Whether list `h` is empty.
    pub fn is_empty(&self, h: usize) -> bool {
        matches!(self.heads[h].next, Link::Head(_))
    }

    /// The task after `idx` in its list, or `None` at the end.
    ///
    /// Reads the link from the [`HotLanes`](crate::table::HotLanes)
    /// mirror — the walks that call this per-candidate stay inside the
    /// packed records instead of touching the full task structs.
    pub fn next_task(&self, tasks: &TaskTable, idx: u32) -> Option<u32> {
        match tasks.lanes().record(idx as usize).next() {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => panic!("walking from a detached node"),
        }
    }

    /// Collects the slab indices of all tasks in list `h`, front to back.
    ///
    /// Walks the links; intended for tests, assertions, and the paper's
    /// "test routines" rather than hot paths.
    pub fn collect(&self, tasks: &TaskTable, h: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.heads[h].next;
        loop {
            match cur {
                Link::Head(hh) => {
                    debug_assert_eq!(hh as usize, h, "list crossed into another head");
                    break;
                }
                Link::Task(i) => {
                    out.push(i);
                    assert!(
                        out.len() <= tasks.len(),
                        "list {h} longer than the task table: cycle"
                    );
                    cur = tasks.by_index(i as usize).run_list.next;
                }
                Link::Nil => panic!("NULL link inside list {h}"),
            }
        }
        out
    }

    /// Number of tasks in list `h` (walks the list).
    pub fn len(&self, tasks: &TaskTable, h: usize) -> usize {
        self.collect(tasks, h).len()
    }

    /// Verifies the structural invariants of list `h`: forward and
    /// backward walks agree, and every membership flag is consistent.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn check(&self, tasks: &TaskTable, h: usize) {
        let fwd = self.collect(tasks, h);
        // Backward walk.
        let mut back = Vec::new();
        let mut cur = self.heads[h].prev;
        loop {
            match cur {
                Link::Head(hh) => {
                    assert_eq!(hh as usize, h);
                    break;
                }
                Link::Task(i) => {
                    back.push(i);
                    assert!(back.len() <= tasks.len(), "backward cycle in list {h}");
                    cur = tasks.by_index(i as usize).run_list.prev;
                }
                Link::Nil => panic!("NULL prev link inside list {h}"),
            }
        }
        back.reverse();
        assert_eq!(fwd, back, "forward and backward walks disagree on list {h}");
        if let Some(index) = &self.index {
            assert!(
                index.members[h].iter().eq(fwd.iter()),
                "dense index disagrees with the links of list {h}"
            );
            let keys = &index.keys[h];
            assert!(
                keys.iter().zip(keys.iter().skip(1)).all(|(a, b)| a < b),
                "order keys of list {h} not strictly increasing"
            );
            for (&i, &k) in fwd.iter().zip(keys) {
                assert_eq!(index.place[i as usize], (h as u32, k), "stale place of {i}");
            }
        }
        for &i in &fwd {
            let t = tasks.by_index(i as usize);
            assert!(t.in_list(), "{} linked but prev is NULL", t.name);
            assert!(t.on_runqueue(), "{} linked but next is NULL", t.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn setup(n_lists: usize, n_tasks: usize) -> (Lists, TaskTable, Vec<Tid>) {
        let lists = Lists::new(n_lists);
        let mut tasks = TaskTable::new();
        let tids = (0..n_tasks)
            .map(|_| tasks.spawn(&TaskSpec::default()))
            .collect();
        (lists, tasks, tids)
    }

    #[test]
    fn new_lists_are_empty() {
        let (l, t, _) = setup(3, 0);
        for h in 0..3 {
            assert!(l.is_empty(h));
            assert_eq!(l.first(h), None);
            assert_eq!(l.last(h), None);
            assert_eq!(l.len(&t, h), 0);
            l.check(&t, h);
        }
    }

    #[test]
    fn insert_front_orders_lifo() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_front(&mut t, 0, tid);
        }
        let got = l.collect(&t, 0);
        let want: Vec<u32> = tids.iter().rev().map(|t| t.index() as u32).collect();
        assert_eq!(got, want);
        l.check(&t, 0);
    }

    #[test]
    fn insert_back_orders_fifo() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_back(&mut t, 0, tid);
        }
        let got = l.collect(&t, 0);
        let want: Vec<u32> = tids.iter().map(|t| t.index() as u32).collect();
        assert_eq!(got, want);
        assert_eq!(l.first(0), Some(tids[0].index() as u32));
        assert_eq!(l.last(0), Some(tids[2].index() as u32));
    }

    #[test]
    fn remove_middle_relinks_neighbours() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_back(&mut t, 0, tid);
        }
        l.remove(&mut t, tids[1]);
        assert_eq!(
            l.collect(&t, 0),
            vec![tids[0].index() as u32, tids[2].index() as u32]
        );
        assert!(!t.task(tids[1]).on_runqueue());
        assert!(!t.task(tids[1]).in_list());
        l.check(&t, 0);
    }

    #[test]
    fn remove_only_element_empties_list() {
        let (mut l, mut t, tids) = setup(1, 1);
        l.insert_front(&mut t, 0, tids[0]);
        l.remove(&mut t, tids[0]);
        assert!(l.is_empty(0));
        l.check(&t, 0);
    }

    #[test]
    fn remove_keep_next_leaves_on_queue_marker() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        l.remove_keep_next(&mut t, tids[0]);
        // Task 0 is off the list but still "on the run queue".
        let task = t.task(tids[0]);
        assert!(task.on_runqueue(), "next must stay non-NULL");
        assert!(!task.in_list(), "prev must be NULL");
        assert_eq!(l.collect(&t, 0), vec![tids[1].index() as u32]);
        l.check(&t, 0);
    }

    #[test]
    fn insert_after_and_before() {
        let (_, mut t, tids) = setup(1, 3);
        let mut l = Lists::linked(1);
        l.insert_back(&mut t, 0, tids[0]);
        let anchor = Link::Task(tids[0].index() as u32);
        l.insert_after(&mut t, anchor, tids[1]);
        l.insert_before(&mut t, anchor, tids[2]);
        assert_eq!(
            l.collect(&t, 0),
            vec![
                tids[2].index() as u32,
                tids[0].index() as u32,
                tids[1].index() as u32
            ]
        );
        l.check(&t, 0);
    }

    #[test]
    #[should_panic(expected = "mid-list insert into an indexed bank")]
    fn indexed_bank_rejects_mid_list_inserts() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_before(&mut t, Link::Task(tids[0].index() as u32), tids[1]);
    }

    #[test]
    fn dense_index_follows_list_order() {
        let (mut l, mut t, tids) = setup(2, 5);
        l.insert_front(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        l.insert_front(&mut t, 0, tids[2]);
        l.insert_back(&mut t, 1, tids[3]);
        l.insert_back(&mut t, 0, tids[4]);
        l.remove(&mut t, tids[1]);
        l.remove_keep_next(&mut t, tids[0]);
        let dense = |l: &Lists, h| {
            let (a, b) = l.members(h);
            [a, b].concat()
        };
        assert_eq!(dense(&l, 0), l.collect(&t, 0));
        assert_eq!(
            dense(&l, 0),
            vec![tids[2].index() as u32, tids[4].index() as u32]
        );
        assert_eq!(l.count(0), 2);
        assert_eq!(dense(&l, 1), vec![tids[3].index() as u32]);
        l.check(&t, 0);
        l.check(&t, 1);
        assert!(l.is_indexed());
        assert!(!Lists::linked(1).is_indexed());
    }

    #[test]
    fn lists_in_bank_are_independent() {
        let (mut l, mut t, tids) = setup(2, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 1, tids[1]);
        assert_eq!(l.collect(&t, 0), vec![tids[0].index() as u32]);
        assert_eq!(l.collect(&t, 1), vec![tids[1].index() as u32]);
        l.remove(&mut t, tids[0]);
        assert!(l.is_empty(0));
        assert!(!l.is_empty(1));
    }

    #[test]
    fn next_task_walks_forward() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        let first = l.first(0).unwrap();
        let second = l.next_task(&t, first).unwrap();
        assert_eq!(second, tids[1].index() as u32);
        assert_eq!(l.next_task(&t, second), None);
    }

    #[test]
    #[should_panic(expected = "not in a list")]
    fn removing_detached_task_panics() {
        let (mut l, mut t, tids) = setup(1, 1);
        l.remove(&mut t, tids[0]);
    }

    #[test]
    fn reinsertion_after_remove_keep_next_works() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        l.remove_keep_next(&mut t, tids[0]);
        // Re-inserting requires clearing the stale next first, which is
        // what the schedulers do before calling insert_*.
        t.task_mut(tids[0]).run_list = ListNode::detached();
        l.insert_back(&mut t, 0, tids[0]);
        assert_eq!(
            l.collect(&t, 0),
            vec![tids[1].index() as u32, tids[0].index() as u32]
        );
        l.check(&t, 0);
    }

    #[test]
    fn many_random_ops_hold_invariants() {
        // A miniature stress test; the full property test lives in the
        // crate's proptest suite.
        let (mut l, mut t, tids) = setup(4, 16);
        let mut in_list = vec![None::<usize>; 16];
        let mut x: u64 = 0x12345;
        for step in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (x >> 33) as usize % 16;
            let tid = tids[pick];
            match in_list[pick] {
                None => {
                    let h = step % 4;
                    if step % 2 == 0 {
                        l.insert_front(&mut t, h, tid);
                    } else {
                        l.insert_back(&mut t, h, tid);
                    }
                    in_list[pick] = Some(h);
                }
                Some(_) => {
                    l.remove(&mut t, tid);
                    in_list[pick] = None;
                }
            }
            if step % 97 == 0 {
                for h in 0..4 {
                    l.check(&t, h);
                }
            }
        }
        let total: usize = (0..4).map(|h| l.len(&t, h)).sum();
        assert_eq!(total, in_list.iter().filter(|s| s.is_some()).count());
    }
}
