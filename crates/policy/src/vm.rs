//! The bytecode VM: the default execution backend for `.pol` hooks.
//!
//! `run_chunk` executes one compiled hook body ([`Chunk`]) with the
//! tree-walking interpreter's exact observable semantics:
//!
//! * **Same decisions** — picks, placements, and requeues are computed
//!   by the identical shared host semantics (`host_call`, `binop`, the
//!   `recalc`/`set_counter` effects in [`sched`](crate::sched)), so the
//!   two backends cannot drift.
//! * **Same charges** — each instruction's batched
//!   [`cost`](crate::bytecode::Insn::cost) is added to the instruction
//!   count *before* the op runs; a blowout reports `insns == budget+1`
//!   exactly like the interpreter's one-at-a-time `charge()`, and the
//!   aborted hook has performed precisely the side effects the
//!   interpreter would have performed (only pure register traffic can
//!   sit between the interpreter's true trip point and the VM's
//!   op-boundary trip).
//! * **Same watchdog surface** — violations are returned through the
//!   same `HookRun` the machine's ejection logic consumes.
//!
//! The register file and the foreach iterator frames live in a
//! `VmState` owned by the scheduler and reused across decisions, so
//! steady-state dispatch performs no heap allocation (list snapshots
//! walk `Lists::first`/`next_task` into retained buffers).

use elsc_ktask::{Lists, Tid};
use elsc_sched_api::{Decider, PolicyViolation, SchedCtx};

use crate::ast::HostFn;
use crate::bytecode::{Chunk, Op, BINOPS, BUILTIN_REGS, HOSTFNS, NO_ARG};
use crate::sched::{binop, host_call, set_counter_effect, wrap_list, Env, HookRun, Val};

/// One `foreach` nesting level: the snapshot taken at `for.begin` and
/// the walk cursor.
#[derive(Default)]
struct IterFrame {
    snap: Vec<Tid>,
    idx: usize,
}

/// Reusable VM execution state (register file + iterator frames),
/// persisted in the scheduler across hook invocations.
#[derive(Default)]
pub(crate) struct VmState {
    regs: Vec<Val>,
    iters: Vec<IterFrame>,
}

/// Executes one compiled hook body against the host context.
pub(crate) fn run_chunk(
    chunk: &Chunk,
    lists: &Lists,
    ctx: &mut SchedCtx<'_>,
    mut env: Env,
    budget: u64,
    state: &mut VmState,
) -> HookRun {
    debug_assert!(chunk.num_regs >= BUILTIN_REGS);
    if state.regs.len() < chunk.num_regs as usize {
        state.regs.resize(chunk.num_regs as usize, Val::Int(0));
    }
    if state.iters.len() < chunk.num_iters as usize {
        state
            .iters
            .resize_with(chunk.num_iters as usize, IterFrame::default);
    }
    // Builtins are invocation constants: pre-load them once so a
    // builtin reference costs one register read.
    state.regs[0] = Val::Int(env.cpu as i64);
    state.regs[1] = Val::Task(env.prev);
    state.regs[2] = Val::Task(env.idle);
    state.regs[3] = Val::Task(env.task);
    state.regs[4] = Val::Task(None);
    state.regs[5] = Val::Int(env.nr_cpus as i64);
    state.regs[6] = Val::Int(lists.nr_lists() as i64);
    state.regs[7] = Val::Int(env.nr_running as i64);

    let mut insns: u64 = 0;
    let mut picked: Option<Option<Tid>> = None;
    let mut placed: Option<(usize, bool)> = None;
    let mut requeued: Vec<Tid> = Vec::new();
    let mut pc: usize = 0;

    // Ends the run with `$v` as the violation (side effects performed
    // so far — placements, requeues, charges — are kept, exactly like
    // an interpreter abort).
    macro_rules! finish {
        ($v:expr) => {
            return HookRun {
                insns,
                picked,
                placed,
                requeued,
                violation: $v,
            }
        };
    }
    // A budget blowout: the interpreter charges one node at a time and
    // always trips at exactly `budget + 1`, so the batched count is
    // normalized to that same value.
    macro_rules! blown {
        () => {{
            insns = budget + 1;
            finish!(Some(PolicyViolation::BudgetExhausted {
                insns: budget + 1,
                budget,
            }));
        }};
    }
    macro_rules! int {
        ($v:expr) => {
            match $v {
                Val::Int(n) => n,
                Val::Task(_) => finish!(Some(PolicyViolation::StateCorrupt)),
            }
        };
    }
    macro_rules! task {
        ($v:expr) => {
            match $v {
                Val::Task(t) => t,
                Val::Int(_) => finish!(Some(PolicyViolation::StateCorrupt)),
            }
        };
    }

    loop {
        let i = chunk.code[pc];
        if i.cost != 0 {
            insns += u64::from(i.cost);
            if insns > budget {
                blown!();
            }
        }
        let a = i.a as usize;
        let b = i.b as usize;
        match i.op {
            Op::Const | Op::RepeatInit => {
                state.regs[a] = Val::Int(chunk.consts[b]);
            }
            Op::Mov => {
                state.regs[a] = state.regs[b];
            }
            Op::Bin => {
                let l = state.regs[b];
                let r = state.regs[i.c as usize];
                match binop(BINOPS[i.d as usize], l, r) {
                    Ok(v) => state.regs[a] = v,
                    Err(v) => finish!(Some(v)),
                }
            }
            Op::Jmp => {
                pc = a;
                continue;
            }
            Op::Jz => {
                if int!(state.regs[a]) == 0 {
                    pc = b;
                    continue;
                }
            }
            Op::Call => {
                let arg = (i.b != NO_ARG).then(|| state.regs[b]);
                state.regs[a] = host_call(ctx, lists, &mut env, HOSTFNS[i.d as usize], arg);
            }
            Op::RepeatNext => {
                let n = int!(state.regs[a]) - 1;
                state.regs[a] = Val::Int(n);
                if n > 0 {
                    pc = b;
                    continue;
                }
            }
            Op::ForBegin => {
                let h = wrap_list(int!(state.regs[b]), lists.nr_lists());
                let frame = &mut state.iters[a];
                // Snapshot: hooks never mutate lists (placement and
                // rotation are deferred to the host), so the walk order
                // is the list order at hook entry.
                frame.snap.clear();
                frame.idx = 0;
                let mut cur = lists.first(h);
                while let Some(idx) = cur {
                    frame.snap.push(ctx.tasks.by_index(idx as usize).tid);
                    cur = lists.next_task(ctx.tasks, idx);
                }
            }
            Op::ForNext => {
                let frame = &mut state.iters[a];
                if frame.idx < frame.snap.len() {
                    let tid = frame.snap[frame.idx];
                    frame.idx += 1;
                    state.regs[b] = Val::Task(Some(tid));
                } else {
                    pc = i.c as usize;
                    continue;
                }
            }
            Op::Pick => {
                picked = Some(task!(state.regs[a]));
                finish!(None);
            }
            Op::Place => {
                // The last placement executed wins.
                placed = Some((wrap_list(int!(state.regs[a]), lists.nr_lists()), i.b == 1));
            }
            Op::Requeue => {
                if let Some(tid) = task!(state.regs[a]) {
                    requeued.push(tid);
                }
            }
            Op::SetCounter => {
                let t = task!(state.regs[a]);
                let v = int!(state.regs[b]);
                set_counter_effect(ctx, t, v);
            }
            Op::Recalc => {
                ctx.recalculate(env.cpu, env.nr_running);
            }
            Op::Halt => {
                finish!(None);
            }
            Op::ScanFilter => {
                // Pure predicate (can_schedule/runnable): no meter
                // charges, so fusing it costs nothing observably.
                let v = host_call(
                    ctx,
                    lists,
                    &mut env,
                    HOSTFNS[i.d as usize],
                    Some(state.regs[a]),
                );
                if int!(v) == 0 {
                    pc = b;
                    continue;
                }
            }
            Op::GtUpdate2 => {
                let g = int!(state.regs[a]);
                let best = int!(state.regs[b]);
                if g > best {
                    // The taken branch's interpreter charge: two
                    // assignment statements + two source nodes.
                    insns += 4;
                    if insns > budget {
                        blown!();
                    }
                    state.regs[b] = Val::Int(g);
                    state.regs[i.c as usize] = state.regs[i.d as usize];
                }
            }
            Op::PickIfNe0 => {
                if int!(state.regs[a]) != 0 {
                    // The taken pick's interpreter charge: the pick
                    // statement + its operand node.
                    insns += 2;
                    if insns > budget {
                        blown!();
                    }
                    picked = Some(task!(state.regs[b]));
                    finish!(None);
                }
            }
            Op::ScanBest => {
                // The whole selection loop in one native dispatch. No
                // snapshot is needed: hooks defer every list mutation
                // to the host, and the filter/score host calls only
                // read.
                let filter = HOSTFNS[(i.d & 0xff) as usize];
                let score = HOSTFNS[(i.d >> 8) as usize];
                let h = wrap_list(int!(state.regs[a]), lists.nr_lists());
                // The hot shape (`can_schedule` filter, `goodness`
                // score) runs as one shared `scan_best` pass when it
                // cannot blow the budget — a member costs at most
                // 3 + 3 + 4 + 4 = 14 instructions — and the best-so-far
                // register holds an i32. The interpreter's per-node
                // schedule is then charged in one sum: 3 per member
                // walked (guard), 7 per member examined (let + compare)
                // and 4 per improvement (the two assignments).
                let floor = match state.regs[b] {
                    Val::Int(v) => i32::try_from(v).ok(),
                    Val::Task(_) => None,
                };
                if let Some(floor) = floor.filter(|_| {
                    filter == HostFn::CanSchedule
                        && score == HostFn::Goodness
                        && insns + 14 * lists.count(h) as u64 <= budget
                }) {
                    let decider = Decider {
                        cfg: ctx.cfg,
                        cpu: env.cpu,
                        prev: env.prev,
                        prev_mm: env.prev_mm,
                    };
                    let scan = ctx.scan(lists, h, &decider, floor);
                    insns += 3 * scan.walked + 7 * scan.examined + 4 * scan.updates;
                    if let Some(winner) = scan.winner {
                        state.regs[b] = Val::Int(i64::from(scan.goodness));
                        state.regs[i.c as usize] = Val::Task(Some(winner));
                    }
                    pc += 1;
                    continue;
                }
                // Otherwise the exact per-node path: charges follow the
                // interpreter's schedule, with the budget checked before
                // each side-effecting host call (the score's meter
                // charge and examined-task count must not happen on a
                // decision the interpreter would already have aborted).
                let mut cur = lists.first(h);
                while let Some(idx) = cur {
                    let tid = ctx.tasks.by_index(idx as usize).tid;
                    cur = lists.next_task(ctx.tasks, idx);
                    // Guard if-stmt + call node + arg node.
                    insns += 3;
                    if insns > budget {
                        blown!();
                    }
                    let t = Some(Val::Task(Some(tid)));
                    if int!(host_call(ctx, lists, &mut env, filter, t)) == 0 {
                        continue;
                    }
                    // let-stmt + call node + arg node, then the score.
                    insns += 3;
                    if insns > budget {
                        blown!();
                    }
                    let g = host_call(ctx, lists, &mut env, score, t);
                    // Inner if-stmt + Gt node + both operand nodes.
                    insns += 4;
                    if insns > budget {
                        blown!();
                    }
                    let g = int!(g);
                    if g > int!(state.regs[b]) {
                        // Two assignments + their source nodes.
                        insns += 4;
                        if insns > budget {
                            blown!();
                        }
                        state.regs[b] = Val::Int(g);
                        state.regs[i.c as usize] = Val::Task(Some(tid));
                    }
                }
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{binop_index, hostfn_index, Insn};
    use crate::sched::PolicyScheduler;
    use elsc_ktask::{CpuId, MmId, TaskSpec, TaskTable};
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    use crate::ast::{BinOp, HostFn};

    /// A minimal host rig for driving hand-built chunks.
    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        lists: Lists,
        state: VmState,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                tasks: TaskTable::new(),
                stats: SchedStats::new(1),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg: SchedConfig::up(),
                lists: Lists::new(2),
                state: VmState::default(),
            }
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            self.tasks.spawn(&TaskSpec::named(name))
        }

        fn env(&self, cpu: CpuId) -> Env {
            Env {
                cpu,
                prev: None,
                idle: None,
                task: None,
                prev_mm: MmId::KERNEL,
                prev_yielded: false,
                nr_running: 0,
                nr_cpus: 1,
            }
        }

        fn run(&mut self, chunk: &Chunk, env: Env, budget: u64) -> HookRun {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            run_chunk(chunk, &self.lists, &mut ctx, env, budget, &mut self.state)
        }
    }

    fn insn(op: Op, cost: u16, a: u16, b: u16, c: u16, d: u16) -> Insn {
        Insn {
            op,
            cost,
            a,
            b,
            c,
            d,
        }
    }

    fn chunk(code: Vec<Insn>, consts: Vec<i64>, num_regs: u16, num_iters: u8) -> Chunk {
        Chunk {
            code,
            consts,
            num_regs,
            num_iters,
        }
    }

    #[test]
    fn const_mov_bin_compute_and_set_counter_applies() {
        // r8 = 20; r9 = 2; r11 = r9; r10 = r8 + r11; set_counter(task, r10)
        // (22 stays under the set_counter clamp of 2 * priority = 40.)
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Const, 1, 9, 1, 0, 0),
                insn(Op::Mov, 1, 11, 9, 0, 0),
                insn(Op::Bin, 1, 10, 8, 11, binop_index(BinOp::Add)),
                insn(Op::SetCounter, 1, 3, 10, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![20, 2],
            12,
            0,
        );
        let mut rig = Rig::new();
        let t = rig.spawn("t");
        let mut env = rig.env(0);
        env.task = Some(t);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.insns, 5);
        assert_eq!(rig.tasks.task(t).counter, 22);
    }

    #[test]
    fn jz_takes_the_zero_branch_and_jmp_skips() {
        // r8 = 0; jz r8 -> 4 (skips the bad set_counter); halt
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Jz, 1, 8, 4, 0, 0),
                insn(Op::Const, 1, 9, 1, 0, 0),
                insn(Op::SetCounter, 1, 3, 9, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 7],
            10,
            0,
        );
        let mut rig = Rig::new();
        let t = rig.spawn("t");
        let before = rig.tasks.task(t).counter;
        let mut env = rig.env(0);
        env.task = Some(t);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(
            rig.tasks.task(t).counter,
            before,
            "branch skipped the write"
        );
    }

    #[test]
    fn repeat_ops_loop_the_declared_count() {
        // ctr = 5; body: r9 = r9 + 1 (r9 starts 0 via const); repeat.next
        let c = chunk(
            vec![
                insn(Op::Const, 1, 9, 0, 0, 0),
                insn(Op::RepeatInit, 1, 8, 1, 0, 0),
                insn(Op::Const, 1, 10, 2, 0, 0),
                insn(Op::Bin, 1, 9, 9, 10, binop_index(BinOp::Add)),
                insn(Op::RepeatNext, 0, 8, 2, 0, 0),
                insn(Op::SetCounter, 1, 3, 9, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 5, 1],
            11,
            0,
        );
        let mut rig = Rig::new();
        let t = rig.spawn("t");
        let mut env = rig.env(0);
        env.task = Some(t);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(rig.tasks.task(t).counter, 5, "body ran exactly count times");
    }

    #[test]
    fn foreach_ops_walk_the_snapshot_in_list_order() {
        // foreach t in list(0) { requeue_back(t) } — observe the order.
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::ForBegin, 1, 0, 8, 0, 0),
                insn(Op::ForNext, 0, 0, 9, 5, 0),
                insn(Op::Requeue, 1, 9, 0, 0, 0),
                insn(Op::Jmp, 0, 2, 0, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0],
            10,
            1,
        );
        let mut rig = Rig::new();
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.lists.insert_back(&mut rig.tasks, 0, a);
        rig.lists.insert_back(&mut rig.tasks, 0, b);
        let env = rig.env(0);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.requeued, vec![a, b], "front-to-back walk");
    }

    #[test]
    fn pick_halts_and_place_last_wins() {
        // place back 0; place front 1; pick task
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Place, 1, 8, 0, 0, 0),
                insn(Op::Const, 1, 8, 1, 0, 0),
                insn(Op::Place, 1, 8, 1, 0, 0),
                insn(Op::Pick, 1, 3, 0, 0, 0),
                insn(Op::SetCounter, 1, 3, 8, 0, 0), // unreachable
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 1],
            9,
            0,
        );
        let mut rig = Rig::new();
        let t = rig.spawn("t");
        let before = rig.tasks.task(t).counter;
        let mut env = rig.env(0);
        env.task = Some(t);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.picked, Some(Some(t)));
        assert_eq!(run.placed, Some((1, true)), "last placement wins");
        assert_eq!(run.insns, 5, "nothing after pick executes");
        assert_eq!(rig.tasks.task(t).counter, before);
    }

    #[test]
    fn call_dispatches_host_functions_and_counts_charges() {
        // r8 = counter(task); set_counter(task, r8 + 1)
        let c = chunk(
            vec![
                insn(Op::Call, 2, 8, 3, 0, hostfn_index(HostFn::Counter)),
                insn(Op::Const, 1, 9, 0, 0, 0),
                insn(Op::Bin, 1, 10, 8, 9, binop_index(BinOp::Add)),
                insn(Op::SetCounter, 1, 3, 10, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![1],
            11,
            0,
        );
        let mut rig = Rig::new();
        let t = rig.spawn("t");
        let before = rig.tasks.task(t).counter;
        let mut env = rig.env(0);
        env.task = Some(t);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(rig.tasks.task(t).counter, before + 1);
    }

    #[test]
    fn budget_blowout_normalizes_to_budget_plus_one() {
        // An infinite loop of cost-1 ops must trip at exactly budget+1
        // even though the batch boundaries don't align with the budget.
        let c = chunk(
            vec![insn(Op::Const, 3, 8, 0, 0, 0), insn(Op::Jmp, 0, 0, 0, 0, 0)],
            vec![0],
            9,
            0,
        );
        let mut rig = Rig::new();
        let env = rig.env(0);
        let run = rig.run(&c, env, 10);
        assert_eq!(
            run.violation,
            Some(PolicyViolation::BudgetExhausted {
                insns: 11,
                budget: 10
            })
        );
        assert_eq!(
            run.insns, 11,
            "insns normalized exactly like the interpreter"
        );
    }

    #[test]
    fn reg_pol_compiles_to_fused_superinstructions() {
        let sched =
            PolicyScheduler::load_str(include_str!("../../../policies/reg.pol"), 1).unwrap();
        let chunk = sched
            .compiled()
            .expect("bundled policy compiles")
            .chunk(crate::ast::HookKind::PickNext)
            .expect("reg.pol defines pick_next");
        let has = |op: Op| chunk.code.iter().any(|i| i.op == op);
        assert!(has(Op::ScanFilter), "prev-check guard fused");
        assert!(has(Op::ScanBest), "the whole selection loop fused");
        assert!(has(Op::PickIfNe0), "conditional pick fused");
        assert!(
            !has(Op::ForBegin) && !has(Op::GtUpdate2),
            "the scan loop is absorbed into scan.best"
        );
    }

    /// The fused selection loop picks the same winner, charges the same
    /// instruction schedule, and aborts at the same budget cutoffs as
    /// the unfused path (which the differential suite pins against the
    /// interpreter).
    #[test]
    fn scan_best_walks_the_list_and_tracks_the_max() {
        // r8 = list 0; r9 = best (-1000); r10 = winner (nil);
        // scan.best; halt — then inspect r9/r10 via set_counter/requeue.
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(
                    Op::ScanBest,
                    2,
                    8,
                    9,
                    10,
                    hostfn_index(HostFn::CanSchedule) | (hostfn_index(HostFn::Counter) << 8),
                ),
                insn(Op::Requeue, 1, 10, 0, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0],
            11,
            0,
        );
        let mut rig = Rig::new();
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 3;
        rig.tasks.task_mut(b).counter = 9;
        rig.lists.insert_back(&mut rig.tasks, 0, a);
        rig.lists.insert_back(&mut rig.tasks, 0, b);
        let mut env = rig.env(0);
        env.nr_running = 2;
        // Seed best below both counters so each item updates it once.
        rig.state.regs.resize(11, Val::Int(0));
        rig.state.regs[9] = Val::Int(-1000);
        let run = rig.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.requeued, vec![b], "highest counter wins");
        // 1 (const) + 2 (scan entry) + per item 3+3+4, +4 on each new
        // best (both items beat the seed), + 1 (requeue).
        assert_eq!(run.insns, 1 + 2 + 2 * (3 + 3 + 4 + 4) + 1);

        // Budget cutoffs abort mid-walk with insns == budget + 1.
        for budget in 1..(1 + 2 + 2 * 14) {
            let mut rig2 = Rig::new();
            let a2 = rig2.spawn("a");
            rig2.tasks.task_mut(a2).counter = 3;
            rig2.lists.insert_back(&mut rig2.tasks, 0, a2);
            let env2 = rig2.env(0);
            let run = rig2.run(&c, env2, budget as u64);
            if let Some(PolicyViolation::BudgetExhausted { insns, .. }) = run.violation {
                assert_eq!(insns, budget as u64 + 1);
            }
        }
    }
}
