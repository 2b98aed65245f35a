//! The cycle-charged interpreter and the [`PolicyScheduler`] bridge.
//!
//! A verified [`Program`] runs behind the ordinary
//! [`Scheduler`] trait: the host performs the parts of `schedule()` the
//! kernel performs outside the selection loop (blocking `prev` leaves
//! the queue, `SCHED_RR` quantum refresh, `SCHED_YIELD` consumption,
//! the `has_cpu` hand-over), and the `.pol` hooks decide *ordering and
//! selection* only.
//!
//! Safety at run time rests on three mechanisms:
//!
//! * **Cycle charging** — every executed IR node charges one
//!   `CostKind::PolicyInsn` into the decision's cycle meter, so
//!   interpreted policies pay a realistic overhead in every figure.
//! * **The instruction budget** — even a verified hook is bounded by a
//!   per-decision budget ([`DEFAULT_BUDGET`] unless overridden). A
//!   blowout aborts the hook, substitutes a safe default decision, and
//!   records a [`PolicyViolation::BudgetExhausted`] for the machine's
//!   watchdog.
//! * **Pick validation** — whatever `pick_next` returns is checked
//!   against the kernel's legality rules (runnable, on the queue, not
//!   running elsewhere); an illegal pick becomes
//!   [`PolicyViolation::BadPick`] plus a safe fallback.
//!
//! The machine polls [`Scheduler::take_violation`] after every decision
//! and ejects a violating policy (see the machine crate's watchdog).

use elsc_ktask::{CpuId, Lists, MmId, SchedClass, TaskTable, Tid};
use elsc_obs::ObsEvent;
use elsc_sched_api::{
    goodness_ignoring_yield_on, PolicyBackend, PolicyLoadInfo, PolicyViolation, SchedCtx,
    Scheduler, IDLE_GOODNESS,
};
use elsc_simcore::CostKind;

use crate::ast::{BinOp, Block, Builtin, Expr, HookKind, HostFn, Program, Stmt};
use crate::bytecode::CompiledPolicy;
use crate::vm::{self, VmState};
use crate::PolicyError;

/// Default per-decision instruction budget: generous for real policies
/// (the bundled `reg.pol` uses a few dozen instructions per decision
/// plus a handful per scanned task) while still bounding a runaway
/// `foreach`-over-everything hook to something finite.
pub const DEFAULT_BUDGET: u64 = 65_536;

/// One runtime value: the IR is two-typed. Shared by the interpreter
/// and the bytecode VM (whose registers hold `Val`s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Val {
    /// A 64-bit integer.
    Int(i64),
    /// A task handle; `None` is `nil`.
    Task(Option<Tid>),
}

/// How a statement sequence ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    /// Ran to completion.
    Normal,
    /// A `break` is unwinding to the innermost loop.
    Break,
    /// A `pick` ended the hook.
    Picked,
}

/// The per-invocation context a hook runs against. Shared by both
/// backends.
pub(crate) struct Env {
    pub(crate) cpu: CpuId,
    pub(crate) prev: Option<Tid>,
    pub(crate) idle: Option<Tid>,
    pub(crate) task: Option<Tid>,
    pub(crate) prev_mm: MmId,
    pub(crate) prev_yielded: bool,
    pub(crate) nr_running: usize,
    pub(crate) nr_cpus: usize,
}

/// What one hook invocation produced (either backend).
pub(crate) struct HookRun {
    /// IR nodes executed (also charged as `PolicyInsn` by the caller).
    pub(crate) insns: u64,
    /// `Some(t)` if a `pick` executed (`t == None` means `pick nil`).
    pub(crate) picked: Option<Option<Tid>>,
    /// Last `enqueue_front`/`enqueue_back` executed: (list, front).
    pub(crate) placed: Option<(usize, bool)>,
    /// Tasks to rotate to the back of their lists after the decision.
    pub(crate) requeued: Vec<Tid>,
    /// Why the hook aborted, if it did.
    pub(crate) violation: Option<PolicyViolation>,
}

impl HookRun {
    /// The no-op run of an undefined hook.
    pub(crate) fn empty() -> HookRun {
        HookRun {
            insns: 0,
            picked: None,
            placed: None,
            requeued: Vec::new(),
            violation: None,
        }
    }
}

/// Runs `hook` of `prog` on the selected backend (no-op if the hook is
/// not defined). The interpreter is the reference backend; the VM is
/// dispatched when a compiled form exists.
#[allow(clippy::too_many_arguments)]
fn run_hook(
    prog: &Program,
    compiled: Option<&CompiledPolicy>,
    backend: PolicyBackend,
    vm_state: &mut VmState,
    hook: HookKind,
    lists: &Lists,
    ctx: &mut SchedCtx<'_>,
    env: Env,
    budget: u64,
) -> HookRun {
    if backend == PolicyBackend::Vm {
        if let Some(cp) = compiled {
            // The compiler emits a chunk exactly for each defined hook.
            return match cp.chunk(hook) {
                Some(chunk) => vm::run_chunk(chunk, lists, ctx, env, budget, vm_state),
                None => HookRun::empty(),
            };
        }
    }
    let Some(block) = prog.hook(hook) else {
        return HookRun::empty();
    };
    let mut interp = Interp {
        ctx,
        lists,
        env,
        scopes: vec![Vec::new()],
        insns: 0,
        budget,
        picked: None,
        placed: None,
        requeued: Vec::new(),
    };
    let violation = interp.exec_block(block).err();
    HookRun {
        insns: interp.insns,
        picked: interp.picked,
        placed: interp.placed,
        requeued: interp.requeued,
        violation,
    }
}

/// The tree-walking interpreter for one hook invocation.
struct Interp<'a, 'p, 'c> {
    ctx: &'a mut SchedCtx<'c>,
    lists: &'a Lists,
    env: Env,
    /// Innermost scope last; names borrow from the program.
    scopes: Vec<Vec<(&'p str, Val)>>,
    insns: u64,
    budget: u64,
    picked: Option<Option<Tid>>,
    placed: Option<(usize, bool)>,
    requeued: Vec<Tid>,
}

impl<'a, 'p, 'c> Interp<'a, 'p, 'c> {
    /// Counts one executed IR node against the budget.
    fn charge(&mut self) -> Result<(), PolicyViolation> {
        self.insns += 1;
        if self.insns > self.budget {
            return Err(PolicyViolation::BudgetExhausted {
                insns: self.insns,
                budget: self.budget,
            });
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Val> {
        self.scopes
            .iter()
            .rev()
            .find_map(|sc| sc.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v))
    }

    fn assign(&mut self, name: &str, v: Val) -> Result<(), PolicyViolation> {
        for sc in self.scopes.iter_mut().rev() {
            if let Some(slot) = sc.iter_mut().rev().find(|(n, _)| *n == name) {
                slot.1 = v;
                return Ok(());
            }
        }
        // The verifier proved every assignment target exists; reaching
        // this means the interpreter's own state is wrong.
        Err(PolicyViolation::StateCorrupt)
    }

    fn exec_block(&mut self, block: &'p Block) -> Result<Flow, PolicyViolation> {
        self.scopes.push(Vec::new());
        let mut flow = Flow::Normal;
        for s in &block.stmts {
            flow = self.exec_stmt(s)?;
            if flow != Flow::Normal {
                break;
            }
        }
        self.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &'p Stmt) -> Result<Flow, PolicyViolation> {
        self.charge()?;
        match s {
            Stmt::Let { name, expr, .. } => {
                let v = self.eval(expr)?;
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .push((name.as_str(), v));
                Ok(Flow::Normal)
            }
            Stmt::Assign { name, expr, .. } => {
                let v = self.eval(expr)?;
                self.assign(name, v)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let c = self.eval_int(cond)?;
                if c != 0 {
                    self.exec_block(then)
                } else if let Some(els) = els {
                    self.exec_block(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Repeat { count, body, .. } => {
                for _ in 0..*count {
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        Flow::Picked => return Ok(Flow::Picked),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                var, list, body, ..
            } => {
                let h = {
                    let i = self.eval_int(list)?;
                    wrap_list(i, self.lists.nr_lists())
                };
                // Snapshot: hooks never mutate lists (placement and
                // rotation are deferred to the host), so the walk order
                // is the list order at hook entry.
                let snapshot: Vec<Tid> = self
                    .lists
                    .collect(self.ctx.tasks, h)
                    .into_iter()
                    .map(|i| self.ctx.tasks.by_index(i as usize).tid)
                    .collect();
                for tid in snapshot {
                    self.scopes.push(vec![(var.as_str(), Val::Task(Some(tid)))]);
                    let mut flow = Flow::Normal;
                    for s in &body.stmts {
                        flow = self.exec_stmt(s)?;
                        if flow != Flow::Normal {
                            break;
                        }
                    }
                    self.scopes.pop();
                    match flow {
                        Flow::Normal => {}
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Picked => return Ok(Flow::Picked),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Pick { expr, .. } => {
                let v = self.eval_task(expr)?;
                self.picked = Some(v);
                Ok(Flow::Picked)
            }
            Stmt::Place { front, list, .. } => {
                let i = self.eval_int(list)?;
                // The last placement executed wins.
                self.placed = Some((wrap_list(i, self.lists.nr_lists()), *front));
                Ok(Flow::Normal)
            }
            Stmt::Requeue { task, .. } => {
                if let Some(tid) = self.eval_task(task)? {
                    self.requeued.push(tid);
                }
                Ok(Flow::Normal)
            }
            Stmt::SetCounter { task, value, .. } => {
                let t = self.eval_task(task)?;
                let v = self.eval_int(value)?;
                set_counter_effect(self.ctx, t, v);
                Ok(Flow::Normal)
            }
            Stmt::Recalc { .. } => {
                self.ctx.recalculate(self.env.cpu, self.env.nr_running);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_int(&mut self, e: &'p Expr) -> Result<i64, PolicyViolation> {
        match self.eval(e)? {
            Val::Int(n) => Ok(n),
            Val::Task(_) => Err(PolicyViolation::StateCorrupt),
        }
    }

    fn eval_task(&mut self, e: &'p Expr) -> Result<Option<Tid>, PolicyViolation> {
        match self.eval(e)? {
            Val::Task(t) => Ok(t),
            Val::Int(_) => Err(PolicyViolation::StateCorrupt),
        }
    }

    fn eval(&mut self, e: &'p Expr) -> Result<Val, PolicyViolation> {
        self.charge()?;
        match e {
            Expr::Int(n, _) => Ok(Val::Int(*n)),
            Expr::Var(name, _) => self.lookup(name).ok_or(PolicyViolation::StateCorrupt),
            Expr::Builtin(b, _) => Ok(self.builtin(*b)),
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                binop(*op, l, r)
            }
            Expr::Call { func, args, .. } => {
                let arg = match args.first() {
                    Some(a) => Some(self.eval(a)?),
                    None => None,
                };
                Ok(host_call(self.ctx, self.lists, &mut self.env, *func, arg))
            }
        }
    }

    fn builtin(&self, b: Builtin) -> Val {
        match b {
            Builtin::Cpu => Val::Int(self.env.cpu as i64),
            Builtin::Prev => Val::Task(self.env.prev),
            Builtin::Idle => Val::Task(self.env.idle),
            Builtin::Task => Val::Task(self.env.task),
            Builtin::Nil => Val::Task(None),
            Builtin::NrCpus => Val::Int(self.env.nr_cpus as i64),
            Builtin::NrLists => Val::Int(self.lists.nr_lists() as i64),
            Builtin::NrRunning => Val::Int(self.env.nr_running as i64),
        }
    }
}

/// Maps a list-index value into the bank (total semantics: modulo).
pub(crate) fn wrap_list(i: i64, nr_lists: usize) -> usize {
    i.rem_euclid(nr_lists as i64) as usize
}

/// The `set_counter(task, value)` effect, shared by both backends:
/// clamped to `[0, 2 * priority]`, `nil` ignored.
pub(crate) fn set_counter_effect(ctx: &mut SchedCtx<'_>, t: Option<Tid>, v: i64) {
    if let Some(tid) = t {
        let mut task = ctx.tasks.task_mut(tid);
        let cap = i64::from(task.priority).saturating_mul(2);
        task.counter = v.clamp(0, cap) as i32;
    }
}

/// Evaluates one host function — the single implementation both
/// backends dispatch to, so their observable semantics (meter charges,
/// stats, yield-bit consumption) cannot diverge. Total semantics
/// throughout: `nil` task arguments yield neutral values rather than
/// faulting.
pub(crate) fn host_call(
    ctx: &mut SchedCtx<'_>,
    lists: &Lists,
    env: &mut Env,
    f: HostFn,
    arg: Option<Val>,
) -> Val {
    let task_arg = || match arg {
        Some(Val::Task(t)) => t,
        _ => None,
    };
    let int_arg = || match arg {
        Some(Val::Int(n)) => n,
        _ => 0,
    };
    match f {
        HostFn::Goodness => match task_arg() {
            None => Val::Int(i64::from(IDLE_GOODNESS)),
            Some(tid) => {
                // Charged exactly like a native scan step.
                ctx.charge_goodness(env.cpu, 1);
                let t = ctx.tasks.task(tid);
                Val::Int(i64::from(goodness_ignoring_yield_on(
                    &ctx.cfg.topology,
                    t,
                    env.cpu,
                    env.prev_mm,
                )))
            }
        },
        HostFn::PrevGoodness => match env.prev {
            Some(p) if Some(p) != env.idle && ctx.tasks.task(p).state.is_runnable() => {
                ctx.charge_goodness(env.cpu, 1);
                if env.prev_yielded {
                    // Consume the SCHED_YIELD bit: the yielder counts
                    // as goodness 0 exactly once.
                    env.prev_yielded = false;
                    Val::Int(0)
                } else {
                    Val::Int(i64::from(goodness_ignoring_yield_on(
                        &ctx.cfg.topology,
                        ctx.tasks.task(p),
                        env.cpu,
                        env.prev_mm,
                    )))
                }
            }
            _ => Val::Int(i64::from(IDLE_GOODNESS)),
        },
        HostFn::StaticGoodness => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).static_goodness())),
        },
        HostFn::Counter => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).counter)),
        },
        HostFn::Priority => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).priority)),
        },
        HostFn::RtPriority => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).rt_priority)),
        },
        HostFn::IsRt => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).policy.class.is_realtime())),
        },
        HostFn::Processor => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(ctx.tasks.task(tid).processor as i64),
        },
        HostFn::SameMm => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).mm == env.prev_mm)),
        },
        HostFn::HasCpu => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).has_cpu)),
        },
        HostFn::Runnable | HostFn::CanSchedule => match task_arg() {
            None => Val::Int(0),
            Some(tid) => {
                let t = ctx.tasks.task(tid);
                let pass = match f {
                    // The kernel's scan filter: SMP skips tasks running
                    // anywhere, UP skips only `prev`.
                    HostFn::CanSchedule => {
                        !(if ctx.cfg.smp {
                            t.has_cpu
                        } else {
                            Some(tid) == env.prev
                        })
                    }
                    _ => Some(tid) != env.idle && t.state.is_runnable(),
                };
                Val::Int(i64::from(pass))
            }
        },
        HostFn::ListLen => {
            let h = wrap_list(int_arg(), lists.nr_lists());
            Val::Int(lists.count(h) as i64)
        }
        HostFn::ListHead => {
            let h = wrap_list(int_arg(), lists.nr_lists());
            Val::Task(lists.first(h).map(|i| ctx.tasks.by_index(i as usize).tid))
        }
    }
}

/// Pure binary-operator semantics (total: division/modulo by zero is 0,
/// arithmetic wraps). Shared by both backends.
pub(crate) fn binop(op: BinOp, l: Val, r: Val) -> Result<Val, PolicyViolation> {
    let v = match op {
        BinOp::Eq => Val::Int(i64::from(l == r)),
        BinOp::Ne => Val::Int(i64::from(l != r)),
        _ => {
            let (Val::Int(a), Val::Int(b)) = (l, r) else {
                return Err(PolicyViolation::StateCorrupt);
            };
            Val::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_rem(b)
                    }
                }
                BinOp::Lt => i64::from(a < b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::Eq | BinOp::Ne => unreachable!("handled above"),
            })
        }
    };
    Ok(v)
}

/// A verified `.pol` program running behind the [`Scheduler`] trait.
pub struct PolicyScheduler {
    prog: Program,
    /// `"policy:<name>"`, leaked once at load time.
    name: &'static str,
    /// Which backend hooks run on (default: the bytecode VM).
    backend: PolicyBackend,
    /// The bytecode form; `None` only if compilation failed, in which
    /// case the interpreter silently serves as the fallback backend.
    compiled: Option<CompiledPolicy>,
    /// Reusable VM register file and iterator frames, persisted across
    /// decisions so steady-state dispatch allocates nothing.
    vm_state: VmState,
    lists: Lists,
    /// Which list each task (by slab index) was inserted into.
    list_of: Vec<usize>,
    /// `generation + 1` of the last slab occupant whose `on_fork` ran;
    /// 0 = never. Detects the first enqueue of each task lifetime.
    forked: Vec<u32>,
    nr_cpus: usize,
    nr_running: usize,
    budget: u64,
    insns_total: u64,
    violation: Option<PolicyViolation>,
}

impl PolicyScheduler {
    /// Wraps an already-verified program.
    ///
    /// `nr_cpus` resolves a `lists percpu` declaration; the runtime
    /// budget starts at [`DEFAULT_BUDGET`].
    pub fn new(prog: Program, nr_cpus: usize) -> PolicyScheduler {
        let name: &'static str = Box::leak(format!("policy:{}", prog.name).into_boxed_str());
        let lists = Lists::new(prog.lists.count(nr_cpus).max(1));
        let compiled = crate::compile(&prog).ok();
        PolicyScheduler {
            prog,
            name,
            backend: PolicyBackend::default(),
            compiled,
            vm_state: VmState::default(),
            lists,
            list_of: Vec::new(),
            forked: Vec::new(),
            nr_cpus,
            nr_running: 0,
            budget: DEFAULT_BUDGET,
            insns_total: 0,
            violation: None,
        }
    }

    /// Parses, verifies, and wraps a `.pol` source string.
    ///
    /// # Errors
    ///
    /// The first load-time diagnostic, never a panic.
    pub fn load_str(src: &str, nr_cpus: usize) -> Result<PolicyScheduler, PolicyError> {
        Ok(PolicyScheduler::new(crate::load_str(src)?, nr_cpus))
    }

    /// Overrides the runtime per-decision instruction budget.
    pub fn with_budget(mut self, budget: u64) -> PolicyScheduler {
        self.budget = budget.max(1);
        self
    }

    /// Selects the execution backend: the bytecode VM (default) or the
    /// reference tree-walking interpreter. Both produce identical
    /// decisions, charges, and violations.
    pub fn with_backend(mut self, backend: PolicyBackend) -> PolicyScheduler {
        self.backend = backend;
        self
    }

    /// The backend hooks actually execute on: the configured one,
    /// downgraded to [`PolicyBackend::Interp`] if compilation failed.
    pub fn backend(&self) -> PolicyBackend {
        if self.compiled.is_some() {
            self.backend
        } else {
            PolicyBackend::Interp
        }
    }

    /// The compiled bytecode, when compilation succeeded (tests,
    /// tooling, and the `disasm` CLI verb).
    pub fn compiled(&self) -> Option<&CompiledPolicy> {
        self.compiled.as_ref()
    }

    /// The verified program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Collects list `h` front to back (tests and examples).
    pub fn queue_order(&self, tasks: &TaskTable, h: usize) -> Vec<u32> {
        self.lists.collect(tasks, h)
    }

    fn env(&self, cpu: CpuId) -> Env {
        Env {
            cpu,
            prev: None,
            idle: None,
            task: None,
            prev_mm: MmId::KERNEL,
            prev_yielded: false,
            nr_running: self.nr_running,
            nr_cpus: self.nr_cpus,
        }
    }

    /// Records a violation (first one wins) and announces budget
    /// blowouts on the bus.
    fn note_violation(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, v: PolicyViolation) {
        if let PolicyViolation::BudgetExhausted { insns, budget } = v {
            ctx.emit(ObsEvent::PolicyBudget { cpu, insns, budget });
        }
        if self.violation.is_none() {
            self.violation = Some(v);
        }
    }

    fn remember_list(&mut self, tid: Tid, list: usize) {
        let idx = tid.index();
        if self.list_of.len() <= idx {
            self.list_of.resize(idx + 1, 0);
        }
        self.list_of[idx] = list;
    }

    fn list_of(&self, tid: Tid) -> usize {
        self.list_of.get(tid.index()).copied().unwrap_or(0)
    }

    /// Is `cand` a task `schedule()` may legally hand the CPU?
    fn pick_is_legal(ctx: &SchedCtx<'_>, cand: Tid, prev: Tid, idle: Tid) -> bool {
        if cand == idle {
            return true;
        }
        let Some(t) = ctx.tasks.get(cand) else {
            return false;
        };
        if !t.state.is_runnable() {
            return false;
        }
        if cand == prev {
            // A runnable prev keeps the CPU; its has_cpu is still set.
            return true;
        }
        t.on_runqueue() && !t.has_cpu
    }
}

impl core::fmt::Debug for PolicyScheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PolicyScheduler")
            .field("name", &self.name)
            .field("backend", &self.backend().label())
            .field("nr_running", &self.nr_running)
            .field("budget", &self.budget)
            .field("insns_total", &self.insns_total)
            .finish_non_exhaustive()
    }
}

impl Scheduler for PolicyScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(
            !ctx.tasks.task(tid).on_runqueue(),
            "double add to run queue"
        );
        // `on_fork`: runs once per task lifetime, before its first
        // enqueue. Generation-stamped so a recycled slab slot counts as
        // a new task.
        let idx = tid.index();
        if self.forked.len() <= idx {
            self.forked.resize(idx + 1, 0);
        }
        let stamp = tid.generation().wrapping_add(1);
        if self.forked[idx] != stamp {
            self.forked[idx] = stamp;
            if self.prog.hook(HookKind::OnFork).is_some() {
                let mut env = self.env(0);
                env.task = Some(tid);
                let run = run_hook(
                    &self.prog,
                    self.compiled.as_ref(),
                    self.backend,
                    &mut self.vm_state,
                    HookKind::OnFork,
                    &self.lists,
                    ctx,
                    env,
                    self.budget,
                );
                ctx.meter
                    .charge_n(ctx.costs, CostKind::PolicyInsn, run.insns);
                self.insns_total += run.insns;
                if let Some(v) = run.violation {
                    self.note_violation(ctx, 0, v);
                }
            }
        }
        // `enqueue` decides the placement; the host performs the
        // insert. Default (no hook, hook without a placement, or an
        // aborted hook): front of list 0, like the baseline.
        let (list, front) = if self.prog.hook(HookKind::Enqueue).is_some() {
            let mut env = self.env(0);
            env.task = Some(tid);
            let run = run_hook(
                &self.prog,
                self.compiled.as_ref(),
                self.backend,
                &mut self.vm_state,
                HookKind::Enqueue,
                &self.lists,
                ctx,
                env,
                self.budget,
            );
            ctx.meter
                .charge_n(ctx.costs, CostKind::PolicyInsn, run.insns);
            self.insns_total += run.insns;
            match run.violation {
                Some(v) => {
                    self.note_violation(ctx, 0, v);
                    (0, true)
                }
                None => run.placed.unwrap_or((0, true)),
            }
        } else {
            (0, true)
        };
        if front {
            self.lists.insert_front(ctx.tasks, list, tid);
        } else {
            self.lists.insert_back(ctx.tasks, list, tid);
        }
        self.remember_list(tid, list);
        self.nr_running += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(
            ctx.tasks.task(tid).on_runqueue(),
            "del of task not on run queue"
        );
        self.lists.remove(ctx.tasks, tid);
        self.nr_running -= 1;
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let h = self.list_of(tid);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_front(ctx.tasks, h, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let h = self.list_of(tid);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_back(ctx.tasks, h, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        // --- Host-managed schedule() preamble, identical to the
        // baseline scheduler (bottom halves, queue exit, RR refresh,
        // yield consumption). Policies only replace the selection loop.
        ctx.meter.charge(ctx.costs, CostKind::SchedBase);
        ctx.stats.cpu_mut(cpu).sched_calls += 1;

        {
            let prev_task = ctx.tasks.task(prev);
            if prev != idle && !prev_task.state.is_runnable() && prev_task.on_runqueue() {
                self.del_from_runqueue(ctx, prev);
            }
        }
        {
            let mut prev_task = ctx.tasks.task_mut(prev);
            let requeue = if prev_task.policy.class == SchedClass::Rr && prev_task.counter == 0 {
                prev_task.counter = prev_task.priority;
                prev_task.on_runqueue()
            } else {
                false
            };
            drop(prev_task);
            if requeue {
                self.move_last_runqueue(ctx, prev);
            }
        }
        let prev_mm = ctx.tasks.task(prev).mm;
        let prev_yielded = {
            let mut prev_task = ctx.tasks.task_mut(prev);
            let y = prev_task.policy.yielded;
            prev_task.policy.yielded = false;
            y
        };

        // --- The interpreted selection loop.
        let mut env = self.env(cpu);
        env.prev = Some(prev);
        env.idle = Some(idle);
        env.prev_mm = prev_mm;
        env.prev_yielded = prev_yielded;
        let run = run_hook(
            &self.prog,
            self.compiled.as_ref(),
            self.backend,
            &mut self.vm_state,
            HookKind::PickNext,
            &self.lists,
            ctx,
            env,
            self.budget,
        );
        ctx.meter
            .charge_n(ctx.costs, CostKind::PolicyInsn, run.insns);
        self.insns_total += run.insns;

        let next = match run.violation {
            Some(v) => {
                self.note_violation(ctx, cpu, v);
                None
            }
            None => {
                // `pick nil` (and the verifier-impossible "no pick")
                // mean idle.
                let cand = run.picked.flatten().unwrap_or(idle);
                if Self::pick_is_legal(ctx, cand, prev, idle) {
                    Some(cand)
                } else {
                    self.note_violation(ctx, cpu, PolicyViolation::BadPick);
                    None
                }
            }
        };
        // Safe fallback after a violation: keep a runnable prev,
        // otherwise idle. Both are always legal.
        let next = next.unwrap_or_else(|| {
            if prev != idle && ctx.tasks.task(prev).state.is_runnable() {
                prev
            } else {
                idle
            }
        });

        // Deferred rotation requests (requeue_back): applied only to
        // tasks still linked, charged like a native move_last.
        for tid in run.requeued {
            if ctx.tasks.get(tid).is_some_and(|t| t.in_list()) {
                self.move_last_runqueue(ctx, tid);
            }
        }

        // --- Host-managed epilogue, identical to the baseline.
        if next == idle {
            ctx.stats.cpu_mut(cpu).idle_scheduled += 1;
        }
        if next != prev {
            ctx.tasks.task_mut(prev).has_cpu = false;
        }
        ctx.tasks.task_mut(next).has_cpu = true;
        next
    }

    fn nr_running(&self) -> usize {
        self.nr_running
    }

    fn debug_check(&self, tasks: &TaskTable) {
        let mut total = 0;
        for h in 0..self.lists.nr_lists() {
            self.lists.check(tasks, h);
            total += self.lists.len(tasks, h);
        }
        assert_eq!(
            total, self.nr_running,
            "nr_running out of sync with the list bank"
        );
    }

    fn loaded_info(&self) -> Option<PolicyLoadInfo> {
        Some(PolicyLoadInfo {
            name: self.name,
            static_insns: self.prog.total_static_insns(),
            budget: self.budget,
            backend: self.backend(),
        })
    }

    fn set_policy_backend(&mut self, backend: PolicyBackend) {
        self.backend = backend;
    }

    fn take_violation(&mut self) -> Option<PolicyViolation> {
        self.violation.take()
    }

    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        let mut out = Vec::new();
        for h in 0..self.lists.nr_lists() {
            while let Some(i) = self.lists.first(h) {
                let tid = ctx.tasks.by_index(i as usize).tid;
                ctx.meter.charge(ctx.costs, CostKind::ListOp);
                self.lists.remove(ctx.tasks, tid);
                out.push(tid);
            }
        }
        self.nr_running = 0;
        out
    }

    fn policy_insns_executed(&self) -> u64 {
        self.insns_total
    }

    fn on_tick(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, current: Tid) {
        if self.prog.hook(HookKind::Tick).is_none() {
            return;
        }
        let mut env = self.env(cpu);
        env.task = Some(current);
        let run = run_hook(
            &self.prog,
            self.compiled.as_ref(),
            self.backend,
            &mut self.vm_state,
            HookKind::Tick,
            &self.lists,
            ctx,
            env,
            self.budget,
        );
        ctx.meter
            .charge_n(ctx.costs, CostKind::PolicyInsn, run.insns);
        self.insns_total += run.insns;
        if let Some(v) = run.violation {
            self.note_violation(ctx, cpu, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{TaskSpec, TaskState};
    use elsc_sched_api::SchedConfig;
    use elsc_sched_linux::LinuxScheduler;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    const REG_POL: &str = include_str!("../../../policies/reg.pol");
    const RR_POL: &str = include_str!("../../../policies/rr.pol");
    const TABLE_POL: &str = include_str!("../../../policies/table.pol");
    const STARVE_POL: &str = include_str!("../../../policies/starve.pol");

    /// Test harness bundling the context pieces around any scheduler.
    struct Rig<S: Scheduler> {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: S,
        idle: Tid,
    }

    impl<S: Scheduler> Rig<S> {
        fn new(cfg: SchedConfig, sched: S) -> Rig<S> {
            let mut tasks = TaskTable::new();
            let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
            tasks.task_mut(idle).counter = 0;
            tasks.task_mut(idle).has_cpu = true;
            Rig {
                tasks,
                stats: SchedStats::new(cfg.nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched,
                idle,
            }
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            f(&mut self.sched, &mut ctx)
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.add(tid);
            tid
        }

        fn add(&mut self, tid: Tid) {
            self.with(|s, ctx| s.add_to_runqueue(ctx, tid));
        }

        fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
            let idle = self.idle;
            let next = self.with(|s, ctx| s.schedule(ctx, cpu, prev, idle));
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    fn policy(src: &str, nr_cpus: usize) -> PolicyScheduler {
        PolicyScheduler::load_str(src, nr_cpus).expect("bundled policy must verify")
    }

    /// Drives a deterministic mixed scenario (counter decay, blocking,
    /// waking, a yield) and records every decision plus final stats.
    fn drive<S: Scheduler>(mut rig: Rig<S>) -> (Vec<usize>, u64, u64, u64, u64) {
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        let c = rig.spawn("c");
        let tids = [a, b, c];
        let mut picks = Vec::new();
        let mut current = rig.idle;
        for step in 0..120 {
            // Pseudo-random but identical perturbations for both rigs.
            let r = (step as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 33;
            match r % 11 {
                0 => {
                    // Block the current task (if it is a worker).
                    if tids.contains(&current) {
                        rig.tasks.task_mut(current).state = TaskState::Interruptible;
                    }
                }
                1 => {
                    // Wake any blocked worker.
                    for &t in &tids {
                        if rig.tasks.task(t).state == TaskState::Interruptible {
                            rig.tasks.task_mut(t).state = TaskState::Running;
                            rig.add(t);
                            break;
                        }
                    }
                }
                2 => {
                    if tids.contains(&current) {
                        rig.tasks.task_mut(current).policy.yielded = true;
                    }
                }
                _ => {
                    // A tick: the running task burns quantum.
                    if tids.contains(&current) && rig.tasks.task(current).counter > 0 {
                        rig.tasks.task_mut(current).counter -= 1;
                    }
                }
            }
            current = rig.schedule(0, current);
            picks.push(current.index());
        }
        let s = rig.stats.cpu(0);
        (
            picks,
            s.tasks_examined,
            s.recalc_entries,
            s.recalc_tasks,
            s.idle_scheduled,
        )
    }

    #[test]
    fn reg_pol_matches_native_reg_decision_for_decision() {
        let native = drive(Rig::new(SchedConfig::up(), LinuxScheduler::new()));
        let vm = drive(Rig::new(SchedConfig::up(), policy(REG_POL, 1)));
        assert_eq!(native, vm);
    }

    #[test]
    fn reg_pol_matches_native_reg_on_smp_config() {
        let native = drive(Rig::new(SchedConfig::smp(2), LinuxScheduler::new()));
        let vm = drive(Rig::new(SchedConfig::smp(2), policy(REG_POL, 2)));
        assert_eq!(native, vm);
    }

    #[test]
    fn default_backend_is_the_vm_for_compilable_programs() {
        let sched = policy(REG_POL, 1);
        assert_eq!(sched.backend(), PolicyBackend::Vm);
        assert!(sched.compiled().is_some());
        let interp = policy(REG_POL, 1).with_backend(PolicyBackend::Interp);
        assert_eq!(interp.backend(), PolicyBackend::Interp);
    }

    #[test]
    fn vm_and_interp_agree_on_every_bundled_policy() {
        for (src, nr_cpus, cfg) in [
            (REG_POL, 1, SchedConfig::up()),
            (REG_POL, 2, SchedConfig::smp(2)),
            (RR_POL, 1, SchedConfig::up()),
            (RR_POL, 2, SchedConfig::smp(2)),
            (TABLE_POL, 1, SchedConfig::up()),
            (TABLE_POL, 2, SchedConfig::smp(2)),
            (STARVE_POL, 1, SchedConfig::up()),
        ] {
            let vm = drive(Rig::new(cfg.clone(), policy(src, nr_cpus)));
            let interp = drive(Rig::new(
                cfg,
                policy(src, nr_cpus).with_backend(PolicyBackend::Interp),
            ));
            assert_eq!(vm, interp, "backends diverged on a bundled policy");
        }
    }

    #[test]
    fn vm_and_interp_charge_identical_policy_insns() {
        let mut vm = Rig::new(SchedConfig::up(), policy(REG_POL, 1));
        let mut interp = Rig::new(
            SchedConfig::up(),
            policy(REG_POL, 1).with_backend(PolicyBackend::Interp),
        );
        for rig in [&mut vm, &mut interp] {
            rig.spawn("a");
            rig.spawn("b");
            rig.meter.take();
        }
        let mut cv = vm.idle;
        let mut ci = interp.idle;
        for _ in 0..40 {
            cv = vm.schedule(0, cv);
            ci = interp.schedule(0, ci);
        }
        assert_eq!(cv, ci);
        assert_eq!(
            vm.sched.policy_insns_executed(),
            interp.sched.policy_insns_executed(),
            "PolicyInsn totals must match exactly"
        );
        assert_eq!(
            vm.meter.take(),
            interp.meter.take(),
            "virtual cycle charges must match exactly"
        );
    }

    /// The strongest abort-point pin: for every budget from 1 up to
    /// past one full decision, both backends must report the identical
    /// outcome — same pick, same violation (including the exact `insns`
    /// value), same examined-task count, same cycles.
    #[test]
    fn vm_and_interp_agree_at_every_budget_cutoff() {
        for src in [REG_POL, RR_POL, TABLE_POL] {
            for budget in 1..=160u64 {
                let mk = |backend| {
                    let nr = PolicyScheduler::load_str(src, 1).unwrap();
                    let mut rig = Rig::new(
                        SchedConfig::up(),
                        nr.with_budget(budget).with_backend(backend),
                    );
                    rig.spawn("a");
                    rig.spawn("b");
                    rig.meter.take();
                    let next = rig.schedule(0, rig.idle);
                    (
                        next.index(),
                        rig.sched.take_violation(),
                        rig.sched.policy_insns_executed(),
                        rig.stats.cpu(0).tasks_examined,
                        rig.meter.take(),
                    )
                };
                let vm = mk(PolicyBackend::Vm);
                let interp = mk(PolicyBackend::Interp);
                assert_eq!(vm, interp, "divergence at budget {budget}");
            }
        }
    }

    #[test]
    fn vm_budget_blowout_reports_exact_interp_insns() {
        let src = "policy spin\nlists 1\nhook pick_next {\n\
                   repeat 1024 { let x = 1 }\npick idle }";
        let mk = |backend| {
            let sched = PolicyScheduler::load_str(src, 1)
                .unwrap()
                .with_budget(64)
                .with_backend(backend);
            let mut rig = Rig::new(SchedConfig::up(), sched);
            rig.spawn("w");
            rig.schedule(0, rig.idle);
            rig.sched.take_violation()
        };
        let vm = mk(PolicyBackend::Vm);
        assert_eq!(
            vm,
            Some(PolicyViolation::BudgetExhausted {
                insns: 65,
                budget: 64
            }),
            "the VM normalizes batched charges to the interpreter's trip point"
        );
        assert_eq!(vm, mk(PolicyBackend::Interp));
    }

    #[test]
    fn policy_cycles_include_interpreter_overhead() {
        let mut native = Rig::new(SchedConfig::up(), LinuxScheduler::new());
        let mut interp = Rig::new(SchedConfig::up(), policy(REG_POL, 1));
        native.spawn("t");
        interp.spawn("t");
        native.meter.take();
        interp.meter.take();
        native.schedule(0, native.idle);
        interp.schedule(0, interp.idle);
        let nc = native.meter.take();
        let ic = interp.meter.take();
        assert!(
            ic > nc,
            "interpreted decision ({ic}) must cost more than native ({nc})"
        );
        assert!(interp.sched.policy_insns_executed() > 0);
    }

    #[test]
    fn rr_policy_rotates_fairly() {
        let mut rig = Rig::new(SchedConfig::up(), policy(RR_POL, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        let c = rig.spawn("c");
        let mut current = rig.idle;
        let mut seen = [0usize; 3];
        for _ in 0..12 {
            current = rig.schedule(0, current);
            for (i, t) in [a, b, c].iter().enumerate() {
                if current == *t {
                    seen[i] += 1;
                }
            }
        }
        // requeue_back rotation: every task gets its turn.
        assert_eq!(seen, [4, 4, 4], "round-robin must serve all three");
    }

    #[test]
    fn starve_policy_picks_idle_and_reports_no_violation_per_decision() {
        let mut rig = Rig::new(SchedConfig::up(), policy(STARVE_POL, 1));
        rig.spawn("w");
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rig.idle, "starve.pol always picks idle");
        // Per-decision it is legal; only the machine watchdog catches it.
        assert_eq!(rig.sched.take_violation(), None);
    }

    #[test]
    fn budget_blowout_aborts_hook_and_records_violation() {
        let src = "policy spin\nlists 1\nhook pick_next {\n\
                   repeat 1024 { let x = 1 }\npick idle }";
        let sched = PolicyScheduler::load_str(src, 1)
            .expect("verifies: static cost is under the cap")
            .with_budget(64);
        let mut rig = Rig::new(SchedConfig::up(), sched);
        let w = rig.spawn("w");
        let next = rig.schedule(0, rig.idle);
        // Fallback: prev (= idle here) not runnable as a worker → idle.
        assert_eq!(next, rig.idle);
        let v = rig.sched.take_violation();
        assert!(
            matches!(v, Some(PolicyViolation::BudgetExhausted { budget: 64, .. })),
            "expected budget violation, got {v:?}"
        );
        assert_eq!(rig.sched.take_violation(), None, "take clears it");
        let _ = w;
    }

    #[test]
    fn bad_pick_is_caught_and_replaced_with_fallback() {
        // Picks prev unconditionally — illegal when prev just blocked.
        let src = "policy badprev\nlists 1\nhook pick_next { pick prev }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, rig.idle, "fallback for a blocked prev is idle");
        assert_eq!(rig.sched.take_violation(), Some(PolicyViolation::BadPick));
        let _ = b;
    }

    #[test]
    fn enqueue_hook_controls_placement() {
        let src = "policy backer\nlists 1\n\
                   hook enqueue { enqueue_back(0) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        assert_eq!(
            rig.sched.queue_order(&rig.tasks, 0),
            vec![a.index() as u32, b.index() as u32],
            "enqueue_back keeps FIFO order"
        );
    }

    #[test]
    fn default_placement_without_enqueue_hook_is_front() {
        let src = "policy minimal\nlists 1\nhook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        assert_eq!(
            rig.sched.queue_order(&rig.tasks, 0),
            vec![b.index() as u32, a.index() as u32],
            "default placement matches the baseline (front)"
        );
    }

    #[test]
    fn on_fork_runs_once_per_task_lifetime() {
        let src = "policy fork\nlists 1\n\
                   hook on_fork { set_counter(task, 3) }\n\
                   hook enqueue { enqueue_front(0) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        assert_eq!(rig.tasks.task(a).counter, 3, "on_fork set the counter");
        // Re-enqueue after a block: on_fork must NOT run again.
        rig.tasks.task_mut(a).counter = 9;
        rig.with(|s, ctx| s.del_from_runqueue(ctx, a));
        rig.add(a);
        assert_eq!(rig.tasks.task(a).counter, 9, "on_fork ran only once");
    }

    #[test]
    fn set_counter_clamps_to_twice_priority() {
        let src = "policy clamp\nlists 1\n\
                   hook on_fork { set_counter(task, 100000) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let t = rig.tasks.task(a);
        assert_eq!(t.counter, 2 * t.priority);
    }

    #[test]
    fn tick_hook_runs_via_on_tick() {
        let src = "policy ticky\nlists 1\n\
                   hook tick { set_counter(task, counter(task) + 2) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let before = rig.tasks.task(a).counter;
        rig.with(|s, ctx| s.on_tick(ctx, 0, a));
        assert_eq!(rig.tasks.task(a).counter, before + 2);
        assert!(rig.sched.policy_insns_executed() > 0);
    }

    #[test]
    fn drain_empties_every_list_in_order() {
        let mut rig = Rig::new(SchedConfig::up(), policy(RR_POL, 2));
        let a = rig.tasks.spawn(&TaskSpec::named("a"));
        let b = rig.tasks.spawn(&TaskSpec::named("b"));
        rig.tasks.task_mut(b).processor = 1;
        rig.add(a);
        rig.add(b);
        assert_eq!(rig.sched.nr_running(), 2);
        let drained = rig.with(|s, ctx| s.drain(ctx));
        assert_eq!(drained, vec![a, b], "list 0 first, then list 1");
        assert_eq!(rig.sched.nr_running(), 0);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert!(!rig.tasks.task(b).on_runqueue());
    }

    #[test]
    fn loaded_info_reports_name_and_budget() {
        let sched = policy(REG_POL, 1).with_budget(1234);
        let info = sched.loaded_info().unwrap();
        assert_eq!(info.name, "policy:reg");
        assert_eq!(info.budget, 1234);
        assert!(info.static_insns > 0);
    }

    #[test]
    fn percpu_lists_resolve_to_cpu_count() {
        let sched = policy(RR_POL, 4);
        assert_eq!(sched.lists.nr_lists(), 4);
        let up = policy(RR_POL, 1);
        assert_eq!(up.lists.nr_lists(), 1);
    }
}
