//! The call-by-value big-step interpreter.
//!
//! Evaluates *phase-split* terms: the structure calculus has been
//! translated away (see `recmod-phase`), so the only recursion left is
//! the core calculus's `fix(x:σ.e)`, which is implemented by
//! *backpatching*: a fresh promise is bound to `x`, the body is evaluated
//! (the value restriction guarantees the promise is only captured under
//! λs, never demanded), and the promise is then filled with the result.
//!
//! [`Interp::run`] first erases the term into a type-free,
//! closure-converted [`Code`] tree and then walks that tree. Bindings
//! live on one frame stack: `let`, `case` and `fix` push a slot and
//! pop it on exit, an application opens a frame whose slot 0 is the
//! argument, and a closure carries a flat array of the values its body
//! uses from outside. The walk does not recurse where the `Term` walk
//! had nothing left to do: a variable or literal operand is read in
//! place, the body of a `let`, `case`, `if` or coercion is run in a
//! loop in the same frame, and the fused ascriptions and projection
//! chains run without entering their parts.
//!
//! Each node charges the `Term` nodes it stands for: one step, and one
//! level of recursion depth, per `Term` node, at the point the `Term`
//! walk entered it. So steps, fuel, the depth limit and the deadline
//! (read every 4096 steps) fire exactly where walking the `Term` would
//! have; the E1 experiment table uses the step counter to measure the
//! paper's §3.1 claim about the asymptotic cost of opaque recursive
//! modules.

use std::cell::OnceCell;
use std::rc::Rc;

use recmod_syntax::ast::{PrimOp, Term};

use crate::code::{erase, Code, Lambda, Link, Slot};
use crate::error::{EvalError, EvalResult};
use crate::value::Value;

/// The default evaluation step budget.
pub const DEFAULT_EVAL_FUEL: u64 = 500_000_000;

/// The default recursion-depth limit. Each object-level recursive call
/// consumes host stack (the interpreter is itself recursive), so the
/// limit is what turns runaway recursion into [`EvalError::DepthExceeded`]
/// instead of a host stack overflow. At roughly 50 000 frames the
/// interpreter fits comfortably in a [`run_big_stack`] thread even in
/// debug builds.
pub const DEFAULT_MAX_DEPTH: u64 = 50_000;

/// Counters accumulated during evaluation. Plain data (`Copy`, `Send`),
/// so a [`run_big_stack`] closure can ship them back across the thread
/// boundary alongside the result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation steps: one per `Term` node entered (a fused code node
    /// charges each node it stands for).
    pub steps: u64,
    /// Function and type-function closures built, counting the `λx.x`
    /// of each ascription, which the fused node does not build.
    pub closures: u64,
    /// `fix` promises created and backpatched.
    pub backpatches: u64,
    /// Deepest environment extended during the run: the largest static
    /// depth of a binder entered (see [`Code`]).
    pub max_env_depth: u64,
}

/// The interpreter's internal result. The error is boxed so a `Result`
/// of a value is two words on the hot path; [`Interp::run`] unboxes it.
type Run<T> = Result<T, Box<EvalError>>;

/// An instrumented evaluator.
#[derive(Debug)]
pub struct Interp {
    stats: EvalStats,
    fuel: u64,
    depth: u64,
    max_depth: u64,
    limits: recmod_telemetry::Limits,
    /// Shared results: `*` (also the dummy a type application binds),
    /// `true` and `false`.
    unit: Rc<Value>,
    tru: Rc<Value>,
    fls: Rc<Value>,
    /// The frame stack: the running function's argument and the
    /// `let`/`case`/`fix` bindings inside it, above those of its callers.
    stack: Vec<Rc<Value>>,
    /// Where the running function's frame starts in `stack`.
    base: usize,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh evaluator with the default fuel budget.
    pub fn new() -> Self {
        Self::with_fuel(DEFAULT_EVAL_FUEL)
    }

    /// A fresh evaluator with an explicit fuel budget.
    pub fn with_fuel(fuel: u64) -> Self {
        Self::with_limits(fuel, DEFAULT_MAX_DEPTH)
    }

    /// A fresh evaluator with explicit fuel and recursion-depth limits.
    pub fn with_limits(fuel: u64, max_depth: u64) -> Self {
        Self::with_pipeline_limits(&recmod_telemetry::Limits {
            eval_fuel: fuel,
            eval_depth: max_depth,
            ..recmod_telemetry::Limits::default()
        })
    }

    /// A fresh evaluator honoring a pipeline-wide
    /// [`Limits`](recmod_telemetry::Limits) value: `eval_fuel`,
    /// `eval_depth`, and the wall-clock deadline (checked every 4096
    /// steps).
    pub fn with_pipeline_limits(limits: &recmod_telemetry::Limits) -> Self {
        Interp {
            stats: EvalStats::default(),
            fuel: limits.eval_fuel,
            depth: 0,
            max_depth: limits.eval_depth,
            limits: *limits,
            unit: Rc::new(Value::Unit),
            tru: Rc::new(Value::Bool(true)),
            fls: Rc::new(Value::Bool(false)),
            stack: Vec::new(),
            base: 0,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.stats.steps
    }

    /// All counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Resets every [`EvalStats`] counter (steps, closures, backpatches
    /// and the maximum environment depth). Fuel is a budget, not a
    /// counter, and is unaffected.
    pub fn reset_steps(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Erases a closed term into its code tree and evaluates it in the
    /// empty environment.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`]; a malformed term that cannot be erased (a
    /// primitive without exactly two operands) is
    /// [`EvalError::Stuck`] before any step is taken.
    pub fn run(&mut self, e: &Term) -> EvalResult<Rc<Value>> {
        let code = erase(e)?;
        self.eval(&[], &code).map_err(|e| *e)
    }

    /// Evaluates `c` in the current frame, with `caps` the running
    /// closure's captures.
    fn eval(&mut self, caps: &[Rc<Value>], c: &Code) -> Run<Rc<Value>> {
        let top = self.stack.len();
        self.eval_to(caps, c, top)
    }

    /// Evaluates `c`, then restores the recursion depth and truncates
    /// the frame stack to `top`, on every outcome, errors included, so
    /// the stack is empty between runs.
    fn eval_to(&mut self, caps: &[Rc<Value>], c: &Code, top: usize) -> Run<Rc<Value>> {
        let depth = self.depth;
        let out = self.walk(caps, c);
        self.depth = depth;
        self.stack.truncate(top);
        out
    }

    /// Enters `c` and runs it. The body of a `let`, `case`, `if` or
    /// coercion is entered in the same loop and frame, one level deeper,
    /// as the `Term` walk would have entered it; [`eval_to`](Self::eval_to)
    /// undoes the depth and the bindings this pushes.
    fn walk(&mut self, caps: &[Rc<Value>], mut c: &Code) -> Run<Rc<Value>> {
        loop {
            self.enter()?;
            match c {
                Code::Var(slot) => return Ok(self.slot(caps, *slot)?.forced_rc()?.clone()),
                Code::Open => return Err(Box::new(EvalError::OpenTerm)),
                Code::Const(v) => return Ok(v.clone()),
                Code::Lam(lam) => {
                    let captured = self.capture(caps, lam)?;
                    return Ok(Rc::new(Value::Closure(lam.clone(), captured)));
                }
                Code::App(f, a) => {
                    let fv = self.operand(caps, f)?;
                    let av = self.operand(caps, a)?;
                    return match fv.forced()? {
                        Value::Closure(lam, captured) => self.call(lam, captured, av),
                        _ => Err(stuck("a function")),
                    };
                }
                Code::Ascribe(e, depth) => {
                    // The `λ`: one step, one level down, and the closure
                    // the `Term` walk would have built.
                    self.enter_leaf()?;
                    self.stats.closures += 1;
                    let v = self.operand(caps, e)?;
                    // Applying it enters its body, the variable, which
                    // would force `v`: no result is ever a promise (a
                    // promise only sits in a slot or a capture, and
                    // reading one forces it), so `v` is already forced.
                    self.note_depth(*depth);
                    self.enter_leaf()?;
                    return Ok(v);
                }
                Code::Pair(a, b) => {
                    let av = self.operand(caps, a)?;
                    let bv = self.operand(caps, b)?;
                    return Ok(Rc::new(Value::Pair(av, bv)));
                }
                Code::Path(links, base) => return self.path(caps, links, base),
                Code::TLam(lam) => {
                    let captured = self.capture(caps, lam)?;
                    return Ok(Rc::new(Value::TClosure(lam.clone(), captured)));
                }
                Code::TApp(f) => {
                    let fv = self.operand(caps, f)?;
                    return match fv.forced()? {
                        // The constructor argument is erased; bind a
                        // dummy so the body's slots line up.
                        Value::TClosure(lam, captured) => {
                            self.call(lam, captured, self.unit.clone())
                        }
                        _ => Err(stuck("a type function")),
                    };
                }
                Code::Fix(body, depth) => {
                    let cell = Rc::new(OnceCell::new());
                    let promise = Rc::new(Value::Promise(cell.clone()));
                    self.note_depth(*depth);
                    let top = self.stack.len();
                    self.stack.push(promise);
                    let v = self.eval_to(caps, body, top)?;
                    // Each `fix` makes a fresh cell, so this is its only fill.
                    let _ = cell.set(v.clone());
                    self.stats.backpatches += 1;
                    return Ok(v);
                }
                Code::Prim(op, a, b) => {
                    let a = self.int_operand(caps, a)?;
                    let b = self.int_operand(caps, b)?;
                    return Ok(match op {
                        PrimOp::Add => Rc::new(Value::Int(a.wrapping_add(b))),
                        PrimOp::Sub => Rc::new(Value::Int(a.wrapping_sub(b))),
                        PrimOp::Mul => Rc::new(Value::Int(a.wrapping_mul(b))),
                        PrimOp::Eq => self.boolean(a == b),
                        PrimOp::Lt => self.boolean(a < b),
                    });
                }
                Code::If(cond, t, f) => {
                    let taken = match self.leaf(caps, cond)? {
                        Some(v) => v.as_bool()?,
                        None => self.eval(caps, cond)?.as_bool()?,
                    };
                    c = if taken { t } else { f };
                }
                Code::Inj(i, body) => {
                    let v = self.operand(caps, body)?;
                    return Ok(Rc::new(Value::Inj(*i, v)));
                }
                Code::Case(scrut, branches, depth) => {
                    let sv = self.operand(caps, scrut)?;
                    let Value::Inj(i, payload) = sv.forced()? else {
                        return Err(stuck("a sum value"));
                    };
                    let Some(branch) = branches.get(*i) else {
                        return Err(stuck("a branch for this injection"));
                    };
                    let payload = payload.clone();
                    self.note_depth(*depth);
                    self.stack.push(payload);
                    c = branch;
                }
                Code::Coerce(body) => c = body,
                Code::Fail => return Err(Box::new(EvalError::Failure)),
                Code::Let(bound, body, depth) => {
                    let v = self.operand(caps, bound)?;
                    self.note_depth(*depth);
                    self.stack.push(v);
                    c = body;
                }
            }
        }
    }

    /// Runs a [`Code::Path`] whose outermost link has been entered:
    /// enters the other links one level deeper each, then the base, and
    /// follows the links by reference.
    fn path(&mut self, caps: &[Rc<Value>], links: &[Link], base: &Code) -> Run<Rc<Value>> {
        for _ in 1..links.len() {
            self.enter()?;
        }
        if let Some(v) = self.leaf(caps, base)? {
            return Ok(follow(v, links)?.clone());
        }
        let v = self.eval(caps, base)?;
        Ok(follow(&v, links)?.clone())
    }

    /// Charges a variable or literal operand and reads it in place,
    /// forced, without entering the walk; `None` for any other node.
    #[inline(always)]
    fn leaf<'a>(&'a mut self, caps: &'a [Rc<Value>], c: &'a Code) -> Run<Option<&'a Rc<Value>>> {
        match c {
            Code::Var(slot) => {
                self.enter_leaf()?;
                Ok(Some(self.slot(caps, *slot)?.forced_rc()?))
            }
            Code::Const(v) => {
                self.enter_leaf()?;
                Ok(Some(v))
            }
            _ => Ok(None),
        }
    }

    /// Evaluates an operand: a leaf in place, anything else by a walk.
    // Inlined into the walk when optimizing, where it is hot. A debug
    // build gives every inlined copy its own stack slots, and the walk's
    // frame bounds how deep an object program can recurse on the
    // pipeline thread's stack, so there it stays a call.
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn operand(&mut self, caps: &[Rc<Value>], c: &Code) -> Run<Rc<Value>> {
        if let Some(v) = self.leaf(caps, c)? {
            return Ok(v.clone());
        }
        self.eval(caps, c)
    }

    /// Evaluates an integer operand; a leaf is read without a clone.
    /// Inlined like [`operand`](Self::operand).
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn int_operand(&mut self, caps: &[Rc<Value>], c: &Code) -> Run<i64> {
        Ok(match self.leaf(caps, c)? {
            Some(v) => v.as_int()?,
            None => self.eval(caps, c)?.as_int()?,
        })
    }

    /// Enters a node one level below the current one and holds that
    /// depth while it runs.
    #[inline(always)]
    fn enter(&mut self) -> Run<()> {
        self.enter_leaf()?;
        self.depth += 1;
        Ok(())
    }

    /// Enters a node that returns at once: checks the depth limit one
    /// level down, then charges the step against the fuel and, every
    /// 4096 steps, the deadline.
    #[inline(always)]
    fn enter_leaf(&mut self) -> Run<()> {
        if self.depth < self.max_depth {
            self.stats.steps += 1;
            if self.stats.steps <= self.fuel && !self.stats.steps.is_multiple_of(4096) {
                return Ok(());
            }
        }
        self.limit_check()
    }

    /// The rest of [`enter_leaf`](Self::enter_leaf), kept out of line so
    /// the error paths do not grow the walk's frame: the depth limit
    /// (the step not charged), the fuel, then the deadline, which is
    /// wall-clock and so read only every 4096 steps.
    #[cold]
    #[inline(never)]
    fn limit_check(&mut self) -> Run<()> {
        if self.depth >= self.max_depth {
            return Err(Box::new(EvalError::DepthExceeded));
        }
        if self.stats.steps > self.fuel {
            return Err(Box::new(EvalError::FuelExhausted));
        }
        if self.limits.deadline_passed() {
            return Err(Box::new(EvalError::Limit(
                self.limits.deadline_error("eval"),
            )));
        }
        Ok(())
    }

    /// The value in a slot of the current frame or of `caps`. Erasure
    /// only resolves a variable to a slot that is filled whenever its
    /// node runs, so the error is unreachable from [`Interp::run`].
    fn slot<'a>(&'a self, caps: &'a [Rc<Value>], slot: Slot) -> EvalResult<&'a Rc<Value>> {
        match slot {
            Slot::Local(i) => self.stack.get(self.base + i),
            Slot::Captured(i) => caps.get(i),
        }
        .ok_or(EvalError::OpenTerm)
    }

    /// Counts a new closure over `lam` and builds its capture array.
    fn capture(&mut self, caps: &[Rc<Value>], lam: &Lambda) -> EvalResult<Box<[Rc<Value>]>> {
        self.stats.closures += 1;
        let mut captured = Vec::with_capacity(lam.captures.len());
        for &slot in &lam.captures {
            captured.push(self.slot(caps, slot)?.clone());
        }
        Ok(captured.into_boxed_slice())
    }

    /// Applies a closure: runs its body in a new frame holding `arg`,
    /// popped on every outcome.
    fn call(&mut self, lam: &Lambda, captured: &[Rc<Value>], arg: Rc<Value>) -> Run<Rc<Value>> {
        self.note_depth(lam.depth);
        let caller = std::mem::replace(&mut self.base, self.stack.len());
        self.stack.push(arg);
        let out = self.eval_to(captured, &lam.body, self.base);
        self.base = caller;
        out
    }

    /// The shared `true` or `false` value.
    fn boolean(&self, b: bool) -> Rc<Value> {
        if b { &self.tru } else { &self.fls }.clone()
    }

    /// Records entering a binder of static depth `depth`.
    fn note_depth(&mut self, depth: usize) {
        self.stats.max_env_depth = self.stats.max_env_depth.max(depth as u64);
    }
}

/// A stuck-state error.
fn stuck(expected: &'static str) -> Box<EvalError> {
    Box::new(EvalError::Stuck(expected))
}

/// Follows a path's links, innermost first, from `v` by reference.
/// A coercion does nothing; a projection forces the pair first.
fn follow<'v>(mut v: &'v Rc<Value>, links: &[Link]) -> EvalResult<&'v Rc<Value>> {
    for &link in links {
        if link == Link::Coerce {
            continue;
        }
        let Value::Pair(a, b) = v.forced()? else {
            return Err(EvalError::Stuck("a pair"));
        };
        v = if link == Link::Fst { a } else { b };
    }
    Ok(v)
}

/// Runs `f` on a dedicated thread with a large stack (`stack_mb`
/// megabytes) and returns its result.
///
/// The interpreter is a recursive big-step evaluator, so deeply recursive
/// object programs need proportionally deep host stacks. Values are not
/// `Send` (they share `Rc` structure), so the whole evaluation — building
/// the term, running it, extracting a `Send` summary — must happen inside
/// the closure.
///
/// # Panics
///
/// Panics if the worker thread cannot be spawned. A panic inside `f` is
/// re-raised on the calling thread with its original payload.
// The one panic path is spawn failure: there is no thread to evaluate on
// and no structured error this signature could carry.
#[allow(clippy::expect_used)]
pub fn run_big_stack<T, F>(stack_mb: usize, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    std::thread::Builder::new()
        .stack_size(stack_mb * 1024 * 1024)
        .spawn(f)
        .expect("failed to spawn evaluation thread")
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::{Con, PrimOp, Ty};
    use recmod_syntax::dsl::*;

    fn run(e: &Term) -> EvalResult<Rc<Value>> {
        Interp::new().run(e)
    }

    #[test]
    fn arithmetic() {
        let e = prim(PrimOp::Add, int(2), prim(PrimOp::Mul, int(3), int(4)));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 14);
    }

    #[test]
    fn beta_reduction() {
        let e = app(
            lam(tcon(Con::Int), prim(PrimOp::Add, var(0), int(1))),
            int(41),
        );
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 42);
    }

    #[test]
    fn recursive_factorial() {
        // fix(f: int⇀int. λn. if n = 0 then 1 else n * f (n-1)) 6 = 720
        let fact = fix(
            partial(tcon(Con::Int), tcon(Con::Int)),
            lam(
                tcon(Con::Int),
                ite(
                    prim(PrimOp::Eq, var(0), int(0)),
                    int(1),
                    prim(
                        PrimOp::Mul,
                        var(0),
                        app(var(1), prim(PrimOp::Sub, var(0), int(1))),
                    ),
                ),
            ),
        );
        let e = app(fact, int(6));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 720);
    }

    #[test]
    fn mutual_recursion_via_pair_fix() {
        // fix(p : (int⇀bool) × (int⇀bool).
        //   (λn. if n=0 then true  else (π₂p)(n-1),
        //    λn. if n=0 then false else (π₁p)(n-1)))
        // — even/odd; even 10 = true, odd 10 = false.
        let fun_ty = partial(tcon(Con::Int), tcon(Con::Bool));
        let even = lam(
            tcon(Con::Int),
            ite(
                prim(PrimOp::Eq, var(0), int(0)),
                boolean(true),
                app(proj2(var(1)), prim(PrimOp::Sub, var(0), int(1))),
            ),
        );
        let odd = lam(
            tcon(Con::Int),
            ite(
                prim(PrimOp::Eq, var(0), int(0)),
                boolean(false),
                app(proj1(var(1)), prim(PrimOp::Sub, var(0), int(1))),
            ),
        );
        let p = fix(tprod(fun_ty.clone(), fun_ty), pair(even, odd));
        assert!(run(&app(proj1(p.clone()), int(10)))
            .unwrap()
            .as_bool()
            .unwrap());
        assert!(!run(&app(proj2(p), int(10))).unwrap().as_bool().unwrap());
    }

    #[test]
    fn datatype_round_trip() {
        // cons 1 nil, then uncons the head back out.
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let unrolled = csum([Con::UnitTy, cprod(Con::Int, listc.clone())]);
        let nil = roll(listc.clone(), inj(0, unrolled.clone(), Term::Star));
        let one = roll(listc.clone(), inj(1, unrolled, pair(int(1), nil)));
        let head = case(unroll(one), [fail(tcon(Con::Int)), proj1(var(0))]);
        assert_eq!(run(&head).unwrap().as_int().unwrap(), 1);
    }

    #[test]
    fn failure_propagates() {
        let e = app(lam(tcon(Con::Int), var(0)), fail(tcon(Con::Int)));
        assert!(matches!(run(&e), Err(EvalError::Failure)));
    }

    #[test]
    fn divergence_hits_fuel() {
        // fix(f: 1⇀1. λu. f u) * — loops; must stop with FuelExhausted.
        // Run on a big stack: the big-step interpreter recurses once per
        // object-level call.
        let outcome = run_big_stack(64, || {
            let loop_ = fix(
                partial(Ty::Unit, Ty::Unit),
                lam(Ty::Unit, app(var(1), var(0))),
            );
            let e = app(loop_, Term::Star);
            let mut interp = Interp::with_fuel(5_000);
            (interp.run(&e).err(), interp.stats())
        });
        // Pinned: the code tree stops where evaluating the term did.
        let want = EvalStats {
            steps: 5_001,
            closures: 1,
            backpatches: 1,
            max_env_depth: 2,
        };
        assert_eq!(outcome, (Some(EvalError::FuelExhausted), want));
    }

    #[test]
    fn big_stack_reraises_the_workers_own_panic() {
        let payload = std::panic::catch_unwind(|| run_big_stack(1, || panic!("boom")))
            .expect_err("the worker panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn step_counter_counts() {
        let mut interp = Interp::new();
        interp.run(&int(1)).unwrap();
        assert_eq!(interp.steps(), 1);
        interp.reset_steps();
        assert_eq!(interp.steps(), 0);
    }

    #[test]
    fn reset_steps_zeroes_every_counter() {
        // (fix(f:int⇀int. λn. n)) 1 — a closure, a backpatch, and an
        // environment two deep.
        let e = app(
            fix(
                partial(tcon(Con::Int), tcon(Con::Int)),
                lam(tcon(Con::Int), var(0)),
            ),
            int(1),
        );
        let mut interp = Interp::new();
        interp.run(&e).unwrap();
        let s = interp.stats();
        assert!(s.steps > 0 && s.closures > 0 && s.backpatches > 0 && s.max_env_depth > 0);
        interp.reset_steps();
        assert_eq!(interp.stats(), EvalStats::default());
    }

    #[test]
    fn closures_from_one_lambda_share_its_body() {
        // let mk = λu:unit. λx:int. x in (mk *, mk *): two closures
        // built by the same inner λ.
        let mk = lam(Ty::Unit, lam(tcon(Con::Int), var(0)));
        let e = let_(mk, pair(app(var(0), Term::Star), app(var(0), Term::Star)));
        let v = run(&e).unwrap();
        let Value::Pair(a, b) = &*v else {
            panic!("expected a pair, got {v}")
        };
        let (Value::Closure(lam_a, _), Value::Closure(lam_b, _)) = (&**a, &**b) else {
            panic!("expected two closures, got {v}")
        };
        assert!(!Rc::ptr_eq(a, b), "two distinct closures");
        assert!(Rc::ptr_eq(lam_a, lam_b), "one shared body");
    }

    #[test]
    fn closures_capture_exactly_what_their_body_uses() {
        // (λx.λy.x) 7: the inner closure captures x and nothing else.
        let k = lam(tcon(Con::Int), lam(tcon(Con::Int), var(1)));
        let v = run(&app(k, int(7))).unwrap();
        let Value::Closure(_, captured) = &*v else {
            panic!("expected a closure, got {v}")
        };
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].as_int().unwrap(), 7);
        // λx.x uses nothing from outside.
        let v = run(&lam(tcon(Con::Int), var(0))).unwrap();
        let Value::Closure(_, captured) = &*v else {
            panic!("expected a closure, got {v}")
        };
        assert!(captured.is_empty());
    }

    #[test]
    fn open_variable_fails_only_when_reached() {
        // An unbound variable under a λ that never runs is harmless.
        let under = lam(tcon(Con::Int), var(1));
        assert!(matches!(&*run(&under).unwrap(), Value::Closure(..)));
        // let a = 1 in (λx. (λy. <free>) a) 2: the inner λ captures `a`
        // across one function level; the free variable fails when the
        // inner body runs. The stats are pinned to those of the
        // environment-walking evaluator this one replaced.
        let e = let_(
            int(1),
            app(
                lam(tcon(Con::Int), app(lam(tcon(Con::Int), var(3)), var(1))),
                int(2),
            ),
        );
        let mut interp = Interp::new();
        assert_eq!(interp.run(&e).err(), Some(EvalError::OpenTerm));
        let want = EvalStats {
            steps: 9,
            closures: 2,
            backpatches: 0,
            max_env_depth: 3,
        };
        assert_eq!(interp.stats(), want);
    }

    #[test]
    fn frame_stack_is_reset_after_an_error() {
        // Fails inside a call, with let-bound slots below it on the stack.
        let bad = let_(
            int(1),
            let_(
                int(2),
                app(lam(tcon(Con::Int), fail(tcon(Con::Int))), var(0)),
            ),
        );
        // let a = 5 in (λx. x + a) 3 = 8: a local and a captured read.
        let good = let_(
            int(5),
            app(
                lam(tcon(Con::Int), prim(PrimOp::Add, var(0), var(1))),
                int(3),
            ),
        );
        let mut fresh = Interp::new();
        assert_eq!(fresh.run(&good).unwrap().as_int().unwrap(), 8);
        let mut interp = Interp::new();
        assert_eq!(interp.run(&bad).err(), Some(EvalError::Failure));
        interp.reset_steps();
        assert_eq!(interp.run(&good).unwrap().as_int().unwrap(), 8);
        assert_eq!(interp.stats(), fresh.stats());
    }

    #[test]
    fn limits_stop_inside_fused_nodes_at_the_terms_step() {
        // let p = (1, (2, 3)) in (λx.x) (π₁ (π₂ p)): twelve `Term`
        // nodes, the last six in an ascription around a path.
        let e = let_(
            pair(int(1), pair(int(2), int(3))),
            app(lam(tcon(Con::Int), var(0)), proj1(proj2(var(0)))),
        );
        let mut interp = Interp::new();
        assert_eq!(interp.run(&e).unwrap().as_int().unwrap(), 2);
        assert_eq!(interp.steps(), 12);
        // Fuel `f` fails on step `f + 1`, wherever that falls.
        for fuel in 0..12 {
            let mut interp = Interp::with_fuel(fuel);
            assert_eq!(interp.run(&e).err(), Some(EvalError::FuelExhausted));
            assert_eq!(interp.steps(), fuel + 1);
        }
        // The path's variable is the fifth level: a limit of four stops
        // there, after the application, the λ and both links.
        let mut interp = Interp::with_limits(DEFAULT_EVAL_FUEL, 4);
        assert_eq!(interp.run(&e).err(), Some(EvalError::DepthExceeded));
        let want = EvalStats {
            steps: 10,
            closures: 1,
            backpatches: 0,
            max_env_depth: 1,
        };
        assert_eq!(interp.stats(), want);
    }

    #[test]
    fn malformed_prim_is_a_stuck_error() {
        // Reachable only through the public AST. Erasure rejects it even
        // under a λ that never runs, before any step is taken.
        for args in [vec![], vec![int(1)], vec![int(1), int(2), int(3)]] {
            let e = lam(tcon(Con::Int), Term::Prim(PrimOp::Add, args));
            let mut interp = Interp::new();
            assert!(matches!(interp.run(&e), Err(EvalError::Stuck(_))));
            assert_eq!(interp.steps(), 0);
        }
    }

    #[test]
    fn type_application_erases() {
        let id = tlam(tkind(), lam(tcon(cvar(0)), var(0)));
        let e = app(tapp(id, Con::Int), int(5));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 5);
    }

    #[test]
    fn let_binds() {
        let e = let_(int(10), prim(PrimOp::Mul, var(0), var(0)));
        assert_eq!(run(&e).unwrap().as_int().unwrap(), 100);
    }

    #[test]
    fn case_selects_branch() {
        let sum = csum([Con::Int, Con::Bool]);
        let e = case(inj(1, sum, boolean(true)), [boolean(false), var(0)]);
        assert!(run(&e).unwrap().as_bool().unwrap());
    }
}
