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
//! uses from outside. The code tree has one node per term node, and the
//! interpreter counts one step per node it enters; the E1 experiment
//! table uses the counter to measure the paper's §3.1 claim about the
//! asymptotic cost of opaque recursive modules.

use std::cell::OnceCell;
use std::rc::Rc;

use recmod_syntax::ast::{PrimOp, Term};

use crate::code::{erase, Code, Lambda, Slot};
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
    /// Evaluation steps (one per code node entered).
    pub steps: u64,
    /// Function and type-function closures allocated.
    pub closures: u64,
    /// `fix` promises created and backpatched.
    pub backpatches: u64,
    /// Deepest environment extended during the run: the largest static
    /// depth of a binder entered (see [`Code`]).
    pub max_env_depth: u64,
}

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
        self.eval(&[], &code)
    }

    /// Evaluates `c` in the current frame, with `caps` the running
    /// closure's captures, guarding the recursion depth.
    fn eval(&mut self, caps: &[Rc<Value>], c: &Code) -> EvalResult<Rc<Value>> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(EvalError::DepthExceeded);
        }
        let out = self.step(caps, c);
        self.depth -= 1;
        out
    }

    /// One step: charge fuel for the node `c`, then evaluate it.
    fn step(&mut self, caps: &[Rc<Value>], c: &Code) -> EvalResult<Rc<Value>> {
        self.stats.steps += 1;
        if self.stats.steps > self.fuel {
            return Err(EvalError::FuelExhausted);
        }
        // Deadlines are wall-clock; amortize the clock read over many
        // steps (4096 steps run in a few microseconds).
        if self.stats.steps.is_multiple_of(4096) && self.limits.deadline_passed() {
            return Err(EvalError::Limit(self.limits.deadline_error("eval")));
        }
        match c {
            Code::Var(slot) => self.slot(caps, *slot)?.force(),
            Code::Open => Err(EvalError::OpenTerm),
            Code::Const(v) => Ok(v.clone()),
            Code::Lam(lam) => {
                let captured = self.capture(caps, lam)?;
                Ok(Rc::new(Value::Closure(lam.clone(), captured)))
            }
            Code::App(f, a) => {
                let fv = self.eval(caps, f)?;
                let av = self.eval(caps, a)?;
                match fv.forced()? {
                    Value::Closure(lam, captured) => self.call(lam, captured, av),
                    _ => Err(EvalError::Stuck("a function")),
                }
            }
            Code::Pair(a, b) => {
                let av = self.eval(caps, a)?;
                let bv = self.eval(caps, b)?;
                Ok(Rc::new(Value::Pair(av, bv)))
            }
            Code::Proj1(p) => match self.eval(caps, p)?.forced()? {
                Value::Pair(a, _) => Ok(a.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Code::Proj2(p) => match self.eval(caps, p)?.forced()? {
                Value::Pair(_, b) => Ok(b.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Code::TLam(lam) => {
                let captured = self.capture(caps, lam)?;
                Ok(Rc::new(Value::TClosure(lam.clone(), captured)))
            }
            Code::TApp(f) => match self.eval(caps, f)?.forced()? {
                // The constructor argument is erased; bind a dummy so
                // the body's slots line up.
                Value::TClosure(lam, captured) => self.call(lam, captured, self.unit.clone()),
                _ => Err(EvalError::Stuck("a type function")),
            },
            Code::Fix(body, depth) => {
                let cell = Rc::new(OnceCell::new());
                let promise = Rc::new(Value::Promise(cell.clone()));
                let v = self.under(caps, promise, *depth, body)?;
                // Each `fix` makes a fresh cell, so this is its only fill.
                let _ = cell.set(v.clone());
                self.stats.backpatches += 1;
                Ok(v)
            }
            Code::Prim(op, a, b) => {
                let a = self.eval(caps, a)?.as_int()?;
                let b = self.eval(caps, b)?.as_int()?;
                Ok(match op {
                    PrimOp::Add => Rc::new(Value::Int(a.wrapping_add(b))),
                    PrimOp::Sub => Rc::new(Value::Int(a.wrapping_sub(b))),
                    PrimOp::Mul => Rc::new(Value::Int(a.wrapping_mul(b))),
                    PrimOp::Eq => self.boolean(a == b),
                    PrimOp::Lt => self.boolean(a < b),
                })
            }
            Code::If(c, t, f) => {
                if self.eval(caps, c)?.as_bool()? {
                    self.eval(caps, t)
                } else {
                    self.eval(caps, f)
                }
            }
            Code::Inj(i, body) => {
                let v = self.eval(caps, body)?;
                Ok(Rc::new(Value::Inj(*i, v)))
            }
            Code::Case(scrut, branches, depth) => match self.eval(caps, scrut)?.forced()? {
                Value::Inj(i, payload) => match branches.get(*i) {
                    Some(branch) => self.under(caps, payload.clone(), *depth, branch),
                    None => Err(EvalError::Stuck("a branch for this injection")),
                },
                _ => Err(EvalError::Stuck("a sum value")),
            },
            Code::Coerce(body) => self.eval(caps, body),
            Code::Fail => Err(EvalError::Failure),
            Code::Let(bound, body, depth) => {
                let v = self.eval(caps, bound)?;
                self.under(caps, v, *depth, body)
            }
        }
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

    /// Applies a closure: runs its body in a new frame holding `arg`.
    /// Like [`under`](Self::under), it pops what it pushed on every
    /// outcome, so the stack is empty between runs, errors included.
    fn call(
        &mut self,
        lam: &Lambda,
        captured: &[Rc<Value>],
        arg: Rc<Value>,
    ) -> EvalResult<Rc<Value>> {
        self.note_depth(lam.depth);
        let caller = std::mem::replace(&mut self.base, self.stack.len());
        self.stack.push(arg);
        let out = self.eval(captured, &lam.body);
        self.stack.truncate(self.base);
        self.base = caller;
        out
    }

    /// Runs `body` with `v` bound in one more slot of the current frame;
    /// `depth` is the binder's static depth.
    fn under(
        &mut self,
        caps: &[Rc<Value>],
        v: Rc<Value>,
        depth: usize,
        body: &Code,
    ) -> EvalResult<Rc<Value>> {
        self.note_depth(depth);
        let top = self.stack.len();
        self.stack.push(v);
        let out = self.eval(caps, body);
        self.stack.truncate(top);
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
