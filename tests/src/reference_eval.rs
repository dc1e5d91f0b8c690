//! The `Term`-walking interpreter the evaluator's step accounting is
//! defined by, kept as a test-only reference.
//!
//! This is the big-step interpreter `recmod-eval` shipped before it ran
//! an erased code tree: it walks the `Term` itself, charges one step per
//! node it enters, checks the recursion depth on every entry and reads
//! the deadline every 4096 steps, and builds each closure over a linked
//! environment and its own copy of the body. It is slow and simple on
//! purpose. The `eval-accounting-differential` fuzz class runs it beside
//! [`recmod::eval::Interp`] and requires the same value or error and the
//! same [`EvalStats`], also when fuel or the depth limit stops a run
//! inside a node the shipped interpreter fuses.
//!
//! Besides the counters it notes the steps at which the nodes the
//! shipped interpreter fuses are charged (see [`Reference::fused`]), so
//! the harness can stop a run exactly inside one.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use recmod::eval::{EvalError, EvalResult, EvalStats};
use recmod::syntax::ast::{PrimOp, Term};
use recmod::Limits;

/// A run-time value of the reference interpreter.
#[derive(Debug)]
pub enum Value {
    /// `*`.
    Unit,
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A pair.
    Pair(Rc<Value>, Rc<Value>),
    /// A sum injection.
    Inj(usize, Rc<Value>),
    /// A function closure: its environment and its body.
    Closure(Env, Rc<Term>),
    /// A type-function closure.
    TClosure(Env, Rc<Term>),
    /// A `fix` promise, filled when the right-hand side is done.
    Promise(Rc<RefCell<Option<Rc<Value>>>>),
}

fn force(v: &Rc<Value>) -> EvalResult<Rc<Value>> {
    match &**v {
        Value::Promise(cell) => match &*cell.borrow() {
            Some(v) => force(v),
            None => Err(EvalError::BlackHole),
        },
        _ => Ok(v.clone()),
    }
}

fn as_int(v: &Rc<Value>) -> EvalResult<i64> {
    match &*force(v)? {
        Value::Int(n) => Ok(*n),
        _ => Err(EvalError::Stuck("an integer")),
    }
}

fn as_bool(v: &Rc<Value>) -> EvalResult<bool> {
    match &*force(v)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(EvalError::Stuck("a boolean")),
    }
}

/// Renders a value the way `recmod::eval::Value` displays, stopping
/// after `budget` nodes so a value that reaches itself through a filled
/// promise still renders.
pub fn render(v: &Value, budget: &mut usize, out: &mut String) {
    if *budget == 0 {
        out.push('…');
        return;
    }
    *budget -= 1;
    match v {
        Value::Unit => out.push('*'),
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Pair(a, b) => {
            out.push('(');
            render(a, budget, out);
            out.push_str(", ");
            render(b, budget, out);
            out.push(')');
        }
        Value::Inj(i, v) => {
            let _ = write!(out, "inj{i} ");
            render(v, budget, out);
        }
        Value::Closure(..) => out.push_str("<fn>"),
        Value::TClosure(..) => out.push_str("<tfn>"),
        Value::Promise(cell) => match &*cell.borrow() {
            Some(v) => render(v, budget, out),
            None => out.push_str("<blackhole>"),
        },
    }
}

/// A persistent environment indexed by de Bruijn index.
#[derive(Debug, Clone, Default)]
pub struct Env(Option<Rc<Node>>);

#[derive(Debug)]
struct Node {
    value: Rc<Value>,
    len: usize,
    next: Env,
}

impl Env {
    fn push(&self, value: Rc<Value>) -> Env {
        Env(Some(Rc::new(Node {
            value,
            len: self.len() + 1,
            next: self.clone(),
        })))
    }

    fn lookup(&self, index: usize) -> EvalResult<Rc<Value>> {
        let mut cur = self;
        for _ in 0..index {
            match &cur.0 {
                Some(node) => cur = &node.next,
                None => return Err(EvalError::OpenTerm),
            }
        }
        match &cur.0 {
            Some(node) => Ok(node.value.clone()),
            None => Err(EvalError::OpenTerm),
        }
    }

    fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |node| node.len)
    }
}

/// The reference interpreter.
pub struct Reference {
    stats: EvalStats,
    fuel: u64,
    depth: u64,
    max_depth: u64,
    limits: Limits,
    /// The deepest the recursion went.
    pub max_depth_reached: u64,
    /// `(step, depth)` of every step charged to a node the shipped
    /// interpreter fuses: the application, `λ` and variable of a
    /// `(λx.x) e`, and each link of a projection chain with the variable
    /// or literal under it. Ordered by step; a step may repeat.
    pub fused: Vec<(u64, u64)>,
}

impl Reference {
    /// An interpreter with the given fuel and recursion-depth limits
    /// and the deadline of `limits`.
    pub fn new(fuel: u64, max_depth: u64, limits: Limits) -> Self {
        Reference {
            stats: EvalStats::default(),
            fuel,
            depth: 0,
            max_depth,
            limits,
            max_depth_reached: 0,
            fused: Vec::new(),
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Evaluates a closed term in the empty environment.
    pub fn run(&mut self, e: &Term) -> EvalResult<Rc<Value>> {
        self.eval(&Env::default(), e)
    }

    fn eval(&mut self, env: &Env, e: &Term) -> EvalResult<Rc<Value>> {
        self.depth += 1;
        if self.depth > self.max_depth {
            self.depth -= 1;
            return Err(EvalError::DepthExceeded);
        }
        self.max_depth_reached = self.max_depth_reached.max(self.depth);
        let out = self.eval_inner(env, e);
        self.depth -= 1;
        out
    }

    fn eval_inner(&mut self, env: &Env, e: &Term) -> EvalResult<Rc<Value>> {
        self.stats.steps += 1;
        if self.stats.steps > self.fuel {
            return Err(EvalError::FuelExhausted);
        }
        if self.stats.steps.is_multiple_of(4096) && self.limits.deadline_passed() {
            return Err(EvalError::Limit(self.limits.deadline_error("eval")));
        }
        self.note_fused(e);
        match e {
            Term::Var(i) => force(&env.lookup(*i)?),
            Term::Snd(_) => Err(EvalError::OpenTerm),
            Term::Star => Ok(Rc::new(Value::Unit)),
            Term::Lam(_, body) => {
                self.stats.closures += 1;
                Ok(Rc::new(Value::Closure(
                    env.clone(),
                    Rc::new((**body).clone()),
                )))
            }
            Term::App(f, a) => {
                let fv = self.eval(env, f)?;
                let av = self.eval(env, a)?;
                if ascription(e) {
                    // The variable the application enters next.
                    self.fused.push((self.stats.steps + 1, self.depth + 1));
                }
                self.apply(&fv, av)
            }
            Term::Pair(a, b) => {
                let av = self.eval(env, a)?;
                let bv = self.eval(env, b)?;
                Ok(Rc::new(Value::Pair(av, bv)))
            }
            Term::Proj1(p) => match &*force(&self.eval(env, p)?)? {
                Value::Pair(a, _) => Ok(a.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Term::Proj2(p) => match &*force(&self.eval(env, p)?)? {
                Value::Pair(_, b) => Ok(b.clone()),
                _ => Err(EvalError::Stuck("a pair")),
            },
            Term::TLam(_, body) => {
                self.stats.closures += 1;
                Ok(Rc::new(Value::TClosure(
                    env.clone(),
                    Rc::new((**body).clone()),
                )))
            }
            Term::TApp(f, _) => {
                let fv = force(&self.eval(env, f)?)?;
                match &*fv {
                    Value::TClosure(cenv, body) => {
                        let inner = self.extend(cenv, Rc::new(Value::Unit));
                        self.eval(&inner, body)
                    }
                    _ => Err(EvalError::Stuck("a type function")),
                }
            }
            Term::Fix(_, body) => {
                let cell = Rc::new(RefCell::new(None));
                let promise = Rc::new(Value::Promise(cell.clone()));
                let inner = self.extend(env, promise);
                let v = self.eval(&inner, body)?;
                *cell.borrow_mut() = Some(v.clone());
                self.stats.backpatches += 1;
                Ok(v)
            }
            Term::IntLit(n) => Ok(Rc::new(Value::Int(*n))),
            Term::BoolLit(b) => Ok(Rc::new(Value::Bool(*b))),
            Term::Prim(op, args) => {
                let a = as_int(&self.eval(env, &args[0])?)?;
                let b = as_int(&self.eval(env, &args[1])?)?;
                Ok(Rc::new(match op {
                    PrimOp::Add => Value::Int(a.wrapping_add(b)),
                    PrimOp::Sub => Value::Int(a.wrapping_sub(b)),
                    PrimOp::Mul => Value::Int(a.wrapping_mul(b)),
                    PrimOp::Eq => Value::Bool(a == b),
                    PrimOp::Lt => Value::Bool(a < b),
                }))
            }
            Term::If(c, t, f) => {
                if as_bool(&self.eval(env, c)?)? {
                    self.eval(env, t)
                } else {
                    self.eval(env, f)
                }
            }
            Term::Inj(i, _, body) => {
                let v = self.eval(env, body)?;
                Ok(Rc::new(Value::Inj(*i, v)))
            }
            Term::Case(scrut, branches) => {
                let sv = force(&self.eval(env, scrut)?)?;
                match &*sv {
                    Value::Inj(i, payload) => match branches.get(*i) {
                        Some(branch) => {
                            let inner = self.extend(env, payload.clone());
                            self.eval(&inner, branch)
                        }
                        None => Err(EvalError::Stuck("a branch for this injection")),
                    },
                    _ => Err(EvalError::Stuck("a sum value")),
                }
            }
            Term::Roll(_, body) | Term::Unroll(body) => self.eval(env, body),
            Term::Fail(_) => Err(EvalError::Failure),
            Term::Let(bound, body) => {
                let v = self.eval(env, bound)?;
                let inner = self.extend(env, v);
                self.eval(&inner, body)
            }
        }
    }

    /// Notes the steps of a fused node entered at this step: an
    /// ascription's application and `λ` (its variable is noted when the
    /// application enters it), or a projection chain's links and leaf,
    /// which the walk enters on consecutive steps, one level deeper each.
    fn note_fused(&mut self, e: &Term) {
        let (step, depth) = (self.stats.steps, self.depth);
        if ascription(e) {
            self.fused.extend([(step, depth), (step + 1, depth + 1)]);
            return;
        }
        let mut links = 0;
        let mut projects = false;
        let mut t = e;
        loop {
            t = match t {
                Term::Proj1(p) | Term::Proj2(p) => {
                    projects = true;
                    p
                }
                Term::Roll(_, p) | Term::Unroll(p) => p,
                _ => break,
            };
            links += 1;
        }
        if !projects {
            return;
        }
        let leaf = matches!(
            t,
            Term::Var(_) | Term::Star | Term::IntLit(_) | Term::BoolLit(_)
        );
        let charged = links + u64::from(leaf);
        self.fused
            .extend((0..charged).map(|j| (step + j, depth + j)));
    }

    fn extend(&mut self, env: &Env, v: Rc<Value>) -> Env {
        let inner = env.push(v);
        self.stats.max_env_depth = self.stats.max_env_depth.max(inner.len() as u64);
        inner
    }

    fn apply(&mut self, f: &Rc<Value>, arg: Rc<Value>) -> EvalResult<Rc<Value>> {
        match &*force(f)? {
            Value::Closure(env, body) => {
                let inner = self.extend(env, arg);
                self.eval(&inner, body)
            }
            _ => Err(EvalError::Stuck("a function")),
        }
    }
}

/// Is `e` the `(λx:τ.x) e'` wrapper an annotation elaborates to?
fn ascription(e: &Term) -> bool {
    matches!(e, Term::App(f, _) if matches!(&**f, Term::Lam(_, body) if matches!(**body, Term::Var(0))))
}
