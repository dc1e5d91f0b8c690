//! The erased, closure-converted code tree the interpreter runs.
//!
//! [`erase`] translates a [`Term`] into a [`Code`] tree once, before
//! evaluation: type annotations, kinds and constructors are dropped,
//! literals become shared values, and every variable is resolved to the
//! place its value lives at run time:
//!
//! * bound in the current function (its parameter, or a `let`, `case`
//!   or `fix` binder inside its body): [`Slot::Local`], a slot in the
//!   interpreter's frame stack counted from the frame base;
//! * bound outside the current function: [`Slot::Captured`], an index
//!   into the running closure's flat capture array;
//! * not bound at all: [`Code::Open`], an error when reached.
//!
//! `λ`/`Λ` become an `Rc`-shared [`Lambda`] that lists what each closure
//! built from it must capture, so building a closure copies exactly the
//! values the body uses, and a binding is a push onto the frame stack
//! rather than a heap-allocated environment node.
//!
//! Every binder records its *static depth*: the number of binders
//! enclosing it, itself included. The interpreter runs a program from
//! the empty environment and a closure captures its definition site, so
//! the static depth is the length the environment would have at that
//! binder, and `EvalStats::max_env_depth` reads it directly.
//!
//! Two shapes with no run-time content are fused into one node each
//! (superinstructions), so the interpreter runs them without
//! re-entering its tree walk:
//!
//! * `(λx:τ.x) e`, the wrapper an annotation `(e : τ)` elaborates to,
//!   becomes [`Code::Ascribe`]: no closure is built and no frame opened;
//! * a chain of `π₁`/`π₂`/`roll`/`unroll` holding at least one
//!   projection becomes [`Code::Path`], which walks the value by
//!   reference.
//!
//! A chain of `roll`/`unroll` alone stays one [`Code::Coerce`] per
//! link, which the interpreter runs in a loop in the same frame.
//!
//! **Each node charges the `Term` nodes it stands for**: a fused node
//! charges one step (and one level of recursion depth) for every `Term`
//! node it replaces, at the point the `Term` walk would have, so step
//! counts, fuel, recursion depth and deadline checks are the same as
//! they would be walking the `Term` itself.

use std::rc::Rc;

use recmod_syntax::ast::{PrimOp, Term};

use crate::error::{EvalError, EvalResult};
use crate::value::Value;

/// Where a variable's value lives while a function body runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A frame-stack slot, counted from the current frame's base (slot
    /// 0 is the function's argument).
    Local(usize),
    /// An index into the running closure's capture array.
    Captured(usize),
}

/// A closure-converted `λx:τ.e` or `Λα:κ.e`, shared by every closure
/// built from it.
#[derive(Debug)]
pub struct Lambda {
    /// Where, in the function that builds the closure, each captured
    /// value lives; the body reads capture `i` as [`Slot::Captured`]`(i)`.
    pub(crate) captures: Box<[Slot]>,
    /// The body, run in a fresh frame whose slot 0 is the argument.
    pub(crate) body: Code,
    /// Static depth of the parameter binder.
    pub(crate) depth: usize,
}

/// One link of a [`Code::Path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// `π₁`.
    Fst,
    /// `π₂`.
    Snd,
    /// `roll` or `unroll`: no run-time effect.
    Coerce,
}

/// A type-erased program node. Variants mirror [`Term`], minus the type
/// information the evaluator never reads, plus the fused
/// [`Ascribe`](Code::Ascribe) and [`Path`](Code::Path); the binders
/// `let`, `case` and `fix` carry their static depth.
#[derive(Debug)]
pub enum Code {
    /// A bound variable, resolved to where its value lives.
    Var(Slot),
    /// A free variable, or `snd(s)` (a structure variable survived
    /// phase splitting); running it is [`EvalError::OpenTerm`].
    Open,
    /// A literal (`*`, an integer or a boolean), allocated once.
    Const(Rc<Value>),
    /// `λx:τ.e`.
    Lam(Rc<Lambda>),
    /// Application.
    App(Box<Code>, Box<Code>),
    /// `(λx:τ.x) e`, with the static depth of `x`. Charged as its three
    /// `Term` nodes (the application, the `λ` and the variable) and
    /// counted as a closure, but no closure is built.
    Ascribe(Box<Code>, usize),
    /// Pair construction.
    Pair(Box<Code>, Box<Code>),
    /// A chain of `π₁`/`π₂`/`roll`/`unroll` over its base, links listed
    /// innermost first; at least one link is a projection. Charged one
    /// step and one level of depth per link.
    Path(Box<[Link]>, Box<Code>),
    /// `Λα:κ.e`; applied, it binds a dummy argument.
    TLam(Rc<Lambda>),
    /// Type application; the constructor argument is erased.
    TApp(Box<Code>),
    /// `fix(x:σ.e)`, implemented by backpatching.
    Fix(Box<Code>, usize),
    /// A binary primitive.
    Prim(PrimOp, Box<Code>, Box<Code>),
    /// Conditional.
    If(Box<Code>, Box<Code>, Box<Code>),
    /// Sum injection.
    Inj(usize, Box<Code>),
    /// Case analysis; each branch binds the payload.
    Case(Box<Code>, Box<[Code]>, usize),
    /// `roll` or `unroll` outside a projection chain: no run-time
    /// effect, but still one step.
    Coerce(Box<Code>),
    /// `fail[σ]`.
    Fail,
    /// `let x = e₁ in e₂`.
    Let(Box<Code>, Box<Code>, usize),
}

/// Erases and closure-converts a term into its [`Code`] tree.
///
/// # Errors
///
/// [`EvalError::Stuck`] when a primitive does not have exactly two
/// operands (only reachable for terms built by hand through the public
/// AST; the surface pipeline never produces one).
pub fn erase(t: &Term) -> EvalResult<Code> {
    Eraser {
        depth: 0,
        scopes: vec![Scope::default()],
    }
    .code(t)
}

/// One function being erased: the outermost scope is the program.
#[derive(Default)]
struct Scope {
    /// Static depth outside the function; its parameter is at this level.
    base: usize,
    /// The levels the function captures, each with where the enclosing
    /// function finds it.
    captures: Vec<(usize, Slot)>,
}

struct Eraser {
    /// Binders enclosing the node being erased.
    depth: usize,
    /// The functions enclosing it, outermost first; bases increase.
    scopes: Vec<Scope>,
}

impl Eraser {
    fn code(&mut self, t: &Term) -> EvalResult<Code> {
        Ok(match t {
            Term::Var(i) => self.resolve(*i).map_or(Code::Open, Code::Var),
            Term::Snd(_) => Code::Open,
            Term::Star => Code::Const(Rc::new(Value::Unit)),
            Term::IntLit(n) => Code::Const(Rc::new(Value::Int(*n))),
            Term::BoolLit(b) => Code::Const(Rc::new(Value::Bool(*b))),
            Term::Lam(_, body) => Code::Lam(self.lambda(body)?),
            Term::TLam(_, body) => Code::TLam(self.lambda(body)?),
            Term::App(f, a) => match &**f {
                // The variable is the λ's own parameter, so the λ
                // captures nothing and fusing it changes no capture list.
                Term::Lam(_, body) if matches!(**body, Term::Var(0)) => {
                    Code::Ascribe(self.boxed(a)?, self.depth + 1)
                }
                _ => Code::App(self.boxed(f)?, self.boxed(a)?),
            },
            Term::Pair(a, b) => Code::Pair(self.boxed(a)?, self.boxed(b)?),
            Term::Proj1(_) | Term::Proj2(_) | Term::Roll(..) | Term::Unroll(_) => self.chain(t)?,
            Term::TApp(f, _) => Code::TApp(self.boxed(f)?),
            Term::Fix(_, body) => Code::Fix(Box::new(self.under(body)?), self.depth + 1),
            Term::Prim(op, args) => match args.as_slice() {
                [a, b] => Code::Prim(*op, self.boxed(a)?, self.boxed(b)?),
                _ => return Err(EvalError::Stuck("two operands for a primitive")),
            },
            Term::If(c, t, f) => Code::If(self.boxed(c)?, self.boxed(t)?, self.boxed(f)?),
            Term::Inj(i, _, body) => Code::Inj(*i, self.boxed(body)?),
            Term::Case(scrut, branches) => {
                let scrut = self.boxed(scrut)?;
                let branches = branches
                    .iter()
                    .map(|b| self.under(b))
                    .collect::<EvalResult<_>>()?;
                Code::Case(scrut, branches, self.depth + 1)
            }
            Term::Fail(_) => Code::Fail,
            Term::Let(bound, body) => {
                let bound = self.boxed(bound)?;
                Code::Let(bound, Box::new(self.under(body)?), self.depth + 1)
            }
        })
    }

    /// Erases a maximal chain of `π₁`/`π₂`/`roll`/`unroll` starting at
    /// `t`: a [`Code::Path`] when it projects, else nested coercions.
    fn chain(&mut self, mut t: &Term) -> EvalResult<Code> {
        let mut links = Vec::new();
        loop {
            let (link, inner) = match t {
                Term::Proj1(p) => (Link::Fst, p),
                Term::Proj2(p) => (Link::Snd, p),
                Term::Roll(_, p) | Term::Unroll(p) => (Link::Coerce, p),
                _ => break,
            };
            links.push(link);
            t = inner;
        }
        let base = self.boxed(t)?;
        if links.iter().all(|&l| l == Link::Coerce) {
            return Ok(*links.iter().fold(base, |c, _| Box::new(Code::Coerce(c))));
        }
        links.reverse();
        Ok(Code::Path(links.into(), base))
    }

    fn boxed(&mut self, t: &Term) -> EvalResult<Box<Code>> {
        self.code(t).map(Box::new)
    }

    /// Erases `t` under one more binder, whose static depth is then
    /// `self.depth + 1`.
    fn under(&mut self, t: &Term) -> EvalResult<Code> {
        self.depth += 1;
        let out = self.code(t);
        self.depth -= 1;
        out
    }

    /// Erases the body of a `λ`/`Λ` as a function of its own.
    fn lambda(&mut self, body: &Term) -> EvalResult<Rc<Lambda>> {
        self.scopes.push(Scope {
            base: self.depth,
            captures: Vec::new(),
        });
        let body = self.under(body);
        let captures = self.scopes.pop().map(|s| s.captures).unwrap_or_default();
        Ok(Rc::new(Lambda {
            captures: captures.into_iter().map(|(_, slot)| slot).collect(),
            body: body?,
            depth: self.depth + 1,
        }))
    }

    /// Resolves de Bruijn index `i` in the innermost function, adding it
    /// to the captures of every function between its binder and here.
    /// `None` when nothing binds it.
    fn resolve(&mut self, i: usize) -> Option<Slot> {
        let level = self.depth.checked_sub(i)?.checked_sub(1)?;
        let owner = self.scopes.iter().rposition(|s| s.base <= level)?;
        let mut slot = Slot::Local(level - self.scopes.get(owner)?.base);
        for scope in self.scopes.iter_mut().skip(owner + 1) {
            let index = match scope.captures.iter().position(|&(l, _)| l == level) {
                Some(index) => index,
                None => {
                    scope.captures.push((level, slot));
                    scope.captures.len() - 1
                }
            };
            slot = Slot::Captured(index);
        }
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::Con;
    use recmod_syntax::dsl::*;

    /// Nodes in a term: the steps the `Term` walk charged for running
    /// each of them once.
    fn term_nodes(t: &Term) -> usize {
        1 + match t {
            Term::Var(_)
            | Term::Snd(_)
            | Term::Star
            | Term::IntLit(_)
            | Term::BoolLit(_)
            | Term::Fail(_) => 0,
            Term::Lam(_, b)
            | Term::TLam(_, b)
            | Term::Proj1(b)
            | Term::Proj2(b)
            | Term::TApp(b, _)
            | Term::Fix(_, b)
            | Term::Inj(_, _, b)
            | Term::Roll(_, b)
            | Term::Unroll(b) => term_nodes(b),
            Term::App(a, b) | Term::Pair(a, b) | Term::Let(a, b) => term_nodes(a) + term_nodes(b),
            Term::If(c, t, f) => term_nodes(c) + term_nodes(t) + term_nodes(f),
            Term::Prim(_, args) => args.iter().map(term_nodes).sum(),
            Term::Case(s, bs) => term_nodes(s) + bs.iter().map(term_nodes).sum::<usize>(),
        }
    }

    /// The steps the interpreter charges for running every node of `c`
    /// once: one per node, except that a fused node charges each `Term`
    /// node it stands for.
    fn charged(c: &Code) -> usize {
        match c {
            Code::Var(_) | Code::Open | Code::Const(_) | Code::Fail => 1,
            Code::Lam(l) | Code::TLam(l) => 1 + charged(&l.body),
            // The application, the λ and its variable.
            Code::Ascribe(e, _) => 3 + charged(e),
            Code::Path(links, base) => links.len() + charged(base),
            Code::TApp(b) | Code::Fix(b, _) | Code::Inj(_, b) | Code::Coerce(b) => 1 + charged(b),
            Code::App(a, b) | Code::Pair(a, b) | Code::Let(a, b, _) | Code::Prim(_, a, b) => {
                1 + charged(a) + charged(b)
            }
            Code::If(c, t, f) => 1 + charged(c) + charged(t) + charged(f),
            Code::Case(s, bs, _) => 1 + charged(s) + bs.iter().map(charged).sum::<usize>(),
        }
    }

    fn assert_charges_its_term(t: &Term) {
        let code = erase(t).unwrap();
        assert_eq!(charged(&code), term_nodes(t), "{code:?}");
    }

    fn ascribe(e: Term) -> Term {
        app(lam(tcon(Con::Int), var(0)), e)
    }

    #[test]
    fn the_code_tree_charges_its_terms_nodes() {
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let unrolled = csum([Con::UnitTy, cprod(Con::Int, listc.clone())]);
        let nil = roll(listc.clone(), inj(0, unrolled.clone(), Term::Star));
        let t = let_(
            fix(
                tcon(Con::Int),
                tlam(tkind(), lam(tcon(Con::Int), app(var(2), var(0)))),
            ),
            case(
                unroll(nil.clone()),
                [
                    ite(boolean(true), int(1), fail(tcon(Con::Int))),
                    prim(
                        PrimOp::Add,
                        proj1(var(0)),
                        proj2(pair(int(2), Term::Snd(0))),
                    ),
                ],
            ),
        );
        assert_charges_its_term(&t);
        // Nested ascriptions, over a leaf and over an application.
        assert_charges_its_term(&ascribe(ascribe(int(1))));
        assert_charges_its_term(&let_(
            int(1),
            ascribe(ascribe(app(lam(tcon(Con::Int), var(0)), ascribe(var(0))))),
        ));
        // A chain over a non-variable, and `roll`/`unroll` inside one.
        assert_charges_its_term(&proj1(proj2(pair(int(1), pair(int(2), int(3))))));
        let chain = let_(
            pair(nil.clone(), int(1)),
            roll(listc.clone(), proj1(unroll(proj2(roll(listc, var(0)))))),
        );
        assert_charges_its_term(&chain);
        // A chain of coercions alone, and an ascription inside a path.
        assert_charges_its_term(&unroll(unroll(nil)));
        assert_charges_its_term(&proj1(ascribe(pair(int(1), int(2)))));
    }

    #[test]
    fn fused_shapes_erase_to_their_nodes() {
        // let p = (1, (2, 3)) in (λx.x) (π₁ (unroll (π₂ p)))
        let listc = mu(tkind(), cvar(0));
        let t = let_(
            pair(int(1), pair(int(2), int(3))),
            ascribe(proj1(unroll(proj2(var(0))))),
        );
        let Code::Let(_, body, 1) = erase(&t).unwrap() else {
            panic!("expected a let at depth 1")
        };
        let Code::Ascribe(path, 2) = *body else {
            panic!("expected an ascription whose variable is at depth 2")
        };
        let Code::Path(links, base) = *path else {
            panic!("expected a path")
        };
        assert_eq!(&*links, &[Link::Snd, Link::Coerce, Link::Fst][..]);
        assert!(matches!(*base, Code::Var(Slot::Local(0))));
        // Coercions alone stay coercions; a λ applied to something else
        // than its own variable stays an application.
        let coerced = roll(listc.clone(), unroll(int(1)));
        assert!(
            matches!(erase(&coerced).unwrap(), Code::Coerce(inner) if matches!(*inner, Code::Coerce(_)))
        );
        let applied = app(lam(tcon(Con::Int), int(0)), int(1));
        assert!(matches!(erase(&applied).unwrap(), Code::App(..)));
    }

    #[test]
    fn variables_resolve_to_frame_slots_and_captures() {
        // let z = 0 in λa. λb. let c = b in λd. a + c
        let int_ty = || tcon(Con::Int);
        let t = let_(
            int(0),
            lam(
                int_ty(),
                lam(
                    int_ty(),
                    let_(var(0), lam(int_ty(), prim(PrimOp::Add, var(3), var(1)))),
                ),
            ),
        );
        let Code::Let(_, outer, 1) = erase(&t).unwrap() else {
            panic!("expected a let at depth 1")
        };
        let Code::Lam(la) = *outer else {
            panic!("expected λa")
        };
        let Code::Lam(lb) = &la.body else {
            panic!("expected λb")
        };
        let Code::Let(bound, body, 4) = &lb.body else {
            panic!("expected a let at depth 4")
        };
        let Code::Lam(ld) = &**body else {
            panic!("expected λd")
        };
        // λa uses nothing from outside; λb reaches `a` in λa's frame;
        // λd reaches `a` through λb's captures and `c` in λb's frame.
        assert_eq!((la.depth, &*la.captures), (2, &[][..]));
        assert_eq!((lb.depth, &*lb.captures), (3, &[Slot::Local(0)][..]));
        assert!(matches!(**bound, Code::Var(Slot::Local(0))));
        assert_eq!(
            (ld.depth, &*ld.captures),
            (5, &[Slot::Captured(0), Slot::Local(1)][..])
        );
        let Code::Prim(_, a, c) = &ld.body else {
            panic!("expected a + c")
        };
        assert!(matches!(
            (&**a, &**c),
            (Code::Var(Slot::Captured(0)), Code::Var(Slot::Captured(1)))
        ));
    }
}
