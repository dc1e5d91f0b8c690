//! The erased code tree the interpreter runs.
//!
//! [`erase`] translates a closed [`Term`] into a [`Code`] tree once,
//! before evaluation: type annotations, kinds and constructors are
//! dropped, literals become shared values, and every binder body that
//! can be captured by a closure (`λ`, `Λ`) is put behind an [`Rc`], so
//! building a closure is a reference-count bump rather than a deep copy.
//!
//! The translation keeps **exactly one `Code` node per `Term` node**
//! (even `roll`/`unroll`, which do nothing at run time, keep a node).
//! The interpreter charges one step per node it enters, so step counts,
//! fuel, recursion depth and deadline checks are the same as they would
//! be walking the `Term` itself.

use std::rc::Rc;

use recmod_syntax::ast::{PrimOp, Term};

use crate::error::{EvalError, EvalResult};
use crate::value::Value;

/// A type-erased program node. Variants mirror [`Term`] one-to-one,
/// minus the type information the evaluator never reads.
#[derive(Debug)]
pub enum Code {
    /// A term variable (de Bruijn index).
    Var(usize),
    /// `snd(s)`: a structure variable survived phase splitting; running
    /// it is [`EvalError::OpenTerm`].
    Open,
    /// A literal (`*`, an integer or a boolean), allocated once.
    Const(Rc<Value>),
    /// `λx:τ.e`; the body is shared by every closure built from it.
    Lam(Rc<Code>),
    /// Application.
    App(Box<Code>, Box<Code>),
    /// Pair construction.
    Pair(Box<Code>, Box<Code>),
    /// First projection.
    Proj1(Box<Code>),
    /// Second projection.
    Proj2(Box<Code>),
    /// `Λα:κ.e`; the body is shared by every closure built from it.
    TLam(Rc<Code>),
    /// Type application; the constructor argument is erased.
    TApp(Box<Code>),
    /// `fix(x:σ.e)`, implemented by backpatching.
    Fix(Box<Code>),
    /// A binary primitive.
    Prim(PrimOp, Box<Code>, Box<Code>),
    /// Conditional.
    If(Box<Code>, Box<Code>, Box<Code>),
    /// Sum injection.
    Inj(usize, Box<Code>),
    /// Case analysis; each branch binds the payload.
    Case(Box<Code>, Box<[Code]>),
    /// `roll` or `unroll`: no run-time effect, but still one step.
    Coerce(Box<Code>),
    /// `fail[σ]`.
    Fail,
    /// `let x = e₁ in e₂`.
    Let(Box<Code>, Box<Code>),
}

/// Erases a term into its [`Code`] tree.
///
/// # Errors
///
/// [`EvalError::Stuck`] when a primitive does not have exactly two
/// operands (only reachable for terms built by hand through the public
/// AST; the surface pipeline never produces one).
pub fn erase(t: &Term) -> EvalResult<Code> {
    let boxed = |t: &Term| erase(t).map(Box::new);
    Ok(match t {
        Term::Var(i) => Code::Var(*i),
        Term::Snd(_) => Code::Open,
        Term::Star => Code::Const(Rc::new(Value::Unit)),
        Term::IntLit(n) => Code::Const(Rc::new(Value::Int(*n))),
        Term::BoolLit(b) => Code::Const(Rc::new(Value::Bool(*b))),
        Term::Lam(_, body) => Code::Lam(Rc::new(erase(body)?)),
        Term::TLam(_, body) => Code::TLam(Rc::new(erase(body)?)),
        Term::App(f, a) => Code::App(boxed(f)?, boxed(a)?),
        Term::Pair(a, b) => Code::Pair(boxed(a)?, boxed(b)?),
        Term::Proj1(p) => Code::Proj1(boxed(p)?),
        Term::Proj2(p) => Code::Proj2(boxed(p)?),
        Term::TApp(f, _) => Code::TApp(boxed(f)?),
        Term::Fix(_, body) => Code::Fix(boxed(body)?),
        Term::Prim(op, args) => match args.as_slice() {
            [a, b] => Code::Prim(*op, boxed(a)?, boxed(b)?),
            _ => return Err(EvalError::Stuck("two operands for a primitive")),
        },
        Term::If(c, t, f) => Code::If(boxed(c)?, boxed(t)?, boxed(f)?),
        Term::Inj(i, _, body) => Code::Inj(*i, boxed(body)?),
        Term::Case(scrut, branches) => Code::Case(
            boxed(scrut)?,
            branches.iter().map(erase).collect::<EvalResult<_>>()?,
        ),
        Term::Roll(_, body) | Term::Unroll(body) => Code::Coerce(boxed(body)?),
        Term::Fail(_) => Code::Fail,
        Term::Let(bound, body) => Code::Let(boxed(bound)?, boxed(body)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::Con;
    use recmod_syntax::dsl::*;

    /// Nodes in a term and in its erasure, counted the same way.
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

    fn code_nodes(c: &Code) -> usize {
        1 + match c {
            Code::Var(_) | Code::Open | Code::Const(_) | Code::Fail => 0,
            Code::Lam(b) | Code::TLam(b) => code_nodes(b),
            Code::Proj1(b)
            | Code::Proj2(b)
            | Code::TApp(b)
            | Code::Fix(b)
            | Code::Inj(_, b)
            | Code::Coerce(b) => code_nodes(b),
            Code::App(a, b) | Code::Pair(a, b) | Code::Let(a, b) | Code::Prim(_, a, b) => {
                code_nodes(a) + code_nodes(b)
            }
            Code::If(c, t, f) => code_nodes(c) + code_nodes(t) + code_nodes(f),
            Code::Case(s, bs) => code_nodes(s) + bs.iter().map(code_nodes).sum::<usize>(),
        }
    }

    #[test]
    fn one_code_node_per_term_node() {
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let unrolled = csum([Con::UnitTy, cprod(Con::Int, listc.clone())]);
        let nil = roll(listc.clone(), inj(0, unrolled.clone(), Term::Star));
        let t = let_(
            fix(
                tcon(Con::Int),
                tlam(tkind(), lam(tcon(Con::Int), app(var(2), var(0)))),
            ),
            case(
                unroll(nil),
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
        let code = erase(&t).unwrap();
        assert_eq!(code_nodes(&code), term_nodes(&t));
    }
}
