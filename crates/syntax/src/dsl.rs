//! Ergonomic constructors for writing internal-language syntax by hand.
//!
//! These helpers keep tests, examples, and the phase-splitting code
//! readable: `mu(tkind(), cvar(0))` instead of nested `Box::new` chains.
//! All functions are thin wrappers over the [`crate::ast`] constructors.

use crate::ast::{Con, Index, Kind, Module, PrimOp, Sig, Term, Ty};
use crate::intern::hc;

// --- kinds -----------------------------------------------------------------

/// The kind `T`.
pub fn tkind() -> Kind {
    Kind::Type
}

/// The kind `1`.
pub fn unit_kind() -> Kind {
    Kind::Unit
}

/// The singleton kind `Q(c)`.
pub fn q(c: Con) -> Kind {
    Kind::Singleton(hc(c))
}

/// The dependent product kind `Πα:κ₁.κ₂` (κ₂ under the binder).
pub fn pi(k1: Kind, k2: Kind) -> Kind {
    Kind::Pi(hc(k1), hc(k2))
}

/// The dependent sum kind `Σα:κ₁.κ₂` (κ₂ under the binder).
pub fn sigma(k1: Kind, k2: Kind) -> Kind {
    Kind::Sigma(hc(k1), hc(k2))
}

// --- constructors ----------------------------------------------------------

/// A constructor variable.
pub fn cvar(i: Index) -> Con {
    Con::Var(i)
}

/// `Fst(s)` for the structure variable at index `i`.
pub fn fst(i: Index) -> Con {
    Con::Fst(i)
}

/// `λα:κ.c` (body under the binder).
pub fn clam(k: Kind, body: Con) -> Con {
    Con::Lam(hc(k), hc(body))
}

/// Constructor application.
pub fn capp(f: Con, a: Con) -> Con {
    Con::App(hc(f), hc(a))
}

/// Constructor pairing.
pub fn cpair(a: Con, b: Con) -> Con {
    Con::Pair(hc(a), hc(b))
}

/// First constructor projection.
pub fn cproj1(c: Con) -> Con {
    Con::Proj1(hc(c))
}

/// Second constructor projection.
pub fn cproj2(c: Con) -> Con {
    Con::Proj2(hc(c))
}

/// The equi-recursive fixed point `μα:κ.c` (body under the binder).
pub fn mu(k: Kind, body: Con) -> Con {
    Con::Mu(hc(k), hc(body))
}

/// The partial arrow monotype `a ⇀ b`.
pub fn carrow(a: Con, b: Con) -> Con {
    Con::Arrow(hc(a), hc(b))
}

/// The product monotype `a × b`.
pub fn cprod(a: Con, b: Con) -> Con {
    Con::Prod(hc(a), hc(b))
}

/// An n-ary sum monotype.
pub fn csum<I: IntoIterator<Item = Con>>(cs: I) -> Con {
    Con::Sum(cs.into_iter().map(hc).collect())
}

// --- types ------------------------------------------------------------------

/// The monotype embedding `Con(c)`.
pub fn tcon(c: Con) -> Ty {
    Ty::Con(hc(c))
}

/// The total arrow `a → b`.
pub fn total(a: Ty, b: Ty) -> Ty {
    Ty::Total(hc(a), hc(b))
}

/// The partial arrow `a ⇀ b`.
pub fn partial(a: Ty, b: Ty) -> Ty {
    Ty::Partial(hc(a), hc(b))
}

/// The type product `a × b`.
pub fn tprod(a: Ty, b: Ty) -> Ty {
    Ty::Prod(hc(a), hc(b))
}

/// The polymorphic type `∀α:κ.σ` (body under the binder).
pub fn forall(k: Kind, t: Ty) -> Ty {
    Ty::Forall(hc(k), hc(t))
}

// --- terms -------------------------------------------------------------------

/// A term variable.
pub fn var(i: Index) -> Term {
    Term::Var(i)
}

/// `snd(s)` for the structure variable at index `i`.
pub fn snd(i: Index) -> Term {
    Term::Snd(i)
}

/// `λx:σ.e` (body under the binder).
pub fn lam(t: Ty, body: Term) -> Term {
    Term::Lam(hc(t), Box::new(body))
}

/// Term application.
pub fn app(f: Term, a: Term) -> Term {
    Term::App(Box::new(f), Box::new(a))
}

/// Term pairing.
pub fn pair(a: Term, b: Term) -> Term {
    Term::Pair(Box::new(a), Box::new(b))
}

/// First term projection.
pub fn proj1(e: Term) -> Term {
    Term::Proj1(Box::new(e))
}

/// Second term projection.
pub fn proj2(e: Term) -> Term {
    Term::Proj2(Box::new(e))
}

/// `Λα:κ.e` (body under the binder).
pub fn tlam(k: Kind, body: Term) -> Term {
    Term::TLam(hc(k), Box::new(body))
}

/// Constructor application `e[c]`.
pub fn tapp(e: Term, c: Con) -> Term {
    Term::TApp(Box::new(e), c)
}

/// `fix(x:σ.e)` (body under the binder).
pub fn fix(t: Ty, body: Term) -> Term {
    Term::Fix(hc(t), Box::new(body))
}

/// An integer literal.
pub fn int(n: i64) -> Term {
    Term::IntLit(n)
}

/// A boolean literal.
pub fn boolean(b: bool) -> Term {
    Term::BoolLit(b)
}

/// A binary primop application.
pub fn prim(op: PrimOp, a: Term, b: Term) -> Term {
    Term::Prim(op, vec![a, b])
}

/// `if c then t else f`.
pub fn ite(c: Term, t: Term, f: Term) -> Term {
    Term::If(Box::new(c), Box::new(t), Box::new(f))
}

/// Injection into a sum.
pub fn inj(i: usize, sum: Con, e: Term) -> Term {
    Term::Inj(i, sum, Box::new(e))
}

/// Sum elimination (each branch body under one term binder).
pub fn case<I: IntoIterator<Item = Term>>(scrut: Term, branches: I) -> Term {
    Term::Case(Box::new(scrut), branches.into_iter().collect())
}

/// Iso-recursive introduction.
pub fn roll(c: Con, e: Term) -> Term {
    Term::Roll(c, Box::new(e))
}

/// Iso-recursive elimination.
pub fn unroll(e: Term) -> Term {
    Term::Unroll(Box::new(e))
}

/// `fail[σ]`.
pub fn fail(t: Ty) -> Term {
    Term::Fail(hc(t))
}

/// `let x = e in body` (body under the binder).
pub fn let_(e: Term, body: Term) -> Term {
    Term::Let(Box::new(e), Box::new(body))
}

// --- signatures and modules --------------------------------------------------

/// The flat signature `[α:κ.σ]` (type under the binder).
pub fn sig(k: Kind, t: Ty) -> Sig {
    Sig::Struct(hc(k), hc(t))
}

/// The recursively-dependent signature `ρs.S` (signature under the binder).
pub fn rds(s: Sig) -> Sig {
    Sig::Rds(Box::new(s))
}

/// A structure variable used as a module.
pub fn mvar(i: Index) -> Module {
    Module::Var(i)
}

/// The flat structure `[c, e]`.
pub fn strct(c: Con, e: Term) -> Module {
    Module::Struct(c, e)
}

/// The recursive module `fix(s:S.M)` (body under the binder).
pub fn mfix(s: Sig, m: Module) -> Module {
    Module::Fix(Box::new(s), Box::new(m))
}

/// Opaque sealing `M :> S`.
pub fn seal(m: Module, s: Sig) -> Module {
    Module::Seal(Box::new(m), Box::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsl_builds_expected_shapes() {
        assert_eq!(q(Con::Int), Kind::Singleton(hc(Con::Int)));
        assert_eq!(
            mu(tkind(), cvar(0)),
            Con::Mu(hc(Kind::Type), hc(Con::Var(0)))
        );
        assert_eq!(
            sig(tkind(), tcon(cvar(0))),
            Sig::Struct(hc(Kind::Type), hc(Ty::Con(hc(Con::Var(0)))))
        );
    }
}
