//! Term equality (paper appendix A.1, `Γ ⊢ e₁ = e₂ : σ`).
//!
//! The appendix axiomatizes a βη equational theory over terms (with a
//! `fix`-unrolling rule). Full equality is undecidable, so this module
//! provides a **sound, incomplete** decision procedure adequate for the
//! equations the paper actually uses (the definitional extensions of
//! Figures 4 and 5, and the β/η axioms):
//!
//! * weak-head β-reduction: `(λx.e)v`, `π((e₁,e₂))`, `(Λα.e)[c]`,
//!   `let`, `if` and `case` on literal scrutinees, primops on literals,
//!   `unroll (roll e)`;
//! * η for functions, pairs, and constructor abstractions;
//! * congruence elsewhere; `fix` is compared by congruence only (no
//!   unrolling — that rule is the undecidable one);
//! * embedded constructors are compared with the kind-directed
//!   equivalence of [`crate::equiv`] **at kind `T`** (annotations in
//!   checking positions are compared as types).
//!
//! A failure verdict means "not provably equal by this procedure", not
//! a semantic inequality.

use recmod_syntax::ast::{Con, Term, Ty};
use recmod_syntax::intern::hc;
use recmod_syntax::subst::{shift_term, subst_con_term, subst_term_term};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::Tc;

impl Tc {
    /// `Γ ⊢ e₁ = e₂` — bounded βη equality (see module docs). The terms
    /// are assumed well-typed at a common type.
    pub fn term_eq(&self, ctx: &mut Ctx, e1: &Term, e2: &Term) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.term_eq");
        let _depth = self.descend("term_eq")?;
        self.burn(crate::stats::FuelOp::TermEq)?;
        let a = self.term_whnf(e1)?;
        let b = self.term_whnf(e2)?;
        match (&a, &b) {
            _ if a == b => Ok(()),
            (Term::Var(i), Term::Var(j)) | (Term::Snd(i), Term::Snd(j)) if i == j => Ok(()),
            (Term::Lam(t1, b1), Term::Lam(t2, b2)) => {
                self.ty_eq(ctx, t1, t2)?;
                ctx.with_term(t1.clone(), true, |ctx| self.term_eq(ctx, b1, b2))
            }
            // η: λx. e x = e
            (Term::Lam(t, body), other) | (other, Term::Lam(t, body)) => {
                let expanded = Term::App(Box::new(shift_term(other, 1, 0)), Box::new(Term::Var(0)));
                ctx.with_term(t.clone(), true, |ctx| self.term_eq(ctx, body, &expanded))
            }
            (Term::TLam(k1, b1), Term::TLam(k2, b2)) => {
                self.kind_eq(ctx, k1, k2)?;
                ctx.with_con((**k1).clone(), |ctx| self.term_eq(ctx, b1, b2))
            }
            (Term::Pair(a1, b1), Term::Pair(a2, b2)) => {
                self.term_eq(ctx, a1, a2)?;
                self.term_eq(ctx, b1, b2)
            }
            // η: (π₁ e, π₂ e) = e
            (Term::Pair(l, r), other) | (other, Term::Pair(l, r)) => {
                self.term_eq(ctx, l, &Term::Proj1(Box::new(other.clone())))?;
                self.term_eq(ctx, r, &Term::Proj2(Box::new(other.clone())))
            }
            (Term::App(f1, a1), Term::App(f2, a2)) => {
                self.term_eq(ctx, f1, f2)?;
                self.term_eq(ctx, a1, a2)
            }
            (Term::Proj1(x), Term::Proj1(y)) | (Term::Proj2(x), Term::Proj2(y)) => {
                self.term_eq(ctx, x, y)
            }
            (Term::TApp(f1, c1), Term::TApp(f2, c2)) => {
                self.term_eq(ctx, f1, f2)?;
                self.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)
            }
            (Term::Fix(t1, b1), Term::Fix(t2, b2)) => {
                self.ty_eq(ctx, t1, t2)?;
                ctx.with_term(t1.clone(), false, |ctx| self.term_eq(ctx, b1, b2))
            }
            (Term::Prim(o1, xs), Term::Prim(o2, ys)) if o1 == o2 && xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.term_eq(ctx, x, y)?;
                }
                Ok(())
            }
            (Term::If(c1, t1, f1), Term::If(c2, t2, f2)) => {
                self.term_eq(ctx, c1, c2)?;
                self.term_eq(ctx, t1, t2)?;
                self.term_eq(ctx, f1, f2)
            }
            (Term::Inj(i, c1, x), Term::Inj(j, c2, y)) if i == j => {
                self.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)?;
                self.term_eq(ctx, x, y)
            }
            (Term::Case(s1, bs1), Term::Case(s2, bs2)) if bs1.len() == bs2.len() => {
                self.term_eq(ctx, s1, s2)?;
                for (x, y) in bs1.iter().zip(bs2) {
                    // Branch payload types are not tracked here; compare
                    // under an uninformative binder.
                    ctx.with_term(hc(Ty::Unit), true, |ctx| self.term_eq(ctx, x, y))?;
                }
                Ok(())
            }
            (Term::Roll(c1, x), Term::Roll(c2, y)) => {
                self.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)?;
                self.term_eq(ctx, x, y)
            }
            (Term::Unroll(x), Term::Unroll(y)) => self.term_eq(ctx, x, y),
            (Term::Fail(t1), Term::Fail(t2)) => self.ty_eq(ctx, t1, t2),
            (Term::Let(x1, b1), Term::Let(x2, b2)) => {
                self.term_eq(ctx, x1, x2)?;
                ctx.with_term(hc(Ty::Unit), true, |ctx| self.term_eq(ctx, b1, b2))
            }
            _ => raise(TypeError::Other(format!(
                "terms are not provably equal: {} vs {}",
                show::term(&a),
                show::term(&b)
            ))),
        }
    }

    /// Weak-head β-reduction on terms (no `fix` unrolling).
    pub fn term_whnf(&self, e: &Term) -> TcResult<Term> {
        let mut cur = e.clone();
        loop {
            self.burn(crate::stats::FuelOp::TermNorm)?;
            match cur {
                Term::App(f, a) => {
                    let f = self.term_whnf(&f)?;
                    match f {
                        Term::Lam(_, body) if is_value(&a) => {
                            cur = subst_term_term(&body, &a);
                        }
                        other => return Ok(Term::App(Box::new(other), a)),
                    }
                }
                Term::Proj1(p) => {
                    let p = self.term_whnf(&p)?;
                    match p {
                        Term::Pair(l, _) => cur = *l,
                        other => return Ok(Term::Proj1(Box::new(other))),
                    }
                }
                Term::Proj2(p) => {
                    let p = self.term_whnf(&p)?;
                    match p {
                        Term::Pair(_, r) => cur = *r,
                        other => return Ok(Term::Proj2(Box::new(other))),
                    }
                }
                Term::TApp(f, c) => {
                    let f = self.term_whnf(&f)?;
                    match f {
                        Term::TLam(_, body) => cur = subst_con_term(&body, &c),
                        other => return Ok(Term::TApp(Box::new(other), c)),
                    }
                }
                Term::Let(x, body) => {
                    if is_value(&x) {
                        cur = subst_term_term(&body, &x);
                    } else {
                        return Ok(Term::Let(x, body));
                    }
                }
                Term::If(c, t, f) => {
                    let c = self.term_whnf(&c)?;
                    match c {
                        Term::BoolLit(true) => cur = *t,
                        Term::BoolLit(false) => cur = *f,
                        other => return Ok(Term::If(Box::new(other), t, f)),
                    }
                }
                Term::Case(s, branches) => {
                    let s = self.term_whnf(&s)?;
                    match s {
                        Term::Inj(i, _, payload) if is_value(&payload) => {
                            let Some(branch) = branches.get(i) else {
                                return raise(TypeError::Other(
                                    "case branch index out of range".to_string(),
                                ));
                            };
                            cur = subst_term_term(branch, &payload);
                        }
                        other => return Ok(Term::Case(Box::new(other), branches)),
                    }
                }
                Term::Unroll(x) => {
                    let x = self.term_whnf(&x)?;
                    match x {
                        Term::Roll(_, inner) => cur = *inner,
                        other => return Ok(Term::Unroll(Box::new(other))),
                    }
                }
                Term::Prim(op, args) => {
                    let xs: Vec<Term> = args
                        .iter()
                        .map(|a| self.term_whnf(a))
                        .collect::<TcResult<_>>()?;
                    if let [Term::IntLit(a), Term::IntLit(b)] = xs.as_slice() {
                        use recmod_syntax::ast::PrimOp;
                        cur = match op {
                            PrimOp::Add => Term::IntLit(a.wrapping_add(*b)),
                            PrimOp::Sub => Term::IntLit(a.wrapping_sub(*b)),
                            PrimOp::Mul => Term::IntLit(a.wrapping_mul(*b)),
                            PrimOp::Eq => Term::BoolLit(a == b),
                            PrimOp::Lt => Term::BoolLit(a < b),
                        };
                    } else {
                        return Ok(Term::Prim(op, xs));
                    }
                }
                other => return Ok(other),
            }
        }
    }
}

/// Syntactic values (for the β-value discipline: the appendix β rule
/// requires `Γ ⊢ e₁ ⇓`; syntactic valuehood is the sound approximation).
fn is_value(e: &Term) -> bool {
    match e {
        Term::Var(_)
        | Term::Star
        | Term::Lam(_, _)
        | Term::TLam(_, _)
        | Term::IntLit(_)
        | Term::BoolLit(_) => true,
        Term::Pair(a, b) => is_value(a) && is_value(b),
        Term::Inj(_, _, x) | Term::Roll(_, x) => is_value(x),
        _ => false,
    }
}

/// Module equality `Γ ⊢ M₁ = M₂ : S` (appendix A.2/A.3): compile-time
/// parts equal as constructors, run-time parts equal as terms — with
/// the non-standard Figure-4 equation built in by comparing the
/// *phase-split* dynamic parts. Lives here (not in the phase crate) in
/// spirit, but the splitting itself is provided by the caller to avoid
/// a dependency cycle; see `recmod-phase`'s `module_eq`.
pub fn parts_eq(
    tc: &Tc,
    ctx: &mut Ctx,
    (c1, e1): (&Con, &Term),
    (c2, e2): (&Con, &Term),
) -> TcResult<()> {
    tc.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)
        .or_else(|_| {
            // Static parts need not be monotypes; fall back to kind
            // synthesis plus kind-directed comparison.
            let k = tc.synth_con(ctx, c1)?;
            tc.con_equiv(ctx, c1, c2, &k)
        })?;
    tc.term_eq(ctx, e1, e2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    fn tc() -> Tc {
        Tc::new()
    }

    #[test]
    fn beta_for_functions() {
        // (λx:int. x + 1) 2 = 3
        let lhs = app(
            lam(
                tcon(Con::Int),
                prim(recmod_syntax::ast::PrimOp::Add, var(0), int(1)),
            ),
            int(2),
        );
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &lhs, &int(3)).unwrap();
    }

    #[test]
    fn beta_for_pairs_and_projections() {
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &proj1(pair(int(1), int(2))), &int(1))
            .unwrap();
        tc().term_eq(&mut ctx, &proj2(pair(int(1), int(2))), &int(2))
            .unwrap();
    }

    #[test]
    fn eta_for_functions() {
        // λx:int. f x = f   (f free)
        let mut ctx = Ctx::new();
        ctx.with_term(hc(partial(tcon(Con::Int), tcon(Con::Int))), true, |ctx| {
            let eta = lam(tcon(Con::Int), app(var(1), var(0)));
            tc().term_eq(ctx, &eta, &var(0)).unwrap();
        });
    }

    #[test]
    fn eta_for_pairs() {
        let mut ctx = Ctx::new();
        ctx.with_term(hc(tprod(tcon(Con::Int), tcon(Con::Int))), true, |ctx| {
            let eta = pair(proj1(var(0)), proj2(var(0)));
            tc().term_eq(ctx, &eta, &var(0)).unwrap();
        });
    }

    #[test]
    fn unroll_roll_cancels() {
        let m = mu(tkind(), csum([Con::UnitTy, cvar(0)]));
        let sum = csum([Con::UnitTy, m.clone()]);
        let e = unroll(roll(m, inj(0, sum.clone(), Term::Star)));
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &e, &inj(0, sum, Term::Star))
            .unwrap();
    }

    #[test]
    fn fix_compared_by_congruence() {
        let body = lam(
            tcon(Con::Int),
            ite(
                prim(recmod_syntax::ast::PrimOp::Eq, var(0), int(0)),
                int(0),
                app(
                    var(1),
                    prim(recmod_syntax::ast::PrimOp::Sub, var(0), int(1)),
                ),
            ),
        );
        let f = fix(partial(tcon(Con::Int), tcon(Con::Int)), body.clone());
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &f, &f.clone()).unwrap();
        // η alone proves λx. f x = f …
        let eta = lam(tcon(Con::Int), app(shift_term(&f, 1, 0), var(0)));
        tc().term_eq(&mut ctx, &f, &eta).unwrap();
        // … but the genuine *unrolling* (substituting f into its own
        // body) is not proven: that rule is the undecidable one and is
        // deliberately omitted.
        let unrolled = subst_term_term(&body, &f);
        assert!(tc().term_eq(&mut ctx, &f, &unrolled).is_err());
    }

    #[test]
    fn distinct_literals_differ() {
        let mut ctx = Ctx::new();
        assert!(tc().term_eq(&mut ctx, &int(1), &int(2)).is_err());
        assert!(tc().term_eq(&mut ctx, &boolean(true), &int(1)).is_err());
    }

    #[test]
    fn case_on_literal_scrutinee_reduces() {
        let sum = csum([Con::Int, Con::Bool]);
        let e = case(inj(0, sum, int(5)), [var(0), int(0)]);
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &e, &int(5)).unwrap();
    }

    #[test]
    fn annotations_compared_up_to_equivalence() {
        // fail[Con(μα.int⇀α)] = fail[Con(int ⇀ μα.int⇀α)] — equal types.
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let u = carrow(Con::Int, m.clone());
        let mut ctx = Ctx::new();
        tc().term_eq(&mut ctx, &fail(tcon(m)), &fail(tcon(u)))
            .unwrap();
    }
}
