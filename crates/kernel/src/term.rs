//! Term typing and valuability (paper appendix A.1).
//!
//! [`Tc::synth_term`] computes both judgements of the paper at once: it
//! returns the principal type of the term *and* whether the term is
//! valuable (`Γ ⊢ e ⇓ σ`). The valuability discipline follows §2.1:
//!
//! * λ-abstractions are always valuable, "regardless of the state of
//!   their free variables";
//! * a λ whose *body* is valuable receives the **total** arrow type
//!   `σ → σ'`; otherwise the partial arrow `σ ⇀ σ'`;
//! * an application is valuable only when the function part is a valuable
//!   *total* function and the argument is valuable;
//! * the variable bound by `fix(x:σ.e)` is typeable but **not** valuable
//!   within `e` (`x ↑ σ`), and the body must be valuable — the value
//!   restriction that rules out cyclic data such as
//!   `fix(x:int list. 1 :: x)`;
//! * `fail` (the paper's `raise Fail`) is never valuable.

use recmod_syntax::ast::{Con, PrimOp, Sig, Term, Ty};
use recmod_syntax::intern::{hc, HC};
use recmod_syntax::subst::{shift_ty_hc, subst_con_ty_hc};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::ty::mono;
use crate::Tc;

/// The result of typechecking a term: its principal type and whether it
/// is valuable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Typing {
    /// The synthesized type.
    pub ty: HC<Ty>,
    /// `true` iff `Γ ⊢ e ⇓ σ` holds (terminating, effect-free).
    pub valuable: bool,
}

impl Typing {
    fn new(ty: HC<Ty>, valuable: bool) -> Self {
        Typing { ty, valuable }
    }
}

/// Removes the innermost binder from a type that cannot mention it
/// (types never depend on term or structure variables introduced by
/// `λ`/`let`/`case`).
fn strengthen_ty(t: &HC<Ty>) -> HC<Ty> {
    shift_ty_hc(t, -1, 0)
}

impl Tc {
    /// `Γ ⊢ e : σ` and `Γ ⊢ e ⇓ σ` — synthesizes the principal type and
    /// valuability of `e`.
    pub fn synth_term(&self, ctx: &mut Ctx, e: &Term) -> TcResult<Typing> {
        let _j = recmod_telemetry::judgement_span("kernel.synth_term");
        let _depth = self.descend("synth_term")?;
        self.burn(crate::stats::FuelOp::TermTyping)?;
        let _trace = recmod_telemetry::trace_span(|| format!("{} : ?", crate::show::term(e)));
        match e {
            Term::Var(i) => {
                let (ty, valuable) = ctx.lookup_term(*i)?;
                Ok(Typing::new(ty, valuable))
            }
            Term::Snd(i) => {
                let (sig, valuable) = ctx.lookup_struct(*i)?;
                match sig {
                    Sig::Struct(_, t) => Ok(Typing::new(
                        subst_con_ty_hc(&t, &hc(Con::Fst(*i))),
                        valuable,
                    )),
                    s => raise(TypeError::Other(format!(
                        "structure variable with unresolved signature {}",
                        show::sig(&s)
                    ))),
                }
            }
            Term::Star => Ok(Typing::new(hc(Ty::Unit), true)),
            Term::Lam(t, body) => {
                self.wf_ty(ctx, t)?;
                let b = ctx.with_term(t.clone(), true, |ctx| self.synth_term(ctx, body))?;
                let cod = strengthen_ty(&b.ty);
                let ty = if b.valuable {
                    Ty::Total(t.clone(), cod)
                } else {
                    Ty::Partial(t.clone(), cod)
                };
                Ok(Typing::new(hc(ty), true))
            }
            Term::App(f, a) => {
                let ft = self.synth_term(ctx, f)?;
                let exposed = self.expose_deep(ctx, &ft.ty)?;
                let (dom, cod, total) = match &*exposed {
                    Ty::Total(d, c) => (d, c, true),
                    Ty::Partial(d, c) => (d, c, false),
                    other => return raise(TypeError::NotAFunction(show::ty(other))),
                };
                let at = self.synth_term(ctx, a)?;
                self.ty_sub(ctx, &at.ty, dom)?;
                Ok(Typing::new(
                    cod.clone(),
                    total && ft.valuable && at.valuable,
                ))
            }
            Term::Pair(a, b) => {
                let at = self.synth_term(ctx, a)?;
                let bt = self.synth_term(ctx, b)?;
                Ok(Typing::new(
                    hc(Ty::Prod(at.ty, bt.ty)),
                    at.valuable && bt.valuable,
                ))
            }
            Term::Proj1(p) | Term::Proj2(p) => {
                let pt = self.synth_term(ctx, p)?;
                let exposed = self.expose_deep(ctx, &pt.ty)?;
                match &*exposed {
                    Ty::Prod(l, r) => {
                        let ty = if matches!(e, Term::Proj1(_)) { l } else { r };
                        Ok(Typing::new(ty.clone(), pt.valuable))
                    }
                    other => raise(TypeError::NotAProduct(show::ty(other))),
                }
            }
            Term::TLam(k, body) => {
                self.wf_kind(ctx, k)?;
                let b = ctx.with_con(k.clone(), |ctx| self.synth_term(ctx, body))?;
                if !b.valuable {
                    // Λα:κ.e requires Γ[α:κ] ⊢ e ⇓ σ.
                    return raise(TypeError::ValueRestriction(show::term(body)));
                }
                Ok(Typing::new(hc(Ty::Forall(k.clone(), b.ty)), true))
            }
            Term::TApp(f, c) => {
                let ft = self.synth_term(ctx, f)?;
                match &*self.expose(ctx, &ft.ty)? {
                    Ty::Forall(k, body) => {
                        let c = hc(c.clone());
                        self.check_con(ctx, &c, k)?;
                        Ok(Typing::new(subst_con_ty_hc(body, &c), ft.valuable))
                    }
                    other => raise(TypeError::NotPolymorphic(show::ty(other))),
                }
            }
            Term::Fix(t, body) => {
                // Γ ⊢ σ type   Γ[x↑σ] ⊢ e ⇓ σ   ⟹   Γ ⊢ fix(x:σ.e) ⇓ σ
                self.wf_ty(ctx, t)?;
                let b = ctx.with_term(t.clone(), false, |ctx| self.synth_term(ctx, body))?;
                if !b.valuable {
                    return raise(TypeError::ValueRestriction(show::term(body)));
                }
                let found = strengthen_ty(&b.ty);
                self.ty_sub(ctx, &found, t)?;
                Ok(Typing::new(t.clone(), true))
            }
            Term::IntLit(_) => Ok(Typing::new(self.int_ty().clone(), true)),
            Term::BoolLit(_) => Ok(Typing::new(self.bool_ty().clone(), true)),
            Term::Prim(op, args) => {
                if args.len() != op.arity() {
                    return raise(TypeError::PrimArity {
                        op: op.name(),
                        expected: op.arity(),
                        found: args.len(),
                    });
                }
                let mut valuable = true;
                for a in args {
                    let at = self.synth_term(ctx, a)?;
                    self.ty_sub(ctx, &at.ty, self.int_ty())?;
                    valuable &= at.valuable;
                }
                let out = match op {
                    PrimOp::Add | PrimOp::Sub | PrimOp::Mul => self.int_ty(),
                    PrimOp::Eq | PrimOp::Lt => self.bool_ty(),
                };
                Ok(Typing::new(out.clone(), valuable))
            }
            Term::If(c, t, f) => {
                let ct = self.synth_term(ctx, c)?;
                self.ty_sub(ctx, &ct.ty, self.bool_ty())?;
                let tt = self.synth_term(ctx, t)?;
                let ft = self.synth_term(ctx, f)?;
                let ty = self.join(ctx, &tt.ty, &ft.ty)?;
                Ok(Typing::new(ty, ct.valuable && tt.valuable && ft.valuable))
            }
            Term::Inj(i, sum, body) => {
                let sum = hc(sum.clone());
                self.check_con(ctx, &sum, self.type_kind())?;
                let w = self.whnf(ctx, &sum)?;
                let Con::Sum(cs) = &*w else {
                    return raise(TypeError::NotASum(show::con(&w)));
                };
                if *i >= cs.len() {
                    return raise(TypeError::InjIndex {
                        index: *i,
                        summands: cs.len(),
                    });
                }
                let bt = self.synth_term(ctx, body)?;
                self.ty_sub(ctx, &bt.ty, &mono(cs[*i].clone()))?;
                Ok(Typing::new(mono(sum), bt.valuable))
            }
            Term::Case(scrut, branches) => {
                let st = self.synth_term(ctx, scrut)?;
                let exposed = self.expose_deep(ctx, &st.ty)?;
                let Ty::Con(w) = &*exposed else {
                    return raise(TypeError::NotASum(show::ty(&exposed)));
                };
                let ws = self.whnf(ctx, w)?;
                let Con::Sum(cs) = &*ws else {
                    return raise(TypeError::NotASum(show::con(w)));
                };
                if cs.len() != branches.len() {
                    return raise(TypeError::BranchCount {
                        summands: cs.len(),
                        branches: branches.len(),
                    });
                }
                let mut result: Option<HC<Ty>> = None;
                let mut valuable = st.valuable;
                for (summand, branch) in cs.iter().zip(branches) {
                    let bt = ctx.with_term(mono(summand.clone()), true, |ctx| {
                        self.synth_term(ctx, branch)
                    })?;
                    valuable &= bt.valuable;
                    let bty = strengthen_ty(&bt.ty);
                    result = Some(match result {
                        None => bty,
                        Some(acc) => self.join(ctx, &acc, &bty)?,
                    });
                }
                match result {
                    Some(ty) => Ok(Typing::new(ty, valuable)),
                    // An empty case eliminates the void type; it may be
                    // given any type, but we have no annotation — reject.
                    None => raise(TypeError::Other(
                        "case on the empty sum requires a type annotation".to_string(),
                    )),
                }
            }
            Term::Roll(muc, body) => {
                let muc = hc(muc.clone());
                self.check_con(ctx, &muc, self.type_kind())?;
                let unrolled = self.whnf_unroll(ctx, &muc)?;
                let bt = self.synth_term(ctx, body)?;
                self.ty_sub(ctx, &bt.ty, &mono(unrolled))?;
                Ok(Typing::new(mono(muc), bt.valuable))
            }
            Term::Unroll(body) => {
                let bt = self.synth_term(ctx, body)?;
                let exposed = self.expose(ctx, &bt.ty)?;
                let Ty::Con(w) = &*exposed else {
                    return raise(TypeError::NotAMu(show::ty(&exposed)));
                };
                let unrolled = self.whnf_unroll(ctx, w)?;
                Ok(Typing::new(mono(unrolled), bt.valuable))
            }
            Term::Fail(t) => {
                self.wf_ty(ctx, t)?;
                Ok(Typing::new(t.clone(), false))
            }
            Term::Let(bound, body) => {
                let et = self.synth_term(ctx, bound)?;
                let bt =
                    ctx.with_term(et.ty.clone(), et.valuable, |ctx| self.synth_term(ctx, body))?;
                Ok(Typing::new(
                    strengthen_ty(&bt.ty),
                    et.valuable && bt.valuable,
                ))
            }
        }
    }

    /// `Γ ⊢ e : σ` — checks a term against an expected type.
    pub fn check_term(&self, ctx: &mut Ctx, e: &Term, t: &HC<Ty>) -> TcResult<Typing> {
        let _j = recmod_telemetry::judgement_span("kernel.check_term");
        let _depth = self.descend("check_term")?;
        let typing = self.synth_term(ctx, e)?;
        self.ty_sub(ctx, &typing.ty, t)?;
        Ok(Typing::new(t.clone(), typing.valuable))
    }

    /// The least common supertype of two types under `→ ≤ ⇀`, used to
    /// merge the arms of `if`/`case`.
    fn join(&self, ctx: &mut Ctx, a: &HC<Ty>, b: &HC<Ty>) -> TcResult<HC<Ty>> {
        if self.ty_sub(ctx, a, b).is_ok() {
            Ok(b.clone())
        } else if self.ty_sub(ctx, b, a).is_ok() {
            Ok(a.clone())
        } else {
            raise(TypeError::TyMismatch {
                expected: show::ty(a),
                found: show::ty(b),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::dsl::*;

    fn synth(e: &Term) -> TcResult<Typing> {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.synth_term(&mut ctx, e)
    }

    #[test]
    fn literals_are_valuable() {
        let t = synth(&int(42)).unwrap();
        assert_eq!(*t.ty, tcon(Con::Int));
        assert!(t.valuable);
    }

    #[test]
    fn lambda_with_valuable_body_is_total() {
        let f = lam(tcon(Con::Int), var(0));
        let t = synth(&f).unwrap();
        assert_eq!(*t.ty, total(tcon(Con::Int), tcon(Con::Int)));
        assert!(t.valuable);
    }

    #[test]
    fn lambda_with_failing_body_is_partial() {
        let f = lam(tcon(Con::Int), fail(tcon(Con::Int)));
        let t = synth(&f).unwrap();
        assert_eq!(*t.ty, partial(tcon(Con::Int), tcon(Con::Int)));
        assert!(t.valuable, "λ is valuable even with a non-valuable body");
    }

    #[test]
    fn total_application_is_valuable_partial_is_not() {
        let tot = app(lam(tcon(Con::Int), var(0)), int(1));
        assert!(synth(&tot).unwrap().valuable);
        let par = app(lam(tcon(Con::Int), fail(tcon(Con::Int))), int(1));
        assert!(!synth(&par).unwrap().valuable);
    }

    #[test]
    fn value_restriction_rejects_cyclic_list() {
        // fix(x : μt.1 + int×t . roll(inj₂ (1, x))) — the unguarded x makes
        // the body non-valuable... actually inj/pair of a non-valuable
        // variable is non-valuable, exactly the paper's 1 :: x example.
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let body = roll(
            listc.clone(),
            inj(
                1,
                csum([Con::UnitTy, cprod(Con::Int, listc.clone())]),
                pair(int(1), var(0)),
            ),
        );
        let e = fix(tcon(listc), body);
        assert!(matches!(synth(&e), Err(TypeError::ValueRestriction(_))));
    }

    #[test]
    fn value_restriction_accepts_guarded_recursion() {
        // fix(f : int ⇀ int. λx:int. f x) — the recursive variable is
        // guarded by the λ, so the fix is well-typed.
        let e = fix(
            partial(tcon(Con::Int), tcon(Con::Int)),
            lam(tcon(Con::Int), app(var(1), var(0))),
        );
        let t = synth(&e).unwrap();
        assert_eq!(*t.ty, partial(tcon(Con::Int), tcon(Con::Int)));
        assert!(t.valuable, "fix itself is valuable (⇓ rule)");
    }

    #[test]
    fn fix_variable_not_valuable_inside_body() {
        // fix(x:int. x) — body is the recursive variable itself: typeable
        // at int but not valuable, so the fix is rejected.
        let e = fix(tcon(Con::Int), var(0));
        assert!(matches!(synth(&e), Err(TypeError::ValueRestriction(_))));
    }

    #[test]
    fn tlam_requires_valuable_body() {
        let bad = tlam(tkind(), fail(Ty::Unit));
        assert!(matches!(synth(&bad), Err(TypeError::ValueRestriction(_))));
        let good = tlam(tkind(), lam(tcon(cvar(0)), var(0)));
        let t = synth(&good).unwrap();
        assert_eq!(*t.ty, forall(tkind(), total(tcon(cvar(0)), tcon(cvar(0)))));
    }

    #[test]
    fn tapp_instantiates() {
        let id = tlam(tkind(), lam(tcon(cvar(0)), var(0)));
        let t = synth(&tapp(id, Con::Bool)).unwrap();
        assert_eq!(*t.ty, total(tcon(Con::Bool), tcon(Con::Bool)));
    }

    #[test]
    fn roll_unroll_round_trip() {
        let listc = mu(tkind(), csum([Con::UnitTy, cprod(Con::Int, cvar(0))]));
        let sum_unrolled = csum([Con::UnitTy, cprod(Con::Int, listc.clone())]);
        let nil = roll(listc.clone(), inj(0, sum_unrolled, Term::Star));
        let t = synth(&nil).unwrap();
        assert_eq!(*t.ty, tcon(listc.clone()));
        assert!(t.valuable);
        let u = synth(&unroll(nil)).unwrap();
        assert!(u.valuable);
    }

    #[test]
    fn case_joins_branch_types() {
        let sum = csum([Con::Int, Con::Int]);
        let scrut = inj(0, sum.clone(), int(1));
        let e = case(scrut, [var(0), fail(tcon(Con::Int))]);
        let t = synth(&e).unwrap();
        assert_eq!(*t.ty, tcon(Con::Int));
        assert!(!t.valuable, "a failing branch poisons valuability");
    }

    #[test]
    fn case_branch_count_checked() {
        let sum = csum([Con::Int, Con::Int]);
        let e = case(inj(0, sum, int(1)), [var(0)]);
        assert!(matches!(synth(&e), Err(TypeError::BranchCount { .. })));
    }

    #[test]
    fn primops_type_and_propagate_valuability() {
        let t = synth(&prim(recmod_syntax::ast::PrimOp::Add, int(1), int(2))).unwrap();
        assert_eq!(*t.ty, tcon(Con::Int));
        assert!(t.valuable);
        let t = synth(&prim(
            recmod_syntax::ast::PrimOp::Lt,
            int(1),
            fail(tcon(Con::Int)),
        ))
        .unwrap();
        assert_eq!(*t.ty, tcon(Con::Bool));
        assert!(!t.valuable);
    }

    #[test]
    fn if_requires_bool() {
        let e = ite(int(1), int(2), int(3));
        assert!(synth(&e).is_err());
        let e = ite(boolean(true), int(2), int(3));
        assert_eq!(*synth(&e).unwrap().ty, tcon(Con::Int));
    }

    #[test]
    fn let_propagates_valuability() {
        let e = let_(
            int(1),
            prim(recmod_syntax::ast::PrimOp::Add, var(0), int(1)),
        );
        let t = synth(&e).unwrap();
        assert_eq!(*t.ty, tcon(Con::Int));
        assert!(t.valuable);
        let e = let_(fail(tcon(Con::Int)), var(0));
        assert!(!synth(&e).unwrap().valuable);
    }

    #[test]
    fn equirecursive_application_through_mu() {
        // x : μt.int ⇀ t  can be applied directly in equi mode.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        ctx.with_term(hc(tcon(m)), true, |ctx| {
            let t = tc.synth_term(ctx, &app(var(0), int(3))).unwrap();
            // Result is the μ again.
            let exposed = tc.expose(ctx, &t.ty).unwrap();
            assert!(matches!(&*exposed, Ty::Con(c) if matches!(**c, Con::Mu(_, _))));
        });
    }
}
