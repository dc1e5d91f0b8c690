//! Type formation, equivalence, and subtyping (paper appendix A.1).
//!
//! Types properly include the monotypes. [`Tc::expose`] reveals the
//! type-level structure hiding inside a monotype embedding (a constructor
//! that weak-head normalizes to `c₁ ⇀ c₂` *is* the partial-arrow type
//! `c₁ ⇀ c₂`), after which comparison is structural.
//!
//! The paper presents two introduction rules for `λ` — one yielding the
//! total arrow (valuable body), one the partial arrow — and no subsumption
//! between them. Algorithmically we synthesize the total arrow whenever
//! possible and admit the *subtyping* `σ₁ → σ₂ ≤ σ₁ ⇀ σ₂` (with the usual
//! contravariance), which is the standard algorithmic counterpart of
//! having both declarative rules available.

use recmod_syntax::ast::{Con, Ty};
use recmod_syntax::intern::{hc, HC};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::Tc;

impl Tc {
    /// `Γ ⊢ σ type` — type formation.
    pub fn wf_ty(&self, ctx: &mut Ctx, t: &Ty) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.wf_ty");
        let _depth = self.descend("wf_ty")?;
        match t {
            Ty::Con(c) => self.check_con(ctx, c, self.type_kind()),
            Ty::Unit => Ok(()),
            Ty::Total(a, b) | Ty::Partial(a, b) | Ty::Prod(a, b) => {
                self.wf_ty(ctx, a)?;
                self.wf_ty(ctx, b)
            }
            Ty::Forall(k, b) => {
                self.wf_kind(ctx, k)?;
                ctx.with_con(k.clone(), |ctx| self.wf_ty(ctx, b))
            }
        }
    }

    /// Weak-head normalizes a type, surfacing structure hidden inside a
    /// monotype embedding.
    pub fn expose(&self, ctx: &mut Ctx, t: &HC<Ty>) -> TcResult<HC<Ty>> {
        let _j = recmod_telemetry::judgement_span("kernel.expose");
        let Ty::Con(c) = &**t else {
            return Ok(t.clone());
        };
        let w = self.whnf(ctx, c)?;
        Ok(match &*w {
            Con::Arrow(a, b) => hc(Ty::Partial(mono(a.clone()), mono(b.clone()))),
            Con::Prod(a, b) => hc(Ty::Prod(mono(a.clone()), mono(b.clone()))),
            Con::UnitTy => hc(Ty::Unit),
            // Already head normal: keep the interned pointer.
            _ if w == *c => t.clone(),
            _ => mono(w),
        })
    }

    /// Like [`Tc::expose`], but in equi-recursive mode also unrolls a
    /// (contractive) `μ` at the head until type-level structure appears.
    /// Used by elimination forms (application, projection, `case`) so
    /// that a value of type `μt.int ⇀ t` can be applied directly.
    pub fn expose_deep(&self, ctx: &mut Ctx, t: &HC<Ty>) -> TcResult<HC<Ty>> {
        let _j = recmod_telemetry::judgement_span("kernel.expose_deep");
        let _depth = self.descend("expose_deep")?;
        let mut e = self.expose(ctx, t)?;
        while let Ty::Con(c) = &*e {
            if !self.unrollable(c) {
                break;
            }
            self.burn(crate::stats::FuelOp::TypeExpose)?;
            let u = self.unroll_mu_cached(c)?;
            e = self.expose(ctx, &mono(u))?;
        }
        Ok(e)
    }

    /// Is `c` a head `μ` that equi-recursive equality identifies with its
    /// unrolling?
    fn unrollable(&self, c: &HC<Con>) -> bool {
        self.mode() == crate::RecMode::Equi
            && matches!(**c, Con::Mu(_, _))
            && self.is_contractive_cached(c)
    }

    /// `Γ ⊢ σ₁ = σ₂ type` — type equivalence.
    pub fn ty_eq(&self, ctx: &mut Ctx, t1: &HC<Ty>, t2: &HC<Ty>) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.ty_eq");
        let _depth = self.descend("ty_eq")?;
        self.burn(crate::stats::FuelOp::TypeEquiv)?;
        let mut a = self.expose(ctx, t1)?;
        let mut b = self.expose(ctx, t2)?;
        loop {
            match (&*a, &*b) {
                (Ty::Con(c1), Ty::Con(c2)) => {
                    return self.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)
                }
                (Ty::Unit, Ty::Unit) => return Ok(()),
                (Ty::Total(a1, b1), Ty::Total(a2, b2))
                | (Ty::Partial(a1, b1), Ty::Partial(a2, b2))
                | (Ty::Prod(a1, b1), Ty::Prod(a2, b2)) => {
                    self.ty_eq(ctx, a1, a2)?;
                    return self.ty_eq(ctx, b1, b2);
                }
                (Ty::Forall(k1, b1), Ty::Forall(k2, b2)) => {
                    self.kind_eq(ctx, k1, k2)?;
                    return ctx.with_con(k1.clone(), |ctx| self.ty_eq(ctx, b1, b2));
                }
                // One side is a μ monotype, the other has type-level
                // structure: unroll the μ (equi mode) and retry.
                (Ty::Con(c), _) if self.unrollable(c) => {
                    self.burn(crate::stats::FuelOp::TypeEquiv)?;
                    let u = self.unroll_mu_cached(c)?;
                    a = self.expose(ctx, &mono(u))?;
                }
                (_, Ty::Con(c)) if self.unrollable(c) => {
                    self.burn(crate::stats::FuelOp::TypeEquiv)?;
                    let u = self.unroll_mu_cached(c)?;
                    b = self.expose(ctx, &mono(u))?;
                }
                _ => {
                    return raise(TypeError::TyMismatch {
                        expected: show::ty(&a),
                        found: show::ty(&b),
                    })
                }
            }
        }
    }

    /// `σ₁ ≤ σ₂` — subtyping: `→ ≤ ⇀` with contravariant domains,
    /// covariant products, invariant `∀`-kinds, equivalence on monotypes.
    pub fn ty_sub(&self, ctx: &mut Ctx, t1: &HC<Ty>, t2: &HC<Ty>) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.ty_sub");
        let _depth = self.descend("ty_sub")?;
        self.burn(crate::stats::FuelOp::Subtype)?;
        let mut a = self.expose(ctx, t1)?;
        let mut b = self.expose(ctx, t2)?;
        loop {
            match (&*a, &*b) {
                (Ty::Con(c1), Ty::Con(c2)) => {
                    return self.con_equiv(ctx, c1, c2, &recmod_syntax::ast::Kind::Type)
                }
                (Ty::Unit, Ty::Unit) => return Ok(()),
                (Ty::Total(a1, b1), Ty::Total(a2, b2))
                | (Ty::Partial(a1, b1), Ty::Partial(a2, b2))
                | (Ty::Total(a1, b1), Ty::Partial(a2, b2)) => {
                    self.ty_sub(ctx, a2, a1)?;
                    return self.ty_sub(ctx, b1, b2);
                }
                (Ty::Prod(a1, b1), Ty::Prod(a2, b2)) => {
                    self.ty_sub(ctx, a1, a2)?;
                    return self.ty_sub(ctx, b1, b2);
                }
                (Ty::Forall(k1, b1), Ty::Forall(k2, b2)) => {
                    self.kind_eq(ctx, k1, k2)?;
                    return ctx.with_con(k1.clone(), |ctx| self.ty_sub(ctx, b1, b2));
                }
                (Ty::Con(c), _) if self.unrollable(c) => {
                    self.burn(crate::stats::FuelOp::Subtype)?;
                    let u = self.unroll_mu_cached(c)?;
                    a = self.expose(ctx, &mono(u))?;
                }
                (_, Ty::Con(c)) if self.unrollable(c) => {
                    self.burn(crate::stats::FuelOp::Subtype)?;
                    let u = self.unroll_mu_cached(c)?;
                    b = self.expose(ctx, &mono(u))?;
                }
                _ => {
                    return raise(TypeError::NotASubtype {
                        expected: show::ty(&b),
                        found: show::ty(&a),
                    })
                }
            }
        }
    }
}

/// The monotype embedding of an interned constructor.
pub(crate) fn mono(c: HC<Con>) -> HC<Ty> {
    hc(Ty::Con(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::Kind;
    use recmod_syntax::dsl::*;

    #[test]
    fn monotype_arrow_exposes_as_partial() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let t = tcon(carrow(Con::Int, Con::Bool));
        let e = tc.expose(&mut ctx, &hc(t.clone())).unwrap();
        assert_eq!(e, hc(partial(tcon(Con::Int), tcon(Con::Bool))));
    }

    #[test]
    fn total_below_partial() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let tot = total(tcon(Con::Int), tcon(Con::Int));
        let par = partial(tcon(Con::Int), tcon(Con::Int));
        tc.ty_sub(&mut ctx, &hc(tot.clone()), &hc(par.clone()))
            .unwrap();
        assert!(tc
            .ty_sub(&mut ctx, &hc(par.clone()), &hc(tot.clone()))
            .is_err());
    }

    #[test]
    fn total_below_monotype_arrow() {
        // int → int ≤ the monotype int ⇀ int (exposed as partial).
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let tot = total(tcon(Con::Int), tcon(Con::Int));
        let mono = tcon(carrow(Con::Int, Con::Int));
        tc.ty_sub(&mut ctx, &hc(tot.clone()), &hc(mono.clone()))
            .unwrap();
    }

    #[test]
    fn unit_type_and_unit_monotype_coincide() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.ty_eq(&mut ctx, &hc(Ty::Unit), &hc(tcon(Con::UnitTy)))
            .unwrap();
    }

    #[test]
    fn equirecursive_types_equal_through_embedding() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = mu(tkind(), carrow(Con::Int, cvar(0)));
        let unrolled = tcon(carrow(Con::Int, m.clone()));
        tc.ty_eq(&mut ctx, &hc(tcon(m)), &hc(unrolled.clone()))
            .unwrap();
    }

    #[test]
    fn forall_requires_equal_kinds() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let t1 = forall(tkind(), tcon(cvar(0)));
        let t2 = forall(q(Con::Int), tcon(cvar(0)));
        assert!(tc
            .ty_eq(&mut ctx, &hc(t1.clone()), &hc(t2.clone()))
            .is_err());
        tc.ty_eq(&mut ctx, &hc(t1.clone()), &hc(t1.clone()))
            .unwrap();
    }

    #[test]
    fn wf_rejects_non_monotype_embedding() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        // Con(*) — the trivial constructor has kind 1, not T.
        assert!(tc.wf_ty(&mut ctx, &tcon(Con::Star)).is_err());
        assert!(tc.wf_ty(&mut ctx, &tcon(Con::Int)).is_ok());
    }

    #[test]
    fn singleton_variable_type_equality() {
        // α:Q(int) ⊢ Con(α) = Con(int)
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(
            hc(Kind::Singleton(recmod_syntax::intern::hc(Con::Int))),
            |ctx| {
                tc.ty_eq(ctx, &hc(tcon(cvar(0))), &hc(tcon(Con::Int)))
                    .unwrap();
            },
        );
    }

    #[test]
    fn product_covariance() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let p1 = tprod(total(Ty::Unit, Ty::Unit), Ty::Unit);
        let p2 = tprod(partial(Ty::Unit, Ty::Unit), Ty::Unit);
        tc.ty_sub(&mut ctx, &hc(p1.clone()), &hc(p2.clone()))
            .unwrap();
        assert!(tc
            .ty_sub(&mut ctx, &hc(p2.clone()), &hc(p1.clone()))
            .is_err());
    }
}
