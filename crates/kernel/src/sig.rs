//! Signatures: formation, equivalence, subtyping, and the interpretation
//! of recursively-dependent signatures (paper §4.1, Figure 5).
//!
//! The paper demonstrates that rds's "are already present in the
//! underlying calculus" via the equation
//!
//! ```text
//! ρs.[α : Q(c(Fst s) : κ) . σ(α)]  =  [α : Q(μβ:κ.c(β) : κ) . σ(α)]
//! ```
//!
//! — the static part of the rds is wrapped in an equi-recursive `μ` and
//! recursive references are redirected to the new bound variable. We
//! realize that equation as the *resolution* function [`Tc::resolve_sig`]:
//! every rds is normalized to its ordinary-signature interpretation before
//! use, so the rest of the kernel only ever sees flat signatures. This is
//! exactly the implementation strategy the paper proposes for type-passing
//! compilers.

use recmod_syntax::ast::{Con, Module, Sig, Term};
use recmod_syntax::intern::hc;
use recmod_syntax::map::{map_con, map_ty_hc, VarMap};

use crate::ctx::Ctx;
use crate::error::{raise, TcResult, TypeError};
use crate::kind::kind_mentions;
use crate::show;
use crate::singleton::{fully_transparent, kind_definition, selfify_hc, strip_kind};
use crate::Tc;

/// Replaces occurrences of `Fst(s)` for the structure binder at index
/// `target` (from the traversal root) by the *constructor variable at the
/// same index* — i.e. re-reads the binder at a different sort without
/// shifting. Used to build `μβ:κ.c(β)` from `c(Fst s)` when the structure
/// binder is replaced by the `μ` binder (Figures 4 and 5).
struct RetargetFstToCvar {
    target: usize,
}

impl VarMap for RetargetFstToCvar {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(
            i,
            self.target + d,
            "constructor use of the structure binder"
        );
        Con::Var(i)
    }
    fn tvar(&mut self, _d: usize, i: usize) -> Term {
        Term::Var(i)
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        if i == self.target + d {
            Con::Var(i)
        } else {
            Con::Fst(i)
        }
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(
            i,
            self.target + d,
            "dynamic use of a static-only structure binder"
        );
        Term::Snd(i)
    }
    fn mvar(&mut self, d: usize, i: usize) -> Module {
        debug_assert_ne!(
            i,
            self.target + d,
            "module use of a static-only structure binder"
        );
        Module::Var(i)
    }
}

/// Rewrites `c(Fst s) ↦ c(β)` where the binder at `target` changes sort
/// from structure variable to constructor variable (no index shifting).
pub(crate) fn retarget_fst_to_cvar(c: &Con, target: usize) -> Con {
    map_con(c, 0, &mut RetargetFstToCvar { target })
}

/// For the *type* component of an rds: removes the structure binder
/// (outer, index `d+1` at depth `d`) and redirects its `Fst` occurrences
/// to the signature's own constructor binder (index `d` at depth `d`).
struct RdsTypeRedirect;

impl RdsTypeRedirect {
    /// Index of the structure binder as seen at depth `d`.
    fn svar(d: usize) -> usize {
        d + 1
    }
}

impl VarMap for RdsTypeRedirect {
    fn cvar(&mut self, d: usize, i: usize) -> Con {
        debug_assert_ne!(i, Self::svar(d), "constructor use of the structure binder");
        Con::Var(if i > Self::svar(d) { i - 1 } else { i })
    }
    fn tvar(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, Self::svar(d));
        Term::Var(if i > Self::svar(d) { i - 1 } else { i })
    }
    fn fst(&mut self, d: usize, i: usize) -> Con {
        if i == Self::svar(d) {
            // Fst(s) ↦ α — the signature's own static component.
            Con::Var(d)
        } else {
            Con::Fst(if i > Self::svar(d) { i - 1 } else { i })
        }
    }
    fn snd(&mut self, d: usize, i: usize) -> Term {
        debug_assert_ne!(i, Self::svar(d), "types cannot mention snd(s)");
        Term::Snd(if i > Self::svar(d) { i - 1 } else { i })
    }
    fn mvar(&mut self, d: usize, i: usize) -> Module {
        debug_assert_ne!(i, Self::svar(d));
        Module::Var(if i > Self::svar(d) { i - 1 } else { i })
    }
}

impl Tc {
    /// `Γ ⊢ S sig` — signature formation. An rds is well-formed exactly
    /// when its Figure-5 resolution is (the two are definitionally equal).
    pub fn wf_sig(&self, ctx: &mut Ctx, s: &Sig) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.wf_sig");
        let _depth = self.descend("wf_sig")?;
        match s {
            Sig::Struct(k, t) => {
                self.wf_kind(ctx, k)?;
                ctx.with_con(k.clone(), |ctx| self.wf_ty(ctx, t))
            }
            Sig::Rds(_) => {
                let r = self.resolve_sig(ctx, s)?;
                self.wf_sig(ctx, &r)
            }
        }
    }

    /// Resolves a signature to a flat one: ordinary signatures are
    /// returned unchanged; an rds is interpreted per Figure 5.
    ///
    /// # Errors
    ///
    /// Fails with [`TypeError::RdsNotTransparent`] when the rds's static
    /// part is not fully transparent (the §4.1 formation precondition) or
    /// when the stripped frame kind still depends on the recursive
    /// structure variable.
    pub fn resolve_sig(&self, ctx: &mut Ctx, s: &Sig) -> TcResult<Sig> {
        let _j = recmod_telemetry::judgement_span("kernel.resolve_sig");
        let _depth = self.descend("resolve_sig")?;
        match s {
            Sig::Struct(_, _) => Ok(s.clone()),
            Sig::Rds(inner) => {
                let Sig::Struct(k, t) = &**inner else {
                    return raise(TypeError::RdsNotTransparent(show::sig(inner)));
                };
                if !fully_transparent(k) {
                    return raise(TypeError::RdsNotTransparent(show::sig(inner)));
                }
                // The ρ binder may be used only as `Fst(s)` inside the
                // static part (and not at all as a term or whole module);
                // reject ill-sorted references instead of letting the
                // retargeting mappers trip their debug assertions.
                if kind_mentions_wrong_sort(k, 0) {
                    return raise(TypeError::Other(
                        "recursively-dependent signature uses its structure                          variable at a non-static sort"
                            .to_string(),
                    ));
                }
                // The frame κ of the μ must not itself mention `s`.
                let base = strip_kind(k);
                if kind_mentions(&base, 0) {
                    return raise(TypeError::RdsNotTransparent(show::sig(inner)));
                }
                // The μ's *annotation* sits outside the binder that replaces
                // ρ, so outer references in the frame drop one index. (The μ
                // body keeps its indices: the binder swap is one-for-one.)
                let base = hc(recmod_syntax::subst::shift_kind(&base, -1, 0));
                let def = kind_definition(k).ok_or_else(|| {
                    TypeError::Internal(format!(
                        "fully transparent kind without a definition: {}",
                        show::kind(k)
                    ))
                })?;
                // c(Fst s) ↦ c(β): the structure binder becomes the μ binder.
                let mu_body = retarget_fst_to_cvar(&def, 0);
                let mu_con = hc(Con::Mu(base.clone(), hc(mu_body)));
                // Q(μβ:κ.c(β) : κ) — the higher-order singleton of Figure 5.
                let new_kind = selfify_hc(&mu_con, &base);
                // σ[α/Fst(s)] — redirect and drop the structure binder.
                let new_ty = map_ty_hc(t, 0, &mut RdsTypeRedirect);
                let resolved = Sig::Struct(new_kind, new_ty);
                // Resolution is idempotent; the result is flat by construction.
                let _ = ctx;
                Ok(resolved)
            }
        }
    }

    /// `Γ ⊢ S₁ = S₂ sig` — signature equivalence (rds's are compared via
    /// their resolutions, which is the content of the Figure-5 equation).
    pub fn sig_eq(&self, ctx: &mut Ctx, s1: &Sig, s2: &Sig) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.sig_eq");
        let a = self.resolve_sig(ctx, s1)?;
        let b = self.resolve_sig(ctx, s2)?;
        match (&a, &b) {
            (Sig::Struct(k1, t1), Sig::Struct(k2, t2)) => {
                self.kind_eq(ctx, k1, k2)?;
                ctx.with_con(k1.clone(), |ctx| self.ty_eq(ctx, t1, t2))
            }
            _ => raise(TypeError::Internal(
                "resolve_sig returned an unresolved rds".to_string(),
            )),
        }
    }

    /// `Γ ⊢ S₁ ≤ S₂ sig` — signature matching: subkinding on the static
    /// parts (forgetting type definitions), subtyping on the dynamic
    /// parts (with the common context using the more precise kind).
    pub fn sig_sub(&self, ctx: &mut Ctx, s1: &Sig, s2: &Sig) -> TcResult<()> {
        let _j = recmod_telemetry::judgement_span("kernel.sig_sub");
        let _depth = self.descend("sig_sub")?;
        let a = self.resolve_sig(ctx, s1)?;
        let b = self.resolve_sig(ctx, s2)?;
        match (&a, &b) {
            (Sig::Struct(k1, t1), Sig::Struct(k2, t2)) => {
                self.subkind(ctx, k1, k2).map_err(|_| {
                    TypeError::NotASubsignature {
                        expected: show::sig(&b),
                        found: show::sig(&a),
                    }
                    .noted()
                })?;
                ctx.with_con(k1.clone(), |ctx| self.ty_sub(ctx, t1, t2))
                    .map_err(|e| match e {
                        e @ TypeError::FuelExhausted { .. } => e,
                        _ => TypeError::NotASubsignature {
                            expected: show::sig(&b),
                            found: show::sig(&a),
                        }
                        .noted(),
                    })
            }
            _ => raise(TypeError::Internal(
                "resolve_sig returned an unresolved rds".to_string(),
            )),
        }
    }
}

/// Does the kind use the binder at `target` at any sort other than
/// `Fst` (i.e. as a constructor variable, term variable, `snd`, or whole
/// module)? Such uses are ill-sorted for an rds binder.
fn kind_mentions_wrong_sort(k: &recmod_syntax::ast::Kind, target: usize) -> bool {
    struct Probe {
        target: usize,
        hit: bool,
    }
    impl VarMap for Probe {
        fn cvar(&mut self, d: usize, i: usize) -> Con {
            if i == self.target + d {
                self.hit = true;
            }
            Con::Var(i)
        }
        fn tvar(&mut self, d: usize, i: usize) -> Term {
            if i == self.target + d {
                self.hit = true;
            }
            Term::Var(i)
        }
        fn fst(&mut self, _d: usize, i: usize) -> Con {
            Con::Fst(i)
        }
        fn snd(&mut self, d: usize, i: usize) -> Term {
            if i == self.target + d {
                self.hit = true;
            }
            Term::Snd(i)
        }
        fn mvar(&mut self, d: usize, i: usize) -> Module {
            if i == self.target + d {
                self.hit = true;
            }
            Module::Var(i)
        }
    }
    let mut probe = Probe { target, hit: false };
    let _ = recmod_syntax::map::map_kind(k, 0, &mut probe);
    probe.hit
}

/// Strengthens the signature of the structure variable at `index`:
/// `s : [α:κ.σ]` is used at `[α:Q(Fst s : κ).σ]`, making all of `s`'s
/// static components transparent at their own names (the standard
/// selfification rule; the module-level analogue of Figure 2).
pub fn selfify_sig(index: usize, s: &Sig) -> Sig {
    match s {
        Sig::Struct(k, t) => Sig::Struct(selfify_hc(&hc(Con::Fst(index)), k), t.clone()),
        Sig::Rds(_) => s.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::{Kind, Ty};
    use recmod_syntax::dsl::*;

    /// The rds of the paper's §4 discussion:
    /// `ρs.[α : Q(int ⇀ Fst(s)) . 1]` — a type recursively equal to
    /// `int ⇀ itself`.
    fn simple_rds() -> Sig {
        rds(sig(q(carrow(Con::Int, fst(0))), Ty::Unit))
    }

    #[test]
    fn resolve_wraps_static_part_in_mu() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let r = tc.resolve_sig(&mut ctx, &simple_rds()).unwrap();
        let expected_mu = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(r, sig(q(expected_mu), Ty::Unit));
    }

    #[test]
    fn resolution_is_idempotent_on_flat_signatures() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let r1 = tc.resolve_sig(&mut ctx, &simple_rds()).unwrap();
        let r2 = tc.resolve_sig(&mut ctx, &r1).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn opaque_rds_rejected() {
        // ρs.[α:T.1] — not fully transparent (the §4.1 precondition).
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = rds(sig(tkind(), Ty::Unit));
        assert!(matches!(
            tc.resolve_sig(&mut ctx, &s),
            Err(TypeError::RdsNotTransparent(_))
        ));
    }

    #[test]
    fn rds_type_component_redirects_to_alpha() {
        // ρs.[α:Q(int ⇀ Fst(s)). Con(Fst(s))] — the value component has
        // the recursively-defined type; after resolution it must be Con(α).
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = rds(Sig::Struct(
            hc(q(carrow(Con::Int, fst(0)))),
            // Inside the type, α = index 0 and s = index 1.
            hc(tcon(fst(1))),
        ));
        let r = tc.resolve_sig(&mut ctx, &s).unwrap();
        let expected_mu = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(r, sig(q(expected_mu), tcon(cvar(0))));
    }

    #[test]
    fn resolved_rds_is_wellformed() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.wf_sig(&mut ctx, &simple_rds()).unwrap();
    }

    #[test]
    fn rds_equals_its_resolution() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = simple_rds();
        let r = tc.resolve_sig(&mut ctx, &s).unwrap();
        tc.sig_eq(&mut ctx, &s, &r).unwrap();
    }

    #[test]
    fn transparent_signature_matches_opaque() {
        // [α:Q(int).Con(α)] ≤ [α:T.Con(α)] but not conversely.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let transparent = sig(q(Con::Int), tcon(cvar(0)));
        let opaque = sig(tkind(), tcon(cvar(0)));
        tc.sig_sub(&mut ctx, &transparent, &opaque).unwrap();
        assert!(tc.sig_sub(&mut ctx, &opaque, &transparent).is_err());
    }

    #[test]
    fn selfify_sig_makes_variable_transparent() {
        let s = sig(tkind(), tcon(cvar(0)));
        let out = selfify_sig(3, &s);
        assert_eq!(out, sig(q(fst(3)), tcon(cvar(0))));
    }

    #[test]
    fn ill_sorted_rds_binder_is_an_error_not_a_panic() {
        // ρs.[α : Q(int ⇀ Var(s-as-constructor)) . 1] — the structure
        // binder used at constructor sort must be rejected cleanly.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = rds(Sig::Struct(hc(q(carrow(Con::Int, cvar(0)))), hc(Ty::Unit)));
        assert!(tc.wf_sig(&mut ctx, &s).is_err());
        assert!(tc.resolve_sig(&mut ctx, &s).is_err());
    }

    #[test]
    fn rds_frame_referencing_outer_context_reindexes() {
        // β:T ⊢ ρs.[α : Πγ:Q(β). Q(γ ⇀ Fst(s) γ) . 1] — the frame kind's Π
        // domain mentions the *outer* β. Removing the ρ binder must drop
        // those references by one, or the resolved annotation dangles.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.with_con(hc(Kind::Type), |ctx| {
            // Inside the rds: ρ = 0, β = 1. Codomain adds γ: γ=0, ρ=1, β=2.
            let kappa =
                recmod_syntax::dsl::pi(q(cvar(1)), q(carrow(cvar(0), capp(fst(1), cvar(0)))));
            let s = rds(Sig::Struct(hc(kappa), hc(Ty::Unit)));
            let r = tc.resolve_sig(ctx, &s).unwrap();
            // The resolution must be well-formed in [β:T] — with the fix the
            // frame's β reference is index 0 again.
            tc.wf_sig(ctx, &r).unwrap();
        });
    }

    #[test]
    fn rds_with_sigma_static_part() {
        // Two mutually recursive types, as in the Expr/Decl example:
        // ρs.[α : Q(int ⇀ π₂(Fst s)) × Q(bool ⇀ π₁(Fst s)) . 1]
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let k = Kind::times(
            q(carrow(Con::Int, cproj2(fst(0)))),
            q(carrow(Con::Bool, cproj1(fst(0)))),
        );
        let s = rds(Sig::Struct(hc(k), hc(Ty::Unit)));
        let r = tc.resolve_sig(&mut ctx, &s).unwrap();
        tc.wf_sig(&mut ctx, &r).unwrap();
        // The resolved static kind must be fully transparent and closed.
        let Sig::Struct(rk, _) = &r else {
            panic!("flat expected")
        };
        assert!(crate::singleton::fully_transparent(rk));
        assert!(!crate::kind::kind_mentions(rk, 0));
    }
}
