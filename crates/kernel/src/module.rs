//! Structure and recursive-module typing (paper appendix A.2/A.3).
//!
//! Recursive modules follow the §3 rule
//!
//! ```text
//! Γ[s↑S] ⊢ M ⇓ S
//! ─────────────────────
//! Γ ⊢ fix(s:S.M) : S
//! ```
//!
//! with the annotation `S` first *resolved* (rds → Figure 5) so that the
//! recursive type equations it records are available — through the
//! singleton kind of `Fst(s)` — while checking the body. This is the
//! "one-pass algorithm" of §4: the static recursion equations are solved
//! before the dynamic typing conditions are checked.

use recmod_syntax::ast::{Con, Module, Sig};
use recmod_syntax::intern::hc;
use recmod_syntax::subst::{shift_sig, shift_ty_hc};

use crate::ctx::{Ctx, Entry};
use crate::error::{raise, TcResult, TypeError};
use crate::show;
use crate::sig::{retarget_fst_to_cvar, selfify_sig};
use crate::singleton::{kind_definition, strip_kind};
use crate::Tc;

/// The result of typechecking a module: its principal signature and
/// whether it is valuable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModTyping {
    /// The synthesized (most transparent) signature.
    pub sig: Sig,
    /// `true` iff `Γ ⊢ M ⇓ S` holds.
    pub valuable: bool,
}

impl Tc {
    /// `Γ ⊢ M : S` and `Γ ⊢ M ⇓ S` — synthesizes the principal signature
    /// and valuability of `M`.
    pub fn synth_module(&self, ctx: &mut Ctx, m: &Module) -> TcResult<ModTyping> {
        let _j = recmod_telemetry::judgement_span("kernel.synth_module");
        let _depth = self.descend("synth_module")?;
        self.burn(crate::stats::FuelOp::ModuleTyping)?;
        let _trace = recmod_telemetry::trace_span(|| format!("{} : ?", crate::show::module(m)));
        match m {
            Module::Var(i) => {
                let (s, valuable) = ctx.lookup_struct(*i)?;
                Ok(ModTyping {
                    sig: selfify_sig(*i, &s),
                    valuable,
                })
            }
            Module::Struct(c, e) => {
                let k = self.synth_con(ctx, c)?;
                let te = self.synth_term(ctx, e)?;
                let sig = Sig::Struct(hc(k), shift_ty_hc(&te.ty, 1, 0));
                Ok(ModTyping {
                    sig,
                    valuable: te.valuable,
                })
            }
            Module::Seal(body, s) => {
                self.wf_sig(ctx, s)?;
                let target = self.resolve_sig(ctx, s)?;
                let bt = self.synth_module(ctx, body)?;
                self.sig_sub(ctx, &bt.sig, &target)?;
                // Sealing forgets extra transparency: the result is the
                // ascribed signature, not the principal one.
                Ok(ModTyping {
                    sig: target,
                    valuable: bt.valuable,
                })
            }
            Module::Fix(ann, body) => {
                self.wf_sig(ctx, ann)?;
                let target = self.resolve_sig(ctx, ann)?;
                let bt = ctx.with(Entry::Struct(target.clone(), false), |ctx| {
                    let inner = self.synth_module(ctx, body)?;
                    if !inner.valuable {
                        return raise(TypeError::ValueRestriction(show::module(body)));
                    }
                    // The body must match the annotation *under* the
                    // recursive assumption s↑S.
                    let shifted = shift_sig(&target, 1, 0);
                    self.sig_sub(ctx, &inner.sig, &shifted)?;
                    Ok(inner)
                })?;
                let _ = bt;
                Ok(ModTyping {
                    sig: target,
                    valuable: true,
                })
            }
        }
    }

    /// `Γ ⊢ M : S` — checks `M` against an expected signature.
    pub fn check_module(&self, ctx: &mut Ctx, m: &Module, s: &Sig) -> TcResult<ModTyping> {
        let _j = recmod_telemetry::judgement_span("kernel.check_module");
        let _depth = self.descend("check_module")?;
        let target = self.resolve_sig(ctx, s)?;
        let mt = self.synth_module(ctx, m)?;
        self.sig_sub(ctx, &mt.sig, &target)?;
        Ok(ModTyping {
            sig: target,
            valuable: mt.valuable,
        })
    }

    /// The compile-time part of a module, as a constructor — the `Fst`
    /// half of the phase-splitting interpretation.
    ///
    /// # Errors
    ///
    /// Fails with [`TypeError::OpaqueStaticPart`] for modules sealed with
    /// a signature whose static part has no definition.
    pub fn static_part(&self, ctx: &mut Ctx, m: &Module) -> TcResult<Con> {
        let _j = recmod_telemetry::judgement_span("kernel.static_part");
        let _depth = self.descend("static_part")?;
        match m {
            Module::Var(i) => Ok(Con::Fst(*i)),
            Module::Struct(c, _) => Ok(c.clone()),
            Module::Seal(_, s) => {
                let target = self.resolve_sig(ctx, s)?;
                let Sig::Struct(k, _) = &target else {
                    return raise(TypeError::Internal(
                        "resolve_sig returned an unresolved rds".to_string(),
                    ));
                };
                kind_definition(k)
                    .ok_or_else(|| TypeError::OpaqueStaticPart(show::module(m)).noted())
            }
            Module::Fix(ann, body) => {
                // Fig. 4: Fst(fix(s:S.M)) = μα:κ. (Fst of M)[α/Fst(s)]
                let target = self.resolve_sig(ctx, ann)?;
                let Sig::Struct(k, _) = &target else {
                    return raise(TypeError::Internal(
                        "resolve_sig returned an unresolved rds".to_string(),
                    ));
                };
                let base = strip_kind(k);
                let inner = ctx.with(Entry::Struct(target.clone(), false), |ctx| {
                    self.static_part(ctx, body)
                })?;
                let mu_body = retarget_fst_to_cvar(&inner, 0);
                Ok(Con::Mu(hc(base), hc(mu_body)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::{Kind, Term, Ty};
    use recmod_syntax::dsl::*;

    #[test]
    fn flat_structure_synthesizes_transparent_sig() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = strct(Con::Int, int(42));
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        assert_eq!(mt.sig, sig(q(Con::Int), tcon(Con::Int)));
        assert!(mt.valuable);
    }

    #[test]
    fn structure_variable_is_selfified() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let s = sig(tkind(), tcon(cvar(0)));
        ctx.with(Entry::Struct(s, true), |ctx| {
            let mt = tc.synth_module(ctx, &mvar(0)).unwrap();
            assert_eq!(mt.sig, sig(q(fst(0)), tcon(cvar(0))));
        });
    }

    #[test]
    fn sealing_forgets_transparency() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = seal(strct(Con::Int, int(1)), sig(tkind(), tcon(cvar(0))));
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        assert_eq!(mt.sig, sig(tkind(), tcon(cvar(0))));
    }

    #[test]
    fn sealing_checks_the_body() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        // [int, true] sealed at [α:T.Con(α)] — the term has type bool ≠ α=int.
        let bad = seal(strct(Con::Int, boolean(true)), sig(tkind(), tcon(cvar(0))));
        assert!(tc.synth_module(&mut ctx, &bad).is_err());
    }

    /// The opaque recursive module of paper §3:
    /// `fix(s : [α:T. int ⇀ Con(α)] . [int ⇀ Fst(s), λx:int.fail])` —
    /// a recursive type of "streams" whose value component is a function.
    #[test]
    fn opaque_recursive_module_typechecks() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
        let body = strct(
            carrow(Con::Int, fst(0)),
            lam(tcon(Con::Int), fail(tcon(carrow(Con::Int, fst(1))))),
        );
        let m = mfix(ann.clone(), body);
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        assert_eq!(mt.sig, ann);
        assert!(mt.valuable);
    }

    #[test]
    fn value_restriction_on_recursive_modules() {
        // fix(s:[α:T.1]. [int, snd(s)]) — the body's term is the recursive
        // variable's own dynamic part: not valuable.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), Ty::Unit);
        let m = mfix(ann, strct(Con::Int, Term::Snd(0)));
        assert!(matches!(
            tc.synth_module(&mut ctx, &m),
            Err(TypeError::ValueRestriction(_))
        ));
    }

    /// The transparent recursive module: the annotation is an rds, so
    /// inside the body `Fst(s)` *equals* the recursive type, and a value
    /// of the underlying implementation type can be returned directly.
    #[test]
    fn transparent_recursive_module_exploits_rds_equation() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        // ρs.[α : Q(int ⇀ Fst(s)) . Con(α)]
        let ann = rds(Sig::Struct(
            hc(q(carrow(Con::Int, fst(0)))),
            hc(tcon(cvar(0))),
        ));
        // Body: [int ⇀ Fst(s), λx:int. snd(s) — wait, must be valuable and
        // of type int ⇀ Fst(s)]. Use λx:int.fail[Fst(s)] : int ⇀ Fst(s).
        let body = strct(
            carrow(Con::Int, fst(0)),
            lam(tcon(Con::Int), fail(tcon(fst(1)))),
        );
        let m = mfix(ann, body);
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        // The resulting signature's static part is the μ type.
        let Sig::Struct(k, _) = &mt.sig else { panic!() };
        let expected_mu = mu(tkind(), carrow(Con::Int, cvar(0)));
        assert_eq!(**k, q(expected_mu));
    }

    #[test]
    fn static_part_of_fix_is_figure_4_mu() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), Ty::Unit);
        let m = mfix(ann, strct(carrow(Con::Int, fst(0)), Term::Star));
        let sp = tc.static_part(&mut ctx, &m).unwrap();
        assert_eq!(sp, mu(tkind(), carrow(Con::Int, cvar(0))));
    }

    #[test]
    fn static_part_of_opaque_seal_fails() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = seal(strct(Con::Int, int(1)), sig(tkind(), tcon(cvar(0))));
        assert!(matches!(
            tc.static_part(&mut ctx, &m),
            Err(TypeError::OpaqueStaticPart(_))
        ));
    }

    #[test]
    fn static_part_of_transparent_seal_succeeds() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = seal(strct(Con::Int, int(1)), sig(q(Con::Int), tcon(cvar(0))));
        assert_eq!(tc.static_part(&mut ctx, &m).unwrap(), Con::Int);
    }

    #[test]
    fn fix_body_must_match_annotation() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), tcon(Con::Bool));
        let m = mfix(ann, strct(Con::Int, int(7)));
        assert!(tc.synth_module(&mut ctx, &m).is_err());
    }

    #[test]
    fn check_module_against_rds_uses_resolution() {
        // [μα.int⇀α, λx:int.fail] : ρs.[α:Q(int ⇀ Fst s). Con(α)]
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let the_mu = mu(tkind(), carrow(Con::Int, cvar(0)));
        let ann = rds(Sig::Struct(
            hc(q(carrow(Con::Int, fst(0)))),
            hc(tcon(cvar(0))),
        ));
        let m = strct(the_mu.clone(), lam(tcon(Con::Int), fail(tcon(the_mu))));
        let mt = tc.check_module(&mut ctx, &m, &ann).unwrap();
        assert!(matches!(mt.sig, Sig::Struct(_, _)));
    }

    #[test]
    fn mutually_recursive_static_parts_via_sigma() {
        // fix(s : [α:T×T . 1] . [⟨int ⇀ π₂(Fst s), bool ⇀ π₁(Fst s)⟩, *])
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(Kind::times(tkind(), tkind()), Ty::Unit);
        let body = strct(
            cpair(
                carrow(Con::Int, cproj2(fst(0))),
                carrow(Con::Bool, cproj1(fst(0))),
            ),
            Term::Star,
        );
        let m = mfix(ann, body);
        let mt = tc.synth_module(&mut ctx, &m).unwrap();
        assert!(mt.valuable);
        let sp = tc.static_part(&mut ctx, &m).unwrap();
        // μp:T×T.⟨int ⇀ π₂p, bool ⇀ π₁p⟩
        assert_eq!(
            sp,
            mu(
                Kind::times(tkind(), tkind()),
                cpair(
                    carrow(Con::Int, cproj2(cvar(0))),
                    carrow(Con::Bool, cproj1(cvar(0)))
                )
            )
        );
    }
}
