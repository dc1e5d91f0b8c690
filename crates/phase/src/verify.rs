//! Verification of the phase-splitting translation.
//!
//! The paper justifies its extensions by *equations* in the type theory
//! (Figures 4 and 5): the new constructs are definitionally equal to
//! their interpretations. Algorithmically this becomes a theorem we can
//! check instance by instance: for every well-typed module `M : S`, the
//! split `[c, e]` (a) lies in the pure structure fragment and (b)
//! typechecks against the *same* signature. [`check_split`] packages that
//! check; the property tests and integration suites run it over the whole
//! example corpus.

use recmod_kernel::module::ModTyping;
use recmod_kernel::{raise, Ctx, Tc, TcResult, TypeError};
use recmod_syntax::ast::Module;

use crate::split::{is_pure_structure, split_module, Split};

/// The outcome of verifying one module's translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verified {
    /// The split parts.
    pub split: Split,
    /// The signature of the original module.
    pub original: ModTyping,
    /// The signature of the reassembled split structure.
    pub translated: ModTyping,
}

/// `Γ ⊢ M₁ = M₂ : S` — module equality (paper appendix A.2/A.3),
/// including the *non-standard* Figure-4/5 equations: both modules are
/// phase-split first, so `fix(s:S.M)` is definitionally equal to its
/// interpretation `[μ…, fix…]`, exactly as the paper's equational rules
/// prescribe.
///
/// # Errors
///
/// Fails when the static parts are not equivalent constructors or the
/// dynamic parts are not provably βη-equal (the term procedure is sound
/// but incomplete; see `recmod_kernel::termeq`).
pub fn module_eq(tc: &Tc, ctx: &mut Ctx, m1: &Module, m2: &Module) -> TcResult<()> {
    let _span = recmod_telemetry::span("phase.module_eq");
    let s1 = split_module(tc, ctx, m1.clone())?;
    let s2 = split_module(tc, ctx, m2.clone())?;
    recmod_kernel::termeq::parts_eq(tc, ctx, (&s1.con, &s1.term), (&s2.con, &s2.term))
}

/// Typechecks `m`, phase-splits it, and re-checks the result against the
/// original signature (both directions of signature matching must hold
/// for the static parts to coincide; the dynamic parts are checked by
/// subsignature in the translated→original direction, since splitting
/// can only *increase* transparency).
///
/// # Errors
///
/// Any kernel error from checking `m`, from splitting, or from the final
/// signature match. [`TypeError::Other`] if the split output escapes the
/// pure structure fragment.
pub fn check_split(tc: &Tc, ctx: &mut Ctx, m: &Module) -> TcResult<Verified> {
    recmod_telemetry::stage("stage.verify", || {
        let _span = recmod_telemetry::span("phase.verify");
        recmod_telemetry::count("phase.verify_calls", 1);
        let original = tc.synth_module(ctx, m)?;
        let split = split_module(tc, ctx, m.clone())?;
        let reassembled = split.clone().into_module();
        if !is_pure_structure(&reassembled) {
            return raise(TypeError::Other(
                "phase splitting produced a non-structure module".to_string(),
            ));
        }
        let translated = {
            let _span = recmod_telemetry::span("phase.verify.recheck");
            tc.synth_module(ctx, &reassembled)?
        };
        tc.sig_sub(ctx, &translated.sig, &original.sig)?;
        Ok(Verified {
            split,
            original,
            translated,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod_syntax::ast::{Con, Sig, Term};
    use recmod_syntax::dsl::*;

    #[test]
    fn verifies_flat_structures() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = strct(Con::Int, int(3));
        check_split(&tc, &mut ctx, &m).unwrap();
    }

    #[test]
    fn verifies_opaque_recursive_module() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
        // Under opacity the value component must be annotated at the
        // *implementation* of α, i.e. int ⇀ Fst(s) — Fst(s) alone would
        // not be known equal to it (the §3.1 opacity problem).
        let body = strct(
            carrow(Con::Int, fst(0)),
            lam(tcon(Con::Int), fail(tcon(carrow(Con::Int, fst(1))))),
        );
        let v = check_split(&tc, &mut ctx, &mfix(ann, body)).unwrap();
        assert!(matches!(v.split.con, Con::Mu(_, _)));
        assert!(matches!(v.split.term, Term::Fix(_, _)));
    }

    #[test]
    fn verifies_transparent_recursive_module() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = rds(Sig::Struct(
            recmod_syntax::intern::hc(q(carrow(Con::Int, fst(0)))),
            recmod_syntax::intern::hc(tcon(cvar(0))),
        ));
        let body = strct(
            carrow(Con::Int, fst(0)),
            lam(tcon(Con::Int), fail(tcon(fst(1)))),
        );
        check_split(&tc, &mut ctx, &mfix(ann, body)).unwrap();
    }

    #[test]
    fn verifies_recursive_function_module() {
        // A module packaging the factorial function: the dynamic part is
        // genuinely recursive through snd(s).
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
        let fact = lam(
            tcon(Con::Int),
            ite(
                prim(recmod_syntax::ast::PrimOp::Eq, var(0), int(0)),
                int(1),
                prim(
                    recmod_syntax::ast::PrimOp::Mul,
                    var(0),
                    app(
                        snd(1),
                        prim(recmod_syntax::ast::PrimOp::Sub, var(0), int(1)),
                    ),
                ),
            ),
        );
        let m = mfix(ann, strct(Con::Star, fact));
        let v = check_split(&tc, &mut ctx, &m).unwrap();
        // The split dynamic part is a fix over a lambda — evaluable later.
        assert!(matches!(v.split.term, Term::Fix(_, _)));
    }

    #[test]
    fn verifies_under_nonempty_context() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let outer = sig(q(Con::Int), tcon(cvar(0)));
        ctx.with(recmod_kernel::Entry::Struct(outer, true), |ctx| {
            // A module that mentions an outer structure variable.
            let m = strct(fst(0), snd(0));
            check_split(&tc, ctx, &m).unwrap();
        });
    }

    #[test]
    fn split_of_sealed_module_drops_opacity_but_still_checks() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = seal(strct(Con::Int, int(1)), sig(tkind(), tcon(cvar(0))));
        // The original signature is opaque; the split is transparent;
        // transparent ≤ opaque, so verification succeeds.
        let v = check_split(&tc, &mut ctx, &m).unwrap();
        assert_eq!(v.split.con, Con::Int);
    }
}
