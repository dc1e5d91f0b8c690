//! Negative tests: every kernel error category is reachable through the
//! public API, with the expected variant (ill-typed programs must fail
//! for the *right* reason).

use recmod::kernel::{Ctx, Tc, TypeError};
use recmod::syntax::ast::{Con, Kind, Term, Ty};
use recmod::syntax::dsl::*;
use recmod::syntax::intern::hc;

fn tc() -> Tc {
    Tc::new()
}

#[test]
fn unbound_variables() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_con(&mut ctx, &hc(cvar(0))),
        Err(TypeError::Unbound { .. })
    ));
    assert!(matches!(
        tc().synth_term(&mut ctx, &var(3)),
        Err(TypeError::Unbound { .. })
    ));
    assert!(matches!(
        tc().synth_module(&mut ctx, &mvar(0)),
        Err(TypeError::Unbound { .. })
    ));
}

#[test]
fn wrong_sort_lookups() {
    let mut ctx = Ctx::new();
    ctx.with_con(hc(tkind()), |ctx| {
        // A constructor binder used as a term/structure.
        assert!(tc().synth_term(ctx, &var(0)).is_err());
        assert!(tc().synth_term(ctx, &snd(0)).is_err());
    });
}

#[test]
fn applying_a_non_function() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_term(&mut ctx, &app(int(1), int(2))),
        Err(TypeError::NotAFunction(_))
    ));
}

#[test]
fn projecting_a_non_product() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_term(&mut ctx, &proj1(int(1))),
        Err(TypeError::NotAProduct(_))
    ));
}

#[test]
fn instantiating_a_non_polymorphic_term() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_term(&mut ctx, &tapp(int(1), Con::Int)),
        Err(TypeError::NotPolymorphic(_))
    ));
}

#[test]
fn case_on_a_non_sum() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_term(&mut ctx, &case(int(1), [var(0)])),
        Err(TypeError::NotASum(_))
    ));
}

#[test]
fn unrolling_a_non_mu() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().synth_term(&mut ctx, &unroll(int(1))),
        Err(TypeError::NotAMu(_))
    ));
}

#[test]
fn inj_index_out_of_range() {
    let mut ctx = Ctx::new();
    let sum = csum([Con::Int]);
    assert!(matches!(
        tc().synth_term(&mut ctx, &inj(3, sum, int(1))),
        Err(TypeError::InjIndex {
            index: 3,
            summands: 1
        })
    ));
}

#[test]
fn branch_count_mismatch() {
    let mut ctx = Ctx::new();
    let sum = csum([Con::Int, Con::Bool, Con::UnitTy]);
    assert!(matches!(
        tc().synth_term(&mut ctx, &case(inj(0, sum, int(1)), [var(0)])),
        Err(TypeError::BranchCount {
            summands: 3,
            branches: 1
        })
    ));
}

#[test]
fn prim_arity_mismatch() {
    let mut ctx = Ctx::new();
    let bad = Term::Prim(recmod::syntax::ast::PrimOp::Add, vec![int(1)]);
    assert!(matches!(
        tc().synth_term(&mut ctx, &bad),
        Err(TypeError::PrimArity {
            expected: 2,
            found: 1,
            ..
        })
    ));
}

#[test]
fn kind_level_failures() {
    let mut ctx = Ctx::new();
    // Applying a monotype as a constructor function.
    assert!(matches!(
        tc().synth_con(&mut ctx, &hc(capp(Con::Int, Con::Bool))),
        Err(TypeError::NotAPiKind(_))
    ));
    // Projecting a non-pair constructor.
    assert!(matches!(
        tc().synth_con(&mut ctx, &hc(cproj1(Con::Int))),
        Err(TypeError::NotASigmaKind(_))
    ));
    // Singleton of a non-monotype is ill-formed.
    assert!(tc().wf_kind(&mut ctx, &q(clam(tkind(), cvar(0)))).is_err());
}

#[test]
fn subkinding_failures_have_the_right_variant() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().subkind(&mut ctx, &hc(tkind()), &hc(q(Con::Int))),
        Err(TypeError::NotASubkind { .. })
    ));
    assert!(matches!(
        tc().subkind(&mut ctx, &hc(tkind()), &hc(unit_kind())),
        Err(TypeError::NotASubkind { .. })
    ));
}

#[test]
fn type_mismatches_have_the_right_variant() {
    let mut ctx = Ctx::new();
    assert!(matches!(
        tc().ty_eq(&mut ctx, &hc(Ty::Unit), &hc(tcon(Con::Int))),
        Err(TypeError::TyMismatch { .. })
    ));
    assert!(matches!(
        tc().ty_sub(
            &mut ctx,
            &hc(partial(tcon(Con::Int), tcon(Con::Int))),
            &hc(total(tcon(Con::Int), tcon(Con::Int)))
        ),
        Err(TypeError::NotASubtype { .. })
    ));
}

#[test]
fn fuel_exhaustion_is_reported_not_hung() {
    let t = Tc::new();
    t.set_fuel(5);
    let mut ctx = Ctx::new();
    // A large equivalence problem under a tiny budget.
    let (a, b) = recmod_bench::gen_nested_pair(64, 1);
    assert!(matches!(
        t.con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type),
        Err(TypeError::FuelExhausted { .. })
    ));
}

#[test]
fn rds_over_non_flat_signature_rejected() {
    let mut ctx = Ctx::new();
    // ρs.ρs'.S — nested rds is not part of the calculus.
    let s = rds(rds(sig(q(Con::Int), Ty::Unit)));
    assert!(matches!(
        tc().resolve_sig(&mut ctx, &s),
        Err(TypeError::RdsNotTransparent(_))
    ));
}

#[test]
fn fix_annotation_must_be_wellformed() {
    let mut ctx = Ctx::new();
    // Annotation uses an unbound constructor variable.
    let bad_sig = sig(q(cvar(7)), Ty::Unit);
    let m = mfix(bad_sig, strct(Con::Int, Term::Star));
    assert!(tc().synth_module(&mut ctx, &m).is_err());
}

#[test]
fn sealing_with_ill_formed_signature_rejected() {
    let mut ctx = Ctx::new();
    let bad_sig = sig(q(cvar(0)), Ty::Unit);
    let m = seal(strct(Con::Int, Term::Star), bad_sig);
    assert!(tc().synth_module(&mut ctx, &m).is_err());
}

#[test]
fn error_messages_render() {
    // Every variant used above has a non-empty, lowercase-ish rendering.
    let mut ctx = Ctx::new();
    let e = tc().synth_term(&mut ctx, &app(int(1), int(2))).unwrap_err();
    let msg = e.to_string();
    assert!(!msg.is_empty());
    assert!(msg.starts_with(char::is_lowercase));
}

#[test]
fn surface_spans_point_into_the_source() {
    let src = "val x = 1\nval y = unknown_name";
    let err = recmod::compile(src).unwrap_err();
    let rendered = err.render(src);
    assert!(
        rendered.starts_with("2:"),
        "span should be on line 2: {rendered}"
    );
}
