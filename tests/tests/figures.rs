//! Integration tests regenerating the paper's figures (DESIGN.md §6).
//!
//! The paper's "evaluation" consists of its inference figures and the
//! type-theoretic facts stated around them; each test here checks one of
//! those artifacts through the public API.

use recmod::kernel::{Ctx, Entry, RecMode, Tc};
use recmod::phase::{check_split, split_module, split_sig};
use recmod::syntax::ast::{Con, Kind, Sig, Term, Ty};
use recmod::syntax::dsl::*;
use recmod::syntax::intern::hc;
use recmod::syntax::pretty::{con_to_string, sig_to_string, Names};

// ---------------------------------------------------------------------
// Figure 1: the core calculus — every syntactic form is checkable.
// ---------------------------------------------------------------------

#[test]
fn fig1_kind_formation_covers_grammar() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    for k in [
        tkind(),
        unit_kind(),
        q(Con::Int),
        pi(tkind(), q(cvar(0))),
        sigma(tkind(), q(cvar(0))),
    ] {
        tc.wf_kind(&mut ctx, &k).unwrap();
    }
}

#[test]
fn fig1_constructor_grammar_kinds() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    // λ, application, pairs, projections, μ, base types, ⇀, ×, sums.
    let cons: Vec<(Con, Kind)> = vec![
        (Con::Star, unit_kind()),
        (clam(tkind(), cvar(0)), pi(tkind(), tkind())),
        (capp(clam(tkind(), cvar(0)), Con::Int), tkind()),
        (cpair(Con::Int, Con::Bool), sigma(tkind(), tkind())),
        (cproj1(cpair(Con::Int, Con::Bool)), tkind()),
        (mu(tkind(), carrow(Con::Int, cvar(0))), tkind()),
        (carrow(Con::Int, Con::Bool), tkind()),
        (cprod(Con::Int, Con::Bool), tkind()),
        (csum([Con::UnitTy, Con::Int]), tkind()),
    ];
    for (c, k) in cons {
        tc.check_con(&mut ctx, &hc(c.clone()), &hc(k.clone()))
            .unwrap_or_else(|e| panic!("{}: {e}", con_to_string(&c, &mut Names::new())));
    }
}

#[test]
fn fig1_type_grammar_formation() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    for t in [
        Ty::Unit,
        tcon(Con::Int),
        total(tcon(Con::Int), tcon(Con::Bool)),
        partial(tcon(Con::Int), tcon(Con::Bool)),
        tprod(Ty::Unit, tcon(Con::Int)),
        forall(tkind(), partial(tcon(cvar(0)), tcon(cvar(0)))),
    ] {
        tc.wf_ty(&mut ctx, &t).unwrap();
    }
}

// ---------------------------------------------------------------------
// Figure 2: higher-order singletons Q(c : κ).
// ---------------------------------------------------------------------

#[test]
fn fig2_higher_order_singleton_deduction() {
    // "if c has kind Πα:T.Q(list(α)), it follows that c = list : T → T."
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    ctx.with_con(hc(pi(tkind(), tkind())), |ctx| {
        // list : T→T is index 0; declare c with kind Πα:T.Q(list α).
        let c_kind = pi(tkind(), q(capp(cvar(1), cvar(0))));
        ctx.with_con(hc(c_kind.clone()), |ctx| {
            // c (index 0) = list (index 1) at kind T → T.
            tc.con_equiv(ctx, &hc(cvar(0)), &hc(cvar(1)), &pi(tkind(), tkind()))
                .unwrap();
        });
    });
}

#[test]
fn fig2_selfification_matches_definition() {
    use recmod::kernel::singleton::selfify_hc;
    // Q(c : T) = Q(c); Q(c : Πα:κ₁.κ₂) = Πα:κ₁.Q(c α : κ₂).
    assert_eq!(*selfify_hc(&hc(Con::Int), &hc(tkind())), q(Con::Int));
    assert_eq!(
        *selfify_hc(&hc(cvar(0)), &hc(pi(tkind(), tkind()))),
        pi(tkind(), q(capp(cvar(1), cvar(0))))
    );
}

// ---------------------------------------------------------------------
// Figure 3: the structure calculus.
// ---------------------------------------------------------------------

#[test]
fn fig3_structures_and_projections() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    // [int, 42] : [α:Q(int). Con(α)] and Fst/snd typing for variables.
    let m = strct(Con::Int, int(42));
    let mt = tc.synth_module(&mut ctx, &m).unwrap();
    tc.sig_sub(&mut ctx, &mt.sig, &sig(tkind(), tcon(cvar(0))))
        .unwrap();

    ctx.with(Entry::Struct(sig(tkind(), tcon(cvar(0))), true), |ctx| {
        // Fst(s) : T and snd(s) : Con(Fst(s)).
        tc.check_con(ctx, &hc(fst(0)), &hc(tkind())).unwrap();
        let typing = tc.synth_term(ctx, &snd(0)).unwrap();
        tc.ty_eq(ctx, &typing.ty, &hc(tcon(fst(0)))).unwrap();
    });
}

#[test]
fn fig3_signature_subtyping_forgets_definitions() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let transparent = sig(q(Con::Int), tcon(cvar(0)));
    let opaque = sig(tkind(), tcon(cvar(0)));
    tc.sig_sub(&mut ctx, &transparent, &opaque).unwrap();
    assert!(tc.sig_sub(&mut ctx, &opaque, &transparent).is_err());
}

// ---------------------------------------------------------------------
// Figure 4: phase-splitting recursive modules.
// ---------------------------------------------------------------------

#[test]
fn fig4_split_has_the_equation_shape() {
    // fix(s:[α:κ.σ].[c(Fst s), e(Fst s, snd s)])
    //   = [α = μα:κ.c(α), fix(x:σ.e(α,x))]
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
    let body = strct(
        carrow(Con::Int, fst(0)),
        lam(tcon(Con::Int), fail(tcon(carrow(Con::Int, fst(1))))),
    );
    let m = mfix(ann, body);
    let s = split_module(&tc, &mut ctx, m).unwrap();
    assert_eq!(s.con, mu(tkind(), carrow(Con::Int, cvar(0))));
    assert!(matches!(s.term, Term::Fix(_, _)));
}

#[test]
fn fig4_translation_preserves_typing() {
    // The algorithmic content of the Figure-4 equation: original and
    // translation inhabit the same signature.
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
    let body = strct(Con::Star, lam(tcon(Con::Int), app(snd(1), var(0))));
    let v = check_split(&tc, &mut ctx, &mfix(ann, body)).unwrap();
    tc.sig_sub(&mut ctx, &v.translated.sig, &v.original.sig)
        .unwrap();
}

#[test]
fn fig4_split_output_evaluates() {
    // The split factorial module actually runs.
    use recmod::eval::Interp;
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
    let fact = lam(
        tcon(Con::Int),
        ite(
            prim(recmod::syntax::ast::PrimOp::Eq, var(0), int(0)),
            int(1),
            prim(
                recmod::syntax::ast::PrimOp::Mul,
                var(0),
                app(
                    snd(1),
                    prim(recmod::syntax::ast::PrimOp::Sub, var(0), int(1)),
                ),
            ),
        ),
    );
    let m = mfix(ann, strct(Con::Star, fact));
    let s = split_module(&tc, &mut ctx, m).unwrap();
    let result = Interp::new().run(&app(s.term, int(5))).unwrap();
    assert_eq!(result.as_int().unwrap(), 120);
}

// ---------------------------------------------------------------------
// Figure 5: phase-splitting recursively-dependent signatures.
// ---------------------------------------------------------------------

#[test]
fn fig5_rds_resolution_shape() {
    // ρs.[α:Q(c(Fst s):κ).σ] = [α:Q(μβ:κ.c(β):κ). σ[α/Fst s]]
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let s = rds(Sig::Struct(
        hc(q(carrow(Con::Int, fst(0)))),
        hc(tcon(fst(1))),
    ));
    let (k, t) = split_sig(&tc, &mut ctx, &s).unwrap();
    assert_eq!(k, q(mu(tkind(), carrow(Con::Int, cvar(0)))));
    assert_eq!(t, tcon(cvar(0)));
}

#[test]
fn fig5_rds_definitionally_equal_to_resolution() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let s = rds(Sig::Struct(hc(q(carrow(Con::Int, fst(0)))), hc(Ty::Unit)));
    let r = tc.resolve_sig(&mut ctx, &s).unwrap();
    tc.sig_eq(&mut ctx, &s, &r).unwrap();
    println!(
        "ρ-sig {} = {}",
        sig_to_string(&s, &mut Names::new()),
        sig_to_string(&r, &mut Names::new())
    );
}

#[test]
fn fig5_formation_requires_full_transparency() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let s = rds(sig(tkind(), Ty::Unit));
    assert!(matches!(
        tc.resolve_sig(&mut ctx, &s),
        Err(recmod::kernel::TypeError::RdsNotTransparent(_))
    ));
}

// ---------------------------------------------------------------------
// E6: abstract-type extrusion.
// ---------------------------------------------------------------------

#[test]
fn e6_extrusion_of_the_papers_example() {
    // rec S : sig type t; type u = S.u -> t end
    //   ⇒ sig type t'; structure rec S : sig type t = t'; … end end
    use recmod::surface::extrude::extrude;
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let s = rds(Sig::Struct(
        hc(sigma(tkind(), q(carrow(cproj2(fst(1)), cvar(0))))),
        hc(Ty::Unit),
    ));
    let out = extrude(&tc, &mut ctx, &s).unwrap();
    assert_eq!(out.hoisted, 1);
    let Sig::Struct(k, _) = &out.sig else {
        panic!()
    };
    let Kind::Sigma(hoisted, inner) = &**k else {
        panic!()
    };
    assert_eq!(**hoisted, Kind::Type);
    assert!(recmod::kernel::singleton::fully_transparent(inner));
    tc.wf_sig(&mut ctx, &out.sig).unwrap();
}

// ---------------------------------------------------------------------
// E7: the singleton-μ interaction of §2.1.
// ---------------------------------------------------------------------

#[test]
fn e7_mu_at_singleton_kind_equals_its_definition() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    // "the deceptively similar type μα:Q(int).α is equal to int."
    let c = mu(q(Con::Int), cvar(0));
    tc.con_equiv(&mut ctx, &hc(c.clone()), &hc(Con::Int), &tkind())
        .unwrap();
    // "...although μα:T.α is a vacuous, uninhabited type (as usual)."
    let vacuous = mu(tkind(), cvar(0));
    tc.check_con(&mut ctx, &hc(vacuous.clone()), &hc(tkind()))
        .unwrap();
    assert!(tc
        .con_equiv(&mut ctx, &hc(vacuous.clone()), &hc(Con::Int), &tkind())
        .is_err());
}

// ---------------------------------------------------------------------
// E8: §5 — Shao's equation and the elimination of equi-recursion.
// ---------------------------------------------------------------------

#[test]
fn e8_shao_equation_by_mode() {
    let m = mu(tkind(), carrow(Con::Int, cvar(0)));
    let m_shao = mu(
        tkind(),
        carrow(Con::Int, recmod::syntax::subst::shift_con(&m, 1, 0)),
    );
    let mut ctx = Ctx::new();
    // Holds in equi and iso+Shao; fails in plain iso.
    Tc::with_mode(RecMode::Equi)
        .con_equiv(&mut ctx, &hc(m.clone()), &hc(m_shao.clone()), &tkind())
        .unwrap();
    Tc::with_mode(RecMode::IsoShao)
        .con_equiv(&mut ctx, &hc(m.clone()), &hc(m_shao.clone()), &tkind())
        .unwrap();
    assert!(Tc::with_mode(RecMode::Iso)
        .con_equiv(&mut ctx, &hc(m.clone()), &hc(m_shao.clone()), &tkind())
        .is_err());
}

#[test]
fn e8_nested_mu_collapse() {
    // μα.μβ.c(α,β) ≃ μβ.c(β,β): proved by bisimilarity (equi mode), and
    // the collapse output is purely iso-recursive (no nested towers).
    use recmod::phase::iso::{collapse_mu, eliminate_nested_mu, nested_mu_count};
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let nested = mu(
        tkind(),
        mu(tkind(), csum([Con::UnitTy, cprod(cvar(1), cvar(0))])),
    );
    let flat = collapse_mu(&nested).unwrap();
    tc.con_equiv(&mut ctx, &hc(nested.clone()), &hc(flat.clone()), &tkind())
        .unwrap();
    assert_eq!(nested_mu_count(&eliminate_nested_mu(&nested)), 0);
}

#[test]
fn e8_transparent_list_static_part_is_a_nested_mu_that_collapses() {
    // The §5 observation arises *in practice*: phase-splitting the
    // transparent List module produces μ(module) ∘ μ(datatype) nesting,
    // equal to its collapsed purely-iso form.
    use recmod::phase::iso::{collapse_mu, nested_mu_count};
    let compiled = recmod::compile(recmod::corpus::TRANSPARENT_LIST).unwrap();
    let mut elab = compiled.elab;
    // The one top-level binding is the hidden rec structure; recover its
    // static part from the context entry's signature kind.
    let (sig, _) = elab.ctx.lookup_struct(0).unwrap();
    let Sig::Struct(k, _) = sig else { panic!() };
    // The kind is fully transparent; its definition contains the module-
    // level μ wrapped around the datatype μ.
    let def = recmod::kernel::singleton::kind_definition(&k).unwrap();
    let tc = Tc::new();
    let w = tc.whnf(&mut elab.ctx, &hc(def.clone())).unwrap();
    let Con::Mu(_, _) = &*w else {
        panic!("expected a μ, got {w:?}")
    };
    if nested_mu_count(&w) > 0 {
        let flat = collapse_mu(&w).expect("nested towers collapse");
        tc.con_equiv(&mut elab.ctx, &w, &hc(flat), &tkind())
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// Figures 4/5 as *equations* (appendix A.3): module equality.
// ---------------------------------------------------------------------

#[test]
fn fig4_is_a_module_equality() {
    // Γ ⊢ fix(s:S.M) = [α = μα:κ.c(α), fix(x:σ.e(α,x))] : S — checked by
    // the module-equality judgement (which builds the non-standard
    // equations in by comparing phase-split parts).
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
    let body = strct(Con::Star, lam(tcon(Con::Int), app(snd(1), var(0))));
    let m = mfix(ann, body);
    let interpretation = split_module(&tc, &mut ctx, m.clone())
        .unwrap()
        .into_module();
    recmod::phase::verify::module_eq(&tc, &mut ctx, &m, &interpretation).unwrap();
    // And equality is not trivial: a different module is rejected.
    let other = strct(Con::Star, lam(tcon(Con::Int), int(0)));
    assert!(recmod::phase::verify::module_eq(&tc, &mut ctx, &m, &other).is_err());
}

#[test]
fn sealing_is_equationally_transparent() {
    // M :> S = M as modules (sealing has no dynamic content) — the
    // erasure reading of opacity used by the phase interpretation.
    let tc = Tc::new();
    let mut ctx = Ctx::new();
    let m = strct(Con::Int, int(7));
    let sealed = seal(m.clone(), sig(tkind(), tcon(cvar(0))));
    recmod::phase::verify::module_eq(&tc, &mut ctx, &m, &sealed).unwrap();
}
