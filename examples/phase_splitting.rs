//! Phase splitting in action: Figures 4 and 5 as executable output.
//!
//! ```sh
//! cargo run --example phase_splitting
//! ```
//!
//! Builds a recursive module and a recursively-dependent signature in
//! the internal language, prints their phase-splitting interpretations,
//! and re-checks the translations in the kernel — the "guide for
//! implementation" reading of the paper's equations.

use recmod::kernel::{Ctx, Tc};
use recmod::phase::{check_split, split_module};
use recmod::syntax::ast::{Con, Sig};
use recmod::syntax::dsl::*;
use recmod::syntax::pretty::{
    con_to_string, module_to_string, sig_to_string, term_to_string, Names,
};

fn main() {
    let tc = Tc::new();
    let mut ctx = Ctx::new();

    println!("── Figure 4: fix(s:S.M) = [α = μα:κ.c(α), fix(x:σ.e(α,x))] ──");
    // A module packaging a recursive "stream head" function:
    // fix(s : [α:T. int ⇀ Con(α)] . [int ⇀ Fst(s), λx. fail]).
    let ann = sig(tkind(), partial(tcon(Con::Int), tcon(cvar(0))));
    let body = strct(
        carrow(Con::Int, fst(0)),
        lam(tcon(Con::Int), fail(tcon(carrow(Con::Int, fst(1))))),
    );
    let m = mfix(ann, body);
    println!("module:");
    println!("  {}", module_to_string(&m, &mut Names::new()));
    let v = check_split(&tc, &mut ctx, &m).expect("translation verifies");
    println!("static part (an equi-recursive μ):");
    println!("  {}", con_to_string(&v.split.con, &mut Names::new()));
    println!("dynamic part (a term-level fix):");
    println!("  {}", term_to_string(&v.split.term, &mut Names::new()));
    println!("original signature:");
    println!("  {}", sig_to_string(&v.original.sig, &mut Names::new()));
    println!("translated signature (matches the original):");
    println!("  {}", sig_to_string(&v.translated.sig, &mut Names::new()));

    println!();
    println!("── Figure 5: ρs.S = [α:Q(μβ:κ.c(β):κ). σ[α/Fst s]] ─────────");
    // ρs.[α : Q(int ⇀ Fst(s)) . Con(Fst(s))]
    let rds_sig = rds(Sig::Struct(
        recmod::syntax::intern::hc(q(carrow(Con::Int, fst(0)))),
        recmod::syntax::intern::hc(tcon(fst(1))),
    ));
    println!("rds:");
    println!("  {}", sig_to_string(&rds_sig, &mut Names::new()));
    let resolved = tc.resolve_sig(&mut ctx, &rds_sig).expect("resolves");
    println!("resolution (an ordinary signature):");
    println!("  {}", sig_to_string(&resolved, &mut Names::new()));
    tc.sig_eq(&mut ctx, &rds_sig, &resolved)
        .expect("definitionally equal");
    println!("kernel confirms: ρs.S = its resolution (signature equality).");

    println!();
    println!("── The split factorial runs ────────────────────────────────");
    let fact_ann = sig(unit_kind(), partial(tcon(Con::Int), tcon(Con::Int)));
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
    let fact_mod = mfix(fact_ann, strct(Con::Star, fact));
    let split = split_module(&tc, &mut ctx, fact_mod).expect("splits");
    let mut interp = recmod::eval::Interp::new();
    for n in [0i64, 1, 5, 10] {
        let v = interp
            .run(&app(split.term.clone(), int(n)))
            .expect("factorial runs");
        println!("  fact {n} = {v}");
    }
}
