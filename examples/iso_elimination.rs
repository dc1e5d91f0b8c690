//! §5: eliminating equi-recursive constructors with Shao's equation.
//!
//! ```sh
//! cargo run --example iso_elimination
//! ```
//!
//! Shows the three equality theories side by side (equi, plain iso,
//! iso + Shao), the `μα.μβ.c(α,β) ≃ μβ.c(β,β)` collapse, and the nested
//! tower that phase-splitting the transparent List module actually
//! produces.

use recmod::kernel::{Ctx, RecMode, Tc};
use recmod::phase::iso::{collapse_mu, eliminate_nested_mu, nested_mu_count};
use recmod::syntax::ast::Con;
use recmod::syntax::dsl::*;
use recmod::syntax::intern::hc;
use recmod::syntax::pretty::{con_to_string, Names};
use recmod::syntax::subst::shift_con;

fn verdict(mode: RecMode, a: &Con, b: &Con) -> &'static str {
    let tc = Tc::with_mode(mode);
    let mut ctx = Ctx::new();
    if tc
        .con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &tkind())
        .is_ok()
    {
        "equal"
    } else {
        "NOT equal"
    }
}

fn show(c: &Con) -> String {
    con_to_string(c, &mut Names::new())
}

fn main() {
    println!("── Shao's equation: μα.c(α) ≡ μα.c(μα.c(α)) ────────────────");
    let m = mu(tkind(), carrow(Con::Int, cvar(0)));
    let m_shao = mu(tkind(), carrow(Con::Int, shift_con(&m, 1, 0)));
    println!("  lhs = {}", show(&m));
    println!("  rhs = {}", show(&m_shao));
    for mode in [RecMode::Equi, RecMode::Iso, RecMode::IsoShao] {
        println!("  {mode:?}: {}", verdict(mode, &m, &m_shao));
    }

    println!();
    println!("── μ-vs-unrolling (what separates iso from equi) ───────────");
    let unrolled = carrow(Con::Int, m.clone());
    println!("  lhs = {}", show(&m));
    println!("  rhs = {}", show(&unrolled));
    for mode in [RecMode::Equi, RecMode::Iso, RecMode::IsoShao] {
        println!("  {mode:?}: {}", verdict(mode, &m, &unrolled));
    }

    println!();
    println!("── The §5 collapse: μα.μβ.c(α,β) ≃ μβ.c(β,β) ───────────────");
    let nested = mu(
        tkind(),
        mu(tkind(), csum([Con::UnitTy, cprod(cvar(1), cvar(0))])),
    );
    let flat = collapse_mu(&nested).expect("nested towers collapse");
    println!("  nested = {}", show(&nested));
    println!("  flat   = {}", show(&flat));
    println!(
        "  bisimilarity (equi engine): {}",
        verdict(RecMode::Equi, &nested, &flat)
    );
    println!(
        "  nested μμ towers after elimination: {}",
        nested_mu_count(&eliminate_nested_mu(&nested))
    );

    println!();
    println!("── In practice: the transparent List's static part ─────────");
    let compiled = recmod::compile(recmod::corpus::TRANSPARENT_LIST).expect("compiles");
    let mut elab = compiled.elab;
    let (sig, _) = elab.ctx.lookup_struct(0).expect("one binding");
    let recmod::syntax::ast::Sig::Struct(k, _) = sig else {
        unreachable!()
    };
    let def = recmod::kernel::singleton::kind_definition(&k).expect("transparent");
    let tc = Tc::new();
    let w = tc
        .whnf(&mut elab.ctx, &hc(def.clone()))
        .expect("normalizes");
    println!("  implementation type (head):");
    println!("    {}", show(&w));
    println!("  nested μμ towers: {}", nested_mu_count(&w));
    let eliminated = eliminate_nested_mu(&w);
    println!(
        "  after §5 elimination: {} towers, equal in equi theory: {}",
        nested_mu_count(&eliminated),
        verdict(RecMode::Equi, &w, &eliminated)
    );
}
