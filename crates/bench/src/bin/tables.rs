//! Regenerates every experiment table of `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run -p recmod-bench --release --bin tables
//! ```
//!
//! The tables use deterministic counters (interpreter steps, checker
//! fuel, μ-unrolls, NbE machine steps) so the numbers are
//! machine-independent and exactly reproducible. The P2 intern-probe
//! column is exact only for this binary's run order: which rewrite-memo
//! slots collide depends on the global node-id order.

use recmod::kernel::{Ctx, RecMode, Tc};
use recmod::syntax::ast::Kind;
use recmod::syntax::intern::hc;
use recmod_bench as bench;

fn main() {
    table_e1();
    table_p1();
    table_e8();
    table_p2();
}

/// E1: opaque vs transparent list — interpreter steps at run time,
/// kernel fuel and μ-unrolls at compile time.
fn table_e1() {
    println!("Table E1 — build+sum an n-list: interpreter steps / checker counters");
    println!(
        "{:>6} {:>12} {:>12} {:>7} {:>11} {:>10} {:>11} {:>11}",
        "n", "opaque", "transp", "ratio", "opaque/n^2", "transp/n", "fuel(op)", "fuel(tr)"
    );
    for n in [10usize, 20, 40, 80, 160] {
        let (oe, ok) = bench::list_run_stats(true, n);
        let (te, tk) = bench::list_run_stats(false, n);
        println!(
            "{:>6} {:>12} {:>12} {:>6.1}x {:>11.2} {:>10.2} {:>11} {:>11}",
            n,
            oe.steps,
            te.steps,
            oe.steps as f64 / te.steps as f64,
            oe.steps as f64 / (n * n) as f64,
            te.steps as f64 / n as f64,
            ok.fuel_used(),
            tk.fuel_used(),
        );
    }
    // Compile-time μ-unroll counts are size-independent; report once.
    let (_, ok) = bench::list_run_stats(true, 10);
    let (_, tk) = bench::list_run_stats(false, 10);
    println!(
        "  (compile-time μ-unrolls: opaque {}, transparent {})",
        ok.mu_unrolls, tk.mu_unrolls
    );
    println!();
}

/// P1: equivalence-checker fuel and μ-unrolls, by workload size and mode.
fn table_p1() {
    println!("Table P1 — definitional equality: checker fuel burned (μ-unrolls)");
    println!(
        "{:>6} {:>18} {:>18} {:>18} {:>8}",
        "size", "μ vs unroll", "nested≃collapse", "iso+Shao μ=μ'", "hwm"
    );
    // Fuel burned plus the stats snapshot for one equivalence query.
    let profile = |mode: RecMode,
                   pair: &(recmod::syntax::ast::Con, recmod::syntax::ast::Con)|
     -> (u64, recmod::kernel::KernelStats) {
        let tc = Tc::with_mode(mode);
        let before = tc.fuel();
        let mut ctx = Ctx::new();
        tc.con_equiv(
            &mut ctx,
            &hc(pair.0.clone()),
            &hc(pair.1.clone()),
            &Kind::Type,
        )
        .unwrap();
        (before - tc.fuel(), tc.stats())
    };
    for size in [8usize, 16, 32, 64, 128] {
        let (uf, us) = profile(RecMode::Equi, &bench::gen_unrolled_pair(size, 42));
        let (nf, ns) = profile(RecMode::Equi, &bench::gen_nested_pair(size, 42));
        let (sf, ss) = profile(RecMode::IsoShao, &bench::gen_shao_pair(size, 42));
        println!(
            "{size:>6} {:>18} {:>18} {:>18} {:>8}",
            format!("{uf} ({})", us.mu_unrolls),
            format!("{nf} ({})", ns.mu_unrolls),
            format!("{sf} ({})", ss.mu_unrolls),
            ns.assumption_hwm,
        );
    }
    println!();
}

/// E8: which equalities hold in which theory.
fn table_e8() {
    use recmod::syntax::ast::Con;
    use recmod::syntax::dsl::*;
    use recmod::syntax::subst::shift_con;
    println!("Table E8 — §5 equality theories (✓ = provable)");
    let m = mu(tkind(), carrow(Con::Int, cvar(0)));
    let shao = mu(tkind(), carrow(Con::Int, shift_con(&m, 1, 0)));
    let unrolled = carrow(Con::Int, m.clone());
    let nested = mu(tkind(), mu(tkind(), carrow(cvar(1), cvar(0))));
    let flat = recmod::phase::iso::collapse_mu(&nested).unwrap();
    let rows: Vec<(&str, &Con, &Con)> = vec![
        ("Shao's equation  μc = μc(μc)", &m, &shao),
        ("μ vs unrolling", &m, &unrolled),
        ("nested-μ collapse", &nested, &flat),
    ];
    println!(
        "{:<32} {:>6} {:>6} {:>9}",
        "equation", "equi", "iso", "iso+Shao"
    );
    for (name, a, b) in rows {
        let mut row = format!("{name:<32}");
        for mode in [RecMode::Equi, RecMode::Iso, RecMode::IsoShao] {
            let tc = Tc::with_mode(mode);
            let mut ctx = Ctx::new();
            let ok = tc
                .con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
                .is_ok();
            let w = match mode {
                RecMode::Equi => 6,
                RecMode::Iso => 6,
                RecMode::IsoShao => 9,
            };
            row.push_str(&format!(" {:>w$}", if ok { "✓" } else { "✗" }, w = w));
        }
        println!("{row}");
    }
    println!();
}

/// P2: elaboration fuel, μ-unrolls, NbE machine steps and intern
/// probes, by program size.
fn table_p2() {
    println!("Table P2 — front-end cost (kernel counters burned during compile)");
    println!(
        "{:>24} {:>10} {:>14} {:>12} {:>12} {:>14}",
        "workload", "size", "fuel", "μ-unrolls", "NbE steps", "intern probes"
    );
    let row = |workload: &str, size: usize, src: &str| {
        let c = bench::compile_cost(src);
        println!(
            "{workload:>24} {size:>10} {:>14} {:>12} {:>12} {:>14}",
            c.fuel, c.mu_unrolls, c.nbe_steps, c.intern_probes
        );
    };
    for n in [4usize, 16, 64] {
        row("module_chain", n, &bench::gen_module_chain(n));
    }
    for k in [1usize, 2, 4, 8, 16, 24, 32] {
        row("rec_datatypes", k, &bench::gen_rec_datatypes(k));
    }
    println!();
}
