//! # recmod-bench
//!
//! Workload generators for the experiment tables and the tests, plus
//! the deterministic cost model ([`costs`]). The `tables` binary
//! (`src/bin/tables.rs`) regenerates the counter tables of
//! `EXPERIMENTS.md` from these generators; `bench_json --costs` is the
//! cost-model gate. Wall-clock measurement lives in `perfbench/`.
//!
//! Generators are deterministic (seeded [`rng::Rng`], a SplitMix64) so
//! runs are reproducible without any external crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod rng;

use recmod::corpus;
use recmod::syntax::ast::{Con, Kind};
use recmod::syntax::dsl::*;
use recmod::syntax::intern::hc;
use rng::Rng;

// ---------------------------------------------------------------------
// E1 — list workload
// ---------------------------------------------------------------------

/// Full counter profile of one list run: evaluator counters plus the
/// kernel judgement counters burned compiling the program. Used by the
/// `tables` binary and the E1 asymptotic-counters test.
pub fn list_run_stats(
    opaque: bool,
    n: usize,
) -> (recmod::eval::EvalStats, recmod::kernel::KernelStats) {
    recmod::eval::run_big_stack(512, move || {
        let program = corpus::list_program(opaque, n);
        let compiled = recmod::compile(&program).expect("list program compiles");
        let kernel = compiled.elab.tc.stats();
        let term = compiled.program();
        let mut interp = recmod::eval::Interp::new();
        let v = interp.run(&term).expect("list program runs");
        assert_eq!(v.as_int().ok(), Some((n * (n + 1) / 2) as i64));
        (interp.stats(), kernel)
    })
}

// ---------------------------------------------------------------------
// P1 — equivalence workloads
// ---------------------------------------------------------------------

/// A deterministic random regular recursive monotype with roughly
/// `size` constructor nodes. The μ-bound variable appears guarded, so
/// the constructor is contractive.
pub fn gen_regular_mu(size: usize, seed: u64) -> Con {
    let mut rng = Rng::new(seed);
    let body = gen_body(&mut rng, size, 1);
    mu(tkind(), body)
}

fn gen_body(rng: &mut Rng, size: usize, depth_vars: usize) -> Con {
    if size <= 1 {
        return match rng.below(4) {
            0 => Con::Int,
            1 => Con::Bool,
            2 => Con::UnitTy,
            // A guarded occurrence of an enclosing μ variable.
            _ => carrow(Con::Int, cvar(rng.range(0, depth_vars))),
        };
    }
    let left = size / 2;
    let right = size - 1 - left;
    match rng.below(3) {
        0 => carrow(
            gen_body(rng, left, depth_vars),
            gen_body(rng, right, depth_vars),
        ),
        1 => cprod(
            gen_body(rng, left, depth_vars),
            gen_body(rng, right, depth_vars),
        ),
        _ => csum([
            gen_body(rng, left, depth_vars),
            gen_body(rng, right, depth_vars),
        ]),
    }
}

/// A pair of bisimilar but syntactically distinct μ constructors: `m`
/// and the "Shao form" `μβ. body[m/α]` (the unrolling re-wrapped in a
/// vacuous μ). Equal in equi mode and in iso+Shao mode; distinguishes
/// plain iso.
pub fn gen_shao_pair(size: usize, seed: u64) -> (Con, Con) {
    use recmod::syntax::subst::{shift_con, subst_con_con};
    let m = gen_regular_mu(size, seed);
    let Con::Mu(_, body) = &m else {
        unreachable!("gen_regular_mu returns μ")
    };
    let unrolled = subst_con_con(body, &m);
    let rewrapped = mu(tkind(), shift_con(&unrolled, 1, 0));
    (m, rewrapped)
}

/// A μ paired with its one-step unrolling (equal only in equi mode).
pub fn gen_unrolled_pair(size: usize, seed: u64) -> (Con, Con) {
    let m = gen_regular_mu(size, seed);
    let u = recmod::kernel::whnf::unroll_mu(&hc(m.clone())).expect("generated constructor is a μ");
    (m, u.take())
}

/// A nested two-variable tower `μα.μβ.c(α,β)` paired with its §5
/// collapse `μβ.c(β,β)`. The two sides are structurally different
/// everywhere, so the coinductive engine does work proportional to the
/// body size (no syntactic fast path).
pub fn gen_nested_pair(size: usize, seed: u64) -> (Con, Con) {
    let mut rng = Rng::new(seed);
    let body = gen_body(&mut rng, size, 2);
    let nested = mu(tkind(), mu(tkind(), body));
    let flat = recmod::phase::iso::collapse_mu(&nested).expect("nested towers collapse");
    (nested, flat)
}

// ---------------------------------------------------------------------
// P2 — elaboration workloads
// ---------------------------------------------------------------------

/// The P2 counters of one compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileCost {
    /// Kernel fuel burned.
    pub fuel: u64,
    /// μ-unrolls performed.
    pub mu_unrolls: u64,
    /// NbE machine steps (`kernel.eval_steps`).
    pub nbe_steps: u64,
    /// Interner probes (hits + misses) made by the compiling thread.
    pub intern_probes: u64,
}

/// Compiles `src` (which must be well-typed) on a fresh thread and
/// returns the P2 counters. The fresh thread gives the compile fresh
/// per-thread interner counters and rewrite memo.
pub fn compile_cost(src: &str) -> CompileCost {
    let src = src.to_string();
    recmod::eval::run_big_stack(512, move || {
        use recmod::syntax::intern::intern_stats;
        let probes = || {
            let s = intern_stats();
            s.hits + s.misses
        };
        let elab = recmod::surface::Elaborator::new();
        let fuel = elab.tc.fuel();
        let probes_before = probes();
        let c = recmod::compile_with(elab, &src).expect("P2 workload compiles");
        let intern_probes = probes() - probes_before;
        let stats = c.elab.tc.stats();
        CompileCost {
            fuel: fuel - c.elab.tc.fuel(),
            mu_unrolls: stats.mu_unrolls,
            nbe_steps: stats.eval_steps,
            intern_probes,
        }
    })
}

/// A surface program with `n` chained plain structures (each using the
/// previous one) plus a main expression touching the last.
pub fn gen_module_chain(n: usize) -> String {
    let mut src = String::from(
        "structure S0 = struct type t = int val x = 0 fun bump (a : t) : t = a + 1 end\n",
    );
    for i in 1..n {
        let p = i - 1;
        src.push_str(&format!(
            "structure S{i} = struct type t = S{p}.t val x = S{p}.bump S{p}.x \
             fun bump (a : t) : t = S{p}.bump a end\n"
        ));
    }
    src.push_str(&format!(";\nS{}.x\n", n.saturating_sub(1)));
    src
}

/// A recursive structure whose signature declares `k` mutually recursive
/// datatypes (each constructor refers to the *next* datatype through the
/// recursive structure variable) — stresses rds resolution and the
/// coinductive equivalence checker.
pub fn gen_rec_datatypes(k: usize) -> String {
    let mut sig = String::new();
    let mut body = String::new();
    for i in 0..k {
        let next = (i + 1) % k;
        let line = format!("datatype t{i} = Z{i} | S{i} of int * M.t{next}\n");
        sig.push_str(&line);
        body.push_str(&line);
    }
    // A value using the first datatype.
    body.push_str("val start = Z0\n");
    sig.push_str("val start : t0\n");
    format!(
        "structure rec M : sig\n{sig}end = struct\n{body}end\n;\n\
         case M.start of M.Z0 => 1 | M.S0 p => 0\n"
    )
}

// ---------------------------------------------------------------------
// F4/F5 — phase-splitting workloads
// ---------------------------------------------------------------------

/// A recursive module (internal language) with a `width`-ary static
/// tuple of mutually recursive types and a unit dynamic part — input
/// for the Figure-4 splitting tests.
pub fn gen_internal_fix(width: usize) -> recmod::syntax::ast::Module {
    use recmod::syntax::ast::Ty;
    let kind = kind_of_width(width);
    // Static body: ⟨int ⇀ π_{i+1 mod w}(Fst s), …⟩
    let parts: Vec<Con> = (0..width)
        .map(|i| {
            let next = (i + 1) % width;
            carrow(Con::Int, proj_n(Con::Fst(0), next, width))
        })
        .collect();
    let body = strct(tuple_con(parts), recmod::syntax::ast::Term::Star);
    mfix(sig(kind, Ty::Unit), body)
}

fn kind_of_width(width: usize) -> Kind {
    let mut parts = vec![tkind(); width];
    let mut k = parts.pop().expect("width >= 1");
    while let Some(p) = parts.pop() {
        k = Kind::Sigma(hc(p), hc(k));
    }
    k
}

fn tuple_con(mut parts: Vec<Con>) -> Con {
    match parts.len() {
        0 => Con::Star,
        1 => parts.pop().expect("len checked"),
        _ => {
            let first = parts.remove(0);
            Con::Pair(hc(first), hc(tuple_con(parts)))
        }
    }
}

/// Right-nested tuple projection (mirrors the elaborator's layout).
fn proj_n(base: Con, slot: usize, arity: usize) -> Con {
    let mut cur = base;
    if arity <= 1 {
        return cur;
    }
    for _ in 0..slot {
        cur = Con::Proj2(hc(cur));
    }
    if slot < arity - 1 {
        Con::Proj1(hc(cur))
    } else {
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmod::kernel::{Ctx, RecMode, Tc};

    #[test]
    fn generated_mu_is_wellkinded_and_contractive() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        for seed in 0..20 {
            let c = gen_regular_mu(16, seed);
            tc.check_con(&mut ctx, &hc(c.clone()), &hc(Kind::Type))
                .unwrap();
            assert!(recmod::kernel::whnf::is_contractive(&c));
        }
    }

    #[test]
    fn unrolled_pairs_are_equi_equal() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        for seed in 0..10 {
            let (a, b) = gen_unrolled_pair(12, seed);
            tc.con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
                .unwrap();
            let (a, b) = gen_shao_pair(12, seed);
            tc.con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
                .unwrap();
            // The Shao pair is also provable without full equi-recursion.
            Tc::with_mode(RecMode::IsoShao)
                .con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
                .unwrap();
        }
    }

    #[test]
    fn module_chain_compiles_and_runs() {
        let src = gen_module_chain(5);
        let out = recmod::run(&src).unwrap();
        assert_eq!(out.value_int(), Some(4));
    }

    #[test]
    fn rec_datatypes_compile_and_run() {
        for k in [1usize, 2, 4] {
            let src = gen_rec_datatypes(k);
            let out = recmod::run(&src).unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert_eq!(out.value_int(), Some(1), "k={k}");
        }
    }

    #[test]
    fn internal_fix_splits_and_verifies() {
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        for width in [1usize, 2, 8] {
            let m = gen_internal_fix(width);
            recmod::phase::check_split(&tc, &mut ctx, &m)
                .unwrap_or_else(|e| panic!("width={width}: {e}"));
        }
    }

    #[test]
    fn singleton_chain_normalizes_to_int() {
        // `α₀:Q(int), α₁:Q(α₀), …`: weak-head normalizing the last
        // variable walks the whole chain.
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        ctx.push(recmod::kernel::Entry::Con(hc(q(Con::Int))));
        for _ in 1..50 {
            ctx.push(recmod::kernel::Entry::Con(hc(q(cvar(0)))));
        }
        assert_eq!(tc.whnf(&mut ctx, &hc(cvar(0))).unwrap(), hc(Con::Int));
    }
}
