//! Property tests for the kernel, using the bench crate's deterministic
//! generators: equivalence is an equivalence relation and a congruence,
//! normalization is idempotent and equivalence-preserving, and the
//! phase-splitting translation always verifies.
//!
//! Each property runs over a seeded sweep (the bench crate's SplitMix64
//! drives case generation), so failures are reproducible by seed.

use recmod::kernel::{Ctx, RecMode, Tc};
use recmod::syntax::ast::Con;
use recmod::syntax::ast::Kind;
use recmod::syntax::intern::hc;
use recmod_bench::rng::Rng;
use recmod_bench::{gen_internal_fix, gen_nested_pair, gen_regular_mu, gen_unrolled_pair};

const CASES: usize = 64;

/// Per-case seeds and sizes for one property, derived from a master
/// seed so properties don't share streams.
fn sweep(master: u64, max_size: usize) -> impl Iterator<Item = (u64, usize)> {
    let mut rng = Rng::new(master);
    (0..CASES).map(move |_| (rng.below(500), rng.range(2, max_size)))
}

/// Reflexivity at kind T for generated recursive monotypes.
#[test]
fn equiv_reflexive() {
    for (seed, size) in sweep(0xA1, 24) {
        let c = gen_regular_mu(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.con_equiv(&mut ctx, &hc(c.clone()), &hc(c.clone()), &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
    }
}

/// Symmetry on μ-vs-unrolling pairs.
#[test]
fn equiv_symmetric() {
    for (seed, size) in sweep(0xA2, 24) {
        let (a, b) = gen_unrolled_pair(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
        tc.con_equiv(&mut ctx, &hc(b.clone()), &hc(a.clone()), &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size} (sym): {e}"));
    }
}

/// Transitivity through the nested-collapse chain:
/// nested = flat and flat = unroll(flat) imply nested = unroll(flat).
#[test]
fn equiv_transitive_chain() {
    for (seed, size) in sweep(0xA3, 16) {
        let (nested, flat) = gen_nested_pair(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.con_equiv(
            &mut ctx,
            &hc(nested.clone()),
            &hc(flat.clone()),
            &Kind::Type,
        )
        .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
        let unrolled = recmod::kernel::whnf::unroll_mu(&hc(flat.clone())).expect("flat is a μ");
        tc.con_equiv(&mut ctx, &hc(flat.clone()), &unrolled, &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
        tc.con_equiv(&mut ctx, &hc(nested.clone()), &unrolled, &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size} (trans): {e}"));
    }
}

/// Congruence: equal components make equal arrows/products/sums.
#[test]
fn equiv_congruence() {
    for (seed, size) in sweep(0xA4, 16) {
        let (a, b) = gen_unrolled_pair(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let arrow_a = Con::Arrow(hc(a.clone()), hc(b.clone()));
        let arrow_b = Con::Arrow(hc(b.clone()), hc(a.clone()));
        tc.con_equiv(
            &mut ctx,
            &hc(arrow_a.clone()),
            &hc(arrow_b.clone()),
            &Kind::Type,
        )
        .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
        let sum_a = Con::Sum(vec![hc(a.clone()), hc(b.clone())]);
        let sum_b = Con::Sum(vec![hc(b), hc(a)]);
        tc.con_equiv(
            &mut ctx,
            &hc(sum_a.clone()),
            &hc(sum_b.clone()),
            &Kind::Type,
        )
        .unwrap_or_else(|e| panic!("seed={seed} size={size} (sum): {e}"));
    }
}

/// Weak-head normalization is idempotent.
#[test]
fn whnf_idempotent() {
    for (seed, size) in sweep(0xA5, 24) {
        let c = gen_regular_mu(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let w1 = tc.whnf(&mut ctx, &hc(c.clone())).unwrap();
        let w2 = tc.whnf(&mut ctx, &w1).unwrap();
        assert_eq!(w1, w2, "seed={seed} size={size}");
    }
}

/// Normalization preserves definitional equality.
#[test]
fn whnf_preserves_equiv() {
    for (seed, size) in sweep(0xA6, 24) {
        let (_, b) = gen_unrolled_pair(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let w = tc.whnf(&mut ctx, &hc(b.clone())).unwrap();
        tc.con_equiv(&mut ctx, &hc(b.clone()), &w, &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
    }
}

/// Plain iso mode refuses μ-vs-unrolling (unless syntactically equal).
#[test]
fn iso_mode_is_strictly_weaker() {
    for (seed, size) in sweep(0xA7, 16) {
        let (a, b) = gen_unrolled_pair(size, seed);
        if a == b {
            continue;
        }
        let tc = Tc::with_mode(RecMode::Iso);
        let mut ctx = Ctx::new();
        // The unrolling of a contractive μ is never itself the same μ,
        // so plain iso mode cannot identify them…
        let equal = tc
            .con_equiv(&mut ctx, &hc(a.clone()), &hc(b.clone()), &Kind::Type)
            .is_ok();
        // …except when whnf already collapses both to the same head
        // (possible when the μ is vacuous in its variable).
        if equal {
            let e = Tc::new();
            let wa = e.whnf(&mut ctx, &hc(a.clone())).unwrap();
            let wb = e.whnf(&mut ctx, &hc(b.clone())).unwrap();
            assert!(
                wa == wb || !matches!(*wa, Con::Mu(_, _)),
                "seed={seed} size={size}: iso mode equated a μ with its unrolling"
            );
        }
    }
}

/// The §5 elimination pass clears every kind-homogeneous tower and
/// preserves equi-equality.
#[test]
fn elimination_sound() {
    for (seed, size) in sweep(0xA8, 16) {
        let (nested, _) = gen_nested_pair(size, seed);
        let out = recmod::phase::iso::eliminate_nested_mu(&nested);
        assert_eq!(
            recmod::phase::iso::nested_mu_count(&out),
            0,
            "seed={seed} size={size}"
        );
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        tc.con_equiv(&mut ctx, &hc(nested.clone()), &hc(out.clone()), &Kind::Type)
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
    }
}

/// Figure-4 splitting verifies for arbitrary static widths.
#[test]
fn split_always_verifies() {
    let mut rng = Rng::new(0xA9);
    for _ in 0..CASES {
        let width = rng.range(1, 12);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let m = gen_internal_fix(width);
        recmod::phase::check_split(&tc, &mut ctx, &m)
            .unwrap_or_else(|e| panic!("width={width}: {e}"));
    }
}

/// Generated kinds: selfification yields a subkind of the original.
#[test]
fn selfification_is_a_subkind() {
    for (seed, size) in sweep(0xAA, 24) {
        let c = gen_regular_mu(size, seed);
        let tc = Tc::new();
        let mut ctx = Ctx::new();
        let k = tc.synth_con(&mut ctx, &hc(c.clone())).unwrap();
        tc.subkind(&mut ctx, &k, &hc(Kind::Type))
            .unwrap_or_else(|e| panic!("seed={seed} size={size}: {e}"));
    }
}
