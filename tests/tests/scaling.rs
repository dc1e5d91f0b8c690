//! Scaling regression for the paper's §4 use case: a `structure rec`
//! group of k mutually recursive datatypes under one recursively
//! dependent signature.
//!
//! Judgement work on such a group grows as ~k², but the kernel's
//! syntactic rewrites (shifting, constructor substitution,
//! selfification) used to rebuild the same hash-consed trees once per
//! path and per call, which made interner traffic grow as ~k^4.7
//! (11.5 M probes at k = 24). The per-thread rewrite memo
//! (`recmod_syntax::memo`) brings that to ~120 k. The bound below is
//! loose on purpose: which memo slots collide depends on the global
//! node-id order, so the exact count varies a little between processes.

use recmod::syntax::intern::intern_stats;

/// Interner probes (hits + misses) made so far by this thread.
fn probes() -> u64 {
    let s = intern_stats();
    s.hits + s.misses
}

#[test]
fn rec_datatype_groups_do_not_rebuild_shared_trees() {
    recmod::eval::run_big_stack(512, || {
        let mut per_k = Vec::new();
        for k in [8usize, 16, 24] {
            let src = recmod_bench::gen_rec_datatypes(k);
            let before = probes();
            let compiled = recmod::compile(&src).expect("k-datatype group is well-typed");
            per_k.push((k, probes() - before));
            let mut interp = recmod::eval::Interp::new();
            let v = interp.run(&compiled.program()).expect("main runs");
            assert_eq!(v.as_int().ok(), Some(1), "k = {k}: main is 1");
        }
        let (_, at_24) = per_k[2];
        assert!(
            at_24 <= 400_000,
            "k = 24 made {at_24} intern probes (bound 400 000); all rows: {per_k:?}"
        );
    });
}
