//! Bounded, seeded fuzz run. Every case is reproducible from the
//! printed seed: `run_case(seed)` in `recmod_tests::fuzz` regenerates
//! it exactly.
//!
//! `FUZZ_ITERS` scales the run (CI's mixed run uses 2600, 200 for
//! each of the 13 classes); the default, 30 per class, keeps `cargo
//! test` fast. `FUZZ_CLASS=<name>` restricts the run to one case class
//! (e.g. `chaos-serve` for a dedicated chaos campaign — see
//! EXPERIMENTS.md R2); iterations then count only cases of that class.
//! Cases execute on a big-stack thread because
//! debug-build pipeline frames are large and the harness deliberately
//! feeds the pipeline deep input; the limits layer — not the OS stack
//! — must be what stops it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use recmod_tests::fuzz::{case_class, run_case, CLASS_COUNT};

/// Base offset so seeds don't start at tiny integers; arbitrary but
/// fixed — changing it changes which cases CI explores.
const SEED_BASE: u64 = 0x5eed_2026_0001;

fn iterations() -> u64 {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30 * CLASS_COUNT)
}

#[test]
fn seeded_fuzz_no_panics_no_differential_mismatches() {
    let iters = iterations();
    let class = std::env::var("FUZZ_CLASS").ok();
    let failures = recmod::eval::run_big_stack(256, move || {
        let mut failures: Vec<String> = Vec::new();
        let mut ran = 0u64;
        let mut i = 0u64;
        while ran < iters {
            let seed = SEED_BASE.wrapping_add(i);
            i += 1;
            if let Some(want) = &class {
                if case_class(seed) != want {
                    continue;
                }
            }
            ran += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| run_case(seed)));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(msg)) => failures.push(format!("seed {seed} ({}): {msg}", case_class(seed))),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    failures.push(format!("seed {seed} ({}): PANIC: {msg}", case_class(seed)));
                }
            }
            if failures.len() >= 10 {
                failures.push("... stopping after 10 failures".to_string());
                break;
            }
        }
        failures
    });
    assert!(
        failures.is_empty(),
        "{} fuzz failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The same seed must produce the same verdict — the reproduction
/// recipe printed on failure has to actually reproduce. One seed per
/// class, so every class is checked.
#[test]
fn fuzz_cases_are_deterministic() {
    recmod::eval::run_big_stack(256, || {
        for i in 0..CLASS_COUNT {
            let seed = SEED_BASE.wrapping_add(i);
            let a = run_case(seed);
            let b = run_case(seed);
            assert_eq!(
                a,
                b,
                "seed {seed} ({}) is nondeterministic",
                case_class(seed)
            );
        }
    });
}
