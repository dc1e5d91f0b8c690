//! The counter-name convention, as checkable data.
//!
//! Every counter recorded by the pipeline is a dotted path whose first
//! segment names the owning layer (see the crate docs for the table).
//! This module exists so tests can *assert* the convention instead of
//! merely documenting it: compile a program with a sink installed, walk
//! `Report::counters`, and require [`is_well_formed`] of every name.
//!
//! Two suffixes carry meaning:
//!
//! * `.hwm` — a high-water mark; merges with `max` (see
//!   [`merge_counter`](crate::merge_counter));
//! * `.nanos` — wall-clock derived; excluded from the deterministic
//!   cost model (`bench_json --costs`), which only gates on counters
//!   that are reproducible on a noisy 1-CPU container.

/// The namespaces production counters may use. Test-only counters (in
/// `#[cfg(test)]` code and fuzz harnesses) are exempt. `cache` is the
/// driver's on-disk artifact cache.
pub const NAMESPACES: &[&str] = &[
    "kernel", "syntax", "surface", "phase", "eval", "driver", "stage", "internal", "cache",
];

/// Is `name` a well-formed production counter name: a known namespace,
/// a dot, and one or more lowercase `[a-z0-9_]` segments?
pub fn is_well_formed(name: &str) -> bool {
    let Some((ns, rest)) = name.split_once('.') else {
        return false;
    };
    if !NAMESPACES.contains(&ns) || rest.is_empty() {
        return false;
    }
    rest.split('.').all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// Is `name` wall-clock derived (and therefore excluded from the
/// deterministic cost model)?
pub fn is_time_based(name: &str) -> bool {
    name.ends_with(".nanos")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_production_names() {
        for name in [
            "kernel.whnf_cache_hit",
            "kernel.equiv_ptr_eq",
            "syntax.intern_miss",
            "surface.topdecs",
            "phase.nodes_out_static",
            "driver.files",
            "stage.kernel.nanos",
            "stage.kernel.calls",
            "internal.panics",
            "kernel.assumption.hwm",
            // S17 NbE engine counters. `kernel.whnf_steps` (the
            // substitution loop's step count) is deliberately retired
            // under the default engine: it stays a valid name but reads
            // 0 unless a test selects the substitution engine; these
            // replace it.
            "kernel.synth_cache_hit",
            "kernel.synth_cache_miss",
            "kernel.eval_steps",
            "kernel.quote_nodes",
            "kernel.env_allocs",
            // S18 artifact cache counters.
            "cache.hit",
            "cache.miss",
            "cache.store",
            "cache.corrupt_skipped",
            "cache.io_error",
            "cache.gc_evicted",
        ] {
            assert!(is_well_formed(name), "{name} should be well-formed");
        }
    }

    #[test]
    fn rejects_malformed_names() {
        for name in [
            "",
            "kernel",
            "kernel.",
            "unknown.counter",
            "Kernel.caps",
            "kernel.UPPER",
            "kernel..double",
            "kernel.space ",
        ] {
            assert!(!is_well_formed(name), "{name} should be rejected");
        }
    }

    #[test]
    fn time_suffix_detected() {
        assert!(is_time_based("stage.lex.nanos"));
        assert!(!is_time_based("stage.lex.calls"));
    }
}
