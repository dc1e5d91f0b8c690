//! The allocation budget of a compile.
//!
//! Syntax trees move through the pipeline: the parser moves each name
//! out of its token, the elaborator moves a structure's parts into the
//! module it checks and takes them back, and phase splitting consumes
//! the module it splits. A change that brings back a deep copy on one of
//! those paths shows here as a jump in allocations, long before it shows
//! in wall-clock time.
//!
//! Each bound is the count measured when the budget was set, plus 10%.
//! A compile is measured on a fresh thread (so the per-thread interner
//! and rewrite memo start empty and the count is the same on every
//! run), on an elaborator that has compiled the same source once and
//! been renewed, as a batch worker's is; the count covers parsing,
//! elaboration, the kernel, phase splitting and building the summaries
//! or structured diagnostics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recmod::surface::pipeline::compile_with_limits_in;
use recmod::surface::Elaborator;
use recmod::Limits;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its allocations go
    // uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The counter is a
// const-initialised thread-local `Cell` without a destructor, so
// counting neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Compiles `source` on `elab` (renewed first) and builds what the batch
/// driver builds from the outcome; returns the elaborator for reuse.
fn compile_once(mut elab: Elaborator, source: &str) -> Elaborator {
    elab.renew(Limits::default());
    match compile_with_limits_in(elab, source) {
        Ok(compiled) => {
            std::hint::black_box(compiled.summaries());
            compiled.elab
        }
        Err((errors, elab)) => {
            std::hint::black_box(recmod::surface::diag::from_errors(source, &errors));
            elab
        }
    }
}

/// The allocations of compiling `source` the second time on one renewed
/// elaborator, on a fresh thread.
fn allocations(source: &str) -> u64 {
    let source = source.to_string();
    recmod::eval::run_big_stack(64, move || {
        let elab = compile_once(Elaborator::with_limits(Limits::default()), &source);
        let before = ALLOCATIONS.with(Cell::get);
        let elab = compile_once(elab, &source);
        let after = ALLOCATIONS.with(Cell::get);
        drop(elab);
        after - before
    })
}

fn check(budgets: &[(&str, String, u64)]) {
    let over: Vec<String> = budgets
        .iter()
        .filter_map(|(name, source, bound)| {
            let n = allocations(source);
            (n > *bound).then(|| format!("{name}: {n} allocations (bound {bound})"))
        })
        .collect();
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
}

#[test]
fn corpus_files_stay_within_their_allocation_budgets() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let budgets: Vec<(&str, String, u64)> = [
        ("ok/functions.rm", 77),
        ("ok/structure.rm", 76),
        ("ok/values.rm", 48),
        ("bad/type_clash.rm", 35),
        ("bad/unbound.rm", 15),
    ]
    .into_iter()
    .map(|(name, bound)| {
        let source = std::fs::read_to_string(dir.join(name)).expect("corpus file");
        (name, source, bound)
    })
    .collect();
    check(&budgets);
}

#[test]
fn a_recursive_datatype_group_stays_within_its_allocation_budget() {
    check(&[(
        "gen_rec_datatypes(6)",
        recmod_bench::gen_rec_datatypes(6),
        1_208,
    )]);
}
