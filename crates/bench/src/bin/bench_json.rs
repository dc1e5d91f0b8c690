//! The deterministic cost-model gate (see [`recmod_bench::costs`]).
//!
//! ```text
//! bench_json --costs                  print the corpus cost model as JSON
//! bench_json --costs --compare FILE   exit 1 if any counter drifted from
//!                                     FILE beyond its declared tolerance
//! bench_json --costs --bless [--compare FILE]
//!                                     regenerate the golden baseline in
//!                                     place (default tests/golden_costs.json)
//! ```
//!
//! Exit codes: `0` ok, `1` counter drift, `2` usage error or a baseline
//! that cannot be read, parsed or written.

use std::process::exit;

use recmod_bench::costs;

fn main() {
    let mut costs_mode = false;
    let mut bless = false;
    let mut compare = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--costs" => costs_mode = true,
            "--bless" => bless = true,
            "--compare" => compare = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if !costs_mode {
        usage();
    }
    run_costs(compare, bless);
}

fn usage() -> ! {
    eprintln!("usage: bench_json --costs [--compare FILE | --bless [--compare FILE]]");
    exit(2);
}

/// Measures the deterministic cost model and either prints it (no
/// `--compare`), regenerates the golden baseline in place (`--bless`),
/// or gates against a golden baseline, exiting `1` on any counter drift
/// beyond tolerance and `2` on a broken baseline.
fn run_costs(compare: Option<String>, bless: bool) {
    if bless {
        let model = costs::measure_corpus();
        let path = compare.unwrap_or_else(|| "tests/golden_costs.json".to_string());
        let text = format!("{}\n", costs::to_json(&model).to_pretty());
        match std::fs::write(&path, text) {
            Ok(()) => println!(
                "blessed cost model into {path} ({} example(s))",
                model.examples.len()
            ),
            Err(e) => {
                eprintln!("bench_json: cannot write {path}: {e}");
                exit(2);
            }
        }
        return;
    }
    let Some(path) = compare else {
        println!("{}", costs::to_json(&costs::measure_corpus()).to_pretty());
        return;
    };
    // Load the baseline first: a broken one fails fast, before the
    // corpus is measured.
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("bench_json: cannot read cost baseline {path}: {e}");
        exit(2);
    });
    let baseline = costs::parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench_json: bad cost baseline {path}: {e}");
        exit(2);
    });
    let model = costs::measure_corpus();
    let diffs = costs::compare(&model, &baseline);
    if diffs.is_empty() {
        println!(
            "cost model matches {path}: {} example(s) within tolerance",
            model.examples.len()
        );
        return;
    }
    eprintln!("cost model drifted from {path}:");
    for d in &diffs {
        eprintln!("  {d}");
    }
    eprintln!(
        "{} violation(s); if intentional, regenerate with:\n  \
         cargo run --release -p recmod-bench --bin bench_json -- --costs > {path}",
        diffs.len()
    );
    exit(1);
}
