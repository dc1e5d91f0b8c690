//! Deterministic cost model: counter snapshots that gate perf regressions.
//!
//! Wall clocks on this 1-CPU container are too noisy to gate on
//! (`BENCH_parallel.json` measured scaling efficiencies of 0.46/0.22/0.11
//! for 2/4/8 workers — pure scheduler noise), so regressions are gated
//! on **counters** instead: fuel per judgement form, μ-unrolls, whnf
//! steps, kernel cache hits/misses. These are exact, reproducible
//! numbers — each example is compiled on a fresh thread (fresh
//! telemetry sink, fresh kernel caches), so the counts depend only on
//! the compiler and the source text. Interner hit/miss counts are
//! deliberately **excluded**: whether a probe hits depends on which
//! nodes the thread still holds (see `recmod_syntax::intern`) —
//! warmth, not work.
//!
//! The checked-in baseline lives at `tests/golden_costs.json`:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "default_tolerance_pct": 0,
//!   "tolerances": { "kernel.whnf_cache_hit": 5 },
//!   "examples": { "<corpus name>": { "<counter>": 123 } }
//! }
//! ```
//!
//! `bench_json --costs` prints the current model in that format;
//! `bench_json --costs --compare tests/golden_costs.json` exits nonzero
//! when any counter moved beyond its declared tolerance **in either
//! direction** — an unexplained improvement is as suspicious as a
//! regression, and intentional changes are recorded by regenerating the
//! baseline (`cargo run --release -p recmod-bench --bin bench_json --
//! --costs > tests/golden_costs.json`).

use std::collections::{BTreeMap, BTreeSet};

use recmod::surface::elab::Elaborator;
use recmod::surface::pipeline::compile_with_limits_in;
use recmod::telemetry::json::Json;
use recmod::telemetry::{self, names};

/// Stack for the per-example measurement threads (elaboration is deeply
/// recursive; match the CLI's pipeline thread).
const MEASURE_STACK: usize = 512 * 1024 * 1024;

/// One example's counters, keyed by dotted counter name.
pub type Costs = BTreeMap<String, u64>;

/// The cost model of a whole corpus: per-example counter maps.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CostModel {
    /// Per-example costs, keyed by corpus entry name.
    pub examples: BTreeMap<String, Costs>,
}

/// Measures the built-in paper corpus, one fresh thread per example.
pub fn measure_corpus() -> CostModel {
    let mut examples = BTreeMap::new();
    for entry in recmod::corpus::all() {
        examples.insert(entry.name.to_string(), measure_example(entry.source));
    }
    CostModel { examples }
}

/// Compiles `source` in isolation and returns its counters. The fresh
/// thread gives the run a fresh thread-local telemetry sink; the fresh
/// elaborator gives it fresh kernel caches — together they make every
/// counter a pure function of the source text (interner warmth is
/// filtered out below).
pub fn measure_example(source: &str) -> Costs {
    let source = source.to_string();
    std::thread::Builder::new()
        .stack_size(MEASURE_STACK)
        .spawn(move || measure_in_thread(&source))
        .expect("spawn cost-measurement thread")
        .join()
        .expect("cost measurement must not panic")
}

fn measure_in_thread(source: &str) -> Costs {
    telemetry::install(telemetry::Config::default());
    let elab = Elaborator::with_limits(recmod::telemetry::Limits::default());
    let (elab, ok) = match compile_with_limits_in(elab, source) {
        Ok(compiled) => (compiled.elab, true),
        Err((_, elab)) => (elab, false),
    };
    let kernel = elab.tc.stats();
    let report = telemetry::uninstall().expect("sink installed above");

    let mut costs = Costs::new();
    fn put(costs: &mut Costs, name: String, v: u64) {
        if v > 0 {
            costs.insert(name, v);
        }
    }
    // A vanished counter compares as 0, so zero counts are elided and
    // `driver.compile_ok` pins the outcome even for all-zero failures.
    costs.insert("driver.compile_ok".to_string(), u64::from(ok));
    for (op, fuel) in kernel.fuel_pairs() {
        put(&mut costs, format!("kernel.fuel.{}", op.key()), fuel);
    }
    put(
        &mut costs,
        "kernel.mu_unrolls".to_string(),
        kernel.mu_unrolls,
    );
    put(
        &mut costs,
        "kernel.whnf_steps".to_string(),
        kernel.whnf_steps,
    );
    put(
        &mut costs,
        "kernel.assumption_inserts".to_string(),
        kernel.assumption_inserts,
    );
    put(
        &mut costs,
        "kernel.assumption.hwm".to_string(),
        kernel.assumption_hwm,
    );
    put(
        &mut costs,
        "kernel.singleton_shortcuts".to_string(),
        kernel.singleton_shortcuts,
    );
    // S17 NbE engine counters. Under the default engine `whnf_steps`
    // above reads 0 (it counts only the substitution loop, kept as the
    // differential-testing oracle) and these carry the normalization
    // costs.
    put(
        &mut costs,
        "kernel.eval_steps".to_string(),
        kernel.eval_steps,
    );
    put(
        &mut costs,
        "kernel.quote_nodes".to_string(),
        kernel.quote_nodes,
    );
    put(
        &mut costs,
        "kernel.env_allocs".to_string(),
        kernel.env_allocs,
    );
    for (&name, &v) in &report.counters {
        // Wall-clock derived counters (`*.nanos`) are exactly what this
        // model exists to avoid; interner probes measure table warmth
        // (a hit is a probe that found its node still alive), not
        // judgement work; counters already covered by the kernel
        // snapshot above are duplicates.
        if names::is_time_based(name)
            || name.starts_with("syntax.intern_")
            || costs.contains_key(name)
        {
            continue;
        }
        put(&mut costs, name.to_string(), v);
    }
    costs
}

/// Renders a cost model in the golden-file format (tolerances default
/// to the all-exact model; edit the file to declare looser ones).
pub fn to_json(model: &CostModel) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(telemetry::SCHEMA_VERSION)),
        ("default_tolerance_pct", Json::UInt(0)),
        ("tolerances", Json::Obj(BTreeMap::new())),
        (
            "examples",
            Json::Obj(
                model
                    .examples
                    .iter()
                    .map(|(name, costs)| {
                        (
                            name.clone(),
                            Json::Obj(
                                costs
                                    .iter()
                                    .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A parsed golden baseline: the model plus its declared tolerances.
#[derive(Debug)]
pub struct Baseline {
    /// The baseline counter values.
    pub model: CostModel,
    /// Allowed relative drift per counter name, in percent.
    pub tolerances: BTreeMap<String, u64>,
    /// Drift allowed for counters without a declared tolerance.
    pub default_tolerance_pct: u64,
}

/// Parses a golden cost file.
///
/// # Errors
///
/// A message describing the malformed or version-skewed document.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let doc = telemetry::json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != telemetry::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {}",
            telemetry::SCHEMA_VERSION
        ));
    }
    let default_tolerance_pct = doc
        .get("default_tolerance_pct")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let mut tolerances = BTreeMap::new();
    if let Some(Json::Obj(map)) = doc.get("tolerances") {
        for (k, v) in map {
            tolerances.insert(
                k.clone(),
                v.as_u64().ok_or_else(|| format!("bad tolerance for {k}"))?,
            );
        }
    }
    let Some(Json::Obj(examples_json)) = doc.get("examples") else {
        return Err("missing examples object".to_string());
    };
    let mut examples = BTreeMap::new();
    for (name, costs_json) in examples_json {
        let Json::Obj(counters) = costs_json else {
            return Err(format!("example {name} is not an object"));
        };
        let mut costs = Costs::new();
        for (k, v) in counters {
            costs.insert(
                k.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("bad count for {name}/{k}"))?,
            );
        }
        examples.insert(name.clone(), costs);
    }
    Ok(Baseline {
        model: CostModel { examples },
        tolerances,
        default_tolerance_pct,
    })
}

/// Compares `current` against a `baseline`, returning one human-readable
/// line per violation (empty = within tolerance). The comparison is
/// symmetric: a counter that *dropped* beyond tolerance also fails, so
/// accidental behavior changes can't hide behind "it got faster".
pub fn compare(current: &CostModel, baseline: &Baseline) -> Vec<String> {
    let mut diffs = Vec::new();
    let names: BTreeSet<&String> = current
        .examples
        .keys()
        .chain(baseline.model.examples.keys())
        .collect();
    for name in names {
        let (cur, base) = match (
            current.examples.get(name.as_str()),
            baseline.model.examples.get(name.as_str()),
        ) {
            (Some(c), Some(b)) => (c, b),
            (Some(_), None) => {
                diffs.push(format!("{name}: example not in baseline (regenerate it)"));
                continue;
            }
            (None, Some(_)) => {
                diffs.push(format!("{name}: example vanished from the corpus"));
                continue;
            }
            (None, None) => unreachable!("name came from one of the maps"),
        };
        let counters: BTreeSet<&String> = cur.keys().chain(base.keys()).collect();
        for counter in counters {
            let c = cur.get(counter.as_str()).copied().unwrap_or(0);
            let b = base.get(counter.as_str()).copied().unwrap_or(0);
            let pct = baseline
                .tolerances
                .get(counter.as_str())
                .copied()
                .unwrap_or(baseline.default_tolerance_pct);
            // Integer ceiling of b*pct/100 so a nonzero tolerance always
            // allows at least proportional drift on small counts.
            let allowed = (b * pct).div_ceil(100);
            let drift = c.abs_diff(b);
            if drift > allowed {
                diffs.push(format!(
                    "{name}: {counter} = {c}, baseline {b} (drift {drift} > allowed {allowed}, tolerance {pct}%)"
                ));
            }
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(pairs: &[(&str, &[(&str, u64)])]) -> CostModel {
        CostModel {
            examples: pairs
                .iter()
                .map(|(name, cs)| {
                    (
                        name.to_string(),
                        cs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn measurement_is_deterministic_across_threads() {
        let entry = recmod::corpus::all()[0];
        let a = measure_example(entry.source);
        let b = measure_example(entry.source);
        assert_eq!(a, b);
        assert_eq!(a.get("driver.compile_ok"), Some(&1));
        assert!(
            a.keys().any(|k| k.starts_with("kernel.fuel.")),
            "expected fuel counters, got {:?}",
            a.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_round_trips() {
        let m = measure_corpus();
        let text = to_json(&m).to_pretty();
        let parsed = parse_baseline(&text).unwrap();
        assert_eq!(parsed.model, m);
        assert!(compare(&m, &parsed).is_empty());
    }

    #[test]
    fn compare_flags_drift_in_both_directions() {
        let base =
            parse_baseline(&to_json(&model(&[("e", &[("kernel.fuel.whnf", 100)])])).to_pretty())
                .unwrap();
        let up = model(&[("e", &[("kernel.fuel.whnf", 101)])]);
        let down = model(&[("e", &[("kernel.fuel.whnf", 99)])]);
        assert_eq!(compare(&up, &base).len(), 1);
        assert_eq!(compare(&down, &base).len(), 1);
        let gone = model(&[("e", &[])]);
        assert_eq!(compare(&gone, &base).len(), 1, "0 vs 100 must fail");
    }

    #[test]
    fn tolerances_allow_declared_drift() {
        let mut base =
            parse_baseline(&to_json(&model(&[("e", &[("syntax.intern_hit", 100)])])).to_pretty())
                .unwrap();
        base.tolerances.insert("syntax.intern_hit".to_string(), 5);
        let within = model(&[("e", &[("syntax.intern_hit", 104)])]);
        let beyond = model(&[("e", &[("syntax.intern_hit", 106)])]);
        assert!(compare(&within, &base).is_empty());
        assert_eq!(compare(&beyond, &base).len(), 1);
    }

    #[test]
    fn cost_counter_names_follow_the_convention() {
        let entry = recmod::corpus::all()[0];
        for name in measure_example(entry.source).keys() {
            assert!(
                recmod::telemetry::names::is_well_formed(name),
                "cost counter {name} violates the naming convention"
            );
            assert!(
                !recmod::telemetry::names::is_time_based(name),
                "cost counter {name} is wall-clock derived"
            );
        }
    }
}
