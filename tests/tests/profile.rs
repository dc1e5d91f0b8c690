//! Profiling-layer integration tests (ISSUE 5): the Chrome-trace
//! exporter's schema and lane structure under the parallel driver, the
//! judgement-span coverage bound behind `--profile-text`, and the
//! checked-in deterministic cost model.

use recmod::driver::{compile_batch, DriverConfig, Job};
use recmod::telemetry::chrome_trace::{export, FileEvent, Lane};
use recmod::telemetry::json::{self, Json};
use recmod::telemetry::{self, profile, Config, Span, SCHEMA_VERSION};

/// The corpus replicated until the batch has at least `min` jobs, so a
/// `--jobs 4` run actually spawns four workers (the driver clamps the
/// worker count to the job count).
fn batch_jobs(min: usize) -> Vec<Job> {
    let entries = recmod::corpus::all();
    let replicas = min.div_ceil(entries.len());
    (0..replicas)
        .flat_map(|r| {
            entries
                .iter()
                .map(move |e| Job::new(format!("{}#{r}", e.name), e.source))
        })
        .collect()
}

/// Small sealed-structure programs: enough to reach every pipeline
/// stage (and hence record kernel judgement spans), small enough that
/// the exported trace stays parseable in milliseconds under a debug
/// build. The full corpus is exercised trace-free in
/// [`spans_nest_properly_within_each_lane`].
fn small_jobs(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let src = format!(
                "structure S{i} :> sig type t val mk : int -> t end = \
                 struct type t = int val mk = fn (x : int) => x end\n\
                 val y{i} : int = {i}"
            );
            Job::new(format!("ok{i}.rm"), src)
        })
        .collect()
}

/// Runs a profiled 4-worker batch and exports it the way
/// `recmodc check --jobs 4 --profile=trace.json` does.
fn profiled_batch_trace() -> (recmod::driver::BatchResult, Json) {
    let jobs = small_jobs(8);
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 4,
            telemetry: Some(Config::profiled()),
            ..DriverConfig::default()
        },
    );
    let lanes: Vec<Lane<'_>> = res
        .workers
        .iter()
        .filter_map(|w| {
            w.report.as_ref().map(|r| Lane {
                tid: w.worker as u64,
                name: format!("worker {}", w.worker),
                report: r,
            })
        })
        .collect();
    let files: Vec<FileEvent> = res
        .outcomes
        .iter()
        .map(|o| FileEvent {
            name: o.name.clone(),
            tid: o.worker as u64,
            start_nanos: o.start_nanos,
            dur_nanos: o.nanos,
            instant: None,
        })
        .collect();
    let doc = export("recmodc", &lanes, &files);
    // Everything below inspects the parsed round-trip, not the builder's
    // in-memory value, so the emitted bytes are what's being tested.
    let parsed = json::parse(&doc.to_compact()).expect("exporter emits valid JSON");
    (res, parsed)
}

fn num(j: &Json) -> f64 {
    match j {
        Json::Float(f) => *f,
        Json::UInt(u) => *u as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Chrome trace schema (golden)
// ---------------------------------------------------------------------

#[test]
fn chrome_trace_matches_the_trace_event_schema() {
    let (_, parsed) = profiled_batch_trace();

    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(|j| j.as_str()),
        Some("ms")
    );
    let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());

    let ph = |e: &Json| e.get("ph").unwrap().as_str().unwrap().to_string();
    for e in events {
        // Every event carries the mandatory identification fields.
        assert!(e.get("name").is_some(), "event without name: {e:?}");
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        match ph(e).as_str() {
            "X" => {
                assert!(num(e.get("ts").unwrap()) >= 0.0);
                assert!(num(e.get("dur").unwrap()) >= 0.0);
                assert!(e.get("tid").and_then(Json::as_u64).is_some());
            }
            "C" => {
                assert!(e.get("ts").is_some());
                assert!(e.get("args").unwrap().get("value").is_some());
            }
            "M" | "i" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // Profiled workers contribute span events, file events, and counter
    // samples (one per file boundary), including a derived hit-rate
    // track.
    assert!(events.iter().any(|e| ph(e) == "X"));
    let counters: Vec<&str> = events
        .iter()
        .filter(|e| ph(e) == "C")
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(!counters.is_empty(), "no counter-track samples");
    assert!(
        counters.iter().any(|n| n.contains("intern_occupancy")),
        "missing interner occupancy track in {counters:?}"
    );
}

// ---------------------------------------------------------------------
// Worker lanes under `--jobs 4`
// ---------------------------------------------------------------------

#[test]
fn jobs_4_batch_produces_four_distinct_worker_lanes() {
    let (res, parsed) = profiled_batch_trace();
    assert_eq!(res.workers.len(), 4, "four workers must have spawned");

    let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
    fn ph(e: &Json) -> &str {
        e.get("ph").unwrap().as_str().unwrap()
    }

    // One thread_name metadata event per worker, with distinct tids.
    let mut lane_tids: Vec<u64> = events
        .iter()
        .filter(|e| ph(e) == "M" && e.get("name").unwrap().as_str() == Some("thread_name"))
        .map(|e| e.get("tid").unwrap().as_u64().unwrap())
        .collect();
    lane_tids.sort_unstable();
    lane_tids.dedup();
    assert_eq!(lane_tids, vec![0, 1, 2, 3], "expected lanes 0..4");

    // Every job shows up as a file event on exactly one lane. (A lane
    // may be empty: on a loaded machine the other workers can claim
    // every job from the shared cursor before a slow worker starts.)
    let mut files_seen = 0usize;

    // Within one lane, per-file events never overlap: a worker compiles
    // its files sequentially, and start/duration share one clock read.
    for tid in lane_tids {
        let mut files: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| {
                ph(e) == "X"
                    && e.get("cat").unwrap().as_str() == Some("file")
                    && e.get("tid").unwrap().as_u64() == Some(tid)
            })
            .map(|e| (num(e.get("ts").unwrap()), num(e.get("dur").unwrap())))
            .collect();
        files_seen += files.len();
        files.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in files.windows(2) {
            let (ts0, dur0) = pair[0];
            let (ts1, _) = pair[1];
            assert!(
                ts0 + dur0 <= ts1,
                "lane {tid}: file events overlap ({ts0} + {dur0} > {ts1})"
            );
        }
    }
    assert_eq!(
        files_seen,
        res.outcomes.len(),
        "every job gets a file event"
    );
}

#[test]
fn spans_nest_properly_within_each_lane() {
    let jobs = batch_jobs(8);
    let res = compile_batch(
        &jobs,
        &DriverConfig {
            jobs: 4,
            telemetry: Some(Config::profiled()),
            ..DriverConfig::default()
        },
    );
    // Child spans lie inside their parent's [start, start+dur] interval
    // on the shared epoch timeline — what makes the exported X events
    // render as a properly nested flame graph per lane.
    fn check(span: &Span) {
        let end = span.start_nanos + span.nanos;
        for c in &span.children {
            assert!(
                c.start_nanos >= span.start_nanos && c.start_nanos + c.nanos <= end,
                "child {} [{}, {}] escapes parent {} [{}, {}]",
                c.name,
                c.start_nanos,
                c.start_nanos + c.nanos,
                span.name,
                span.start_nanos,
                end
            );
            check(c);
        }
    }
    let mut spans_seen = 0usize;
    for w in &res.workers {
        let report = w.report.as_ref().expect("telemetry was requested");
        for s in &report.spans {
            check(s);
            spans_seen += 1;
        }
    }
    assert!(spans_seen > 0, "profiled batch recorded no spans");
}

// ---------------------------------------------------------------------
// Judgement-span coverage of the kernel stage
// ---------------------------------------------------------------------

/// EXPERIMENTS.md P4 cites this bound: the per-judgement spans inserted
/// at every kernel entry point must account for at least 95% of the
/// kernel stage's wall time, so `--profile-text` self times are a
/// faithful breakdown rather than one opaque "kernel" bucket.
#[test]
fn judgement_spans_cover_the_kernel_stage() {
    telemetry::install(Config::profiled());
    let program = recmod::corpus::list_program(true, 8);
    let compiled = recmod::compile(&program);
    let report = telemetry::uninstall().expect("sink was installed");
    compiled.expect("E1 program compiles");

    assert_eq!(report.spans_dropped, 0, "profiled cap must not drop spans");
    let rows = profile::flat(&report.spans);
    let kernel = rows
        .iter()
        .find(|r| r.name == "stage.kernel")
        .expect("kernel stage spans recorded");
    assert!(kernel.total_nanos > 0);
    let coverage = 1.0 - kernel.self_nanos as f64 / kernel.total_nanos as f64;
    assert!(
        coverage >= 0.95,
        "judgement spans cover only {:.1}% of the kernel stage \
         (self {} ns of {} ns total)",
        coverage * 100.0,
        kernel.self_nanos,
        kernel.total_nanos
    );

    // And the profile actually resolves into judgement forms.
    assert!(rows.iter().any(|r| r.name.starts_with("kernel.")));
    assert!(rows.iter().any(|r| r.name.starts_with("surface.")));
}

// ---------------------------------------------------------------------
// Deterministic cost model vs the checked-in golden file
// ---------------------------------------------------------------------

/// The same gate CI runs: re-measure the corpus and compare against
/// `tests/golden_costs.json`. Regenerate after an intentional change:
/// `cargo run --release -p recmod-bench --bin bench_json -- --costs \
///  > tests/golden_costs.json`.
#[test]
fn checked_in_golden_costs_match_the_current_tree() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden_costs.json");
    let text = std::fs::read_to_string(path).expect("tests/golden_costs.json is checked in");
    let baseline = recmod_bench::costs::parse_baseline(&text).expect("golden file parses");
    let current = recmod_bench::costs::measure_corpus();
    let violations = recmod_bench::costs::compare(&current, &baseline);
    assert!(
        violations.is_empty(),
        "cost model drifted from tests/golden_costs.json \
         (regenerate with bench_json --costs if intentional):\n{}",
        violations.join("\n")
    );
}
