//! Telemetry-layer integration tests: per-declaration counter
//! attribution, span-tree well-formedness, the `--stats=json` schema,
//! the disabled-sink overhead bound, the E1 asymptotic gap captured in
//! recorded counters (referenced from EXPERIMENTS.md), and the views of
//! the one probe stack: the trace text, recorder tail and span-tree
//! shape pinned to the byte (`tests/views/`), and the recorder, span
//! tree and stage counters agreeing with each other.

use recmod::stats::StatsReport;
use recmod::telemetry;
use recmod::telemetry::json::{self, Json};

/// A small program exercising every pipeline stage: an opaquely sealed
/// structure (signature matching, phase splitting) plus a value binding.
const TWO_DECLS: &str = "
    structure S :> sig type t val mk : int -> t val get : t -> int end =
      struct
        type t = int
        val mk = fn (x : int) => x
        val get = fn (x : t) => x
      end
    val y : int = 40 + 2
";

/// Compiles `src` with a fresh telemetry sink installed and returns the
/// compiled program plus what the sink recorded.
fn compile_observed(src: &str) -> (recmod::Compiled, telemetry::Report) {
    telemetry::install(telemetry::Config::default());
    let compiled = recmod::compile(src);
    let report = telemetry::uninstall().expect("sink was installed");
    (compiled.expect("program compiles"), report)
}

// ---------------------------------------------------------------------
// Counter attribution resets between top-level declarations
// ---------------------------------------------------------------------

#[test]
fn per_binding_counters_reset_between_declarations() {
    let compiled = recmod::compile(TWO_DECLS).unwrap();
    let report = StatsReport::collect(&compiled, None, None);
    assert_eq!(report.bindings.len(), 2, "S and y");

    // Each declaration gets its own delta, not a running total.
    let s = &report.bindings[0];
    let y = &report.bindings[1];
    assert!(s.kernel.fuel_used() > 0, "structure elaboration burns fuel");
    assert!(y.kernel.fuel_used() > 0, "value elaboration burns fuel");

    // The structure involves signature matching and phase splitting; the
    // trivial value binding must not inherit its counts. If the counters
    // failed to reset, y's delta would include all of S's work.
    assert!(
        y.kernel.fuel_used() < s.kernel.fuel_used(),
        "trivial binding {} >= structure {}",
        y.kernel.fuel_used(),
        s.kernel.fuel_used()
    );

    // Deltas partition (a subset of) the aggregate: their sum can never
    // exceed the total fuel the checker burned.
    assert!(s.kernel.fuel_used() + y.kernel.fuel_used() <= report.kernel.fuel_used());
}

#[test]
fn reinstalling_the_sink_resets_its_counters() {
    telemetry::install(telemetry::Config::default());
    telemetry::count("t.probe", 7);
    // A second install replaces the sink wholesale; nothing leaks over.
    telemetry::install(telemetry::Config::default());
    telemetry::count("t.probe", 1);
    let report = telemetry::uninstall().unwrap();
    assert_eq!(report.counter("t.probe"), 1);
    assert!(telemetry::uninstall().is_none());
}

// ---------------------------------------------------------------------
// Span nesting well-formedness
// ---------------------------------------------------------------------

/// Checks one span subtree: children's time is contained in the
/// parent's, and the tree has no pathological shapes.
fn check_span(span: &telemetry::Span) {
    assert!(!span.name.is_empty());
    let child_total: u64 = span.children.iter().map(|c| c.nanos).sum();
    assert!(
        child_total <= span.nanos,
        "children of {} total {} ns > parent {} ns",
        span.name,
        child_total,
        span.nanos
    );
    for child in &span.children {
        check_span(child);
    }
}

#[test]
fn spans_recorded_during_compilation_form_a_well_formed_tree() {
    let (_, report) = compile_observed(TWO_DECLS);
    assert!(!report.spans.is_empty(), "compilation records spans");
    assert_eq!(report.spans_dropped, 0);
    for span in &report.spans {
        check_span(span);
    }
    // The pipeline's known stages all show up somewhere in the tree.
    let mut names = Vec::new();
    fn collect<'s>(spans: &'s [telemetry::Span], out: &mut Vec<&'s str>) {
        for s in spans {
            out.push(s.name);
            collect(&s.children, out);
        }
    }
    collect(&report.spans, &mut names);
    for expected in ["surface.elab_topdec", "phase.split"] {
        assert!(names.contains(&expected), "missing span {expected}");
    }
}

// ---------------------------------------------------------------------
// --stats=json schema (golden)
// ---------------------------------------------------------------------

#[test]
fn stats_json_matches_the_documented_schema() {
    let (compiled, report) = compile_observed(TWO_DECLS);
    let stats = StatsReport::collect(&compiled, None, Some(report));
    let emitted = stats.to_json().to_pretty();

    // Round-trips through the bundled parser.
    let doc = json::parse(&emitted).expect("emitter produces valid JSON");

    // Every JSON surface carries the telemetry schema version.
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(telemetry::SCHEMA_VERSION),
        "stats json must declare schema_version"
    );

    // Top-level sections.
    for key in ["kernel", "bindings", "phase", "surface", "eval", "spans"] {
        assert!(doc.get(key).is_some(), "missing top-level key {key}");
    }

    // Kernel counters: nonzero fuel, and fuel_by_op covers every FuelOp.
    let kernel = doc.get("kernel").unwrap();
    assert!(kernel.get("fuel_used").unwrap().as_u64().unwrap() > 0);
    assert!(kernel.get("fuel_budget").unwrap().as_u64().unwrap() > 0);
    let Some(Json::Obj(by_op)) = kernel.get("fuel_by_op") else {
        panic!("fuel_by_op must be an object");
    };
    assert_eq!(by_op.len(), recmod::kernel::FuelOp::ALL.len());
    for op in recmod::kernel::FuelOp::ALL {
        assert!(
            by_op.contains_key(op.key()),
            "missing fuel_by_op.{}",
            op.key()
        );
    }

    // Per-binding elaboration timings are present and nonzero.
    let bindings = doc.get("bindings").unwrap().as_arr().unwrap();
    assert_eq!(bindings.len(), 2);
    for b in bindings {
        assert!(b.get("name").unwrap().as_str().is_some());
        assert!(b.get("elab_nanos").unwrap().as_u64().unwrap() > 0);
        assert!(b.get("kernel").unwrap().get("fuel_used").is_some());
    }

    // Phase section: the structure was split, so node counts are live.
    let phase = doc.get("phase").unwrap();
    assert!(phase.get("split_calls").unwrap().as_u64().unwrap() >= 1);
    assert!(phase.get("nodes_in").unwrap().as_u64().unwrap() > 0);

    // Surface section saw both declarations.
    let surface = doc.get("surface").unwrap();
    assert_eq!(surface.get("topdecs").unwrap().as_u64(), Some(2));
    assert_eq!(surface.get("bindings").unwrap().as_u64(), Some(2));

    // No program was run, so eval is null.
    assert!(matches!(doc.get("eval"), Some(Json::Null)));
}

// ---------------------------------------------------------------------
// Disabled-sink overhead
// ---------------------------------------------------------------------

#[test]
fn disabled_sink_path_is_near_zero_cost() {
    assert!(!telemetry::enabled());
    const ITERS: u64 = 200_000;
    let t0 = std::time::Instant::now();
    for i in 0..ITERS {
        telemetry::count("overhead.probe", i);
        let _g = telemetry::span("overhead.span");
        let _t = telemetry::trace_span(|| unreachable!("sink disabled"));
    }
    let elapsed = t0.elapsed();
    // Each disabled call is a thread-local flag check; even in a debug
    // build 600k calls finish orders of magnitude under this bound. The
    // bound is deliberately generous (CI noise) while still catching a
    // regression to "always allocate/format/read the clock".
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "3×{ITERS} disabled telemetry calls took {elapsed:?}"
    );
}

// ---------------------------------------------------------------------
// E1: the §3.1 asymptotic gap, in recorded counters
// ---------------------------------------------------------------------

/// EXPERIMENTS.md E1 cites this test: the opaque recursive-module list
/// has superlinear (Θ(n²)) per-run cost while the §4 transparent version
/// is Θ(n), and both typecheck in constant fuel regardless of n.
#[test]
fn e1_asymptotic_gap_in_counters() {
    let (o20, ok20) = recmod_bench::list_run_stats(true, 20);
    let (o80, ok80) = recmod_bench::list_run_stats(true, 80);
    let (t20, tk20) = recmod_bench::list_run_stats(false, 20);
    let (t80, tk80) = recmod_bench::list_run_stats(false, 80);

    // Opaque: per-element cost grows with n (superlinear total).
    let opaque_per_20 = o20.steps as f64 / 20.0;
    let opaque_per_80 = o80.steps as f64 / 80.0;
    assert!(
        opaque_per_80 > 2.0 * opaque_per_20,
        "opaque per-element cost must grow: {opaque_per_20} -> {opaque_per_80}"
    );

    // Transparent: per-element cost is O(1) — bounded as n quadruples.
    let transp_per_20 = t20.steps as f64 / 20.0;
    let transp_per_80 = t80.steps as f64 / 80.0;
    assert!(
        transp_per_80 < 1.5 * transp_per_20,
        "transparent per-element cost must stay flat: {transp_per_20} -> {transp_per_80}"
    );

    // Compile-time cost is independent of n: the driver only changes a
    // literal, so checker fuel and μ-unroll counts are identical.
    assert_eq!(ok20.fuel_used(), ok80.fuel_used());
    assert_eq!(tk20.fuel_used(), tk80.fuel_used());
    assert_eq!(ok20.mu_unrolls, ok80.mu_unrolls);
    assert_eq!(tk20.mu_unrolls, tk80.mu_unrolls);

    // And the μ-unroll counts recorded in EXPERIMENTS.md: the opaque
    // module's μ stays opaque (nothing to unroll); the transparent rds
    // resolution unrolls during datatype-equation discharge.
    assert_eq!(ok20.mu_unrolls, 0);
    assert!(tk20.mu_unrolls > 0);
}

/// The exact evaluator counters of the E1 ladder, recorded from the
/// `Term`-walking interpreter before evaluation moved onto the erased
/// code tree. The code tree has one node per `Term` node, so every
/// counter must match to the unit; the `steps` column is EXPERIMENTS.md's
/// E1 table.
#[test]
fn e1_eval_counters_are_pinned() {
    // (opaque, n, steps, closures, backpatches, max_env_depth)
    const PINNED: [(bool, usize, u64, u64, u64, u64); 10] = [
        (true, 10, 6_093, 316, 8, 15),
        (true, 20, 22_578, 1_121, 8, 15),
        (true, 40, 87_048, 4_231, 8, 15),
        (true, 80, 341_988, 16_451, 8, 15),
        (true, 160, 1_355_868, 64_891, 8, 15),
        (false, 10, 863, 59, 6, 10),
        (false, 20, 1_653, 109, 6, 10),
        (false, 40, 3_233, 209, 6, 10),
        (false, 80, 6_393, 409, 6, 10),
        (false, 160, 12_713, 809, 6, 10),
    ];
    for (opaque, n, steps, closures, backpatches, max_env_depth) in PINNED {
        let (stats, _) = recmod_bench::list_run_stats(opaque, n);
        let want = recmod::eval::EvalStats {
            steps,
            closures,
            backpatches,
            max_env_depth,
        };
        assert_eq!(stats, want, "opaque={opaque} n={n}");
    }
}

// ---------------------------------------------------------------------
// Views pinned to the byte: trace text, recorder tail, span-tree shape
// ---------------------------------------------------------------------

/// Renders a span tree's shape: one line per node, indented one space
/// per level, times left out. A run of identical sibling subtrees is
/// written once with an `xN` suffix.
fn span_shape(spans: &[telemetry::Span], depth: usize, out: &mut String) {
    fn same(a: &telemetry::Span, b: &telemetry::Span) -> bool {
        a.name == b.name
            && a.children.len() == b.children.len()
            && a.children.iter().zip(&b.children).all(|(x, y)| same(x, y))
    }
    let mut i = 0;
    while i < spans.len() {
        let run = 1 + spans[i + 1..]
            .iter()
            .take_while(|s| same(&spans[i], s))
            .count();
        out.push_str(&" ".repeat(depth));
        out.push_str(spans[i].name);
        if run > 1 {
            out.push_str(&format!(" x{run}"));
        }
        out.push('\n');
        span_shape(&spans[i].children, depth + 1, out);
        i += run;
    }
}

/// What one compile left in the views, read on the compiling thread.
struct Observed {
    report: telemetry::Report,
    recorder: Vec<telemetry::diag::RecorderEvent>,
    recorded: u64,
    depth: usize,
}

/// Compiles `src` under `limits` with a `config` sink on a fresh
/// thread, so no earlier compile on the test thread can leave a frame
/// or a sink behind.
fn observe(src: &'static str, limits: recmod::Limits, config: telemetry::Config) -> Observed {
    std::thread::Builder::new()
        .stack_size(recmod::driver::DEFAULT_STACK_SIZE)
        .spawn(move || {
            telemetry::install(config);
            telemetry::diag::reset_recorder();
            let _ = recmod::compile_with_limits(src, &limits);
            Observed {
                recorder: telemetry::diag::crash_data().events,
                recorded: telemetry::diag::recorder_seq(),
                depth: telemetry::diag::frame_depth(),
                report: telemetry::uninstall().expect("sink was installed"),
            }
        })
        .expect("spawn")
        .join()
        .expect("compile thread")
}

/// The three views of one compile, in [`VIEWS`] order: the `--trace=3`
/// text, the recorder tail a crash bundle would carry as
/// `kind name depth` lines, and the profiled span-tree shape.
fn views(src: &'static str, limits: recmod::Limits) -> [String; 3] {
    let traced = observe(src, limits, telemetry::Config::with_trace(3));
    let mut recorder = String::new();
    for e in &traced.recorder {
        recorder.push_str(&format!("{} {} {}\n", e.kind.label(), e.name, e.depth));
    }
    let profiled = observe(src, limits, telemetry::Config::profiled());
    let mut spans = String::new();
    span_shape(&profiled.report.spans, 0, &mut spans);
    [traced.report.render_trace(), recorder, spans]
}

/// The names of the three views, which are also the extensions of
/// their checked-in files under `tests/views/`.
const VIEWS: [&str; 3] = ["trace", "recorder", "spans"];

/// Compares each view with its checked-in text, naming the first line
/// that differs (a whole-file diff of a span tree is unreadable).
fn assert_views(actual: [String; 3], expected: [&str; 3]) {
    for ((what, actual), expected) in VIEWS.iter().zip(&actual).zip(expected) {
        let (mut a, mut e) = (actual.lines(), expected.lines());
        for line in 1.. {
            match (a.next(), e.next()) {
                (None, None) => break,
                (Some(x), Some(y)) if x == y => {}
                (x, y) => panic!("{what}: line {line} differs: got {x:?}, want {y:?}"),
            }
        }
        assert_eq!(actual, expected, "{what}: trailing text differs");
    }
}

/// The §4 transparent list typechecks; every view of its compile is
/// pinned to the byte, so a change to how the probes nest shows here
/// before it reaches a user.
#[test]
fn views_of_a_well_typed_compile_are_pinned() {
    let actual = views(recmod::corpus::TRANSPARENT_LIST, recmod::Limits::default());
    assert_views(
        actual,
        [
            include_str!("../views/transparent_list.trace"),
            include_str!("../views/transparent_list.recorder"),
            include_str!("../views/transparent_list.spans"),
        ],
    );
}

/// The §3.1 opaque list under 40 units of kernel fuel stops with
/// `L003`: the views of a compile cut short by a limit, including the
/// recorder tail a crash bundle carries, are pinned the same way.
#[test]
fn views_of_a_fuel_limited_compile_are_pinned() {
    let limits = recmod::Limits::default().with_fuel(40);
    let codes: Vec<_> = recmod::compile_with_limits(recmod::corpus::OPAQUE_LIST, &limits)
        .err()
        .map(|errs| errs.iter().map(|e| e.code()).collect())
        .unwrap_or_default();
    assert_eq!(codes, ["L003"]);
    assert_views(
        views(recmod::corpus::OPAQUE_LIST, limits),
        [
            include_str!("../views/opaque_list_fuel40.trace"),
            include_str!("../views/opaque_list_fuel40.recorder"),
            include_str!("../views/opaque_list_fuel40.spans"),
        ],
    );
}

/// A compile on a fresh thread depends only on its source and limits,
/// not on what other threads of the process hold. Near a fuel boundary
/// every unit of fuel shows in the recorder count and the trace text,
/// so that is where another thread's live nodes would show. The test
/// thread holds two compiled programs for the second round.
#[test]
fn a_compile_does_not_depend_on_what_other_threads_hold() {
    let round = || {
        [40, 100, 400].map(|fuel| {
            let limits = recmod::Limits::default().with_fuel(fuel);
            let seen = observe(
                recmod::corpus::OPAQUE_LIST,
                limits,
                telemetry::Config::with_trace(3),
            );
            (fuel, seen.recorded, seen.report.render_trace())
        })
    };
    let alone = round();
    let held = [
        recmod::corpus::TRANSPARENT_LIST,
        recmod::corpus::OPAQUE_LIST,
    ]
    .map(|src| recmod::compile_with_limits(src, &recmod::Limits::default()));
    assert!(held.iter().all(Result::is_ok), "both lists typecheck");
    let beside = round();
    for ((fuel, n0, trace0), (_, n1, trace1)) in alone.iter().zip(&beside) {
        assert_eq!(n0, n1, "fuel {fuel}: recorder events");
        assert!(trace0 == trace1, "fuel {fuel}: the trace text differs");
    }
    drop(held);
}

// ---------------------------------------------------------------------
// The views cannot disagree
// ---------------------------------------------------------------------

/// Counts the spans in a tree that satisfy `keep`.
fn count_spans(spans: &[telemetry::Span], keep: &dyn Fn(&telemetry::Span) -> bool) -> u64 {
    spans
        .iter()
        .map(|s| u64::from(keep(s)) + count_spans(&s.children, keep))
        .sum()
}

/// One judgement probe feeds the recorder, the span tree and the stage
/// counters; on every corpus example they must tell the same story:
/// - every judgement span has exactly one `Enter` event;
/// - every `stage.X` span has exactly one `stage.X.calls` tick;
/// - no frame is left open once the compile returns.
///
/// The recorder is a 256-slot ring, so `Enter` events are counted only
/// on runs that did not wrap it. Kernel fuel budgets cut each example
/// short at a few points, and at least one of these runs per example
/// is small enough. Under profiling every span is a stage span or a
/// judgement span (a declaration's frame is one judgement and one span),
/// so the judgement spans are the profiled spans that are not stages.
#[test]
fn judgement_stage_and_frame_views_agree_on_the_corpus() {
    for entry in recmod::corpus::all() {
        let mut unwrapped = 0;
        for fuel in [1, 4, 16, 64, recmod::Limits::default().fuel] {
            let limits = recmod::Limits::default().with_fuel(fuel);
            let at = format!("{} at fuel {fuel}", entry.name);
            let profiled = observe(entry.source, limits, telemetry::Config::profiled());
            let plain = observe(entry.source, limits, telemetry::Config::default());
            assert_eq!(profiled.depth, 0, "{at}: frames left open");
            assert_eq!(plain.depth, 0, "{at}: frames left open");

            let spans = &profiled.report.spans;
            let stage_spans = count_spans(spans, &|s| s.name.starts_with("stage."));
            for (stage, total) in profiled.report.stage_totals() {
                let name = format!("stage.{stage}");
                let named = count_spans(spans, &|s| s.name == name);
                assert_eq!(named, total.calls, "{at}: {name} spans vs calls");
            }
            let judgements = count_spans(spans, &|_| true) - stage_spans;
            if profiled.recorded <= telemetry::diag::RECORDER_CAP as u64 {
                unwrapped += 1;
                let enters = profiled
                    .recorder
                    .iter()
                    .filter(|e| e.kind == telemetry::diag::EventKind::Enter)
                    .count() as u64;
                assert_eq!(judgements, enters, "{at}: judgement spans vs Enter events");
            }
        }
        assert!(
            unwrapped > 0,
            "{}: every run wrapped the recorder",
            entry.name
        );
    }
}
