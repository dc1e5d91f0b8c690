//! # recmod-telemetry
//!
//! A zero-external-dependency telemetry layer for the recmod pipeline:
//!
//! * **counters** — named monotone counters and high-water marks;
//! * **spans** — hierarchical wall-clock timings (via
//!   [`std::time::Instant`]) assembled into a tree;
//! * **trace** — a derivation-trace sink recording indented judgement
//!   lines, bounded in both depth and total width;
//! * **JSON** — a hand-rolled emitter (and minimal parser, for tests)
//!   in [`json`].
//!
//! The sink is *runtime-checked and thread-local*: instrumented code
//! calls [`count`], [`span`], or [`trace_span`] unconditionally, and
//! each call first reads a thread-local flag. When no sink is installed
//! (the default), every entry point is a branch on a `Cell<bool>` and
//! nothing else — the disabled path allocates nothing and never reads
//! the clock. A test in the workspace asserts this stays within noise
//! of the pre-instrumentation baseline.
//!
//! Every probe — [`judgement_span`], [`stage`], [`span`] and
//! [`trace_span`] — pushes a frame on one per-thread stack and returns
//! the one guard type, [`Guard`]. Provenance, the flight recorder, the
//! span tree, stage self-time and trace indentation are all read off
//! that stack ([`diag`] describes it).
//!
//! Because the sink is thread-local, an evaluation running on a
//! dedicated big-stack thread must install its own sink and ship the
//! resulting [`Report`] back (reports are `Send`); [`Report::absorb`]
//! is the **single** merge implementation — [`Report::merge`] folds a
//! sequence of reports with it, and nothing else re-implements counter
//! or span merging.
//!
//! # Counter naming convention
//!
//! Counter names are dotted paths, `namespace.rest[.rest…]`, where the
//! namespace identifies the layer that owns the counter (see
//! [`names`]):
//!
//! | namespace    | layer                                             |
//! |--------------|---------------------------------------------------|
//! | `kernel.*`   | the type-theory kernel (fuel, caches, unrolls)    |
//! | `syntax.*`   | the hash-consing interner                         |
//! | `surface.*`  | lexer / parser / elaborator                       |
//! | `phase.*`    | the phase splitter and verifier                   |
//! | `eval.*`     | the interpreter                                   |
//! | `driver.*`   | the parallel batch driver                         |
//! | `stage.*`    | pipeline stage timers (written by [`stage`])      |
//! | `internal.*` | last-resort accounting (caught panics, …)         |
//!
//! Names ending in `.hwm` are high-water marks and merge with `max`
//! rather than `+`; names ending in `.nanos` are wall-clock derived and
//! excluded from the deterministic cost model (see `bench_json
//! --costs`).
//!
//! # Profiling
//!
//! When [`Config::profile`] is set, judgement and stage frames also
//! close into spans (judgement frames carry none otherwise, so `--stats`
//! runs are not flooded with per-judgement nodes), so the span tree
//! holds complete-duration events for the whole pipeline. Spans carry a
//! start offset relative to the sink's *epoch* — [`Config::epoch`] lets
//! a batch driver hand every worker the same epoch so their span lanes
//! share one clock. [`sample`] appends counter-track samples
//! (timestamped counter snapshots) for trace exporters.
//!
//! # Example
//!
//! ```
//! use recmod_telemetry as telemetry;
//!
//! telemetry::install(telemetry::Config::default());
//! {
//!     let _outer = telemetry::span("compile");
//!     telemetry::count("surface.tokens", 42);
//! }
//! let report = telemetry::uninstall().unwrap();
//! assert_eq!(report.counter("surface.tokens"), 42);
//! assert_eq!(report.spans[0].name, "compile");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod chrome_trace;
pub mod diag;
pub mod fault;
pub mod json;
pub mod limits;
pub mod metrics;
pub mod names;
pub mod profile;

pub use diag::Guard;
pub use limits::{parse_limits_spec, LimitExceeded, LimitKind, Limits};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use diag::FrameKind;

/// Version stamped into every JSON document this workspace emits
/// (`--stats=json`, `bench_json`, trace/log/cost files). Bump on any
/// breaking change to a schema; golden tests assert the current value.
///
/// History: 3 = sharded global interner + on-disk artifact cache (the
/// golden cost model dropped the warmth-dependent `syntax.intern_*`
/// counters, `--stats` gained interner contention — gone with the
/// per-thread interner, no bump: `--stats` lists nonzero counters only
/// — and cache entries embed this version in their key); 2 = S17 NbE
/// engine (the `--stats` kernel section gained `equiv_engine` and the
/// eval/quote/synth-cache counters, the kernel caches text line was
/// renamed, and the golden cost model's fuel accounting changed
/// engines); 1 = original.
pub const SCHEMA_VERSION: u64 = 3;

/// Span-node budget used by profiling configs: judgement-level spans
/// are orders of magnitude more numerous than stage spans, so the
/// profiling cap is far above [`Config::default`]'s. Drops beyond it
/// are still counted in [`Report::spans_dropped`].
pub const PROFILE_SPAN_MAX_NODES: usize = 1_000_000;

// ---------------------------------------------------------------------
// Thread-local sink state
// ---------------------------------------------------------------------

thread_local! {
    /// Fast-path flag: is a sink installed on this thread?
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// Fast-path flag: is derivation tracing requested?
    static TRACING: Cell<bool> = const { Cell::new(false) };
    /// Fast-path flag: are judgement-level profile spans requested?
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Sink configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Record derivation-trace lines at most this deep (`None` disables
    /// tracing entirely; depth 0 records only top-level judgements).
    pub trace_depth: Option<usize>,
    /// Maximum number of trace lines retained (width limit); further
    /// lines are counted as dropped, not stored.
    pub trace_max_lines: usize,
    /// Maximum number of span nodes retained; further spans still time
    /// their parents correctly but are not recorded individually.
    pub span_max_nodes: usize,
    /// Record judgement-level profile spans ([`judgement_span`]) and
    /// mirror [`stage`] frames as spans, for `--profile`/`--profile-text`.
    pub profile: bool,
    /// The instant span start offsets are measured from. `None` (the
    /// default) uses the [`install`] time; a batch driver passes one
    /// shared instant so every worker's spans live on the same clock.
    pub epoch: Option<Instant>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            trace_depth: None,
            trace_max_lines: 10_000,
            span_max_nodes: 10_000,
            profile: false,
            epoch: None,
        }
    }
}

impl Config {
    /// A config with derivation tracing enabled to `depth`.
    pub fn with_trace(depth: usize) -> Self {
        Config {
            trace_depth: Some(depth),
            ..Config::default()
        }
    }

    /// A config with judgement-level profiling enabled (and the span
    /// budget raised to [`PROFILE_SPAN_MAX_NODES`]).
    pub fn profiled() -> Self {
        Config {
            profile: true,
            span_max_nodes: PROFILE_SPAN_MAX_NODES,
            ..Config::default()
        }
    }
}

/// One recorded span: a name, when it started (relative to the sink's
/// epoch), its wall-clock duration, and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span label.
    pub name: &'static str,
    /// Start offset in nanoseconds since the sink's epoch.
    pub start_nanos: u64,
    /// Elapsed wall-clock nanoseconds.
    pub nanos: u64,
    /// Nested spans, in completion order.
    pub children: Vec<Span>,
}

/// One counter-track sample: selected counter values at one instant,
/// recorded by [`sample`] (e.g. at batch file boundaries) so trace
/// exporters can draw counters over time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Sample time in nanoseconds since the sink's epoch.
    pub nanos: u64,
    /// `(counter name, value at sample time)` pairs.
    pub values: Vec<(&'static str, u64)>,
}

/// One recorded trace line: nesting depth plus rendered judgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// Nesting depth of the judgement (0 = top level).
    pub depth: usize,
    /// The rendered judgement.
    pub text: String,
}

/// An installed sink: the report it accumulates, plus what it needs to
/// fill it in.
#[derive(Debug)]
struct Sink {
    config: Config,
    /// The instant span/sample offsets are measured from.
    epoch: Instant,
    /// Spans recorded so far, against [`Config::span_max_nodes`].
    span_nodes: usize,
    report: Report,
}

impl Sink {
    fn new(config: Config) -> Self {
        let epoch = config.epoch.unwrap_or_else(Instant::now);
        Sink {
            config,
            epoch,
            span_nodes: 0,
            report: Report::default(),
        }
    }

    /// Nanoseconds from the sink's epoch to `at` (0 if `at` predates it).
    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn into_report(mut self) -> Report {
        // Close any spans left open (e.g. uninstall inside a guard):
        // attribute the time measured so far so the tree stays a tree.
        let mut inner: Option<Span> = None;
        diag::take_open_spans(|name, start, mut children| {
            children.extend(inner.take());
            inner = Some(Span {
                name,
                start_nanos: self.since_epoch(start),
                nanos: start.elapsed().as_nanos() as u64,
                children,
            });
        });
        self.report.spans.extend(inner);
        self.report
    }
}

/// Everything one sink recorded. Plain data: `Send`, mergeable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Counter totals, keyed by counter name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Completed top-level spans in completion order.
    pub spans: Vec<Span>,
    /// Spans not recorded because the node limit was hit.
    pub spans_dropped: u64,
    /// Counter-track samples recorded by [`sample`], in time order.
    pub samples: Vec<CounterSample>,
    /// Recorded derivation-trace lines, in emission order.
    pub trace: Vec<TraceLine>,
    /// Trace lines not recorded because of the depth or width limits.
    pub trace_dropped: u64,
}

impl Report {
    /// The value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges `other` into `self`: counters merge per
    /// [`merge_counter`] (add, except `.hwm` marks which take the max),
    /// spans, samples, and trace lines append. This is the single merge
    /// implementation — [`Report::merge`] folds with it.
    pub fn absorb(&mut self, other: Report) {
        for (k, v) in other.counters {
            merge_counter(self.counters.entry(k).or_insert(0), k, v);
        }
        self.spans.extend(other.spans);
        self.spans_dropped += other.spans_dropped;
        self.samples.extend(other.samples);
        self.trace.extend(other.trace);
        self.trace_dropped += other.trace_dropped;
    }

    /// Renders the trace as an indented listing (two spaces per level).
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for line in &self.trace {
            for _ in 0..line.depth {
                out.push_str("  ");
            }
            out.push_str(&line.text);
            out.push('\n');
        }
        if self.trace_dropped > 0 {
            out.push_str(&format!(
                "… {} trace line(s) beyond the depth/width limits\n",
                self.trace_dropped
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Install / uninstall
// ---------------------------------------------------------------------

/// The merge rule for one counter: `.hwm` marks take the max, everything
/// else adds. Both [`Report::absorb`] and the sink's own accumulation
/// route through this, so there is exactly one definition of "merge".
#[inline]
pub fn merge_counter(slot: &mut u64, name: &str, v: u64) {
    if name.ends_with(".hwm") {
        *slot = (*slot).max(v);
    } else {
        *slot += v;
    }
}

/// Installs a fresh sink on the current thread, replacing (and
/// discarding) any previous one.
pub fn install(config: Config) {
    TRACING.with(|t| t.set(config.trace_depth.is_some()));
    PROFILING.with(|p| p.set(config.profile));
    ACTIVE.with(|a| a.set(true));
    SINK.with(|s| *s.borrow_mut() = Some(Sink::new(config)));
}

/// Removes the current thread's sink and returns what it recorded.
pub fn uninstall() -> Option<Report> {
    ACTIVE.with(|a| a.set(false));
    TRACING.with(|t| t.set(false));
    PROFILING.with(|p| p.set(false));
    SINK.with(|s| s.borrow_mut().take()).map(Sink::into_report)
}

/// Is a sink installed on this thread? (The fast-path check every
/// instrumented call performs first.)
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Is derivation tracing requested? Callers use this to skip building
/// trace payloads (rendering judgements is far more expensive than the
/// check).
#[inline]
pub fn trace_enabled() -> bool {
    TRACING.with(|t| t.get())
}

/// Are judgement-level profile spans requested ([`Config::profile`])?
#[inline]
pub fn profiling_enabled() -> bool {
    PROFILING.with(|p| p.get())
}

fn with_sink<R>(f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
    SINK.with(|s| s.borrow_mut().as_mut().map(f))
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Adds `n` to the named counter. No-op without a sink.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        with_sink(|s| *s.report.counters.entry(name).or_insert(0) += n);
    }
}

/// Raises the named high-water mark to at least `v`. No-op without a
/// sink. By convention mark names end in `.hwm` (so [`Report::absorb`]
/// merges them with `max` rather than `+`).
#[inline]
pub fn count_max(name: &'static str, v: u64) {
    if enabled() {
        with_sink(|s| {
            let slot = s.report.counters.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        });
    }
}

/// Nanoseconds from the installed sink's epoch to `at` (`None` without
/// a sink). Batch drivers stamp per-file start offsets with this so
/// file events line up with the sink's spans on a shared timeline;
/// passing the same `Instant` used for duration measurement makes
/// `start + dur` of consecutive events on one thread non-overlapping
/// by construction.
pub fn epoch_offset_nanos(at: Instant) -> Option<u64> {
    with_sink(|s| s.since_epoch(at))
}

/// A snapshot of every counter's current value (`None` without a sink).
/// Batch drivers subtract two snapshots to attribute counters to one
/// file; the map is small (tens of entries), so the clone is cheap
/// relative to compiling a file.
pub fn snapshot_counters() -> Option<BTreeMap<&'static str, u64>> {
    if !enabled() {
        return None;
    }
    with_sink(|s| s.report.counters.clone())
}

/// Records a counter-track sample: the current values of `names` (as
/// recorded by [`count`]) plus caller-computed `extra` pairs (gauges the
/// sink cannot see, e.g. interner occupancy), stamped with the time
/// since the sink's epoch. No-op without a sink.
pub fn sample(names: &[&'static str], extra: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    with_sink(|s| {
        let nanos = s.since_epoch(Instant::now());
        let mut values: Vec<(&'static str, u64)> =
            names.iter().map(|&n| (n, s.report.counter(n))).collect();
        values.extend_from_slice(extra);
        s.report.samples.push(CounterSample { nanos, values });
    });
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// Opens a hierarchical timed span; the returned guard closes it on
/// drop. Without a sink the guard is inert and the clock is never read.
#[must_use = "a span measures until the guard is dropped"]
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: false };
    }
    diag::open(name, FrameKind::Span, true)
}

/// Opens a judgement-level probe: a judgement frame named `name` on the
/// always-on [`diag`] stack, logged in the flight recorder, so a failure
/// constructed while the guard lives can snapshot its derivation
/// provenance. If [`Config::profile`] was set the frame is also timed
/// and closes into a span. Judgement spans fire once per judgement
/// *instance* (like derivation tracing), far too many nodes for a plain
/// `--stats` run to carry, so the timing stays opt-in.
#[must_use = "a span measures until the guard is dropped"]
#[inline]
pub fn judgement_span(name: &'static str) -> Guard {
    fault::tick();
    diag::open(name, FrameKind::Judgement, profiling_enabled())
}

/// Closes a span frame opened at `start`: the span joins `parent` (the
/// children of the nearest span-carrying frame) or the sink's roots.
/// Beyond the node budget the span is counted as dropped and its
/// children move up, so completed subtrees are not silently lost.
pub(crate) fn close_span(
    name: &'static str,
    start: Instant,
    children: Vec<Span>,
    parent: Option<&mut Vec<Span>>,
) {
    with_sink(|s| {
        let start_nanos = s.since_epoch(start);
        let siblings = match parent {
            Some(p) => p,
            None => &mut s.report.spans,
        };
        if s.span_nodes >= s.config.span_max_nodes {
            s.report.spans_dropped += 1;
            siblings.extend(children);
            return;
        }
        s.span_nodes += 1;
        siblings.push(Span {
            name,
            start_nanos,
            nanos: start.elapsed().as_nanos() as u64,
            children,
        });
    });
}

// ---------------------------------------------------------------------
// Stage timers
// ---------------------------------------------------------------------

/// Times `f` as pipeline stage `name`, attributing the elapsed
/// wall-clock to the counters `<name>.nanos` and `<name>.calls`.
///
/// Unlike [`span`], stage time is *exclusive*: nanoseconds spent inside
/// a nested `stage` call (same name or not) are attributed to the inner
/// stage only, so the per-stage totals partition the instrumented wall
/// clock and recursive entry points never double-count. The stage frame
/// closes on unwind too, so a panicking batch item cannot corrupt the
/// stack of a long-lived worker sink. In profile mode the stage is also
/// a span, so the exported span tree carries complete-duration events
/// for every pipeline stage. Without a sink this is a single branch and
/// `f` runs untouched.
#[inline]
pub fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let _g = diag::open(name, FrameKind::Stage, profiling_enabled());
    f()
}

/// Attributes `own` exclusive nanoseconds and one call to stage `name`.
pub(crate) fn charge_stage(name: &'static str, own: u64) {
    let (nanos_key, calls_key) = stage_keys(name);
    count(nanos_key, own);
    if let Some(c) = calls_key {
        count(c, 1);
    }
}

/// Counter keys for a stage name. Counter names must be `&'static str`,
/// so the `.nanos`/`.calls` pairing is a match over the fixed set of
/// pipeline stages; an unknown stage records its nanoseconds under the
/// raw name and no call count.
fn stage_keys(name: &'static str) -> (&'static str, Option<&'static str>) {
    match name {
        "stage.lex" => ("stage.lex.nanos", Some("stage.lex.calls")),
        "stage.parse" => ("stage.parse.nanos", Some("stage.parse.calls")),
        "stage.elab" => ("stage.elab.nanos", Some("stage.elab.calls")),
        "stage.kernel" => ("stage.kernel.nanos", Some("stage.kernel.calls")),
        "stage.split" => ("stage.split.nanos", Some("stage.split.calls")),
        "stage.verify" => ("stage.verify.nanos", Some("stage.verify.calls")),
        "stage.eval" => ("stage.eval.nanos", Some("stage.eval.calls")),
        other => (other, None),
    }
}

/// Summed stage attribution: exclusive nanoseconds plus entry count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Exclusive wall-clock nanoseconds attributed to the stage.
    pub nanos: u64,
    /// Number of stage entries recorded.
    pub calls: u64,
}

impl Report {
    /// Merges many reports (e.g. one per batch worker) into one, in
    /// order. Counters add (`.hwm` marks take the max), spans and trace
    /// lines append; see [`Report::absorb`].
    pub fn merge(reports: impl IntoIterator<Item = Report>) -> Report {
        let mut out = Report::default();
        for r in reports {
            out.absorb(r);
        }
        out
    }

    /// Rolls the `stage.<name>.nanos` / `stage.<name>.calls` counter
    /// pairs recorded by [`stage`] into a per-stage table keyed by the
    /// short stage name (`"lex"`, `"parse"`, …).
    pub fn stage_totals(&self) -> BTreeMap<&'static str, StageTotal> {
        let mut out: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        for (&name, &v) in &self.counters {
            if let Some(stage) = name
                .strip_prefix("stage.")
                .and_then(|rest| rest.strip_suffix(".nanos"))
            {
                out.entry(stage).or_default().nanos = v;
            } else if let Some(stage) = name
                .strip_prefix("stage.")
                .and_then(|rest| rest.strip_suffix(".calls"))
            {
                out.entry(stage).or_default().calls = v;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Derivation trace
// ---------------------------------------------------------------------

/// Records one derivation step at the current nesting depth (the
/// number of open trace frames) and opens a trace frame, deepening the
/// nesting until the guard drops. `render` is only invoked when the
/// line will actually be stored (within the depth and width limits), so
/// the disabled path never formats anything.
#[must_use = "the trace guard tracks judgement nesting until dropped"]
pub fn trace_span(render: impl FnOnce() -> String) -> Guard {
    if !trace_enabled() {
        return Guard { open: false };
    }
    let depth = diag::depth(FrameKind::Trace);
    with_sink(|s| {
        let within_depth = s.config.trace_depth.is_some_and(|d| depth <= d);
        if within_depth && s.report.trace.len() < s.config.trace_max_lines {
            s.report.trace.push(TraceLine {
                depth,
                text: render(),
            });
        } else {
            s.report.trace_dropped += 1;
        }
    });
    diag::open("trace", FrameKind::Trace, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        assert!(!enabled());
        count("x", 5);
        let _g = span("nothing");
        drop(_g);
        assert!(uninstall().is_none());
    }

    #[test]
    fn counters_add_and_marks_max() {
        install(Config::default());
        count("a", 2);
        count("a", 3);
        count_max("d.hwm", 7);
        count_max("d.hwm", 4);
        let r = uninstall().unwrap();
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("d.hwm"), 7);
        assert_eq!(r.counter("untouched"), 0);
    }

    #[test]
    fn spans_nest_into_a_tree() {
        install(Config::default());
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner2 = span("inner2");
            }
        }
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "outer");
        let kids: Vec<_> = r.spans[0].children.iter().map(|s| s.name).collect();
        assert_eq!(kids, ["inner", "inner2"]);
    }

    #[test]
    fn span_guard_outliving_sink_is_harmless() {
        install(Config::default());
        let g = span("orphan");
        let _ = uninstall().unwrap();
        drop(g); // must not panic
        assert!(!enabled());
    }

    #[test]
    fn uninstall_closes_open_spans() {
        install(Config::default());
        let _g1 = span("a");
        let _g2 = span("b");
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "a");
        assert_eq!(r.spans[0].children[0].name, "b");
    }

    #[test]
    fn trace_respects_depth_limit() {
        install(Config::with_trace(1));
        {
            let _a = trace_span(|| "level0".into());
            {
                let _b = trace_span(|| "level1".into());
                {
                    let _c = trace_span(|| "level2 (dropped)".into());
                }
            }
        }
        let r = uninstall().unwrap();
        let depths: Vec<_> = r.trace.iter().map(|l| l.depth).collect();
        assert_eq!(depths, [0, 1]);
        assert_eq!(r.trace_dropped, 1);
    }

    #[test]
    fn trace_respects_width_limit() {
        install(Config {
            trace_depth: Some(10),
            trace_max_lines: 3,
            ..Config::default()
        });
        for i in 0..5 {
            let _g = trace_span(|| format!("line {i}"));
        }
        let r = uninstall().unwrap();
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace_dropped, 2);
    }

    #[test]
    fn trace_render_closure_not_called_when_dropped() {
        install(Config::with_trace(0));
        let _a = trace_span(|| "kept".into());
        let _b = trace_span(|| panic!("must not render beyond the depth limit"));
        drop(_b);
        drop(_a);
        let r = uninstall().unwrap();
        assert_eq!(r.trace.len(), 1);
    }

    #[test]
    fn absorb_merges_counters_spans_and_trace() {
        install(Config::with_trace(2));
        count("n", 1);
        count_max("m.hwm", 9);
        let _ = trace_span(|| "one".into());
        let mut a = uninstall().unwrap();

        install(Config::with_trace(2));
        count("n", 2);
        count_max("m.hwm", 4);
        {
            let _s = span("child");
        }
        let b = uninstall().unwrap();

        a.absorb(b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("m.hwm"), 9);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.trace.len(), 1);
    }

    #[test]
    fn stage_times_are_exclusive_and_partition() {
        install(Config::default());
        let spin = |ms: u64| {
            let t0 = Instant::now();
            while t0.elapsed() < std::time::Duration::from_millis(ms) {
                std::hint::black_box(0u64);
            }
        };
        let t0 = Instant::now();
        stage("stage.parse", || {
            spin(4);
            stage("stage.kernel", || spin(4));
        });
        let outer = t0.elapsed().as_nanos() as u64;
        let r = uninstall().unwrap();
        let totals = r.stage_totals();
        let parse = totals["parse"];
        let kernel = totals["kernel"];
        assert_eq!(parse.calls, 1);
        assert_eq!(kernel.calls, 1);
        // Each stage spun ~4ms of its own.
        assert!(kernel.nanos >= 3_000_000, "kernel {kernel:?}");
        assert!(parse.nanos >= 3_000_000, "parse {parse:?}");
        // Kernel time must NOT be double-counted into parse: the two
        // exclusive times partition the outer call, however long a
        // preempted spin ran.
        assert!(
            parse.nanos + kernel.nanos <= outer,
            "parse self-time should exclude the nested kernel stage: \
             {parse:?} + {kernel:?} > {outer} elapsed"
        );
    }

    #[test]
    fn recursive_stage_entries_do_not_double_count() {
        install(Config::default());
        fn rec(n: usize) {
            stage("stage.kernel", || {
                if n > 0 {
                    rec(n - 1);
                }
            });
        }
        rec(5);
        let r = uninstall().unwrap();
        let k = r.stage_totals()["kernel"];
        assert_eq!(k.calls, 6);
        // Six nested frames over a near-instant body: self times sum to
        // roughly the single outer elapsed, far below a millisecond.
        assert!(k.nanos < 1_000_000, "{k:?}");
    }

    #[test]
    fn stage_without_sink_is_a_noop() {
        assert!(!enabled());
        let out = stage("stage.parse", || 17);
        assert_eq!(out, 17);
        assert!(uninstall().is_none());
    }

    #[test]
    fn merge_folds_reports_in_order() {
        let mut reports = Vec::new();
        for i in 0..3u64 {
            install(Config::default());
            count("worker.files", i + 1);
            count_max("peak.hwm", 10 * (i + 1));
            stage("stage.parse", || std::hint::black_box(0));
            reports.push(uninstall().unwrap());
        }
        let merged = Report::merge(reports);
        assert_eq!(merged.counter("worker.files"), 6);
        assert_eq!(merged.counter("peak.hwm"), 30);
        assert_eq!(merged.stage_totals()["parse"].calls, 3);
    }

    #[test]
    fn judgement_spans_are_inert_without_profile_mode() {
        install(Config::default());
        {
            let _g = judgement_span("kernel.whnf");
        }
        let r = uninstall().unwrap();
        assert!(r.spans.is_empty());

        install(Config::profiled());
        {
            let _g = judgement_span("kernel.whnf");
        }
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "kernel.whnf");
    }

    #[test]
    fn profile_mode_mirrors_stages_as_spans() {
        install(Config::profiled());
        stage("stage.parse", || {
            let _j = judgement_span("kernel.whnf");
        });
        let r = uninstall().unwrap();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].name, "stage.parse");
        assert_eq!(r.spans[0].children[0].name, "kernel.whnf");
        // The stage counters are recorded exactly as in non-profile mode.
        assert_eq!(r.stage_totals()["parse"].calls, 1);
    }

    #[test]
    fn span_starts_are_monotone_and_contained() {
        install(Config::profiled());
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = span("inner");
        }
        let r = uninstall().unwrap();
        let outer = &r.spans[0];
        let inner = &outer.children[0];
        assert!(inner.start_nanos >= outer.start_nanos);
        assert!(inner.start_nanos + inner.nanos <= outer.start_nanos + outer.nanos);
    }

    #[test]
    fn samples_capture_counters_and_extras() {
        install(Config::default());
        count("kernel.whnf_cache_hit", 3);
        sample(
            &["kernel.whnf_cache_hit", "kernel.untouched"],
            &[("syntax.intern_occupancy", 17)],
        );
        count("kernel.whnf_cache_hit", 2);
        sample(&["kernel.whnf_cache_hit"], &[]);
        let r = uninstall().unwrap();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(
            r.samples[0].values,
            vec![
                ("kernel.whnf_cache_hit", 3),
                ("kernel.untouched", 0),
                ("syntax.intern_occupancy", 17),
            ]
        );
        assert_eq!(r.samples[1].values, vec![("kernel.whnf_cache_hit", 5)]);
        assert!(r.samples[1].nanos >= r.samples[0].nanos);
    }

    #[test]
    fn snapshot_counters_subtracts_into_deltas() {
        install(Config::default());
        count("driver.files", 2);
        let before = snapshot_counters().unwrap();
        count("driver.files", 3);
        count("kernel.whnf_cache_hit", 1);
        let after = snapshot_counters().unwrap();
        let _ = uninstall();
        let delta = |name: &str| {
            after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
        };
        assert_eq!(delta("driver.files"), 3);
        assert_eq!(delta("kernel.whnf_cache_hit"), 1);
    }

    #[test]
    fn shared_epoch_aligns_two_sinks() {
        let epoch = Instant::now();
        let mk = || Config {
            epoch: Some(epoch),
            ..Config::profiled()
        };
        install(mk());
        std::thread::sleep(std::time::Duration::from_millis(2));
        {
            let _s = span("late");
        }
        let r = uninstall().unwrap();
        // The span started well after the shared epoch, so its offset
        // reflects the wait, not the install time.
        assert!(r.spans[0].start_nanos >= 1_000_000);
    }

    #[test]
    fn frames_of_other_kinds_are_transparent_to_each_view() {
        install(Config::with_trace(5));
        stage("stage.elab", || {
            let _j = judgement_span("surface.elab_topdec");
            let _outer = trace_span(|| "outer".into());
            let _s = span("surface.elab_topdec");
            let _d = diag::enter("serve.cache");
            stage("stage.kernel", || {
                let _t = trace_span(|| "inner".into());
                let _k = span("kernel.child");
            });
        });
        let r = uninstall().unwrap();
        // Trace depth counts trace frames only, not the judgement,
        // span and stage frames between them.
        assert_eq!(r.render_trace(), "outer\n  inner\n");
        // Without profiling, judgement and stage frames carry no span:
        // the inner span joins the nearest span-carrying frame.
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].children[0].name, "kernel.child");
        // Each stage closes, and is charged, exactly once.
        let totals = r.stage_totals();
        assert_eq!((totals["elab"].calls, totals["kernel"].calls), (1, 1));
        assert_eq!(diag::frame_depth(), 0);
    }

    #[test]
    fn render_trace_indents() {
        install(Config::with_trace(3));
        {
            let _a = trace_span(|| "outer".into());
            let _b = trace_span(|| "inner".into());
        }
        let r = uninstall().unwrap();
        assert_eq!(r.render_trace(), "outer\n  inner\n");
    }
}
