//! The supervised compile service behind `recmodc serve`.
//!
//! A long-lived typechecking daemon: line-delimited JSON requests come
//! in over stdin or a unix socket, each carrying a source text plus
//! optional per-request [`Limits`] and deadline, and every request gets
//! **exactly one** line-delimited JSON response reusing the S15
//! diagnostics document, the exit-class taxonomy, and
//! [`SCHEMA_VERSION`]. The service is built from three pieces:
//!
//! * **Admission control** — a bounded queue ([`ServeConfig::queue_depth`]).
//!   A full queue sheds the request with an explicit
//!   [`ResponseStatus::Overloaded`] response (exit class
//!   [`EXIT_OVERLOADED`]), never a silent drop; a draining server
//!   rejects new work with [`ResponseStatus::Draining`]
//!   ([`EXIT_DRAINING`]).
//! * **Supervision** — requests compile on dedicated 512 MB worker
//!   threads behind a per-request `catch_unwind`. A supervisor thread
//!   reaps workers that die anyway (e.g. an injected
//!   [`FaultKind::Kill`]), writes a crash bundle attributed to the
//!   request id, retries or answers the orphaned request, and respawns
//!   the worker. A watchdog flags requests that blow their deadline
//!   past a grace period — cancellation itself is structural: the
//!   kernel's own amortized [`Limits`] deadline checks unwind the
//!   derivation with a normal `L004` limit error.
//! * **Retry with backoff** — attempts that failed *transiently* (an
//!   injected fault, a caught panic, a dead worker) are requeued with
//!   exponential backoff up to [`MAX_ATTEMPTS`] attempts; user
//!   errors and genuine resource verdicts are never retried, so
//!   verdicts stay deterministic and unfaulted requests answer
//!   byte-identically to batch mode.
//!
//! Fault injection ([`recmod_telemetry::fault`]) is armed per request
//! from a seeded [`FaultPlan`]: the plan decides a request's fate from
//! `(seed, admission seq)` alone, so chaos runs are replayable and
//! unperturbed requests never touch the fault layer at all.
//!
//! **Live telemetry.** Every request is measured: end-to-end latency,
//! queue wait, compile time, and deterministic work units (flight
//! recorder events) feed lock-free log-bucketed
//! [`Histogram`]s, and every admitted request carries a trace id —
//! derived bijectively from its admission seq, so ids are unique and
//! identical across seeded `--faults` replays. A request with
//! `trace: true` gets its span events (queue → cache → pipeline stages
//! → attempts) echoed in the response; the `metrics` op serves the
//! [`METRICS_SCHEMA_VERSION`]-stamped distribution document (or a
//! deterministic, wall-clock-free subset for replay comparison); and a
//! profiled session ([`ServeConfig::profile`]) accumulates per-worker
//! lanes plus shed/fault/respawn/drain instants for Chrome-trace
//! export. None of this touches the S14 cost counters: metrics are
//! side atomics, so the tolerance-0 golden-cost gate is unaffected.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::panic::resume_unwind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use recmod_surface::diag::Diagnostic;
use recmod_surface::elab::Elaborator;
use recmod_syntax::intern::{self, InternStats};
use recmod_telemetry::chrome_trace::{self, FileEvent, Lane, Mark};
use recmod_telemetry::diag as tdiag;
use recmod_telemetry::fault::{self, FaultKind, FaultPlan, Injection};
use recmod_telemetry::json::Json;
use recmod_telemetry::metrics::{Histogram, PromText};
use recmod_telemetry::{bundle, Config, Limits, Report, SCHEMA_VERSION};

use crate::{FileStatus, Verdict, DEFAULT_STACK_SIZE};

/// Version of the `metrics` op document. Independent of the global
/// [`SCHEMA_VERSION`] (which the document also carries): bump this
/// when the metrics key set or semantics change.
pub const METRICS_SCHEMA_VERSION: u64 = 3;

/// Exit class for a request shed by admission control.
pub const EXIT_OVERLOADED: u8 = 5;
/// Exit class for a request rejected because the server is draining.
pub const EXIT_DRAINING: u8 = 6;
/// Exit class for a malformed request (same class as CLI usage errors).
pub const EXIT_INVALID: u8 = 2;

/// Total compile attempts per request: the first plus up to two
/// retries of a transient failure.
pub const MAX_ATTEMPTS: u32 = 3;

/// Watchdog grace period in milliseconds: a request this far past its
/// deadline is flagged as overdue in the supervisor log and stats.
const GRACE_MS: u64 = 1_000;

/// How a response classifies its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Compiled cleanly.
    Ok,
    /// Ordinary (lex/parse/scope/type) diagnostics.
    Error,
    /// A genuine resource-limit verdict.
    Limit,
    /// An internal error that survived all retry attempts.
    Internal,
    /// Shed by admission control (queue full). Retry later.
    Overloaded,
    /// Rejected because the server is draining for shutdown.
    Draining,
    /// The request itself was malformed.
    Invalid,
}

impl ResponseStatus {
    /// Every status, in declaration order.
    pub const ALL: [ResponseStatus; 7] = [
        ResponseStatus::Ok,
        ResponseStatus::Error,
        ResponseStatus::Limit,
        ResponseStatus::Internal,
        ResponseStatus::Overloaded,
        ResponseStatus::Draining,
        ResponseStatus::Invalid,
    ];

    /// Stable status label, matching the batch driver's file statuses
    /// where the classes coincide.
    pub fn label(self) -> &'static str {
        match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::Error => "error",
            ResponseStatus::Limit => "limit",
            ResponseStatus::Internal => "internal",
            ResponseStatus::Overloaded => "overloaded",
            ResponseStatus::Draining => "draining",
            ResponseStatus::Invalid => "invalid",
        }
    }

    /// The exit class this status maps to (extends the CLI taxonomy
    /// with [`EXIT_OVERLOADED`] and [`EXIT_DRAINING`]).
    pub fn exit(self) -> u8 {
        match self {
            ResponseStatus::Ok => crate::EXIT_OK,
            ResponseStatus::Error => crate::EXIT_USER,
            ResponseStatus::Limit => crate::EXIT_LIMIT,
            ResponseStatus::Internal => crate::EXIT_INTERNAL,
            ResponseStatus::Overloaded => EXIT_OVERLOADED,
            ResponseStatus::Draining => EXIT_DRAINING,
            ResponseStatus::Invalid => EXIT_INVALID,
        }
    }
}

impl From<FileStatus> for ResponseStatus {
    fn from(s: FileStatus) -> Self {
        match s {
            FileStatus::Ok => ResponseStatus::Ok,
            FileStatus::Error => ResponseStatus::Error,
            FileStatus::Limit => ResponseStatus::Limit,
            FileStatus::Internal => ResponseStatus::Internal,
        }
    }
}

/// Derives a request's trace id from its admission sequence number:
/// the SplitMix64 finalizer (the same mixer [`FaultPlan::decide`]
/// uses) over `seed ^ seq·φ`. Every step is bijective, so ids are
/// unique per admission seq, and `(seed, seq)` alone determines the
/// id — a seeded `--faults` replay reproduces the exact ids.
fn derive_trace_id(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One structured span event of a request's trace: what happened
/// (`serve.queue`, `serve.cache`, a pipeline `stage.*`,
/// `serve.attempt`), when (nanoseconds since the server epoch), and
/// for how long.
fn trace_event(name: &str, detail: Option<String>, start_nanos: u64, dur_nanos: u64) -> Json {
    let mut pairs = vec![
        ("name", Json::str(name)),
        ("start_nanos", Json::UInt(start_nanos)),
        ("dur_nanos", Json::UInt(dur_nanos)),
    ];
    if let Some(d) = detail {
        pairs.push(("detail", Json::Str(d)));
    }
    Json::obj(pairs)
}

/// Nanoseconds from `epoch` to `at` (0 if `at` precedes it).
fn nanos_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// One parsed `check` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response
    /// (`Json::Null` when the request carried none).
    pub id: Json,
    /// Display name used to prefix rendered diagnostics.
    pub name: String,
    /// The program source.
    pub source: String,
    /// Per-request deadline override in milliseconds (falls back to
    /// [`ServeConfig::default_deadline_ms`]).
    pub deadline_ms: Option<u64>,
    /// Per-request limits override (falls back to [`ServeConfig::limits`]).
    pub limits: Option<Limits>,
    /// Echo the request's span events (queue wait, cache lookup,
    /// pipeline stages, attempts) in the response's `trace` field.
    pub trace: bool,
}

impl Request {
    /// A minimal check request for `source` with correlation id `id`.
    pub fn new(id: u64, name: impl Into<String>, source: impl Into<String>) -> Self {
        Request {
            id: Json::UInt(id),
            name: name.into(),
            source: source.into(),
            deadline_ms: None,
            limits: None,
            trace: false,
        }
    }
}

/// A parsed protocol operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// Compile a source text.
    Check(Request),
    /// Report server statistics.
    Stats(Json),
    /// Report the live metrics document (histograms, gauges, cache and
    /// interner health).
    Metrics {
        /// Correlation id to echo.
        id: Json,
        /// Restrict the document to its replay-deterministic subset
        /// (no wall clocks or scheduling-dependent gauges).
        deterministic: bool,
        /// Render Prometheus text (in the `metrics` field as a string)
        /// instead of the JSON document.
        text: bool,
    },
    /// Drain in-flight work and shut the server down.
    Shutdown(Json),
}

/// Parses one request line. `base_limits` seeds any per-request
/// `limits` override.
///
/// # Errors
///
/// Returns `(id, message)` for malformed lines — the id is whatever
/// could be salvaged (else `Json::Null`), so even an invalid request
/// gets a correlatable [`ResponseStatus::Invalid`] response.
pub fn parse_op(line: &str, base_limits: Limits) -> Result<Op, (Json, String)> {
    let doc = recmod_telemetry::json::parse(line)
        .map_err(|e| (Json::Null, format!("malformed JSON: {e}")))?;
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    if !matches!(doc, Json::Obj(_)) {
        return Err((id, "request must be a JSON object".to_string()));
    }
    let op = doc.get("op").and_then(Json::as_str).unwrap_or("check");
    match op {
        "stats" => Ok(Op::Stats(id)),
        "metrics" => Ok(Op::Metrics {
            id,
            deterministic: matches!(doc.get("deterministic"), Some(Json::Bool(true))),
            text: matches!(doc.get("format").and_then(Json::as_str), Some("text")),
        }),
        "shutdown" => Ok(Op::Shutdown(id)),
        "check" => {
            let source = doc
                .get("source")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    (
                        id.clone(),
                        "check request needs a string `source`".to_string(),
                    )
                })?
                .to_string();
            let name = doc
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("<request>")
                .to_string();
            let deadline_ms = doc.get("deadline_ms").and_then(Json::as_u64);
            let limits = match doc.get("limits") {
                None => None,
                Some(spec) => {
                    Some(parse_limits_obj(spec, base_limits).map_err(|m| (id.clone(), m))?)
                }
            };
            Ok(Op::Check(Request {
                id,
                name,
                source,
                deadline_ms,
                limits,
                trace: matches!(doc.get("trace"), Some(Json::Bool(true))),
            }))
        }
        other => Err((
            id,
            format!("unknown op `{other}` (known: check, metrics, stats, shutdown)"),
        )),
    }
}

/// Applies a request's `limits` object (same keys as `--limits`:
/// `depth`, `nodes`, `fuel`, `eval-fuel`, `eval-depth`) over `base`.
fn parse_limits_obj(spec: &Json, base: Limits) -> Result<Limits, String> {
    let Json::Obj(map) = spec else {
        return Err("`limits` must be an object".to_string());
    };
    let mut limits = base;
    for (key, value) in map {
        let n = value
            .as_u64()
            .ok_or_else(|| format!("bad value for limit `{key}`"))?;
        match key.as_str() {
            "depth" => limits.max_depth = n as usize,
            "nodes" => limits.max_nodes = n,
            "fuel" => limits.fuel = n,
            "eval-fuel" => limits.eval_fuel = n,
            "eval-depth" => limits.eval_depth = n,
            _ => {
                return Err(format!(
                    "unknown limit `{key}` (known: depth, nodes, fuel, eval-fuel, eval-depth)"
                ))
            }
        }
    }
    Ok(limits)
}

/// One response. Every submitted request — including shed, rejected,
/// and malformed ones — produces exactly one of these.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request's correlation id, echoed.
    pub id: Json,
    /// Outcome classification.
    pub status: ResponseStatus,
    /// Compile attempts consumed (0 for requests never admitted).
    pub attempts: u32,
    /// Labels of injected faults that fired across the attempts
    /// (empty for unperturbed requests).
    pub injected: Vec<&'static str>,
    /// `(name, description)` pairs for top-level bindings (ok only).
    pub summaries: Vec<(String, String)>,
    /// Structured diagnostics (S15 schema, never truncated).
    pub diags: Vec<Diagnostic>,
    /// Rendered diagnostic lines, capped by [`ServeConfig::max_errors`].
    pub rendered: Vec<String>,
    /// Human-readable note for overloaded/draining/invalid/internal
    /// responses.
    pub message: Option<String>,
    /// Server statistics (stats op only).
    pub stats: Option<Json>,
    /// The request's trace id, `{:016x}`-rendered (admitted requests
    /// only; deterministic under seeded `--faults` replay).
    pub trace_id: Option<String>,
    /// Span events for the request (`trace: true` requests only).
    pub trace: Option<Json>,
    /// The metrics document (metrics op only; a JSON object, or a
    /// string of Prometheus text when the op asked for `format: text`).
    pub metrics: Option<Json>,
}

impl Response {
    /// The response for a compile or cache verdict; `finish` fills in
    /// the id, attempts, injections and trace id.
    fn verdict(v: Verdict) -> Self {
        Response {
            summaries: v.summaries,
            diags: v.diags,
            rendered: v.rendered,
            message: None,
            ..Response::plain(Json::Null, v.status.into(), String::new())
        }
    }

    /// The `I003` response for a request that lost its worker: the
    /// internal verdict, with `why` as the message.
    fn worker_lost(name: &str, why: &str) -> Self {
        Response {
            message: Some(why.to_string()),
            ..Response::verdict(Verdict::internal(name, "I003", why.to_string()))
        }
    }

    fn plain(id: Json, status: ResponseStatus, message: impl Into<String>) -> Self {
        Response {
            id,
            status,
            attempts: 0,
            injected: Vec::new(),
            summaries: Vec::new(),
            diags: Vec::new(),
            rendered: Vec::new(),
            message: Some(message.into()),
            stats: None,
            trace_id: None,
            trace: None,
            metrics: None,
        }
    }

    /// The schema-versioned JSON document for this response (emit with
    /// `to_compact()` — the protocol is one response per line).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("kind", Json::str("response")),
            ("id", self.id.clone()),
            ("status", Json::str(self.status.label())),
            ("exit", Json::UInt(u64::from(self.status.exit()))),
            ("attempts", Json::UInt(u64::from(self.attempts))),
        ];
        if !self.injected.is_empty() {
            pairs.push((
                "injected",
                Json::Arr(self.injected.iter().map(|l| Json::str(*l)).collect()),
            ));
        }
        if !self.summaries.is_empty() {
            pairs.push((
                "summaries",
                Json::Arr(
                    self.summaries
                        .iter()
                        .map(|(n, d)| {
                            Json::obj([
                                ("name", Json::str(n.clone())),
                                ("desc", Json::str(d.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !self.diags.is_empty() {
            pairs.push((
                "diagnostics",
                Json::Arr(self.diags.iter().map(Diagnostic::to_json).collect()),
            ));
        }
        if !self.rendered.is_empty() {
            pairs.push((
                "rendered",
                Json::Arr(self.rendered.iter().map(|l| Json::str(l.clone())).collect()),
            ));
        }
        if let Some(m) = &self.message {
            pairs.push(("message", Json::str(m.clone())));
        }
        if let Some(s) = &self.stats {
            pairs.push(("stats", s.clone()));
        }
        if let Some(t) = &self.trace_id {
            pairs.push(("trace_id", Json::str(t.clone())));
        }
        if let Some(t) = &self.trace {
            pairs.push(("trace", t.clone()));
        }
        if let Some(m) = &self.metrics {
            pairs.push(("metrics", m.clone()));
        }
        Json::obj(pairs)
    }
}

/// Compile-service settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each with its own stack, interner, and kernel
    /// caches).
    pub workers: usize,
    /// Admission-queue bound; requests beyond it are shed with
    /// [`ResponseStatus::Overloaded`]. `0` sheds everything (useful to
    /// smoke-test the shedding path).
    pub queue_depth: usize,
    /// Base resource limits for every request.
    pub limits: Limits,
    /// Default per-request wall-clock deadline. Deadlines are the
    /// service's *cancellation* mechanism — the kernel's amortized
    /// checks unwind structurally — so leaving this `None` means a
    /// pathological request can only be flagged by the watchdog, never
    /// cancelled.
    pub default_deadline_ms: Option<u64>,
    /// Rendered diagnostics per response before eliding the rest.
    pub max_errors: usize,
    /// Base retry backoff in milliseconds (doubles per attempt).
    pub backoff_ms: u64,
    /// Deterministic fault plan; `None` disables injection entirely.
    pub faults: Option<FaultPlan>,
    /// Directory for crash bundles on limit/internal outcomes and
    /// worker deaths; `None` disables bundle writing.
    pub crash_dir: Option<PathBuf>,
    /// Emit supervisor events (worker death, respawn, overdue
    /// requests) as JSON lines on stderr.
    pub log_events: bool,
    /// Consult (and populate) the on-disk artifact cache before
    /// compiling each request; a request with a fault armed neither
    /// reads nor writes it. Advisory: cache-layer failures degrade to
    /// compiling and surface as `C00x` warnings, never in verdicts.
    pub cache: Option<crate::cache::CacheConfig>,
    /// Seed for per-request trace ids. The CLI uses the `--faults`
    /// plan seed when one is given (so a chaos replay reproduces the
    /// ids), else 0 — ids are unique per admission seq either way.
    pub trace_seed: u64,
    /// Profile the whole session: accumulate per-worker span lanes and
    /// supervision instants for Chrome-trace export via
    /// [`Server::session_trace_json`].
    pub profile: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 256,
            limits: Limits::default(),
            default_deadline_ms: Some(30_000),
            max_errors: 20,
            backoff_ms: 5,
            faults: None,
            crash_dir: None,
            log_events: false,
            cache: None,
            trace_seed: 0,
            profile: false,
        }
    }
}

/// Declares the service's request counters, each once: its doc, its
/// name (a [`ServerStats`] field, its key in the `stats` and `metrics`
/// documents, and its `event` label on `recmod_serve_requests_total`),
/// and whether it belongs to the replay-deterministic `metrics` subset.
/// Generates [`ServerStats`], the atomics behind it, and the one row
/// list ([`ServerStats::counters`]) that every view renders.
macro_rules! request_counters {
    ($($(#[doc = $doc:literal])* $name:ident: deterministic = $det:literal,)*) => {
        /// A snapshot of the service's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl ServerStats {
            /// `(name, deterministic, value)` for every counter, in
            /// declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, bool, u64)> {
                [$((stringify!($name), $det, self.$name)),*].into_iter()
            }
        }

        #[derive(Default)]
        struct Counters {
            $($name: AtomicU64,)*
        }

        impl Counters {
            fn snapshot(&self) -> ServerStats {
                ServerStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

// The scheduling-dependent counters (spawn failures, watchdog flags,
// and the spawned/joined pair) stay out of the deterministic subset.
request_counters! {
    /// Requests admitted to the queue.
    accepted: deterministic = true,
    /// Requests answered (one response each).
    completed: deterministic = true,
    /// Requests shed by admission control.
    shed: deterministic = true,
    /// Requests rejected while draining.
    rejected_draining: deterministic = true,
    /// Malformed request lines answered with `invalid`.
    invalid: deterministic = true,
    /// Attempts requeued after a transient failure.
    retries: deterministic = true,
    /// Dead workers replaced by the supervisor.
    respawns: deterministic = true,
    /// Worker spawn attempts that failed outright.
    spawn_failures: deterministic = false,
    /// Requests flagged by the watchdog as past deadline + grace.
    watchdog_late: deterministic = false,
    /// Injected panics that fired.
    injected_panic: deterministic = true,
    /// Injected allocation-budget trips that fired.
    injected_alloc: deterministic = true,
    /// Injected deadline storms that fired.
    injected_deadline: deterministic = true,
    /// Injected worker kills that fired.
    injected_kill: deterministic = true,
    /// Worker threads ever spawned.
    workers_spawned: deterministic = false,
    /// Worker threads reaped (joined) — equals `workers_spawned` after
    /// a clean shutdown, which is the "no leaked workers" invariant.
    workers_joined: deterministic = false,
    /// Requests whose worker finished with a non-empty diag frame
    /// stack (flight-recorder imbalance; must stay 0).
    frame_imbalance: deterministic = true,
}

impl ServerStats {
    /// The counters as a JSON object, as the `stats` document carries
    /// them; with `deterministic`, only the replay-deterministic subset.
    pub fn to_json(&self, deterministic: bool) -> Json {
        Json::obj(
            self.counters()
                .filter(|&(_, det, _)| det || !deterministic)
                .map(|(name, _, n)| (name, Json::UInt(n))),
        )
    }
}

impl Counters {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn fired(&self, kind: FaultKind) {
        Counters::bump(match kind {
            FaultKind::Panic => &self.injected_panic,
            FaultKind::Alloc => &self.injected_alloc,
            FaultKind::Deadline => &self.injected_deadline,
            FaultKind::Kill => &self.injected_kill,
        });
    }
}

/// A worker thread's interner health, snapshotted between requests.
///
/// The interning tables are thread-local, so only the worker itself can
/// observe them; it publishes a plain-data snapshot here right after
/// the between-requests [`intern::sweep_now`], and the `stats` and
/// `metrics` ops read the slots from the connection thread.
/// `swept_entries` accumulates
/// the entries those sweeps reclaimed — occupancy (`con_entries` +
/// `kind_entries` + `ty_entries`) measures the *live* working set, this measures the
/// per-request garbage the sweeps are catching.
#[derive(Default, Clone, Copy)]
struct WorkerIntern {
    stats: InternStats,
    swept_entries: u64,
    requests: u64,
}

impl WorkerIntern {
    fn to_json(self, wid: usize) -> Json {
        Json::obj([
            ("worker", Json::UInt(wid as u64)),
            ("requests", Json::UInt(self.requests)),
            ("intern_hits", Json::UInt(self.stats.hits)),
            ("intern_misses", Json::UInt(self.stats.misses)),
            ("intern_sweeps", Json::UInt(self.stats.sweeps)),
            ("con_entries", Json::UInt(self.stats.con_entries)),
            ("kind_entries", Json::UInt(self.stats.kind_entries)),
            ("ty_entries", Json::UInt(self.stats.ty_entries)),
            ("swept_entries", Json::UInt(self.swept_entries)),
        ])
    }
}

/// An admitted request waiting in, or taken from, the queue.
struct Pending {
    req: Request,
    reply: Sender<Response>,
    seq: u64,
    attempts: u32,
    injection: Option<Injection>,
    not_before: Option<Instant>,
    injected: Vec<&'static str>,
    /// Derived at admission (see [`derive_trace_id`]); rendered into
    /// every response for an admitted request.
    trace_id: u64,
    /// Admission instant: end-to-end latency is measured from here.
    queued_at: Instant,
    /// Last (re)enqueue instant: per-attempt queue wait is measured
    /// from here (equals `queued_at` until a retry requeues).
    last_enqueued: Instant,
    /// Accumulated span events across attempts (see [`trace_event`]);
    /// echoed in the response when the request asked for `trace`.
    events: Vec<Json>,
}

/// Queue state behind the admission mutex.
struct State {
    queue: VecDeque<Pending>,
    draining: bool,
    /// Requests currently being compiled (taken from the queue, not
    /// yet answered or requeued).
    inflight_count: usize,
    next_seq: u64,
    workers_alive: usize,
}

/// Per-worker slot the supervisor can inspect: the request being
/// compiled (moved here for the compile's duration, so a dead worker's
/// request is recoverable) plus forensics captured on the way down.
#[derive(Default)]
struct InFlight {
    pending: Option<Pending>,
    crash: Option<tdiag::CrashData>,
    deadline: Option<Instant>,
    flagged: bool,
    /// When the worker started this attempt; the supervisor uses it to
    /// close the attempt's span event if the worker dies.
    started: Option<Instant>,
}

/// The service's latency/work distributions. All [`Histogram`]s, so
/// recording on the hot path is a few relaxed atomics — no locks, no
/// sink traffic, no S14 counter perturbation.
#[derive(Default)]
struct ServeMetrics {
    /// End-to-end per-request latency (admission to response), nanos.
    latency: Histogram,
    /// Queue wait per attempt (admission/requeue to dispatch), nanos.
    queue_wait: Histogram,
    /// Compile wall time per attempt, nanos.
    compile: Histogram,
    /// Deterministic work units per attempt: flight-recorder events
    /// across the dispatch (pure function of source and limits for
    /// completed attempts, so this distribution is byte-stable across
    /// seeded replays).
    work: Histogram,
}

/// Accumulated state of a profiled serve session ([`ServeConfig::profile`]):
/// per-worker span lanes, one file event per attempt, and supervision
/// instants, exported as one Chrome trace by
/// [`Server::session_trace_json`].
struct SessionProfile {
    /// Per-worker merged reports (lane index = worker id).
    lanes: Vec<Report>,
    /// The supervisor's (empty) lane, so its tid gets a name.
    supervisor: Report,
    /// One complete event per compile attempt.
    files: Vec<FileEvent>,
    /// Instants: sheds, fired faults, worker deaths, respawns, drain.
    marks: Vec<Mark>,
}

struct Core {
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    stats: Counters,
    inflight: Vec<Mutex<InFlight>>,
    worker_intern: Vec<Mutex<WorkerIntern>>,
    artifact_cache: Option<crate::cache::Cache>,
    /// `cfg.cache` was given but the directory was unusable (`C003`);
    /// the service runs uncached and the metrics document says so.
    cache_open_failed: bool,
    /// The service clock origin: uptime, span offsets, and session
    /// marks are all measured from here.
    epoch: Instant,
    metrics: ServeMetrics,
    /// Final response statuses, indexed by `status as usize`.
    status_counts: [AtomicU64; ResponseStatus::ALL.len()],
    /// Per-worker busy nanoseconds (time spent serving attempts).
    worker_busy: Vec<AtomicU64>,
    session: Option<Mutex<SessionProfile>>,
}

/// Locks a service mutex, recovering from poisoning: all guarded state
/// is plain data (queues, options, counters) that is never left
/// half-mutated across a panic point.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Core {
    /// The limits `req` compiles under: its override or the service's
    /// base limits, with a fresh absolute deadline from its own or the
    /// default deadline. Crash bundles record these same limits.
    fn limits_for(&self, req: &Request) -> Limits {
        let base = req.limits.unwrap_or(self.cfg.limits);
        (req.deadline_ms.or(self.cfg.default_deadline_ms))
            .map_or(base, |ms| base.with_deadline_ms(ms))
    }

    /// Nanoseconds since the service epoch.
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interner entries across the workers, as each last published
    /// them after its between-requests sweep.
    fn intern_entries(&self) -> u64 {
        self.worker_intern
            .iter()
            .map(|m| lock(m).stats.entries())
            .sum()
    }

    /// The supervisor's lane id (one past the worker lanes).
    fn supervisor_tid(&self) -> u64 {
        self.inflight.len() as u64
    }

    fn status_bump(&self, status: ResponseStatus) {
        self.status_counts[status as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// `(label, count)` for every response status, in declaration order.
    fn statuses(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ResponseStatus::ALL.into_iter().map(|s| {
            (
                s.label(),
                self.status_counts[s as usize].load(Ordering::Relaxed),
            )
        })
    }

    /// Records a session-profile instant (no-op unless profiling).
    fn mark(&self, name: impl Into<String>, tid: u64) {
        if let Some(sess) = &self.session {
            let at_nanos = self.now_nanos();
            lock(sess).marks.push(Mark {
                name: name.into(),
                tid,
                at_nanos,
            });
        }
    }

    /// Records a completed attempt on the session profile: the file
    /// event for the timeline, plus the attempt's merged span report
    /// when the worker captured one. No-op unless profiling.
    fn session_attempt(&self, wid: usize, file: FileEvent, report: Option<Report>) {
        if let Some(sess) = &self.session {
            let mut s = lock(sess);
            s.files.push(file);
            if let (Some(lane), Some(r)) = (s.lanes.get_mut(wid), report) {
                lane.absorb(r);
            }
        }
    }

    fn log_event(&self, event: &str, fields: &[(&'static str, Json)]) {
        if !self.cfg.log_events {
            return;
        }
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("kind", Json::str("supervisor")),
            ("event", Json::str(event)),
        ];
        pairs.extend(fields.iter().cloned());
        eprintln!("{}", Json::obj(pairs).to_compact());
    }

    /// Admission control: answers immediately when draining or full,
    /// otherwise enqueues. Every path produces exactly one response.
    fn submit(&self, req: Request, reply: Sender<Response>) {
        let pending = {
            let mut st = lock(&self.state);
            if st.draining {
                Counters::bump(&self.stats.rejected_draining);
                self.status_bump(ResponseStatus::Draining);
                drop(st);
                self.mark("rejected-draining", self.supervisor_tid());
                let _ = reply.send(Response::plain(
                    req.id,
                    ResponseStatus::Draining,
                    "server is draining; request rejected",
                ));
                return;
            }
            if st.queue.len() >= self.cfg.queue_depth {
                Counters::bump(&self.stats.shed);
                self.status_bump(ResponseStatus::Overloaded);
                let depth = self.cfg.queue_depth;
                drop(st);
                self.mark("shed", self.supervisor_tid());
                let _ = reply.send(Response::plain(
                    req.id,
                    ResponseStatus::Overloaded,
                    format!("admission queue full (depth {depth}); request shed"),
                ));
                return;
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            Counters::bump(&self.stats.accepted);
            let injection = self.cfg.faults.as_ref().and_then(|p| p.decide(seq));
            st.queue.push_back(Pending {
                req,
                reply,
                seq,
                attempts: 0,
                injection,
                not_before: None,
                injected: Vec::new(),
                trace_id: derive_trace_id(self.cfg.trace_seed, seq),
                queued_at: Instant::now(),
                last_enqueued: Instant::now(),
                events: Vec::new(),
            });
            true
        };
        if pending {
            self.work.notify_one();
        }
    }

    /// Takes the next ready request, waiting as needed; `None` once
    /// the server has fully drained (worker should exit).
    fn next_work(&self) -> Option<Pending> {
        let mut st = lock(&self.state);
        loop {
            let now = Instant::now();
            if let Some(pos) = st
                .queue
                .iter()
                .position(|p| p.not_before.is_none_or(|t| t <= now))
            {
                let p = st.queue.remove(pos)?;
                st.inflight_count += 1;
                return Some(p);
            }
            if st.draining && st.queue.is_empty() && st.inflight_count == 0 {
                return None;
            }
            let wait = st
                .queue
                .iter()
                .filter_map(|p| p.not_before)
                .min()
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50))
                .max(Duration::from_millis(1));
            let (guard, _) = self
                .work
                .wait_timeout(st, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }

    /// Requeues a transiently-failed attempt with exponential backoff.
    fn retry(&self, mut p: Pending) {
        Counters::bump(&self.stats.retries);
        let shift = p.attempts.saturating_sub(1).min(6);
        p.last_enqueued = Instant::now();
        p.not_before = Some(Instant::now() + Duration::from_millis(self.cfg.backoff_ms << shift));
        {
            let mut st = lock(&self.state);
            st.inflight_count = st.inflight_count.saturating_sub(1);
            st.queue.push_back(p);
        }
        self.work.notify_all();
    }

    /// Sends the final response for an in-flight request, recording
    /// its end-to-end latency, status count, and trace document.
    fn finish(&self, p: Pending, mut resp: Response) {
        resp.id = p.req.id;
        resp.attempts = p.attempts;
        resp.injected = p.injected;
        resp.trace_id = Some(format!("{:016x}", p.trace_id));
        if p.req.trace {
            resp.trace = Some(Json::obj([("events", Json::Arr(p.events))]));
        }
        self.metrics
            .latency
            .record(p.queued_at.elapsed().as_nanos() as u64);
        self.status_bump(resp.status);
        {
            let mut st = lock(&self.state);
            st.inflight_count = st.inflight_count.saturating_sub(1);
        }
        Counters::bump(&self.stats.completed);
        self.work.notify_all();
        let _ = p.reply.send(resp);
    }

    fn write_bundle(
        &self,
        name: &str,
        source: &str,
        status: ResponseStatus,
        limits: &Limits,
        crash: &tdiag::CrashData,
    ) -> Option<PathBuf> {
        let dir = self.cfg.crash_dir.as_ref()?;
        match bundle::write_bundle(
            dir,
            name,
            source,
            status.label(),
            status.exit(),
            limits,
            crash,
        ) {
            Ok(path) => Some(path),
            Err(e) => {
                self.log_event("bundle-error", &[("message", Json::str(e))]);
                None
            }
        }
    }

    /// Recovers the request a dead worker was compiling: crash bundle,
    /// then retry (a worker death is transient by definition) or a
    /// final internal response once attempts are exhausted.
    fn handle_worker_death(&self, wid: usize) {
        let (pending, crash, started) = {
            let mut slot = lock(&self.inflight[wid]);
            slot.deadline = None;
            (slot.pending.take(), slot.crash.take(), slot.started.take())
        };
        let Some(mut p) = pending else { return };
        // Close the dead attempt's span: the worker can't anymore.
        // Keeping the queue/attempt event pairing balanced even across
        // kills is what makes trace balance a checkable invariant.
        let started = started.unwrap_or_else(Instant::now);
        let busy = started.elapsed().as_nanos() as u64;
        self.worker_busy[wid].fetch_add(busy, Ordering::Relaxed);
        p.events.push(trace_event(
            "serve.attempt",
            Some(format!("worker={wid} worker-died")),
            nanos_since(self.epoch, started),
            busy,
        ));
        self.session_attempt(
            wid,
            FileEvent {
                name: p.req.name.clone(),
                tid: wid as u64,
                start_nanos: nanos_since(self.epoch, started),
                dur_nanos: busy,
                instant: Some("worker-died".to_string()),
            },
            None,
        );
        self.log_event(
            "request-orphaned",
            &[
                ("worker", Json::UInt(wid as u64)),
                ("id", p.req.id.clone()),
                ("seq", Json::UInt(p.seq)),
                ("attempts", Json::UInt(u64::from(p.attempts))),
            ],
        );
        let crash = crash.unwrap_or_default();
        let limits = self.limits_for(&p.req);
        if let Some(path) = self.write_bundle(
            &p.req.name,
            &p.req.source,
            ResponseStatus::Internal,
            &limits,
            &crash,
        ) {
            self.log_event(
                "crash-bundle",
                &[
                    ("id", p.req.id.clone()),
                    ("path", Json::str(path.display().to_string())),
                ],
            );
        }
        if p.attempts < MAX_ATTEMPTS {
            self.retry(p);
        } else {
            let resp = Response::worker_lost(
                &p.req.name,
                "worker thread died while compiling this request",
            );
            self.finish(p, resp);
        }
    }

    /// Flags in-flight requests past deadline + grace (once each).
    /// Cancellation itself is the kernel's structural deadline unwind;
    /// the watchdog is the observer that proves liveness is monitored.
    fn watchdog_scan(&self) {
        let grace = Duration::from_millis(GRACE_MS);
        for (wid, slot) in self.inflight.iter().enumerate() {
            let mut s = lock(slot);
            if s.pending.is_none() || s.flagged {
                continue;
            }
            let Some(deadline) = s.deadline else { continue };
            if Instant::now() > deadline + grace {
                s.flagged = true;
                let id = s
                    .pending
                    .as_ref()
                    .map(|p| p.req.id.clone())
                    .unwrap_or(Json::Null);
                Counters::bump(&self.stats.watchdog_late);
                self.mark("deadline-overrun", wid as u64);
                self.log_event(
                    "deadline-overrun",
                    &[("worker", Json::UInt(wid as u64)), ("id", id)],
                );
            }
        }
    }

    fn drained(&self) -> bool {
        let st = lock(&self.state);
        st.draining && st.queue.is_empty() && st.inflight_count == 0
    }

    /// Answers everything still queued with an internal error; the
    /// last-resort path when no worker thread can be spawned at all.
    fn fail_all_queued(&self, why: &str) {
        let orphans: Vec<Pending> = {
            let mut st = lock(&self.state);
            st.queue.drain(..).collect()
        };
        for mut p in orphans {
            p.attempts = p.attempts.max(1);
            let resp = Response::worker_lost(&p.req.name, why);
            self.finish(p, resp);
        }
    }
}

fn spawn_worker(core: &Arc<Core>, wid: usize) -> Option<JoinHandle<()>> {
    let c = Arc::clone(core);
    let res = std::thread::Builder::new()
        .name(format!("recmod-serve-{wid}"))
        .stack_size(DEFAULT_STACK_SIZE)
        .spawn(move || worker_loop(&c, wid));
    match res {
        Ok(handle) => {
            Counters::bump(&core.stats.workers_spawned);
            lock(&core.state).workers_alive += 1;
            Some(handle)
        }
        Err(_) => {
            Counters::bump(&core.stats.spawn_failures);
            core.mark("spawn-failed", wid as u64);
            core.log_event("spawn-failed", &[("worker", Json::UInt(wid as u64))]);
            None
        }
    }
}

fn worker_loop(core: &Arc<Core>, wid: usize) {
    let mut elab: Option<Elaborator> = None;
    while let Some(pending) = core.next_work() {
        serve_one(core, wid, pending, &mut elab);
        // Between requests, sweep the interner: the request's syntax
        // just dropped its strong pointers, so the weak tables are
        // mostly tombstones. Sweeping here (instead of waiting for the
        // doubling high-water mark) bounds a long-lived worker's table
        // occupancy by its live working set — what the elaborator still
        // holds from the last request (its bindings and the keys of its
        // memo tables, all dropped at the next `renew`) — so repeated
        // identical requests hold occupancy flat instead of ratcheting
        // the high-water mark upward.
        let swept = intern::sweep_now();
        let mut slot = lock(&core.worker_intern[wid]);
        slot.stats = intern::intern_stats();
        slot.swept_entries += swept;
        slot.requests += 1;
    }
}

fn serve_one(
    core: &Arc<Core>,
    wid: usize,
    mut pending: Pending,
    slot_elab: &mut Option<Elaborator>,
) {
    // Per-request flight recorder, like the batch driver's per-file one.
    tdiag::reset_recorder();
    pending.attempts += 1;
    // A balanced enter/exit pair marking the dispatch in the recorder.
    // The guard drops immediately: a frame held across the compile
    // would be snapshotted into diagnostic provenance and break the
    // batch/serve verdict byte-equality the chaos fuzzer checks.
    drop(tdiag::enter("serve.dispatch"));
    let first_attempt = pending.attempts == 1;
    let injection = pending.injection;
    let name = pending.req.name.clone();
    let source = pending.req.source.clone();
    let limits = core.limits_for(&pending.req);
    let max_errors = core.cfg.max_errors;
    let dispatched = Instant::now();
    let queue_wait = dispatched.saturating_duration_since(pending.last_enqueued);
    core.metrics.queue_wait.record(queue_wait.as_nanos() as u64);
    pending.events.push(trace_event(
        "serve.queue",
        None,
        nanos_since(core.epoch, pending.last_enqueued),
        queue_wait.as_nanos() as u64,
    ));
    // A per-request profiled sink captures pipeline stage spans for
    // traced requests and session profiling. Untraced, unprofiled
    // requests never install one: their hot path stays sink-free, and
    // either way the deterministic S14 cost counters are untouched.
    let sink = pending.req.trace || core.session.is_some();
    if sink {
        recmod_telemetry::install(Config {
            epoch: Some(core.epoch),
            ..Config::profiled()
        });
    }
    // A request with a fault armed skips the lookup: the fault must
    // reach the compile it was aimed at. Its verdict is stored only if
    // no fault fired (see below).
    let key = core
        .artifact_cache
        .as_ref()
        .map(|c| (c, crate::cache_key(&source, &limits)));
    let replayed = key.filter(|_| injection.is_none()).and_then(|(c, k)| {
        let looked_up = Instant::now();
        let replayed = {
            // A recorder frame held across the lookup only: replay
            // re-renders stored diagnostics but constructs none, so no
            // provenance snapshot can observe this frame.
            let _frame = tdiag::enter("serve.cache");
            crate::replay(c, k, &name, max_errors)
        };
        pending.events.push(trace_event(
            "serve.cache",
            Some(if replayed.is_some() { "hit" } else { "miss" }.to_string()),
            nanos_since(core.epoch, looked_up),
            looked_up.elapsed().as_nanos() as u64,
        ));
        replayed
    });
    let compiled = replayed.is_none();
    let (mut pending, verdict, fired, panicked) = match replayed {
        Some(verdict) => (pending, verdict, None, false),
        None => {
            // Park the request where the supervisor can recover it if
            // this thread dies mid-compile.
            {
                let mut slot = lock(&core.inflight[wid]);
                slot.deadline = limits.deadline;
                slot.flagged = false;
                slot.crash = None;
                slot.started = Some(dispatched);
                slot.pending = Some(pending);
            }
            // Arm the injected fault on the first attempt only: retries
            // run unperturbed, which is what makes injected faults
            // *transient* — the retried verdict converges to the
            // unfaulted one.
            if first_attempt {
                if let Some(inj) = injection {
                    fault::arm(inj);
                }
            }
            let compile_started = Instant::now();
            let result = crate::attempt(&name, &source, limits, max_errors, slot_elab);
            core.metrics
                .compile
                .record(compile_started.elapsed().as_nanos() as u64);

            // Always disarm, even after a caught unwind: no fault state
            // (or deadline storm) may leak into the next request on
            // this worker.
            let fired = fault::disarm();
            if let Some(kind) = fired {
                core.stats.fired(kind);
                core.mark(format!("fault-{}", kind.label()), wid as u64);
            }
            if tdiag::frame_depth() != 0 {
                Counters::bump(&core.stats.frame_imbalance);
            }
            // An injected kill must genuinely take the worker down so
            // the supervisor's reap-and-respawn path is exercised:
            // capture the forensics, leave the request parked for the
            // supervisor, re-raise. The payload is checked before any
            // panic is classified.
            let panicked = result.is_err();
            let verdict = result.unwrap_or_else(|payload| {
                if fault::injected_kind(payload.as_ref()) == Some(FaultKind::Kill) {
                    {
                        let mut slot = lock(&core.inflight[wid]);
                        slot.crash = Some(tdiag::crash_data());
                        if let Some(parked) = slot.pending.as_mut() {
                            parked.injected.push(FaultKind::Kill.label());
                        }
                    }
                    // The thread is about to die; retire its sink first
                    // so the attempt's partial report doesn't dangle in
                    // thread-local destruction order.
                    if sink {
                        let _ = recmod_telemetry::uninstall();
                    }
                    resume_unwind(payload);
                }
                Verdict::panicked(&name, payload.as_ref())
            });
            let Some(pending) = lock(&core.inflight[wid]).pending.take() else {
                if sink {
                    let _ = recmod_telemetry::uninstall();
                }
                return;
            };
            (pending, verdict, fired, panicked)
        }
    };
    let report = if sink {
        recmod_telemetry::uninstall()
    } else {
        None
    };
    // Deterministic work units: flight-recorder events across the
    // attempt. A pure function of (source, limits, injection) — wall
    // clocks never enter the recorder — so this histogram is
    // byte-stable across seeded replays.
    core.metrics.work.record(tdiag::recorder_seq());
    if let Some(kind) = fired {
        pending.injected.push(kind.label());
    }
    if pending.req.trace {
        if let Some(r) = &report {
            for span in &r.spans {
                pending
                    .events
                    .push(trace_event(span.name, None, span.start_nanos, span.nanos));
            }
        }
    }

    let status = verdict.status;
    let busy = dispatched.elapsed().as_nanos() as u64;
    core.worker_busy[wid].fetch_add(busy, Ordering::Relaxed);
    pending.events.push(trace_event(
        "serve.attempt",
        Some(if compiled {
            format!(
                "worker={wid} status={}",
                ResponseStatus::from(status).label()
            )
        } else {
            format!("worker={wid} cache-hit")
        }),
        nanos_since(core.epoch, dispatched),
        busy,
    ));
    core.session_attempt(
        wid,
        FileEvent {
            name: name.clone(),
            tid: wid as u64,
            start_nanos: nanos_since(core.epoch, dispatched),
            dur_nanos: busy,
            instant: match status {
                FileStatus::Limit => Some("limit".to_string()),
                FileStatus::Internal => Some("internal".to_string()),
                FileStatus::Ok | FileStatus::Error => None,
            },
        },
        report,
    );

    // Transient failures retry with backoff; definitive verdicts (ok,
    // user error, genuine limit, structured internal) never do.
    let transient = match status {
        FileStatus::Ok | FileStatus::Error => false,
        FileStatus::Limit => fired.is_some(),
        FileStatus::Internal => panicked,
    };
    if transient && pending.attempts < MAX_ATTEMPTS {
        core.retry(pending);
        return;
    }
    // A verdict is a pure function of the key unless a fault perturbed
    // some attempt of this request; an armed fault that never fired
    // left the compile as it would have been.
    if compiled && pending.injected.is_empty() {
        if let Some((c, k)) = key {
            crate::store(c, k, &verdict);
        }
    }
    if matches!(status, FileStatus::Limit | FileStatus::Internal) {
        let crash = tdiag::crash_data();
        if let Some(path) = core.write_bundle(&name, &source, status.into(), &limits, &crash) {
            core.log_event(
                "crash-bundle",
                &[
                    ("id", pending.req.id.clone()),
                    ("path", Json::str(path.display().to_string())),
                ],
            );
        }
    }
    core.finish(pending, Response::verdict(verdict));
}

fn supervisor_loop(core: &Arc<Core>) {
    let workers = core.cfg.workers.max(1);
    let mut handles: Vec<Option<JoinHandle<()>>> =
        (0..workers).map(|wid| spawn_worker(core, wid)).collect();
    loop {
        for (wid, slot) in handles.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(JoinHandle::is_finished);
            if finished {
                let died = slot.take().and_then(|h| h.join().err()).is_some();
                Counters::bump(&core.stats.workers_joined);
                {
                    let mut st = lock(&core.state);
                    st.workers_alive = st.workers_alive.saturating_sub(1);
                }
                core.work.notify_all();
                if died {
                    core.mark("worker-died", wid as u64);
                    core.log_event("worker-died", &[("worker", Json::UInt(wid as u64))]);
                    core.handle_worker_death(wid);
                    if !core.drained() {
                        Counters::bump(&core.stats.respawns);
                        *slot = spawn_worker(core, wid);
                        core.mark("respawn", wid as u64);
                        core.log_event("respawn", &[("worker", Json::UInt(wid as u64))]);
                    }
                }
            } else if slot.is_none() && !core.drained() {
                // A previous spawn attempt failed; keep trying while
                // there is (or may be) work to do.
                let has_work = {
                    let st = lock(&core.state);
                    !st.queue.is_empty() || st.inflight_count > 0 || !st.draining
                };
                if has_work {
                    *slot = spawn_worker(core, wid);
                }
            }
        }
        if handles.iter().all(Option::is_none) {
            if core.drained() {
                break;
            }
            let stuck = {
                let st = lock(&core.state);
                !st.queue.is_empty()
            };
            if stuck {
                // No worker could be (re)spawned and requests are
                // waiting: answer them rather than wedge.
                core.fail_all_queued("no worker threads available");
            }
            if lock(&core.state).draining {
                break;
            }
        }
        core.watchdog_scan();
        std::thread::sleep(Duration::from_millis(2));
    }
    core.work.notify_all();
}

/// A running compile service. Dropping it (or calling
/// [`Server::shutdown`]) drains in-flight work, joins every worker,
/// and joins the supervisor — no leaked threads.
pub struct Server {
    core: Arc<Core>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the service: spawns the supervisor, which spawns the
    /// workers.
    ///
    /// # Errors
    ///
    /// Returns a message when the supervisor thread cannot be spawned
    /// (workers failing to spawn is survivable — the supervisor keeps
    /// retrying — but no supervisor means no service).
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        let workers = cfg.workers.max(1);
        // An unusable cache directory degrades to serving uncached: the
        // C003 warning goes to stderr once, the service still starts.
        let artifact_cache = cfg.cache.as_ref().and_then(|c| {
            crate::cache::Cache::open(c)
                .map_err(|w| eprintln!("{}", w.render()))
                .ok()
        });
        let cache_open_failed = cfg.cache.is_some() && artifact_cache.is_none();
        let session = cfg.profile.then(|| {
            Mutex::new(SessionProfile {
                lanes: vec![Report::default(); workers],
                supervisor: Report::default(),
                files: Vec::new(),
                marks: Vec::new(),
            })
        });
        let core = Arc::new(Core {
            cfg,
            artifact_cache,
            cache_open_failed,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
                inflight_count: 0,
                next_seq: 0,
                workers_alive: 0,
            }),
            work: Condvar::new(),
            stats: Counters::default(),
            inflight: (0..workers)
                .map(|_| Mutex::new(InFlight::default()))
                .collect(),
            worker_intern: (0..workers)
                .map(|_| Mutex::new(WorkerIntern::default()))
                .collect(),
            epoch: Instant::now(),
            metrics: ServeMetrics::default(),
            status_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            worker_busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            session,
        });
        let c = Arc::clone(&core);
        let supervisor = std::thread::Builder::new()
            .name("recmod-supervise".to_string())
            .spawn(move || supervisor_loop(&c))
            .map_err(|e| format!("cannot spawn supervisor thread: {e}"))?;
        Ok(Server {
            core,
            supervisor: Some(supervisor),
        })
    }

    /// Submits a check request; its single response arrives on `reply`.
    pub fn submit(&self, req: Request, reply: Sender<Response>) {
        self.core.submit(req, reply);
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats.snapshot()
    }

    /// The full stats document served by the `stats` op: the counter
    /// snapshot plus a `workers` array reporting each worker's interner
    /// health (table occupancy, sweep counts, entries reclaimed by the
    /// between-requests sweeps) as last published by that worker.
    pub fn stats_json(&self) -> Json {
        let mut doc = self.stats().to_json(false);
        let workers: Vec<Json> = self
            .core
            .worker_intern
            .iter()
            .enumerate()
            .map(|(wid, m)| lock(m).to_json(wid))
            .collect();
        if let Json::Obj(map) = &mut doc {
            map.insert("workers".to_owned(), Json::Arr(workers));
            map.insert("cache".to_owned(), self.cache_json());
        }
        doc
    }

    /// The cache-health object shared by the `stats` and `metrics`
    /// documents: the `cache.*` counters (hits/misses/stores, `C001`
    /// I/O errors, `C002` corrupt entries, GC evictions) plus whether
    /// the cache is enabled and whether opening it failed (`C003`).
    fn cache_json(&self) -> Json {
        let mut pairs = vec![
            ("enabled", Json::Bool(self.core.artifact_cache.is_some())),
            ("open_failed", Json::Bool(self.core.cache_open_failed)),
        ];
        if let Some(cache) = &self.core.artifact_cache {
            pairs.push(("counters", cache.stats().to_json()));
        }
        Json::obj(pairs)
    }

    /// The live metrics document served by the `metrics` op:
    /// [`METRICS_SCHEMA_VERSION`]-stamped, carrying the request
    /// counters, response-status counts, queue gauges, the four
    /// latency/work [`Histogram`]s, cache health, and interner
    /// occupancy.
    ///
    /// With `deterministic`, the document is restricted to the subset
    /// that is a pure function of the request sequence and the fault
    /// plan — no wall clocks, no scheduling-dependent gauges — so two
    /// seeded `--faults` replays of the same requests render
    /// byte-identical documents.
    pub fn metrics_json(&self, deterministic: bool) -> Json {
        let core = &self.core;
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("kind", Json::str("metrics")),
            ("metrics_schema_version", Json::UInt(METRICS_SCHEMA_VERSION)),
            ("deterministic", Json::Bool(deterministic)),
            ("requests", self.stats().to_json(deterministic)),
            (
                "status",
                Json::obj(core.statuses().map(|(label, n)| (label, Json::UInt(n)))),
            ),
            ("work_units", core.metrics.work.snapshot().to_json()),
        ];
        if deterministic {
            return Json::obj(pairs);
        }
        let uptime = core.now_nanos();
        let (depth, inflight, alive) = {
            let st = lock(&core.state);
            (st.queue.len(), st.inflight_count, st.workers_alive)
        };
        pairs.push(("uptime_nanos", Json::UInt(uptime)));
        pairs.push((
            "queue",
            Json::obj([
                ("depth", Json::UInt(depth as u64)),
                ("capacity", Json::UInt(core.cfg.queue_depth as u64)),
                ("inflight", Json::UInt(inflight as u64)),
                ("workers_alive", Json::UInt(alive as u64)),
                ("workers_configured", Json::UInt(core.inflight.len() as u64)),
            ]),
        ));
        pairs.push(("latency_nanos", core.metrics.latency.snapshot().to_json()));
        pairs.push((
            "queue_wait_nanos",
            core.metrics.queue_wait.snapshot().to_json(),
        ));
        pairs.push(("compile_nanos", core.metrics.compile.snapshot().to_json()));
        pairs.push(("cache", self.cache_json()));
        pairs.push((
            "intern",
            Json::obj([("entries", Json::UInt(core.intern_entries()))]),
        ));
        let workers: Vec<Json> = core
            .worker_busy
            .iter()
            .enumerate()
            .map(|(wid, busy)| {
                let busy = busy.load(Ordering::Relaxed);
                let utilization = if uptime == 0 {
                    0.0
                } else {
                    busy as f64 / uptime as f64
                };
                Json::obj([
                    ("worker", Json::UInt(wid as u64)),
                    ("busy_nanos", Json::UInt(busy)),
                    ("utilization", Json::Float(utilization)),
                ])
            })
            .collect();
        pairs.push(("workers", Json::Arr(workers)));
        Json::obj(pairs)
    }

    /// The metrics document rendered as Prometheus exposition text
    /// (time histograms in seconds, ratios as gauges), for scraping
    /// without a JSON-aware collector.
    pub fn metrics_text(&self) -> String {
        let core = &self.core;
        let mut out = PromText::new();
        for (event, _, n) in self.stats().counters() {
            out.counter("recmod_serve_requests_total", &[("event", event)], n);
        }
        for (label, n) in core.statuses() {
            out.counter("recmod_serve_responses_total", &[("status", label)], n);
        }
        let uptime = core.now_nanos();
        let (depth, inflight, alive) = {
            let st = lock(&core.state);
            (st.queue.len(), st.inflight_count, st.workers_alive)
        };
        out.gauge("recmod_serve_uptime_seconds", &[], uptime as f64 / 1e9);
        out.gauge("recmod_serve_queue_depth", &[], depth as f64);
        out.gauge(
            "recmod_serve_queue_capacity",
            &[],
            core.cfg.queue_depth as f64,
        );
        out.gauge("recmod_serve_inflight", &[], inflight as f64);
        out.gauge("recmod_serve_workers_alive", &[], alive as f64);
        out.histogram(
            "recmod_serve_latency_seconds",
            &core.metrics.latency.snapshot(),
            1e9,
        );
        out.histogram(
            "recmod_serve_queue_wait_seconds",
            &core.metrics.queue_wait.snapshot(),
            1e9,
        );
        out.histogram(
            "recmod_serve_compile_seconds",
            &core.metrics.compile.snapshot(),
            1e9,
        );
        out.histogram(
            "recmod_serve_work_units",
            &core.metrics.work.snapshot(),
            1.0,
        );
        if let Some(cache) = &core.artifact_cache {
            cache.stats().write_prom(&mut out);
        }
        out.gauge("recmod_intern_entries", &[], core.intern_entries() as f64);
        for (wid, busy) in core.worker_busy.iter().enumerate() {
            out.gauge(
                "recmod_worker_busy_seconds",
                &[("worker", &wid.to_string())],
                busy.load(Ordering::Relaxed) as f64 / 1e9,
            );
        }
        out.finish()
    }

    /// Exports the profiled session ([`ServeConfig::profile`]) as one
    /// Chrome-trace document: per-worker span lanes, one complete
    /// event per compile attempt, and supervision instants (sheds,
    /// fired faults, deaths, respawns, drain) on a supervisor lane.
    /// `None` when the session is not being profiled.
    pub fn session_trace_json(&self) -> Option<Json> {
        let sess = self.core.session.as_ref()?;
        let s = lock(sess);
        let mut lanes: Vec<Lane<'_>> = s
            .lanes
            .iter()
            .enumerate()
            .map(|(wid, report)| Lane {
                tid: wid as u64,
                name: format!("worker {wid}"),
                report,
            })
            .collect();
        lanes.push(Lane {
            tid: self.core.supervisor_tid(),
            name: "supervisor".to_string(),
            report: &s.supervisor,
        });
        Some(chrome_trace::export_session(
            "recmodc serve",
            &lanes,
            &s.files,
            &s.marks,
        ))
    }

    /// Is the server draining (new requests are being rejected)?
    pub fn is_draining(&self) -> bool {
        lock(&self.core.state).draining
    }

    /// Drains the artifact cache's accumulated health warnings
    /// (`C001`/`C002`). The CLI prints them to stderr when a connection
    /// closes; they never affect responses.
    pub fn cache_warnings(&self) -> Vec<crate::cache::CacheWarning> {
        self.core
            .artifact_cache
            .as_ref()
            .map(crate::cache::Cache::take_warnings)
            .unwrap_or_default()
    }

    /// Handles one protocol line: parse, dispatch, and answer on
    /// `reply`. Returns `false` once a `shutdown` op has been served
    /// (the connection loop should stop reading).
    pub fn handle_line(&self, line: &str, reply: &Sender<Response>) -> bool {
        match parse_op(line, self.core.cfg.limits) {
            Err((id, message)) => {
                Counters::bump(&self.core.stats.invalid);
                self.core.status_bump(ResponseStatus::Invalid);
                let _ = reply.send(Response::plain(id, ResponseStatus::Invalid, message));
                true
            }
            Ok(Op::Check(req)) => {
                self.core.submit(req, reply.clone());
                true
            }
            Ok(Op::Stats(id)) => {
                let mut resp = Response::plain(id, ResponseStatus::Ok, "stats");
                resp.stats = Some(self.stats_json());
                let _ = reply.send(resp);
                true
            }
            Ok(Op::Metrics {
                id,
                deterministic,
                text,
            }) => {
                let mut resp = Response::plain(id, ResponseStatus::Ok, "metrics");
                resp.metrics = Some(if text {
                    Json::Str(self.metrics_text())
                } else {
                    self.metrics_json(deterministic)
                });
                let _ = reply.send(resp);
                true
            }
            Ok(Op::Shutdown(id)) => {
                self.drain();
                let _ = reply.send(Response::plain(
                    id,
                    ResponseStatus::Ok,
                    "drained; shutting down",
                ));
                false
            }
        }
    }

    /// Starts draining and blocks until every queued and in-flight
    /// request has been answered and all workers have exited.
    pub fn drain(&self) {
        let newly_draining = {
            let mut st = lock(&self.core.state);
            let newly = !st.draining;
            st.draining = true;
            newly
        };
        if newly_draining {
            self.core.mark("drain", self.core.supervisor_tid());
        }
        self.core.work.notify_all();
        let mut st = lock(&self.core.state);
        while !(st.queue.is_empty() && st.inflight_count == 0 && st.workers_alive == 0) {
            let (guard, _) = self
                .core
                .work
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            st = guard;
        }
    }

    /// Drains and joins the supervisor. Idempotent.
    pub fn shutdown(&mut self) {
        self.drain();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one protocol connection: reads request lines from `reader`,
/// writes one compact-JSON response line per request to `writer`
/// (responses may arrive out of request order — correlate by id).
/// Returns when the peer closes the stream or a `shutdown` op has been
/// served; all responses for requests read from this connection are
/// flushed before returning.
pub fn serve_connection<R: BufRead, W: Write + Send>(server: &Server, reader: R, mut writer: W) {
    let (tx, rx) = std::sync::mpsc::channel::<Response>();
    std::thread::scope(|scope| {
        let writer_handle = scope.spawn(move || {
            let mut wedged = false;
            for resp in rx {
                if wedged {
                    continue; // drain remaining responses; peer is gone
                }
                let line = resp.to_json().to_compact();
                if writeln!(writer, "{line}")
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    wedged = true;
                }
            }
        });
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            if !server.handle_line(&line, &tx) {
                break;
            }
        }
        // Closing our sender lets the writer exit once every pending
        // request (each holding a sender clone) has answered.
        drop(tx);
        let _ = writer_handle.join();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn quiet_cfg() -> ServeConfig {
        ServeConfig {
            default_deadline_ms: Some(10_000),
            ..ServeConfig::default()
        }
    }

    /// A source with enough declarations that any injected fault
    /// (trigger ≤ 64 judgement boundaries) is guaranteed to fire.
    fn busy_source() -> String {
        (0..80).map(|i| format!("val x{i} = {i} + {i}\n")).collect()
    }

    #[test]
    fn ok_and_error_round_trip() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let (tx, rx) = channel();
        server.submit(Request::new(1, "ok.rm", "val x = 1 + 2"), tx.clone());
        server.submit(Request::new(2, "bad.rm", "val y = zz"), tx);
        let mut got = [None, None];
        for _ in 0..2 {
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let idx = r.id.as_u64().unwrap() as usize - 1;
            got[idx] = Some(r);
        }
        let ok = got[0].take().unwrap();
        assert_eq!(ok.status, ResponseStatus::Ok);
        assert_eq!(ok.attempts, 1);
        assert!(!ok.summaries.is_empty());
        let bad = got[1].take().unwrap();
        assert_eq!(bad.status, ResponseStatus::Error);
        assert!(!bad.diags.is_empty());
        assert!(bad.rendered.iter().any(|l| l.contains("bad.rm:")));
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.workers_spawned, stats.workers_joined);
    }

    /// Polls the stats document until the (single) worker has published
    /// a between-requests interner snapshot covering `want_requests`
    /// completed requests, then returns that worker's entry. Polling is
    /// needed because the worker publishes *after* sending the
    /// response, so the caller's receive can race the snapshot.
    fn worker_snapshot(server: &Server, want_requests: u64) -> Json {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let doc = server.stats_json();
            if let Some(Json::Arr(ws)) = doc.get("workers") {
                if let Some(w) = ws.iter().find(|w| {
                    w.get("requests").and_then(Json::as_u64).unwrap_or(0) >= want_requests
                }) {
                    return w.clone();
                }
            }
            assert!(
                Instant::now() < deadline,
                "worker never published an interner snapshot for {want_requests} requests"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn worker_intern_occupancy_stabilizes_across_identical_requests() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let run_one = |id: u64, src: String| {
            let (tx, rx) = channel();
            server.submit(Request::new(id, "same.rm", src), tx);
            let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(r.status, ResponseStatus::Ok);
        };
        for id in 1..=4 {
            run_one(id, busy_source());
        }
        let early = worker_snapshot(&server, 4);
        for id in 5..=10 {
            run_one(id, busy_source());
        }
        let late = worker_snapshot(&server, 10);
        let occupancy = |w: &Json| {
            w.get("con_entries").and_then(Json::as_u64).unwrap()
                + w.get("kind_entries").and_then(Json::as_u64).unwrap()
        };
        // The between-requests sweep bounds the worker's tables by its
        // live working set: six more copies of the same request must
        // not grow them.
        assert!(
            occupancy(&late) <= occupancy(&early),
            "interner occupancy grew on identical requests: {} then {}",
            occupancy(&early),
            occupancy(&late),
        );
        assert!(
            late.get("intern_sweeps").and_then(Json::as_u64).unwrap() >= 10,
            "every request boundary should sweep"
        );
        // An identical request re-interns into the very nodes the
        // renewed elaborator held until it started, so it leaves no
        // garbage; a differing one drops what only the last request
        // used, and the sweep after it must reclaim that.
        run_one(
            11,
            "fun flip (b : bool) : bool = if b then false else true".into(),
        );
        let after = worker_snapshot(&server, 11);
        assert!(
            after.get("swept_entries").and_then(Json::as_u64).unwrap() > 0,
            "sweeps should reclaim the per-request garbage"
        );
        server.shutdown();
    }

    #[test]
    fn queue_depth_zero_sheds_with_overloaded() {
        let mut server = Server::start(ServeConfig {
            queue_depth: 0,
            ..quiet_cfg()
        })
        .unwrap();
        let (tx, rx) = channel();
        server.submit(Request::new(7, "x.rm", "val x = 1"), tx);
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, ResponseStatus::Overloaded);
        assert_eq!(r.status.exit(), EXIT_OVERLOADED);
        assert_eq!(r.id.as_u64(), Some(7));
        server.shutdown();
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn draining_server_rejects_new_requests() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        server.drain();
        let (tx, rx) = channel();
        server.submit(Request::new(1, "x.rm", "val x = 1"), tx);
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, ResponseStatus::Draining);
        assert_eq!(r.status.exit(), EXIT_DRAINING);
        server.shutdown();
    }

    #[test]
    fn injected_kill_respawns_worker_and_answers() {
        let mut server = Server::start(ServeConfig {
            faults: Some(FaultPlan::always(11, Some(FaultKind::Kill))),
            backoff_ms: 1,
            ..quiet_cfg()
        })
        .unwrap();
        let (tx, rx) = channel();
        server.submit(Request::new(1, "k.rm", busy_source()), tx);
        let r = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        // First attempt dies with the worker; the retry (unfaulted by
        // construction) answers with the true verdict.
        assert_eq!(r.status, ResponseStatus::Ok);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.injected, vec!["kill"]);
        server.shutdown();
        let stats = server.stats();
        assert!(stats.respawns >= 1, "worker death must respawn");
        assert_eq!(stats.injected_kill, 1);
        assert_eq!(stats.workers_spawned, stats.workers_joined);
    }

    #[test]
    fn worker_death_bundle_records_the_request_limits() {
        let dir = std::env::temp_dir().join(format!("recmod-serve-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut server = Server::start(ServeConfig {
            faults: Some(FaultPlan::always(11, Some(FaultKind::Kill))),
            backoff_ms: 1,
            crash_dir: Some(dir.clone()),
            ..quiet_cfg()
        })
        .unwrap();
        let (tx, rx) = channel();
        let mut req = Request::new(1, "k.rm", busy_source());
        req.deadline_ms = Some(7777);
        server.submit(req, tx);
        let r = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(r.status, ResponseStatus::Ok);
        assert_eq!(r.injected, vec!["kill"]);
        server.shutdown();
        // The kill is the only failed attempt, so the supervisor's
        // worker-death bundle is the only bundle.
        let bundles: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(bundles.len(), 1, "{bundles:?}");
        let doc =
            recmod_telemetry::json::parse(&std::fs::read_to_string(&bundles[0]).unwrap()).unwrap();
        let deadline = doc
            .get("limits")
            .and_then(|l| l.get("deadline_ms"))
            .and_then(Json::as_u64);
        assert_eq!(deadline, Some(7777));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_retries_to_the_unfaulted_verdict() {
        let mut server = Server::start(ServeConfig {
            faults: Some(FaultPlan::always(5, Some(FaultKind::Panic))),
            backoff_ms: 1,
            ..quiet_cfg()
        })
        .unwrap();
        let (tx, rx) = channel();
        server.submit(Request::new(1, "p.rm", busy_source()), tx);
        let r = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(r.status, ResponseStatus::Ok);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.injected, vec!["panic"]);
        server.shutdown();
        assert_eq!(server.stats().injected_panic, 1);
        assert_eq!(server.stats().retries, 1);
    }

    #[test]
    fn genuine_deadline_limit_is_not_retried() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let (tx, rx) = channel();
        let mut req = Request::new(1, "slow.rm", "val x = 1 + 2");
        req.deadline_ms = Some(0);
        server.submit(req, tx);
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, ResponseStatus::Limit);
        assert_eq!(
            r.attempts, 1,
            "genuine limits are definitive, never retried"
        );
        assert!(r.diags.iter().any(|d| d.code == "L004"), "{:?}", r.diags);
        server.shutdown();
    }

    #[test]
    fn malformed_lines_get_invalid_responses() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let (tx, rx) = channel();
        assert!(server.handle_line("{not json", &tx));
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, ResponseStatus::Invalid);
        assert_eq!(r.status.exit(), EXIT_INVALID);
        assert!(server.handle_line("{\"id\": 9, \"op\": \"bogus\"}", &tx));
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, ResponseStatus::Invalid);
        assert_eq!(r.id.as_u64(), Some(9));
        assert!(server.handle_line("{\"id\": 3}", &tx));
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, ResponseStatus::Invalid);
        server.shutdown();
        assert_eq!(server.stats().invalid, 3);
    }

    #[test]
    fn per_request_limits_override() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let (tx, rx) = channel();
        assert!(server.handle_line(
            "{\"id\": 1, \"source\": \"val x = 1 + 2\", \"limits\": {\"nodes\": 2}}",
            &tx
        ));
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(r.status, ResponseStatus::Limit, "{:?}", r.rendered);
        server.shutdown();
    }

    #[test]
    fn stats_and_shutdown_ops_round_trip_over_a_connection() {
        let mut server = Server::start(quiet_cfg()).unwrap();
        let input = "{\"id\": 1, \"source\": \"val x = 1 + 2\"}\n\
                     {\"id\": 2, \"op\": \"stats\"}\n\
                     {\"id\": 3, \"op\": \"shutdown\"}\n";
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&server, input.as_bytes(), &mut out);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        for line in &lines {
            let doc = recmod_telemetry::json::parse(line).unwrap();
            assert_eq!(doc.get("kind").and_then(Json::as_str), Some("response"));
            assert_eq!(
                doc.get("schema_version").and_then(Json::as_u64),
                Some(SCHEMA_VERSION)
            );
        }
        let stats_line = lines
            .iter()
            .find(|l| {
                recmod_telemetry::json::parse(l)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_u64)
                    == Some(2)
            })
            .unwrap();
        let doc = recmod_telemetry::json::parse(stats_line).unwrap();
        assert!(doc.get("stats").is_some());
        server.shutdown();
    }
}
