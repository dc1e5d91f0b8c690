//! Schema and determinism guarantees of the serve telemetry layer
//! (ISSUE 10): the `stats` and `metrics` documents are schema golden
//! (key sets and value types pinned here — changing them must be a
//! deliberate `METRICS_SCHEMA_VERSION` bump), histogram percentiles
//! are exact on synthetic distributions, the deterministic metrics
//! subset is byte-stable across two identical seeded fault replays,
//! request traces round-trip with replay-stable trace ids, and every
//! view of a counter reads the same number.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use recmod::driver::cache::{self, CacheConfig};
use recmod::driver::serve::{
    Request, Response, ResponseStatus, ServeConfig, Server, METRICS_SCHEMA_VERSION,
};
use recmod::telemetry::fault::FaultPlan;
use recmod::telemetry::json::Json;
use recmod::telemetry::metrics::Histogram;
use recmod::telemetry::{names, Limits, SCHEMA_VERSION};

/// A few sources exercising ok, type-error, and unbound-name verdicts.
const SOURCES: [&str; 5] = [
    "val x = 1",
    "val p = (1, true)",
    "val bad = nosuch",
    "val f = fn (b : bool) => if b then 1 else 2\nval y = f true",
    "val mismatch = if 1 then 2 else 3",
];

fn quiet_server(faults: Option<FaultPlan>) -> Server {
    let trace_seed = faults.as_ref().map(|p| p.seed).unwrap_or(0);
    Server::start(ServeConfig {
        workers: 2,
        limits: Limits::strict(),
        default_deadline_ms: None,
        backoff_ms: 1,
        crash_dir: None,
        faults,
        trace_seed,
        ..ServeConfig::default()
    })
    .expect("server must start")
}

/// Submits sequentially — each response awaited before the next
/// submission, so admission seqs and counters are schedule-independent.
fn drive(server: &Server, trace: bool) -> Vec<Response> {
    let (tx, rx): (Sender<Response>, Receiver<Response>) = channel();
    let mut responses = Vec::new();
    for (i, src) in SOURCES.iter().enumerate() {
        let mut req = Request::new(i as u64, format!("m{i}.rm"), *src);
        req.trace = trace;
        server.submit(req, tx.clone());
        responses.push(
            rx.recv_timeout(Duration::from_secs(120))
                .expect("response must arrive"),
        );
    }
    responses
}

fn obj_keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(map) => map.keys().cloned().collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn get<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
}

fn as_u64(doc: &Json, key: &str) -> u64 {
    get(doc, key)
        .as_u64()
        .unwrap_or_else(|| panic!("`{key}` must be an unsigned integer"))
}

/// Pins a histogram document: key set, coherent count, sorted quantiles.
fn assert_histogram_doc(doc: &Json, what: &str) {
    assert_eq!(
        obj_keys(doc),
        ["buckets", "count", "max", "p50", "p90", "p99", "sum"],
        "{what}: histogram key set changed"
    );
    let bucket_total: u64 = get(doc, "buckets")
        .as_arr()
        .expect("buckets must be an array")
        .iter()
        .map(|b| as_u64(b, "count"))
        .sum();
    assert_eq!(
        as_u64(doc, "count"),
        bucket_total,
        "{what}: count must equal the bucket sum"
    );
    let (p50, p90, p99, max) = (
        as_u64(doc, "p50"),
        as_u64(doc, "p90"),
        as_u64(doc, "p99"),
        as_u64(doc, "max"),
    );
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= max,
        "{what}: quantiles must be sorted"
    );
}

#[test]
fn stats_document_schema_is_golden() {
    let server = quiet_server(None);
    drive(&server, false);
    let doc = server.stats_json();
    assert_eq!(
        obj_keys(&doc),
        [
            "accepted",
            "cache",
            "completed",
            "frame_imbalance",
            "injected_alloc",
            "injected_deadline",
            "injected_kill",
            "injected_panic",
            "invalid",
            "rejected_draining",
            "respawns",
            "retries",
            "shed",
            "spawn_failures",
            "watchdog_late",
            "workers",
            "workers_joined",
            "workers_spawned",
        ],
        "stats key set changed — update the protocol docs and this golden"
    );
    assert_eq!(as_u64(&doc, "accepted"), SOURCES.len() as u64);
    assert_eq!(as_u64(&doc, "completed"), SOURCES.len() as u64);
    let cache = get(&doc, "cache");
    assert_eq!(cache.get("enabled"), Some(&Json::Bool(false)));
    assert_eq!(cache.get("open_failed"), Some(&Json::Bool(false)));
    let workers = get(&doc, "workers")
        .as_arr()
        .expect("workers must be an array");
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(
            obj_keys(w),
            [
                "con_entries",
                "intern_hits",
                "intern_misses",
                "intern_sweeps",
                "kind_entries",
                "requests",
                "swept_entries",
                "ty_entries",
                "worker",
            ]
        );
    }
}

#[test]
fn metrics_document_schema_is_golden() {
    let server = quiet_server(None);
    drive(&server, false);
    let doc = server.metrics_json(false);
    assert_eq!(
        obj_keys(&doc),
        [
            "cache",
            "compile_nanos",
            "deterministic",
            "intern",
            "kind",
            "latency_nanos",
            "metrics_schema_version",
            "queue",
            "queue_wait_nanos",
            "requests",
            "schema_version",
            "status",
            "uptime_nanos",
            "work_units",
            "workers",
        ],
        "metrics key set changed — bump METRICS_SCHEMA_VERSION deliberately"
    );
    assert_eq!(as_u64(&doc, "schema_version"), SCHEMA_VERSION);
    assert_eq!(
        as_u64(&doc, "metrics_schema_version"),
        METRICS_SCHEMA_VERSION
    );
    assert_eq!(
        METRICS_SCHEMA_VERSION, 3,
        "intern entries count the type table"
    );
    assert_eq!(get(&doc, "kind"), &Json::str("metrics"));
    assert_eq!(get(&doc, "deterministic"), &Json::Bool(false));
    for h in [
        "latency_nanos",
        "queue_wait_nanos",
        "compile_nanos",
        "work_units",
    ] {
        assert_histogram_doc(get(&doc, h), h);
        assert_eq!(
            as_u64(get(&doc, h), "count"),
            SOURCES.len() as u64,
            "{h}: one sample per attempt expected (no faults, no retries)"
        );
    }
    let queue = get(&doc, "queue");
    assert_eq!(
        obj_keys(queue),
        [
            "capacity",
            "depth",
            "inflight",
            "workers_alive",
            "workers_configured"
        ]
    );
    assert_eq!(as_u64(queue, "workers_configured"), 2);
    let status = get(&doc, "status");
    assert_eq!(
        obj_keys(status),
        [
            "draining",
            "error",
            "internal",
            "invalid",
            "limit",
            "ok",
            "overloaded"
        ]
    );
    // 2 ok + 1 unbound + 2 from the remaining sources; exact split is
    // pinned by the sources above.
    let answered: u64 = ["ok", "error"].iter().map(|k| as_u64(status, k)).sum();
    assert_eq!(answered, SOURCES.len() as u64);
    assert_eq!(obj_keys(get(&doc, "intern")), ["entries"]);
    let workers = get(&doc, "workers")
        .as_arr()
        .expect("workers must be an array");
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert_eq!(obj_keys(w), ["busy_nanos", "utilization", "worker"]);
        assert!(matches!(get(w, "utilization"), Json::Float(f) if (0.0..=1.0).contains(f)));
    }
}

/// The metrics document's interner entries are the workers' own tables,
/// as the `stats` op lists them, once every worker has published its
/// snapshot after its last request.
#[test]
fn metrics_intern_entries_sum_the_workers_tables() {
    let server = quiet_server(None);
    drive(&server, false);
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let workers = loop {
        let stats = server.stats_json();
        let workers = get(&stats, "workers")
            .as_arr()
            .expect("workers must be an array")
            .to_vec();
        let published: u64 = workers.iter().map(|w| as_u64(w, "requests")).sum();
        if published == SOURCES.len() as u64 {
            break workers;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the workers published {published} of {} snapshots",
            SOURCES.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let tables: u64 = workers
        .iter()
        .map(|w| as_u64(w, "con_entries") + as_u64(w, "kind_entries") + as_u64(w, "ty_entries"))
        .sum();
    assert!(tables > 0, "the workers interned something");
    let doc = server.metrics_json(false);
    assert_eq!(as_u64(get(&doc, "intern"), "entries"), tables);
}

#[test]
fn deterministic_metrics_document_has_no_wall_clock_keys() {
    let server = quiet_server(None);
    drive(&server, false);
    let doc = server.metrics_json(true);
    assert_eq!(
        obj_keys(&doc),
        [
            "deterministic",
            "kind",
            "metrics_schema_version",
            "requests",
            "schema_version",
            "status",
            "work_units",
        ]
    );
    assert_eq!(
        obj_keys(get(&doc, "requests")),
        [
            "accepted",
            "completed",
            "frame_imbalance",
            "injected_alloc",
            "injected_deadline",
            "injected_kill",
            "injected_panic",
            "invalid",
            "rejected_draining",
            "respawns",
            "retries",
            "shed",
        ],
        "deterministic request subset changed"
    );
}

#[test]
fn deterministic_metrics_are_byte_stable_across_seeded_replays() {
    let plan = FaultPlan {
        seed: 0xfeed_beef,
        rate_ppm: 400_000,
        only: None,
    };
    let run = || {
        let server = quiet_server(Some(plan));
        let responses = drive(&server, false);
        let doc = server.metrics_json(true).to_compact();
        let ids: Vec<String> = responses
            .into_iter()
            .map(|r| r.trace_id.expect("admitted responses carry a trace id"))
            .collect();
        (doc, ids)
    };
    let (doc_a, ids_a) = run();
    let (doc_b, ids_b) = run();
    assert_eq!(
        doc_a, doc_b,
        "deterministic metrics must be replay byte-stable"
    );
    assert_eq!(ids_a, ids_b, "trace ids must be replay-stable");
    let unique: std::collections::BTreeSet<&String> = ids_a.iter().collect();
    assert_eq!(
        unique.len(),
        ids_a.len(),
        "trace ids must be unique per admission"
    );
}

#[test]
fn traced_requests_echo_balanced_span_events() {
    let server = quiet_server(None);
    let responses = drive(&server, true);
    for (i, r) in responses.iter().enumerate() {
        let events = r
            .trace
            .as_ref()
            .and_then(|t| t.get("events"))
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("m{i}.rm asked for a trace but got none"));
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .count()
        };
        assert_eq!(
            named("serve.queue"),
            1,
            "m{i}.rm: one queue event per attempt"
        );
        assert_eq!(
            named("serve.attempt"),
            1,
            "m{i}.rm: one attempt event per attempt"
        );
        // Unfaulted compiles always record pipeline stage spans.
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("stage.elab")),
            "m{i}.rm: expected a stage.elab span, got {events:?}"
        );
        for e in events {
            assert!(e.get("start_nanos").is_some() && e.get("dur_nanos").is_some());
        }
    }
}

#[test]
fn histogram_percentiles_are_exact_on_a_synthetic_distribution() {
    use recmod::telemetry::metrics::bucket_bounds;
    // Values sitting exactly on bucket bounds are recovered exactly:
    // 100 samples at `lo`, 899 at `mid`, 1 at `hi`.
    let bounds = bucket_bounds();
    let lo = *bounds.iter().find(|&&b| b >= 50).unwrap();
    let mid = *bounds.iter().find(|&&b| b >= 5_000).unwrap();
    let hi = *bounds.iter().find(|&&b| b >= 2_000_000).unwrap();
    let h = Histogram::new();
    for _ in 0..100 {
        h.record(lo);
    }
    for _ in 0..899 {
        h.record(mid);
    }
    h.record(hi);
    let snap = h.snapshot();
    assert_eq!(snap.count, 1000);
    assert_eq!(snap.quantile(0.05), lo);
    assert_eq!(snap.quantile(0.10), lo);
    assert_eq!(snap.quantile(0.50), mid);
    assert_eq!(snap.quantile(0.90), mid);
    assert_eq!(snap.quantile(0.999), mid);
    assert_eq!(snap.quantile(1.0), hi);
    assert_eq!(snap.max, hi);
}

#[test]
fn prometheus_text_renders_the_driven_workload() {
    let server = quiet_server(None);
    drive(&server, false);
    let text = server.metrics_text();
    let n = SOURCES.len();
    assert!(text.contains(&format!(
        "recmod_serve_requests_total{{event=\"accepted\"}} {n}"
    )));
    assert!(text.contains(&format!(
        "recmod_serve_requests_total{{event=\"completed\"}} {n}"
    )));
    assert!(text.contains("# TYPE recmod_serve_latency_seconds histogram"));
    assert!(text.contains(&format!("recmod_serve_latency_seconds_count {n}")));
    assert!(text.contains("recmod_serve_latency_seconds_bucket{le=\"+Inf\"}"));
    // Every line is either a comment or `name{labels} value`.
    for line in text.lines() {
        assert!(
            line.starts_with("# ") || line.split(' ').count() == 2,
            "malformed exposition line: {line}"
        );
    }
}

/// The value of the Prometheus sample `family{label="value"}`.
fn prom_sample(text: &str, family: &str, label: &str, value: &str) -> u64 {
    let head = format!("{family}{{{label}=\"{value}\"}} ");
    text.lines()
        .find_map(|line| line.strip_prefix(head.as_str()))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no sample `{head}` in:\n{text}"))
}

/// Every counter is declared once and every view renders that
/// declaration: after a seeded chaos run on a cached server, each
/// request counter, response status and cache event reads the same in
/// the `stats` document, both `metrics` documents and the Prometheus
/// text.
#[test]
fn every_view_reads_the_same_counters() {
    let dir =
        std::env::temp_dir().join(format!("recmod-itest-metrics-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeConfig {
        workers: 2,
        limits: Limits::strict(),
        default_deadline_ms: None,
        backoff_ms: 1,
        faults: Some(FaultPlan {
            seed: 0xfeed_beef,
            rate_ppm: 400_000,
            only: None,
        }),
        cache: Some(CacheConfig::new(&dir)),
        ..ServeConfig::default()
    })
    .expect("server must start");
    // Three times over, so that unfaulted repeats hit the cache.
    for _ in 0..3 {
        drive(&server, false);
    }
    let (tx, rx) = channel();
    assert!(server.handle_line("not json", &tx));
    let invalid = rx.recv_timeout(Duration::from_secs(120)).expect("answered");
    assert_eq!(invalid.status, ResponseStatus::Invalid);
    server.drain();

    let stats = server.stats_json();
    let full = server.metrics_json(false);
    let det = server.metrics_json(true);
    let text = server.metrics_text();

    let counters: Vec<(&str, bool, u64)> = server.stats().counters().collect();
    assert_eq!(counters.len(), 16, "the request counters");
    let mut det_names: Vec<&str> = counters
        .iter()
        .filter(|&&(_, d, _)| d)
        .map(|&(name, _, _)| name)
        .collect();
    det_names.sort_unstable();
    assert_eq!(det_names.len(), 12, "the deterministic request counters");
    assert_eq!(obj_keys(get(&det, "requests")), det_names);
    for &(name, deterministic, n) in &counters {
        assert_eq!(as_u64(&stats, name), n, "stats: {name}");
        assert_eq!(as_u64(get(&full, "requests"), name), n, "metrics: {name}");
        assert_eq!(
            prom_sample(&text, "recmod_serve_requests_total", "event", name),
            n,
            "prometheus: {name}"
        );
        if deterministic {
            assert_eq!(
                as_u64(get(&det, "requests"), name),
                n,
                "deterministic: {name}"
            );
        }
    }
    let stat = server.stats();
    assert_eq!(stat.accepted, 3 * SOURCES.len() as u64);
    assert_eq!(stat.invalid, 1);
    assert!(stat.retries > 0, "the plan injected faults that fired");
    assert_eq!(stat.workers_spawned, stat.workers_joined);

    let mut answered = 0;
    for status in ResponseStatus::ALL {
        let label = status.label();
        let n = as_u64(get(&full, "status"), label);
        assert_eq!(
            as_u64(get(&det, "status"), label),
            n,
            "deterministic: {label}"
        );
        assert_eq!(
            prom_sample(&text, "recmod_serve_responses_total", "status", label),
            n,
            "prometheus: {label}"
        );
        answered += n;
    }
    assert_eq!(
        answered,
        stat.completed + stat.shed + stat.rejected_draining + stat.invalid,
        "one counted status per response"
    );

    let stats_cache = get(get(&stats, "cache"), "counters");
    let metrics_cache = get(get(&full, "cache"), "counters");
    for (_, counter, key) in cache::EVENTS {
        assert!(names::is_well_formed(counter), "{counter}");
        let n = as_u64(stats_cache, key);
        assert_eq!(as_u64(metrics_cache, key), n, "metrics: {key}");
        let event = counter.strip_prefix("cache.").expect("cache namespace");
        assert_eq!(
            prom_sample(&text, "recmod_cache_events_total", "event", event),
            n,
            "prometheus: {event}"
        );
    }
    assert!(as_u64(stats_cache, "hits") > 0, "the repeats hit the cache");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
