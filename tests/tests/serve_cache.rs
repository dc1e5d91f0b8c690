//! The compile service's artifact-cache path. A server opened on a
//! cache directory that a batch run filled must answer every cacheable
//! source from the cache, re-rendered under the request's own display
//! name, exactly as an uncached batch run under that name would. A
//! request with a fault armed must skip the lookup, and its verdict is
//! stored only if the fault never fired.

use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::Duration;

use recmod::driver::cache::CacheConfig;
use recmod::driver::serve::{Request, Response, ResponseStatus, ServeConfig, Server};
use recmod::driver::{compile_batch, DriverConfig, FileOutcome, FileStatus, Job};
use recmod::telemetry::fault::{FaultKind, FaultPlan};
use recmod::telemetry::json::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "recmod-itest-serve-cache-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compiles `jobs` in a batch, through the cache at `dir` if given.
fn batch(jobs: &[Job], dir: Option<&Path>) -> Vec<FileOutcome> {
    let res = compile_batch(
        jobs,
        &DriverConfig {
            cache: dir.map(CacheConfig::new),
            ..DriverConfig::default()
        },
    );
    assert!(res.cache_warnings.is_empty(), "{:?}", res.cache_warnings);
    res.outcomes
}

/// Serves `jobs` on a server over the cache at `dir` and returns the
/// responses in job order plus the server's `cache.counters` stats. No
/// default deadline: the batch runs have none, and the deadline is part
/// of the cache key.
fn serve(jobs: &[Job], dir: &Path, faults: Option<FaultPlan>) -> (Vec<Response>, Json) {
    let mut server = Server::start(ServeConfig {
        default_deadline_ms: None,
        backoff_ms: 1,
        faults,
        cache: Some(CacheConfig::new(dir)),
        ..ServeConfig::default()
    })
    .expect("start the server");
    let (tx, rx) = channel();
    for (i, job) in jobs.iter().enumerate() {
        let req = Request::new(i as u64, job.name.clone(), job.source.clone());
        server.submit(req, tx.clone());
    }
    let mut got: Vec<Response> = (0..jobs.len())
        .map(|_| rx.recv_timeout(Duration::from_secs(60)).expect("answered"))
        .collect();
    got.sort_by_key(|r| r.id.as_u64());
    let stats = server.stats_json();
    server.shutdown();
    let counters = stats.get("cache").and_then(|c| c.get("counters")).cloned();
    (got, counters.expect("the cache is enabled"))
}

fn counter(counters: &Json, name: &str) -> Option<u64> {
    counters.get(name).and_then(Json::as_u64)
}

fn assert_same_verdict(r: &Response, o: &FileOutcome) {
    let json = |ds: &[recmod::surface::diag::Diagnostic]| -> Vec<String> {
        ds.iter().map(|d| d.to_json().to_compact()).collect()
    };
    assert_eq!(r.status, ResponseStatus::from(o.status), "{}", o.name);
    assert_eq!(r.summaries, o.summaries, "{}", o.name);
    assert_eq!(json(&r.diags), json(&o.diags), "{}", o.name);
    assert_eq!(r.rendered, o.diagnostics, "{}", o.name);
}

fn corpus_jobs(prefix: &str) -> Vec<Job> {
    recmod::corpus::all()
        .iter()
        .map(|e| Job::new(format!("{prefix}{}", e.name), e.source))
        .collect()
}

#[test]
fn server_replays_a_batch_filled_cache_under_new_names() {
    let dir = tmp_dir("replay");
    batch(&corpus_jobs("batch/"), Some(&dir));
    let jobs = corpus_jobs("served/");
    let reference = batch(&jobs, None);
    let cacheable = reference
        .iter()
        .filter(|o| matches!(o.status, FileStatus::Ok | FileStatus::Error))
        .count() as u64;
    assert!(cacheable > 0, "the corpus has cacheable verdicts");

    let (responses, counters) = serve(&jobs, &dir, None);
    for (r, o) in responses.iter().zip(&reference) {
        assert_same_verdict(r, o);
    }
    assert_eq!(counter(&counters, "hits"), Some(cacheable));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_with_an_armed_fault_is_compiled_and_not_stored() {
    // Enough declarations that the injected fault (trigger ≤ 64
    // judgement boundaries) is guaranteed to fire.
    let source: String = (0..80).map(|i| format!("val x{i} = {i} + {i}\n")).collect();
    let dir = tmp_dir("faulted");
    batch(&[Job::new("batch.rm", source.clone())], Some(&dir));
    let jobs = [Job::new("served.rm", source)];
    let reference = batch(&jobs, None);

    let plan = FaultPlan::always(5, Some(FaultKind::Panic));
    let (responses, counters) = serve(&jobs, &dir, Some(plan));
    let r = &responses[0];
    assert_eq!(r.injected, vec!["panic"], "the fault reached a compile");
    assert_eq!(r.attempts, 2, "the retry compiled too");
    assert_same_verdict(r, &reference[0]);
    assert_eq!(counter(&counters, "hits"), Some(0));
    assert_eq!(counter(&counters, "stores"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_whose_armed_fault_never_fires_is_stored() {
    // A one-declaration program crosses a handful of judgement
    // boundaries; pick a plan whose first injection waits for more.
    let source = "val x = 1 + 2\n";
    let plan = (0..)
        .map(|seed| FaultPlan::always(seed, Some(FaultKind::Panic)))
        .find(|p| p.decide(0).is_some_and(|inj| inj.after >= 48))
        .expect("some seed triggers late");
    let dir = tmp_dir("unfired");
    let jobs = [Job::new("served.rm", source)];
    let reference = batch(&jobs, None);

    let (responses, counters) = serve(&jobs, &dir, Some(plan));
    let r = &responses[0];
    assert!(r.injected.is_empty(), "the armed fault never fired");
    assert_eq!(r.attempts, 1);
    assert_same_verdict(r, &reference[0]);
    assert_eq!(
        counter(&counters, "hits"),
        Some(0),
        "the lookup was skipped"
    );
    assert_eq!(
        counter(&counters, "stores"),
        Some(1),
        "the verdict was stored"
    );

    // The same request on an unfaulted server is answered from the cache.
    let (responses, counters) = serve(&jobs, &dir, None);
    assert_same_verdict(&responses[0], &reference[0]);
    assert_eq!(counter(&counters, "hits"), Some(1));
    assert_eq!(counter(&counters, "stores"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
