//! Parallel batch compilation: a shared-cursor driver whose workers
//! share nothing.
//!
//! Every piece of the pipeline's hot state is thread-local: the
//! hash-consed syntax spine (`recmod_syntax::intern`), the rewrite
//! memo, the kernel's whnf, equivalence, synthesis and μ tables, and
//! the telemetry sink. `HC<T>` is an `Rc`, so no syntax node can cross
//! from one worker to another; workers never contend on a lock in the
//! pipeline, and reports merge after the fact. A worker's `NodeId`s
//! and memo keys mean something only on that worker, and what one
//! worker keeps alive cannot change which lookups hit on another.
//! This crate supplies the scheduler:
//!
//! * every worker claims the next unclaimed job from one shared atomic
//!   cursor until the cursor passes the end, so a fast worker simply
//!   claims more files and a worker that never started claims none;
//! * each worker reuses one elaborator across files via
//!   [`Elaborator::renew`], which returns it to the state of a fresh
//!   one (empty memo tables, zeroed counters) while keeping the tables'
//!   capacity, so a file's fuel, verdict and diagnostics depend only
//!   on its own source and limits, never on the files before it;
//! * results carry their input index and are re-sequenced before
//!   return, so output order is deterministic regardless of
//!   scheduling; per-worker telemetry reports are merged with
//!   [`Report::merge`].
//!
//! Batches can additionally consult a content-addressed on-disk
//! artifact cache ([`cache`]) before compiling: verdicts for
//! previously-seen (source, limits, schema, engine) tuples are replayed
//! without touching the pipeline.
//!
//! A panic inside one file's compilation is caught at the file
//! boundary: the file reports [`FileStatus::Internal`], the worker
//! drops its (possibly poisoned) elaborator and rebuilds a fresh one,
//! and every other file is unaffected. The compile attempt itself —
//! renewed elaborator, `catch_unwind`, classification, rendering, cache
//! replay and store — is one crate-private path (`attempt`, `replay`,
//! `store`) shared with the compile service ([`serve`]).

pub mod cache;
pub mod serve;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use recmod_surface::diag::{self as sdiag, Diagnostic};
use recmod_surface::elab::Elaborator;
use recmod_surface::error::SurfaceError;
use recmod_surface::pipeline::compile_with_limits_in;
use recmod_telemetry::diag::CrashData;
use recmod_telemetry::{Config, Limits, Report};

/// Process exit code for a clean batch.
pub const EXIT_OK: u8 = 0;
/// Exit code when at least one file has ordinary diagnostics.
pub const EXIT_USER: u8 = 1;
/// Exit code when at least one file hit a resource limit.
pub const EXIT_LIMIT: u8 = 3;
/// Exit code when at least one file hit an internal error or panic.
pub const EXIT_INTERNAL: u8 = 4;

/// Stack size of every batch and service worker: elaboration is deeply
/// recursive, so match the single-file CLI's 512 MB compile thread.
pub const DEFAULT_STACK_SIZE: usize = 512 * 1024 * 1024;

/// One unit of work: a display name (usually a path) plus source text.
#[derive(Debug, Clone)]
pub struct Job {
    /// Name used to prefix diagnostics, e.g. `examples/list.rm`.
    pub name: String,
    /// The program source.
    pub source: String,
    /// Per-job wall-clock deadline override in milliseconds. `None`
    /// falls back to [`DriverConfig::deadline_ms`]. Deadlines are
    /// re-armed as absolute instants when the job *starts*, never
    /// earlier.
    pub deadline_ms: Option<u64>,
}

impl Job {
    /// A job from a name and source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Job {
            name: name.into(),
            source: source.into(),
            deadline_ms: None,
        }
    }

    /// Overrides the per-job deadline (milliseconds from job start).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// How one file's compilation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileStatus {
    /// Compiled cleanly.
    Ok,
    /// Ordinary (lex/parse/scope/type) diagnostics.
    Error,
    /// Aborted on a resource limit.
    Limit,
    /// Internal kernel error, or a panic caught at the file boundary.
    Internal,
}

impl FileStatus {
    /// The exit code this status maps to.
    pub fn exit_code(self) -> u8 {
        match self {
            FileStatus::Ok => EXIT_OK,
            FileStatus::Error => EXIT_USER,
            FileStatus::Limit => EXIT_LIMIT,
            FileStatus::Internal => EXIT_INTERNAL,
        }
    }
}

/// The result of compiling one job.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// The job's display name.
    pub name: String,
    /// How compilation ended.
    pub status: FileStatus,
    /// `(name, description)` pairs for the file's top-level bindings
    /// (empty unless [`FileStatus::Ok`]).
    pub summaries: Vec<(String, String)>,
    /// Fully rendered diagnostic lines (`name:line:col: error: …`),
    /// capped by `max_errors` with a trailing `… and N more` line.
    pub diagnostics: Vec<String>,
    /// Structured diagnostics for the file, **never truncated** by
    /// `max_errors` (the machine-readable stream must be complete).
    pub diags: Vec<Diagnostic>,
    /// Flight-recorder tail + counter snapshot captured on the worker
    /// that compiled this file, present only for limit/internal
    /// outcomes (the inputs a crash bundle is written for).
    pub crash: Option<CrashData>,
    /// Index of the worker that compiled this file.
    pub worker: usize,
    /// Start offset in nanoseconds since the batch telemetry epoch
    /// (0 when telemetry was not requested).
    pub start_nanos: u64,
    /// Wall-clock nanoseconds spent compiling this file.
    pub nanos: u64,
    /// Per-file counter deltas (two [`snapshot_counters`] snapshots
    /// subtracted), recorded when [`DriverConfig::file_counters`] is
    /// set and telemetry is installed.
    ///
    /// [`snapshot_counters`]: recmod_telemetry::snapshot_counters
    pub counters: Option<std::collections::BTreeMap<&'static str, u64>>,
}

/// Per-worker accounting returned alongside the outcomes.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Worker index.
    pub worker: usize,
    /// Files this worker compiled.
    pub files: usize,
    /// The worker's telemetry report, when telemetry was requested.
    pub report: Option<Report>,
}

/// The result of a whole batch.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per job, **in input order** regardless of which
    /// worker ran what when.
    pub outcomes: Vec<FileOutcome>,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerSummary>,
    /// All workers' telemetry reports merged ([`Report::merge`]);
    /// `None` when telemetry was not requested.
    pub merged: Option<Report>,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u64,
    /// Deduplicated cache-health warnings (`C001`–`C003`), empty when
    /// no cache was configured or the cache behaved. Callers print
    /// these to stderr; they never affect verdicts or exit codes.
    pub cache_warnings: Vec<cache::CacheWarning>,
}

impl BatchResult {
    /// Aggregate exit code: internal(4) > limit(3) > user(1) > ok(0).
    pub fn exit_code(&self) -> u8 {
        let mut code = EXIT_OK;
        for o in &self.outcomes {
            code = match (code, o.status.exit_code()) {
                (EXIT_INTERNAL, _) | (_, EXIT_INTERNAL) => EXIT_INTERNAL,
                (EXIT_LIMIT, c) | (c, EXIT_LIMIT) if c != EXIT_INTERNAL => EXIT_LIMIT,
                (a, b) => a.max(b),
            };
        }
        code
    }

    /// Files with [`FileStatus::Ok`].
    pub fn ok_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == FileStatus::Ok)
            .count()
    }
}

/// Batch-compilation settings.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads. Clamped to `1..=jobs.len()`.
    pub jobs: usize,
    /// Base resource limits for every file.
    pub limits: Limits,
    /// Optional *per-file* wall-clock deadline; each file gets a fresh
    /// deadline (a batch-wide deadline would make diagnostics depend on
    /// scheduling order, breaking determinism).
    pub deadline_ms: Option<u64>,
    /// Diagnostics rendered per file before eliding the rest.
    pub max_errors: usize,
    /// Install a telemetry sink in each worker and merge the reports.
    /// [`compile_batch`] pins every worker's sink to one shared epoch
    /// (the batch start) so the workers' spans, samples, and file
    /// events share a timeline.
    pub telemetry: Option<Config>,
    /// Attribute counter deltas to individual files (requires
    /// `telemetry`): each worker snapshots its counters around every
    /// file and stores the difference in [`FileOutcome::counters`].
    pub file_counters: bool,
    /// Test-only fault hook: treat the first N worker spawns as if
    /// [`std::thread::Builder::spawn_scoped`] had failed, exercising
    /// the degraded path where the surviving workers claim every file.
    /// Leave at 0 outside regression tests.
    pub fail_spawns: usize,
    /// Consult (and populate) an on-disk artifact cache before
    /// compiling each file. `None` disables caching. The cache is
    /// advisory: any cache-layer failure degrades to compiling and is
    /// reported in [`BatchResult::cache_warnings`], never in the
    /// verdicts.
    pub cache: Option<cache::CacheConfig>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            jobs: 1,
            limits: Limits::default(),
            deadline_ms: None,
            max_errors: 20,
            telemetry: None,
            file_counters: false,
            fail_spawns: 0,
            cache: None,
        }
    }
}

/// Recursively collects jobs from files and directories. A file is
/// read as-is; a directory contributes every `*.rm` file beneath it,
/// sorted by path for determinism.
///
/// # Errors
///
/// Any I/O error reading a path, tagged with the offending path.
pub fn jobs_from_paths(paths: &[PathBuf]) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut files = Vec::new();
            collect_rm_files(p, &mut files)?;
            files.sort();
            for f in files {
                jobs.push(read_job(&f)?);
            }
        } else {
            jobs.push(read_job(p)?);
        }
    }
    Ok(jobs)
}

fn collect_rm_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rm_files(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rm") {
            out.push(path);
        }
    }
    Ok(())
}

fn read_job(path: &Path) -> Result<Job, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Job {
        name: path.display().to_string(),
        source,
        deadline_ms: None,
    })
}

/// Compiles every job and returns the outcomes in input order.
///
/// Spawns `config.jobs` workers (clamped to the job count), each with
/// its own stack, interner, kernel caches, and telemetry sink; each
/// worker claims the next unclaimed job until none is left. See the
/// crate docs for the determinism argument. When
/// [`DriverConfig::cache`] is set, each file consults the artifact
/// cache before compiling and stores its verdict after.
pub fn compile_batch(jobs: &[Job], config: &DriverConfig) -> BatchResult {
    let t0 = Instant::now();
    let (opened_cache, mut cache_warnings) = match &config.cache {
        None => (None, Vec::new()),
        Some(cfg) => match cache::Cache::open(cfg) {
            Ok(c) => (Some(c), Vec::new()),
            Err(w) => (None, vec![w]),
        },
    };
    let artifact_cache = opened_cache.as_ref();
    // Pin every worker's sink to the batch start so spans, samples, and
    // per-file events from different workers share one timeline.
    let config = &DriverConfig {
        telemetry: config.telemetry.clone().map(|mut c| {
            c.epoch.get_or_insert(t0);
            c
        }),
        ..config.clone()
    };
    let n = jobs.len();
    let workers = config.jobs.clamp(1, n.max(1));
    let next = &AtomicUsize::new(0);

    let mut slots: Vec<Option<FileOutcome>> = (0..n).map(|_| None).collect();
    let mut summaries = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        // Injected spawn failures (regression tests) skip the spawn
        // exactly like a failed one: a worker that never starts claims
        // nothing, and the workers that did start claim its share.
        let handles: Vec<_> = (config.fail_spawns..workers)
            .filter_map(|wid| {
                std::thread::Builder::new()
                    .name(format!("recmod-worker-{wid}"))
                    .stack_size(DEFAULT_STACK_SIZE)
                    .spawn_scoped(scope, move || {
                        worker_loop(wid, jobs, next, config, artifact_cache)
                    })
                    .ok()
            })
            .collect();
        for handle in handles {
            // The per-file catch_unwind makes a worker panic unreachable
            // in practice; its missing slots are filled below.
            if let Ok((outs, summary)) = handle.join() {
                for (idx, out) in outs {
                    slots[idx] = Some(out);
                }
                summaries.push(summary);
            }
        }
    });

    let outcomes: Vec<FileOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                let why = "worker thread died before compiling this file";
                let v = Verdict::internal(&jobs[i].name, "I003", why.to_string());
                FileOutcome {
                    name: jobs[i].name.clone(),
                    status: v.status,
                    summaries: v.summaries,
                    diagnostics: v.rendered,
                    diags: v.diags,
                    crash: Some(CrashData::default()),
                    worker: 0,
                    start_nanos: 0,
                    nanos: 0,
                    counters: None,
                }
            })
        })
        .collect();

    summaries.sort_by_key(|s| s.worker);
    let merged = if config.telemetry.is_some() {
        Some(Report::merge(
            summaries.iter_mut().filter_map(|s| s.report.clone()),
        ))
    } else {
        None
    };

    if let Some(c) = artifact_cache {
        cache_warnings.extend(c.take_warnings());
    }

    BatchResult {
        outcomes,
        workers: summaries,
        merged,
        wall_nanos: t0.elapsed().as_nanos() as u64,
        cache_warnings,
    }
}

type WorkerOut = (Vec<(usize, FileOutcome)>, WorkerSummary);

fn worker_loop(
    wid: usize,
    jobs: &[Job],
    next: &AtomicUsize,
    config: &DriverConfig,
    artifact_cache: Option<&cache::Cache>,
) -> WorkerOut {
    if let Some(cfg) = &config.telemetry {
        recmod_telemetry::install(cfg.clone());
    }
    let mut elab: Option<Elaborator> = None;
    let mut fuel_used = 0;
    let mut outs = Vec::new();
    loop {
        // `Relaxed` suffices: the cursor publishes no other data (the
        // jobs are borrowed read-only and results travel back through
        // the scope's join), and read-modify-writes of one atomic are
        // totally ordered, so every index is claimed exactly once.
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(idx) else { break };
        outs.push((
            idx,
            compile_one(wid, job, &mut elab, &mut fuel_used, config, artifact_cache),
        ));
    }
    recmod_telemetry::count("driver.files", outs.len() as u64);
    let report = if config.telemetry.is_some() {
        recmod_telemetry::uninstall()
    } else {
        None
    };
    let summary = WorkerSummary {
        worker: wid,
        files: outs.len(),
        report,
    };
    (outs, summary)
}

/// Counters sampled into the trace's counter tracks after every file.
const TRACK_COUNTERS: &[&str] = &[
    "kernel.whnf_cache_hit",
    "kernel.whnf_cache_miss",
    "syntax.intern_hit",
    "syntax.intern_miss",
];

/// Compiles (or replays) one job on worker `wid`; `fuel_used` is the
/// worker's running kernel-fuel total, sampled into the counter track.
fn compile_one(
    wid: usize,
    job: &Job,
    elab: &mut Option<Elaborator>,
    fuel_used: &mut u64,
    config: &DriverConfig,
    artifact_cache: Option<&cache::Cache>,
) -> FileOutcome {
    let t0 = Instant::now();
    // Per-file flight recorder: a crash bundle should describe the file
    // that crashed, not the worker's whole history.
    recmod_telemetry::diag::reset_recorder();
    let start_nanos = recmod_telemetry::epoch_offset_nanos(t0).unwrap_or(0);
    let before = if config.file_counters {
        recmod_telemetry::snapshot_counters()
    } else {
        None
    };
    // Deadlines are absolute instants, so they must be re-armed here,
    // per file, not when the batch was configured.
    let limits = (job.deadline_ms.or(config.deadline_ms))
        .map_or(config.limits, |ms| config.limits.with_deadline_ms(ms));
    let key = artifact_cache.map(|c| (c, cache_key(&job.source, &limits)));
    let replayed = key.and_then(|(c, k)| replay(c, k, &job.name, config.max_errors));
    let compiled = replayed.is_none();
    let verdict = replayed.unwrap_or_else(|| {
        attempt(&job.name, &job.source, limits, config.max_errors, elab)
            .unwrap_or_else(|panic| Verdict::panicked(&job.name, panic.as_ref()))
    });
    // Capture the flight-recorder tail on this worker thread for the
    // exit classes a crash bundle is written for (never replayed: the
    // cache holds ok/error verdicts only).
    let crash = matches!(verdict.status, FileStatus::Limit | FileStatus::Internal)
        .then(recmod_telemetry::diag::crash_data);
    let counters = counter_delta(before);
    if compiled {
        if let Some((c, k)) = key {
            store(c, k, &verdict);
        }
        // `renew` zeroes the kernel's counters, so the worker keeps the
        // running total itself.
        *fuel_used += elab.as_ref().map_or(0, |e| e.tc.stats().fuel_used());
        if recmod_telemetry::profiling_enabled() {
            // One counter-track sample per file boundary: cumulative
            // cache hit/miss counters plus gauges the sink cannot see
            // (interner occupancy, cumulative kernel fuel for this
            // worker).
            let intern = recmod_syntax::intern::intern_stats();
            recmod_telemetry::sample(
                TRACK_COUNTERS,
                &[
                    ("syntax.intern_occupancy", intern.entries()),
                    ("kernel.fuel_used", *fuel_used),
                ],
            );
        }
    }

    FileOutcome {
        name: job.name.clone(),
        status: verdict.status,
        summaries: verdict.summaries,
        diagnostics: verdict.rendered,
        diags: verdict.diags,
        crash,
        worker: wid,
        start_nanos,
        nanos: t0.elapsed().as_nanos() as u64,
        counters,
    }
}

/// Subtracts a `file_counters` snapshot from the current counters,
/// keeping only the counters that moved.
fn counter_delta(
    before: Option<std::collections::BTreeMap<&'static str, u64>>,
) -> Option<std::collections::BTreeMap<&'static str, u64>> {
    let before = before?;
    recmod_telemetry::snapshot_counters().map(|after| {
        after
            .into_iter()
            .map(|(name, v)| {
                (
                    name,
                    v.saturating_sub(before.get(name).copied().unwrap_or(0)),
                )
            })
            .filter(|&(_, v)| v > 0)
            .collect()
    })
}

/// One compile's verdict, rendered under the display name it was
/// produced for: what both drivers report for a file or request.
pub(crate) struct Verdict {
    pub(crate) status: FileStatus,
    pub(crate) summaries: Vec<(String, String)>,
    pub(crate) diags: Vec<Diagnostic>,
    /// `diags` rendered under the display name, capped at `max_errors`.
    pub(crate) rendered: Vec<String>,
}

impl Verdict {
    /// An internal-error verdict carrying one `code` diagnostic.
    pub(crate) fn internal(name: &str, code: &'static str, msg: String) -> Verdict {
        Verdict {
            status: FileStatus::Internal,
            summaries: Vec::new(),
            rendered: vec![format!("{name}: internal error: {msg}")],
            diags: vec![Diagnostic::internal(code, msg)],
        }
    }

    /// The `I002` verdict for a compile that unwound with `panic`.
    pub(crate) fn panicked(name: &str, panic: &(dyn std::any::Any + Send)) -> Verdict {
        recmod_telemetry::count("internal.panics", 1);
        let msg = format!("panic during compilation: {}", panic_message(panic));
        Verdict::internal(name, "I002", msg)
    }
}

/// Compiles `source` once on the elaborator in `elab` (renewed under
/// `limits`) or on a fresh one, under `catch_unwind`, then
/// classifies and renders the result under `name`. The elaborator is
/// put back for the next compile unless the compile unwound: it was
/// consumed by the panicking call and its caches may be mid-mutation,
/// so the next attempt rebuilds from scratch. An unwind hands back its
/// payload so the caller can inspect it before classifying.
pub(crate) fn attempt(
    name: &str,
    source: &str,
    limits: Limits,
    max_errors: usize,
    elab: &mut Option<Elaborator>,
) -> std::thread::Result<Verdict> {
    let renewed = match elab.take() {
        Some(mut e) => {
            e.renew(limits);
            e
        }
        None => Elaborator::with_limits(limits),
    };
    #[allow(clippy::result_large_err)] // one call per compile; never propagated
    let compile = || compile_with_limits_in(renewed, source);
    let (verdict, returned) = match catch_unwind(AssertUnwindSafe(compile))? {
        Ok(compiled) => (
            Verdict {
                status: FileStatus::Ok,
                summaries: compiled.summaries(),
                diags: Vec::new(),
                rendered: Vec::new(),
            },
            compiled.elab,
        ),
        Err((errors, returned)) => {
            let diags = sdiag::from_errors(source, &errors);
            (
                Verdict {
                    status: classify(&errors),
                    summaries: Vec::new(),
                    rendered: render_diagnostics(name, &diags, max_errors),
                    diags,
                },
                returned,
            )
        }
    };
    *elab = Some(returned);
    Ok(verdict)
}

/// The content address of compiling `source` under `limits` with the
/// engine this thread would use.
pub(crate) fn cache_key(source: &str, limits: &Limits) -> u64 {
    cache::key(source, limits, recmod_kernel::resolve_engine().name())
}

/// Loads the verdict cached under `key`, re-rendered under `name`, so a
/// hit is byte-identical to a compile even under a different display
/// name or `max_errors`. Any miss, corrupt entry or I/O failure is
/// `None`: the caller compiles.
pub(crate) fn replay(c: &cache::Cache, key: u64, name: &str, max_errors: usize) -> Option<Verdict> {
    let cache::Outcome::Hit(entry) = c.load(key) else {
        return None;
    };
    let entry = *entry;
    Some(Verdict {
        status: entry.status,
        summaries: entry.summaries,
        rendered: render_diagnostics(name, &entry.diags, max_errors),
        diags: entry.diags,
    })
}

/// Stores `verdict` under `key` when it is cacheable: ok and error
/// verdicts are pure functions of the key, while limit and internal
/// outcomes depend on wall clocks and bugs.
pub(crate) fn store(c: &cache::Cache, key: u64, verdict: &Verdict) {
    if matches!(verdict.status, FileStatus::Ok | FileStatus::Error) {
        c.store(
            key,
            &cache::Entry {
                status: verdict.status,
                summaries: verdict.summaries.clone(),
                diags: verdict.diags.clone(),
                counters: std::collections::BTreeMap::new(),
            },
        );
    }
}

fn classify(errors: &[SurfaceError]) -> FileStatus {
    if errors.iter().any(|e| e.is_internal()) {
        FileStatus::Internal
    } else if errors.iter().any(|e| e.is_limit()) {
        FileStatus::Limit
    } else {
        FileStatus::Error
    }
}

/// Renders diagnostics exactly like the single-file CLI
/// (`name:line:col: error: … [CODE]`, via the shared
/// [`recmod_surface::diag`] renderer), capped at `max_errors` with an
/// elision line, so batch output diffs cleanly against sequential
/// output. The structured `diags` themselves are never truncated.
fn render_diagnostics(name: &str, diags: &[Diagnostic], max_errors: usize) -> Vec<String> {
    let mut lines = Vec::with_capacity(diags.len().min(max_errors) + 1);
    for d in diags.iter().take(max_errors) {
        lines.push(sdiag::render_line(name, d));
    }
    if diags.len() > max_errors {
        lines.push(sdiag::render_elided(name, diags.len() - max_errors));
    }
    lines
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_SRC: &str = "val x = 1\nval y = x\n";
    const BAD_SRC: &str = "val x = nope\n";

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Job::new(format!("bad{i}.rm"), BAD_SRC)
                } else {
                    Job::new(format!("ok{i}.rm"), OK_SRC)
                }
            })
            .collect()
    }

    #[test]
    fn outcomes_follow_input_order() {
        let js = jobs(10);
        let cfg = DriverConfig {
            jobs: 4,
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        assert_eq!(res.outcomes.len(), 10);
        for (i, o) in res.outcomes.iter().enumerate() {
            assert_eq!(o.name, js[i].name);
        }
        assert_eq!(res.exit_code(), EXIT_USER);
        assert_eq!(res.ok_count(), 7);
    }

    #[test]
    fn jobs_one_and_many_agree() {
        let js = jobs(12);
        let one = compile_batch(
            &js,
            &DriverConfig {
                jobs: 1,
                ..DriverConfig::default()
            },
        );
        let eight = compile_batch(
            &js,
            &DriverConfig {
                jobs: 8,
                ..DriverConfig::default()
            },
        );
        assert_eq!(one.exit_code(), eight.exit_code());
        for (a, b) in one.outcomes.iter().zip(&eight.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.status, b.status);
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.summaries, b.summaries);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let js = jobs(23);
        let cfg = DriverConfig {
            jobs: 5,
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        let total: usize = res.workers.iter().map(|w| w.files).sum();
        assert_eq!(total, 23);
        assert_eq!(res.outcomes.len(), 23);
    }

    #[test]
    fn merged_counters_sum_per_worker() {
        let js = jobs(9);
        let cfg = DriverConfig {
            jobs: 3,
            telemetry: Some(Config::default()),
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        let merged = res.merged.as_ref().expect("telemetry requested");
        let files: u64 = merged.counters.get("driver.files").copied().unwrap_or(0);
        assert_eq!(files, 9);
        let per_worker: u64 = res
            .workers
            .iter()
            .filter_map(|w| w.report.as_ref())
            .filter_map(|r| r.counters.get("driver.files"))
            .sum();
        assert_eq!(per_worker, 9);
    }

    #[test]
    fn panicked_verdict_carries_the_panic_message() {
        // The payload a `panic!` with a formatted message unwinds with.
        let payload: Box<dyn std::any::Any + Send> = Box::new(format!("boom {}", 7));
        let v = Verdict::panicked("p.rm", payload.as_ref());
        assert_eq!(v.status, FileStatus::Internal);
        assert_eq!(
            v.rendered,
            vec!["p.rm: internal error: panic during compilation: boom 7"]
        );
        assert_eq!(v.diags[0].code, "I002");
    }

    #[test]
    fn deadline_zero_reports_limit() {
        let js = vec![Job::new("slow.rm", OK_SRC)];
        let cfg = DriverConfig {
            deadline_ms: Some(0),
            ..DriverConfig::default()
        };
        let res = compile_batch(&js, &cfg);
        assert_eq!(res.outcomes[0].status, FileStatus::Limit);
        assert_eq!(res.exit_code(), EXIT_LIMIT);
    }
}
