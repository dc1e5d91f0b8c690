//! `recmodc` — the command-line compiler/runner for the recursive-module
//! language.
//!
//! ```text
//! recmodc run  <file.rml>      compile and run, print the main value
//! recmodc check <file.rml>     typecheck only, print binding signatures
//! recmodc check [--jobs N] <file|dir>...   batch-check files/directories
//! recmodc check --corpus       batch-check the built-in paper corpus
//! recmodc serve [--socket PATH]  supervised compile service (JSON lines)
//! recmodc split <file.rml>     print each binding's phase-split parts
//! recmodc explain [CODE]       describe a diagnostic error code
//! recmodc -e "<expr>"          evaluate one expression
//! ```
//!
//! `<file.rml>` may be `-` to read the program from stdin. Batch mode
//! engages for `check` whenever `--jobs`/`--corpus` is given, more than
//! one path is named, or a path is a directory (searched recursively
//! for `*.rm`); it compiles files in parallel on worker threads that
//! share nothing, each reusing one renewed elaborator, and prints
//! per-file diagnostics prefixed by the file name, in input order.
//!
//! Options:
//!
//! * `--jobs N` — batch worker threads (default: available parallelism);
//! * `--corpus` — batch-check the built-in corpus (`recmod::corpus`);
//! * `--steps` — print the interpreter step count after `run`;
//! * `--fuel N` — set the kernel's normalization/equivalence fuel budget;
//! * `--limits K=V,...` — set resource limits (`depth`, `nodes`, `fuel`,
//!   `eval-fuel`, `eval-depth`);
//! * `--deadline-ms N` — abort any stage once `N` ms of wall clock pass;
//! * `--max-errors N` — print at most `N` diagnostics (default 20);
//! * `--stats` / `--stats=json` — print pipeline counters (kernel fuel
//!   by operation, μ-unrolls, whnf steps, per-binding elaboration
//!   timings, phase-split node counts, evaluator counters) as text or as
//!   one JSON document on stdout;
//! * `--trace` / `--trace=DEPTH` — print the kernel's judgement-level
//!   derivation trace (indented, depth-limited) to stderr;
//! * `--profile[=FILE]` — write a Chrome Trace Event / Perfetto JSON
//!   trace (default `trace.json`): per-worker thread lanes, one
//!   complete-duration event per judgement/stage span and per file,
//!   counter tracks (cache hit rates, interner occupancy, fuel), and
//!   instant events for limit hits and internal errors. Under `serve`,
//!   profiles the whole session: one event per compile attempt plus
//!   supervision instants (sheds, faults, respawns, drain). Load the
//!   file at <https://ui.perfetto.dev>;
//! * `--profile-text` — print a flat + top-down text profile computed
//!   from the span tree (self/total time and call counts);
//! * `--profile-by=judgement|stage|file` — pivot for `--profile-text`
//!   (default `judgement`);
//! * `--log-json FILE` — batch mode: write a structured JSONL event log,
//!   one event per file (path, outcome, exit class, stage times, counter
//!   deltas, worker id, structured diagnostics) after a
//!   `meta` header line; serve mode: the `--metrics-interval` heartbeat
//!   appends its metrics documents here;
//! * `--metrics-interval SECS` — serve mode (with `--log-json`): append
//!   one compact metrics document to the log every `SECS` seconds;
//! * `--metrics-text` — serve mode: print the session's final metrics
//!   as Prometheus exposition text on exit;
//! * `--diagnostics=json` — print one schema-versioned JSON document on
//!   stdout holding every diagnostic (stable code, span, provenance
//!   chain, expected/found, equation path); never truncated by
//!   `--max-errors`. Human-readable output moves to stderr. Conflicts
//!   with `--stats=json` (each claims stdout);
//! * `--crash-dir DIR` — where limit/internal exits (codes 3 and 4)
//!   write their crash bundle, a `recmod-crash-<hash>.json` holding the
//!   flight-recorder tail, counters, limits, and an input hash
//!   (default: the system temp directory);
//! * `--cache-dir DIR` — batch `check` and `serve`: consult and fill a
//!   content-addressed on-disk artifact cache keyed by source bytes ×
//!   limits × schema version × equivalence engine. Hits skip the
//!   pipeline entirely and replay the stored verdict and diagnostics;
//!   cache trouble (I/O errors, corrupt entries, an uncreatable
//!   directory) degrades to a C-coded warning on stderr, never a
//!   failure. See README "Caching";
//! * `--no-cache` — ignore `--cache-dir` (run everything uncached).
//!
//! Exit codes: `0` success, `1` program error (syntax/type/runtime),
//! `2` usage, `3` resource limit hit, `4` internal error (a compiler
//! bug — every panic is caught at this boundary and reported as one).

use std::process::ExitCode;

use recmod::stats::StatsReport;
use recmod::surface::diag::{self as sdiag, Diagnostic};
use recmod::surface::SurfaceError;
use recmod::syntax::pretty::{con_to_string, term_to_string, Names};
use recmod::telemetry::Limits;

/// Depth limit used by a bare `--trace` (override with `--trace=DEPTH`).
const DEFAULT_TRACE_DEPTH: usize = 8;

/// Default cap on printed diagnostics (override with `--max-errors`).
const DEFAULT_MAX_ERRORS: usize = 20;

const EXIT_USER: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_LIMIT: u8 = 3;
const EXIT_INTERNAL: u8 = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage: recmodc <run|check|split> <file|-> [options]\n       \
         recmodc check [--jobs N] <file|dir>... [options]\n       \
         recmodc check --corpus [options]\n       \
         recmodc serve [--socket PATH] [--queue-depth N] [--faults SEED,RATE[,KIND]]\n             \
         [--metrics-interval SECS] [--metrics-text] [--profile[=FILE]] [--log-json FILE]\n       \
         recmodc explain [CODE]\n       \
         recmodc -e \"<expression>\" [options]\n\
         options: --steps --fuel N --limits K=V,... --deadline-ms N\n         \
         --max-errors N --stats[=json] --diagnostics=json --trace[=DEPTH]\n         \
         --jobs N --corpus --crash-dir DIR --cache-dir DIR --no-cache\n         \
         --profile[=FILE] --profile-text --profile-by=judgement|stage|file\n         \
         --log-json FILE (batch only)\n\
         exit codes: 0 ok, 1 program error, 2 usage, 3 limit hit, 4 internal error\n         \
         (per-response: 5 overloaded, 6 draining)"
    );
    ExitCode::from(EXIT_USAGE)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    Off,
    Text,
    Json,
}

/// Pivot for `--profile-text`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileBy {
    /// Per span name (judgement form / stage), flat + top-down.
    Judgement,
    /// Per pipeline stage (exclusive stage-frame totals).
    Stage,
    /// Per input file (batch mode; a single row otherwise).
    File,
}

#[derive(Clone)]
struct Options {
    steps: bool,
    stats: StatsMode,
    trace: Option<usize>,
    max_errors: usize,
    limits: Limits,
    /// Raw `--deadline-ms` value; batch mode re-arms it per file (the
    /// absolute instant baked into `limits` would make later files time
    /// out just for being scheduled later).
    deadline_ms: Option<u64>,
    jobs: Option<usize>,
    corpus: bool,
    /// `--profile[=FILE]`: write a Chrome Trace Event JSON file.
    profile: Option<String>,
    /// `--profile-text`: print a text profile of the span tree.
    profile_text: bool,
    /// `--profile-by=...` pivot for the text profile.
    profile_by: ProfileBy,
    /// `--log-json FILE`: batch-mode structured JSONL event log.
    log_json: Option<String>,
    /// `--diagnostics=json`: structured diagnostics document on stdout.
    diagnostics: bool,
    /// `--crash-dir DIR`: where crash bundles land (default: temp dir).
    crash_dir: Option<String>,
    /// `serve --socket PATH`: listen on a unix socket instead of stdio.
    socket: Option<String>,
    /// `serve --queue-depth N`: admission-queue bound (default 256).
    queue_depth: Option<usize>,
    /// `serve --faults SEED,RATE[,KIND]`: deterministic fault injection.
    faults: Option<String>,
    /// `serve --metrics-interval SECS`: periodic metrics heartbeat
    /// appended to the `--log-json` file.
    metrics_interval: Option<u64>,
    /// `serve --metrics-text`: print the session's final metrics as
    /// Prometheus exposition text when the service exits.
    metrics_text: bool,
    /// `--cache-dir DIR`: content-addressed artifact cache for batch
    /// `check` and `serve` (single-file `check file.rm` stays uncached).
    cache_dir: Option<String>,
    /// `--no-cache`: ignore `--cache-dir`, run everything uncached.
    no_cache: bool,
}

impl Options {
    /// Is any profile output requested (trace file or text profile)?
    fn wants_profile(&self) -> bool {
        self.profile.is_some() || self.profile_text
    }

    /// Does a machine-readable document own stdout? If so, every
    /// human-readable line moves to stderr.
    fn machine_stdout(&self) -> bool {
        self.stats == StatsMode::Json || self.diagnostics
    }

    /// The artifact-cache configuration implied by the flags: `None`
    /// unless `--cache-dir` was given, and `--no-cache` wins over it.
    fn cache_config(&self) -> Option<recmod::driver::cache::CacheConfig> {
        if self.no_cache {
            return None;
        }
        self.cache_dir
            .as_ref()
            .map(|d| recmod::driver::cache::CacheConfig::new(std::path::PathBuf::from(d)))
    }

    /// The telemetry configuration implied by the flags, `None` when no
    /// observation was requested. Profiling upgrades the config to
    /// judgement-level span recording with the larger node cap.
    fn telemetry_config(&self) -> Option<recmod::telemetry::Config> {
        let observing =
            self.stats != StatsMode::Off || self.trace.is_some() || self.wants_profile();
        observing.then(|| {
            let mut config = match self.trace {
                Some(depth) => recmod::telemetry::Config::with_trace(depth),
                None => recmod::telemetry::Config::default(),
            };
            if self.wants_profile() {
                let profiled = recmod::telemetry::Config::profiled();
                config.profile = profiled.profile;
                config.span_max_nodes = profiled.span_max_nodes;
            }
            config
        })
    }
}

fn parse_options(args: Vec<String>) -> Result<(Vec<String>, Options), String> {
    let mut rest = Vec::new();
    let mut opts = Options {
        steps: false,
        stats: StatsMode::Off,
        trace: None,
        max_errors: DEFAULT_MAX_ERRORS,
        limits: Limits::default(),
        deadline_ms: None,
        jobs: None,
        corpus: false,
        profile: None,
        profile_text: false,
        profile_by: ProfileBy::Judgement,
        log_json: None,
        diagnostics: false,
        crash_dir: None,
        socket: None,
        queue_depth: None,
        faults: None,
        metrics_interval: None,
        metrics_text: false,
        cache_dir: None,
        no_cache: false,
    };
    let mut deadline_ms: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--steps" => opts.steps = true,
            "--corpus" => opts.corpus = true,
            "--jobs" => {
                let n = it.next().ok_or("--jobs needs a number")?;
                let jobs: usize = n.parse().map_err(|_| format!("bad job count: {n}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = Some(jobs);
            }
            "--stats" => opts.stats = StatsMode::Text,
            "--stats=json" => opts.stats = StatsMode::Json,
            "--diagnostics=json" => opts.diagnostics = true,
            "--crash-dir" => {
                let d = it.next().ok_or("--crash-dir needs a directory")?;
                opts.crash_dir = Some(d);
            }
            "--socket" => {
                let p = it.next().ok_or("--socket needs a path")?;
                opts.socket = Some(p);
            }
            "--queue-depth" => {
                let n = it.next().ok_or("--queue-depth needs a number")?;
                opts.queue_depth = Some(n.parse().map_err(|_| format!("bad queue depth: {n}"))?);
            }
            "--faults" => {
                let spec = it.next().ok_or("--faults needs SEED,RATE[,KIND]")?;
                opts.faults = Some(spec);
            }
            "--metrics-interval" => {
                let n = it.next().ok_or("--metrics-interval needs seconds")?;
                opts.metrics_interval = Some(parse_metrics_interval(&n)?);
            }
            "--metrics-text" => opts.metrics_text = true,
            "--cache-dir" => {
                let d = it.next().ok_or("--cache-dir needs a directory")?;
                opts.cache_dir = Some(d);
            }
            "--no-cache" => opts.no_cache = true,
            "--profile" => opts.profile = Some("trace.json".to_string()),
            "--profile-text" => opts.profile_text = true,
            "--log-json" => {
                let f = it.next().ok_or("--log-json needs a file name")?;
                opts.log_json = Some(f);
            }
            "--trace" => opts.trace = Some(DEFAULT_TRACE_DEPTH),
            "--fuel" => {
                let n = it.next().ok_or("--fuel needs a number")?;
                opts.limits.fuel = n.parse().map_err(|_| format!("bad fuel budget: {n}"))?;
            }
            "--limits" => {
                let spec = it.next().ok_or("--limits needs key=value,...")?;
                let parsed = recmod::telemetry::parse_limits_spec(&spec)?;
                // The spec replaces every keyed limit but must not drop
                // an already-parsed --deadline-ms.
                opts.limits = parsed;
            }
            "--deadline-ms" => {
                let n = it.next().ok_or("--deadline-ms needs a number")?;
                deadline_ms = Some(n.parse().map_err(|_| format!("bad deadline: {n}"))?);
            }
            "--max-errors" => {
                let n = it.next().ok_or("--max-errors needs a number")?;
                opts.max_errors = n.parse().map_err(|_| format!("bad error cap: {n}"))?;
            }
            _ if a.starts_with("--trace=") => {
                let d = &a["--trace=".len()..];
                opts.trace = Some(d.parse().map_err(|_| format!("bad trace depth: {d}"))?);
            }
            _ if a.starts_with("--profile-by=") => {
                opts.profile_by = match &a["--profile-by=".len()..] {
                    "judgement" => ProfileBy::Judgement,
                    "stage" => ProfileBy::Stage,
                    "file" => ProfileBy::File,
                    other => {
                        return Err(format!(
                            "unknown profile pivot: {other} (try judgement, stage, or file)"
                        ))
                    }
                };
            }
            _ if a.starts_with("--profile=") => {
                let f = &a["--profile=".len()..];
                if f.is_empty() {
                    return Err("--profile= needs a file name".to_string());
                }
                opts.profile = Some(f.to_string());
            }
            _ if a.starts_with("--log-json=") => {
                let f = &a["--log-json=".len()..];
                if f.is_empty() {
                    return Err("--log-json= needs a file name".to_string());
                }
                opts.log_json = Some(f.to_string());
            }
            _ if a.starts_with("--stats=") => {
                return Err(format!("unknown stats format: {a} (try --stats=json)"));
            }
            _ if a.starts_with("--socket=") => {
                let p = &a["--socket=".len()..];
                if p.is_empty() {
                    return Err("--socket= needs a path".to_string());
                }
                opts.socket = Some(p.to_string());
            }
            _ if a.starts_with("--queue-depth=") => {
                let n = &a["--queue-depth=".len()..];
                opts.queue_depth = Some(n.parse().map_err(|_| format!("bad queue depth: {n}"))?);
            }
            _ if a.starts_with("--faults=") => {
                let spec = &a["--faults=".len()..];
                if spec.is_empty() {
                    return Err("--faults= needs SEED,RATE[,KIND]".to_string());
                }
                opts.faults = Some(spec.to_string());
            }
            _ if a.starts_with("--metrics-interval=") => {
                let n = &a["--metrics-interval=".len()..];
                opts.metrics_interval = Some(parse_metrics_interval(n)?);
            }
            _ if a.starts_with("--cache-dir=") => {
                let d = &a["--cache-dir=".len()..];
                if d.is_empty() {
                    return Err("--cache-dir= needs a directory".to_string());
                }
                opts.cache_dir = Some(d.to_string());
            }
            _ if a.starts_with("--crash-dir=") => {
                let d = &a["--crash-dir=".len()..];
                if d.is_empty() {
                    return Err("--crash-dir= needs a directory".to_string());
                }
                opts.crash_dir = Some(d.to_string());
            }
            _ if a.starts_with("--diagnostics") => {
                return Err(format!(
                    "unknown diagnostics format: {a} (try --diagnostics=json)"
                ));
            }
            _ => rest.push(a),
        }
    }
    if let Some(ms) = deadline_ms {
        opts.limits = opts.limits.with_deadline_ms(ms);
        opts.deadline_ms = Some(ms);
    }
    if opts.diagnostics && opts.stats == StatsMode::Json {
        return Err(
            "--diagnostics=json conflicts with --stats=json (each claims stdout)".to_string(),
        );
    }
    Ok((rest, opts))
}

/// Parses a `--metrics-interval` seconds value (at least 1).
fn parse_metrics_interval(n: &str) -> Result<u64, String> {
    let secs: u64 = n
        .parse()
        .map_err(|_| format!("bad metrics interval: {n}"))?;
    if secs == 0 {
        return Err("--metrics-interval must be at least 1 second".to_string());
    }
    Ok(secs)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, opts) = match parse_options(args) {
        Ok(x) => x,
        Err(msg) => {
            eprintln!("recmodc: {msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let is_batch = matches!(args.as_slice(),
        [cmd, paths @ ..] if cmd.as_str() == "check" && wants_batch(paths, &opts));
    let is_serve = matches!(args.as_slice(), [cmd] if cmd.as_str() == "serve");
    if opts.log_json.is_some() && !is_batch && !is_serve {
        eprintln!(
            "recmodc: --log-json only applies to batch mode (check --jobs/--corpus/dir) or serve"
        );
        return ExitCode::from(EXIT_USAGE);
    }
    if opts.metrics_interval.is_some() && !(is_serve && opts.log_json.is_some()) {
        eprintln!("recmodc: --metrics-interval needs serve mode and --log-json FILE");
        return ExitCode::from(EXIT_USAGE);
    }
    if opts.metrics_text && !is_serve {
        eprintln!("recmodc: --metrics-text only applies to serve mode");
        return ExitCode::from(EXIT_USAGE);
    }

    match args.as_slice() {
        [cmd] if cmd.as_str() == "explain" => {
            for c in sdiag::CODES {
                println!("{}  {}", c.code, c.summary);
            }
            ExitCode::SUCCESS
        }
        [cmd, code] if cmd.as_str() == "explain" => match sdiag::explain(code) {
            Some(c) => {
                println!("{} — {}", c.code, c.summary);
                println!("  example: {}", c.example);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "recmodc: unknown error code: {code} (run `recmodc explain` to list all)"
                );
                ExitCode::from(EXIT_USAGE)
            }
        },
        [cmd] if cmd.as_str() == "serve" => run_serve(&opts),
        [flag, expr] if flag.as_str() == "-e" => run_source("<expr>", expr, &opts, Mode::Run),
        [cmd, paths @ ..] if cmd.as_str() == "check" && wants_batch(paths, &opts) => {
            run_batch(paths, &opts)
        }
        [cmd, path] => {
            let mode = match cmd.as_str() {
                "run" => Mode::Run,
                "check" => Mode::Check,
                "split" => Mode::Split,
                _ => return usage(),
            };
            let (name, src) = if path == "-" {
                let mut buf = String::new();
                use std::io::Read;
                if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                    eprintln!("recmodc: cannot read stdin: {e}");
                    return ExitCode::from(EXIT_USER);
                }
                ("<stdin>".to_string(), buf)
            } else {
                match std::fs::read_to_string(path) {
                    Ok(s) => (path.clone(), s),
                    Err(e) => {
                        eprintln!("recmodc: cannot read {path}: {e}");
                        return ExitCode::from(EXIT_USER);
                    }
                }
            };
            run_source(&name, &src, &opts, mode)
        }
        _ => usage(),
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Run,
    Check,
    Split,
}

/// Batch mode engages for `check` when explicitly requested
/// (`--jobs`/`--corpus`), when several paths are named, or when a path
/// is a directory; `check file.rm` alone keeps the single-file path
/// (and its unprefixed output) for compatibility.
fn wants_batch(paths: &[String], opts: &Options) -> bool {
    opts.corpus
        || opts.jobs.is_some()
        || paths.len() > 1
        || paths
            .iter()
            .any(|p| p != "-" && std::path::Path::new(p).is_dir())
}

/// `recmodc serve`: a supervised compile service speaking line-delimited
/// JSON over stdio (default) or a unix socket (`--socket PATH`). Each
/// request line gets exactly one response line reusing the structured
/// diagnostics schema; `--queue-depth` bounds admission (excess load is
/// shed with status `overloaded`), `--jobs` sets the worker count, and
/// `--faults SEED,RATE[,KIND]` arms deterministic fault injection for
/// chaos testing. See README "Serve" for the wire schema.
fn run_serve(opts: &Options) -> ExitCode {
    use recmod::driver::serve::{serve_connection, ServeConfig, Server};

    let faults = match &opts.faults {
        Some(spec) => match recmod::telemetry::fault::FaultPlan::parse(spec) {
            Ok(plan) => Some(plan),
            Err(msg) => {
                eprintln!("recmodc: {msg}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
        None => None,
    };
    let defaults = ServeConfig::default();
    // Seeding trace ids from the fault plan makes a chaos replay
    // reproduce not just the verdicts but the trace ids too.
    let trace_seed = faults.as_ref().map(|p| p.seed).unwrap_or(0);
    let cfg = ServeConfig {
        workers: opts.jobs.unwrap_or(defaults.workers),
        queue_depth: opts.queue_depth.unwrap_or(defaults.queue_depth),
        limits: opts.limits,
        default_deadline_ms: opts.deadline_ms.or(defaults.default_deadline_ms),
        max_errors: opts.max_errors,
        faults,
        crash_dir: Some(
            opts.crash_dir
                .as_ref()
                .map(std::path::PathBuf::from)
                .unwrap_or_else(std::env::temp_dir),
        ),
        log_events: true,
        cache: opts.cache_config(),
        trace_seed,
        profile: opts.profile.is_some(),
        ..defaults
    };
    let mut server = match Server::start(cfg) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("recmodc: {msg}");
            return ExitCode::from(EXIT_INTERNAL);
        }
    };

    let heartbeat_stop = std::sync::atomic::AtomicBool::new(false);
    let code = std::thread::scope(|scope| {
        if let (Some(secs), Some(path)) = (opts.metrics_interval, opts.log_json.as_deref()) {
            let server = &server;
            let stop = &heartbeat_stop;
            scope.spawn(move || serve_heartbeat(server, path, secs, stop));
        }
        let code = match &opts.socket {
            Some(path) => serve_socket(&server, path),
            None => {
                let stdin = std::io::stdin();
                serve_connection(&server, stdin.lock(), std::io::stdout());
                ExitCode::SUCCESS
            }
        };
        heartbeat_stop.store(true, std::sync::atomic::Ordering::Release);
        code
    });
    for w in server.cache_warnings() {
        eprintln!("{}", w.render());
    }
    server.shutdown();
    if let Some(path) = &opts.profile {
        match server.session_trace_json() {
            Some(doc) => match std::fs::write(path, doc.to_compact()) {
                Ok(()) => eprintln!(
                    "profile: wrote Chrome trace to {path} (open at https://ui.perfetto.dev)"
                ),
                Err(e) => eprintln!("recmodc: cannot write {path}: {e}"),
            },
            None => eprintln!("recmodc: no session profile recorded"),
        }
    }
    if opts.metrics_text {
        // The peer may already have closed stdout (it saw the shutdown
        // response); losing the scrape then is fine, panicking is not.
        use std::io::Write as _;
        let _ = std::io::stdout().write_all(server.metrics_text().as_bytes());
    }
    code
}

/// The `--metrics-interval` heartbeat: appends one compact metrics
/// document per tick to the `--log-json` file until the serve loop
/// signals `stop`. File trouble disables the heartbeat with a warning;
/// it never takes the service down.
fn serve_heartbeat(
    server: &recmod::driver::serve::Server,
    path: &str,
    secs: u64,
    stop: &std::sync::atomic::AtomicBool,
) {
    use std::io::Write as _;
    let mut file = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("recmodc: cannot open {path} for the metrics heartbeat: {e}");
            return;
        }
    };
    let interval = std::time::Duration::from_secs(secs);
    let mut next = std::time::Instant::now() + interval;
    // Polling keeps shutdown prompt without a dedicated wakeup channel.
    while !stop.load(std::sync::atomic::Ordering::Acquire) {
        std::thread::sleep(std::time::Duration::from_millis(50));
        if std::time::Instant::now() < next {
            continue;
        }
        next += interval;
        let line = server.metrics_json(false).to_compact();
        if writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .is_err()
        {
            eprintln!("recmodc: metrics heartbeat cannot write {path}; stopping it");
            return;
        }
    }
}

/// Accept loop for `serve --socket PATH`: one connection at a time,
/// polling between accepts so a `shutdown` op received on any
/// connection stops the listener. A stale socket file from a previous
/// run is removed before binding.
fn serve_socket(server: &recmod::driver::serve::Server, path: &str) -> ExitCode {
    use std::os::unix::net::UnixListener;

    let p = std::path::Path::new(path);
    if p.exists() {
        let _ = std::fs::remove_file(p);
    }
    let listener = match UnixListener::bind(p) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("recmodc: cannot bind {path}: {e}");
            return ExitCode::from(EXIT_USER);
        }
    };
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("recmodc: cannot poll {path}: {e}");
        return ExitCode::from(EXIT_INTERNAL);
    }
    eprintln!("recmodc: serving on {path}");
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                // The listener polls, but each connection reads blocking.
                if let Err(e) = stream.set_nonblocking(false) {
                    eprintln!("recmodc: cannot configure connection: {e}");
                    continue;
                }
                let reader = match stream.try_clone() {
                    Ok(s) => std::io::BufReader::new(s),
                    Err(e) => {
                        eprintln!("recmodc: cannot clone connection: {e}");
                        continue;
                    }
                };
                recmod::driver::serve::serve_connection(server, reader, stream);
                if server.is_draining() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if server.is_draining() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("recmodc: accept failed on {path}: {e}");
                break;
            }
        }
    }
    let _ = std::fs::remove_file(p);
    ExitCode::SUCCESS
}

fn run_batch(paths: &[String], opts: &Options) -> ExitCode {
    use recmod::driver;

    let mut jobs: Vec<driver::Job> = Vec::new();
    if opts.corpus {
        for entry in recmod::corpus::all() {
            jobs.push(driver::Job::new(entry.name, entry.source));
        }
    }
    if !paths.is_empty() {
        let pathbufs: Vec<std::path::PathBuf> =
            paths.iter().map(std::path::PathBuf::from).collect();
        match driver::jobs_from_paths(&pathbufs) {
            Ok(mut found) => jobs.append(&mut found),
            Err(msg) => {
                eprintln!("recmodc: cannot read {msg}");
                return ExitCode::from(EXIT_USER);
            }
        }
    }
    if jobs.is_empty() {
        eprintln!("recmodc: no input files");
        return ExitCode::from(EXIT_USAGE);
    }

    let telemetry = opts.telemetry_config();
    let config = driver::DriverConfig {
        file_counters: opts.log_json.is_some(),
        jobs: opts.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }),
        limits: opts.limits,
        deadline_ms: opts.deadline_ms,
        max_errors: opts.max_errors,
        telemetry,
        cache: opts.cache_config(),
        ..driver::DriverConfig::default()
    };
    let result = driver::compile_batch(&jobs, &config);
    for w in &result.cache_warnings {
        eprintln!("{}", w.render());
    }

    // With `--stats=json` or `--diagnostics=json`, stdout must carry
    // exactly one JSON document; the usual human-readable output moves
    // to stderr.
    macro_rules! out {
        ($($t:tt)*) => {
            if opts.machine_stdout() {
                eprintln!($($t)*)
            } else {
                println!($($t)*)
            }
        };
    }

    for outcome in &result.outcomes {
        match outcome.status {
            driver::FileStatus::Ok => {
                for (name, describe) in &outcome.summaries {
                    out!("{}: {name} : {describe}", outcome.name);
                }
                out!("{}: ok", outcome.name);
            }
            _ => {
                for line in &outcome.diagnostics {
                    eprintln!("{line}");
                }
            }
        }
    }
    let failed = result.outcomes.len() - result.ok_count();
    out!(
        "checked {} file(s) on {} worker(s): {} ok, {} failed",
        result.outcomes.len(),
        result.workers.len(),
        result.ok_count(),
        failed
    );
    let histogram = sdiag::histogram(result.outcomes.iter().flat_map(|o| &o.diags));
    if !histogram.is_empty() {
        let parts: Vec<String> = histogram
            .iter()
            .map(|(code, n)| format!("{code} x{n}"))
            .collect();
        out!("error codes: {}", parts.join(", "));
    }

    // Crash bundles for limit/internal outcomes; the driver captured
    // the per-file recorder tail on the worker that compiled the file.
    // Outcomes come back in input order, so they pair with `jobs`.
    for (outcome, job) in result.outcomes.iter().zip(&jobs) {
        if let Some(crash) = &outcome.crash {
            write_crash_bundle(
                opts,
                &outcome.name,
                &job.source,
                status_label(outcome.status),
                outcome.status.exit_code(),
                crash,
            );
        }
    }
    if opts.diagnostics {
        let files: Vec<(&str, &'static str, u8, &[Diagnostic])> = result
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.name.as_str(),
                    status_label(o.status),
                    o.status.exit_code(),
                    o.diags.as_slice(),
                )
            })
            .collect();
        println!("{}", diagnostics_doc(files).to_pretty());
    }

    if opts.trace.is_some() {
        if let Some(r) = &result.merged {
            eprint!("{}", r.render_trace());
        }
    }
    if let Some(path) = &opts.profile {
        write_batch_trace(path, &result);
    }
    if opts.profile_text {
        let text = render_batch_profile(&result, opts.profile_by);
        if opts.machine_stdout() {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }
    if let Some(path) = &opts.log_json {
        write_log_json(path, &result);
    }
    match opts.stats {
        StatsMode::Off => {}
        StatsMode::Text if opts.machine_stdout() => eprint!("{}", render_batch_stats(&result)),
        StatsMode::Text => print!("{}", render_batch_stats(&result)),
        StatsMode::Json => println!("{}", batch_stats_json(&result).to_pretty()),
    }
    ExitCode::from(result.exit_code())
}

/// The instant-event label for a file, `None` for uneventful outcomes.
fn instant_label(status: recmod::driver::FileStatus) -> Option<&'static str> {
    match status {
        recmod::driver::FileStatus::Limit => Some("limit"),
        recmod::driver::FileStatus::Internal => Some("internal"),
        _ => None,
    }
}

/// The machine-readable outcome label for a file.
fn status_label(status: recmod::driver::FileStatus) -> &'static str {
    match status {
        recmod::driver::FileStatus::Ok => "ok",
        recmod::driver::FileStatus::Error => "error",
        recmod::driver::FileStatus::Limit => "limit",
        recmod::driver::FileStatus::Internal => "internal",
    }
}

/// Writes the batch as a Chrome Trace Event / Perfetto JSON file: one
/// lane per worker (spans + counter tracks) plus one complete event per
/// input file, with instant events marking limit hits and panics.
fn write_batch_trace(path: &str, result: &recmod::driver::BatchResult) {
    use recmod::telemetry::chrome_trace::{export, FileEvent, Lane};
    let lanes: Vec<Lane<'_>> = result
        .workers
        .iter()
        .filter_map(|w| {
            w.report.as_ref().map(|report| Lane {
                tid: w.worker as u64,
                name: format!("worker {}", w.worker),
                report,
            })
        })
        .collect();
    let files: Vec<FileEvent> = result
        .outcomes
        .iter()
        .map(|o| FileEvent {
            name: o.name.clone(),
            tid: o.worker as u64,
            start_nanos: o.start_nanos,
            dur_nanos: o.nanos,
            instant: instant_label(o.status).map(String::from),
        })
        .collect();
    let doc = export("recmodc", &lanes, &files);
    match std::fs::write(path, doc.to_compact()) {
        Ok(()) => {
            eprintln!("profile: wrote Chrome trace to {path} (open at https://ui.perfetto.dev)")
        }
        Err(e) => eprintln!("recmodc: cannot write {path}: {e}"),
    }
}

/// The flat (+ top-down, for the judgement pivot) text profile of one
/// telemetry report. The file pivot is handled by the callers, which
/// know their file boundaries.
fn render_report_profile(report: &recmod::telemetry::Report, by: ProfileBy) -> String {
    use recmod::telemetry::profile;
    match by {
        ProfileBy::Judgement => {
            let rows = profile::flat(&report.spans);
            let wall = profile::self_total(&report.spans);
            let mut s = profile::render_flat(&rows, Some(wall));
            s.push_str(&profile::render_top_down(
                &profile::top_down(&report.spans),
                wall / 100,
            ));
            s
        }
        ProfileBy::Stage | ProfileBy::File => {
            let mut rows: Vec<profile::FlatEntry> = report
                .stage_totals()
                .iter()
                .map(|(name, t)| profile::FlatEntry {
                    name,
                    calls: t.calls,
                    total_nanos: t.nanos,
                    self_nanos: t.nanos,
                })
                .collect();
            rows.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.name.cmp(b.name)));
            let wall: u64 = rows.iter().map(|r| r.self_nanos).sum();
            profile::render_flat(&rows, Some(wall))
        }
    }
}

/// Single-file profile outputs: the whole pipeline is one trace lane;
/// the file pivot degenerates to the stage pivot (there is one file).
fn emit_single_profile(file: &str, opts: &Options, report: &recmod::telemetry::Report) {
    if let Some(path) = &opts.profile {
        use recmod::telemetry::chrome_trace::{export, Lane};
        let lanes = [Lane {
            tid: 0,
            name: format!("pipeline ({file})"),
            report,
        }];
        let doc = export("recmodc", &lanes, &[]);
        match std::fs::write(path, doc.to_compact()) {
            Ok(()) => {
                eprintln!("profile: wrote Chrome trace to {path} (open at https://ui.perfetto.dev)")
            }
            Err(e) => eprintln!("recmodc: cannot write {path}: {e}"),
        }
    }
    if opts.profile_text {
        let text = render_report_profile(report, opts.profile_by);
        if opts.machine_stdout() {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    }
}

/// The batch text profile under the requested pivot.
fn render_batch_profile(result: &recmod::driver::BatchResult, by: ProfileBy) -> String {
    match by {
        ProfileBy::Judgement | ProfileBy::Stage => match &result.merged {
            Some(report) => render_report_profile(report, by),
            None => "profile: no telemetry report\n".to_string(),
        },
        ProfileBy::File => {
            let mut s = String::from("file profile (wall ms, worker, status):\n");
            let mut sorted: Vec<_> = result.outcomes.iter().collect();
            sorted.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.name.cmp(&b.name)));
            for o in sorted {
                s.push_str(&format!(
                    "{:>12.3}  w{}  {:<8}  {}\n",
                    o.nanos as f64 / 1e6,
                    o.worker,
                    status_label(o.status),
                    o.name
                ));
            }
            s
        }
    }
}

/// Writes the batch as a JSONL event log: a `meta` header line, then one
/// event per file in input order with its outcome, timing, worker,
/// per-stage nanoseconds, and non-stage counter deltas.
fn write_log_json(path: &str, result: &recmod::driver::BatchResult) {
    use recmod::telemetry::json::Json;
    let mut out = String::new();
    out.push_str(
        &Json::obj([
            (
                "schema_version",
                Json::UInt(recmod::telemetry::SCHEMA_VERSION),
            ),
            ("kind", Json::str("meta")),
            ("files", Json::UInt(result.outcomes.len() as u64)),
            ("workers", Json::UInt(result.workers.len() as u64)),
            ("wall_nanos", Json::UInt(result.wall_nanos)),
        ])
        .to_compact(),
    );
    out.push('\n');
    for o in &result.outcomes {
        let mut fields = vec![
            ("kind", Json::str("file")),
            ("path", Json::str(o.name.as_str())),
            ("status", Json::str(status_label(o.status))),
            ("exit", Json::UInt(o.status.exit_code() as u64)),
            ("worker", Json::UInt(o.worker as u64)),
            ("start_nanos", Json::UInt(o.start_nanos)),
            ("nanos", Json::UInt(o.nanos)),
            (
                "diagnostics",
                Json::Arr(o.diags.iter().map(Diagnostic::to_json).collect()),
            ),
        ];
        if let Some(counters) = &o.counters {
            // `stage.X.nanos` deltas become the per-file stage times;
            // everything outside the stage namespace is a counter delta.
            let stages: std::collections::BTreeMap<String, Json> = counters
                .iter()
                .filter_map(|(k, v)| {
                    k.strip_prefix("stage.")
                        .and_then(|rest| rest.strip_suffix(".nanos"))
                        .map(|stage| (stage.to_string(), Json::UInt(*v)))
                })
                .collect();
            let deltas: std::collections::BTreeMap<String, Json> = counters
                .iter()
                .filter(|(k, _)| !k.starts_with("stage."))
                .map(|(k, v)| ((*k).to_string(), Json::UInt(*v)))
                .collect();
            fields.push(("stages", Json::Obj(stages)));
            fields.push(("counters", Json::Obj(deltas)));
        }
        out.push_str(&Json::obj(fields).to_compact());
        out.push('\n');
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!(
            "log: wrote {} event(s) to {path}",
            result.outcomes.len() + 1
        ),
        Err(e) => eprintln!("recmodc: cannot write {path}: {e}"),
    }
}

/// Human-readable batch statistics: wall clock, per-stage time
/// attribution (exclusive self-time summed across workers), per-worker
/// file counts, and merged pipeline counters.
fn render_batch_stats(result: &recmod::driver::BatchResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let wall_ms = result.wall_nanos as f64 / 1e6;
    let _ = writeln!(s, "batch: {:.2} ms wall", wall_ms);
    for w in &result.workers {
        let _ = writeln!(s, "worker {}: {} file(s)", w.worker, w.files);
    }
    if let Some(report) = &result.merged {
        let stages = report.stage_totals();
        if !stages.is_empty() {
            let _ = writeln!(s, "stages (exclusive time, all workers):");
            for (name, total) in &stages {
                let _ = writeln!(
                    s,
                    "  {name:<8} {:>10.3} ms  {:>8} call(s)",
                    total.nanos as f64 / 1e6,
                    total.calls
                );
            }
        }
        let _ = writeln!(s, "counters:");
        for (k, v) in &report.counters {
            if !k.starts_with("stage.") {
                let _ = writeln!(s, "  {k} = {v}");
            }
        }
    }
    s
}

/// The batch statistics as one JSON document.
fn batch_stats_json(result: &recmod::driver::BatchResult) -> recmod::telemetry::json::Json {
    use recmod::telemetry::json::Json;
    let mut obj = vec![
        (
            "schema_version",
            Json::UInt(recmod::telemetry::SCHEMA_VERSION),
        ),
        ("files", Json::UInt(result.outcomes.len() as u64)),
        ("ok", Json::UInt(result.ok_count() as u64)),
        ("workers", Json::UInt(result.workers.len() as u64)),
        ("wall_nanos", Json::UInt(result.wall_nanos)),
        (
            "error_codes",
            Json::Obj(
                sdiag::histogram(result.outcomes.iter().flat_map(|o| &o.diags))
                    .iter()
                    .map(|(code, n)| ((*code).to_string(), Json::UInt(*n)))
                    .collect(),
            ),
        ),
        (
            "per_worker",
            Json::Arr(
                result
                    .workers
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("worker", Json::UInt(w.worker as u64)),
                            ("files", Json::UInt(w.files as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(report) = &result.merged {
        obj.push((
            "stages",
            Json::Obj(
                report
                    .stage_totals()
                    .iter()
                    .map(|(name, t)| {
                        (
                            (*name).to_string(),
                            Json::obj([
                                ("nanos", Json::UInt(t.nanos)),
                                ("calls", Json::UInt(t.calls)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "counters",
            Json::Obj(
                report
                    .counters
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), Json::UInt(*v)))
                    .collect(),
            ),
        ));
    }
    Json::obj(obj)
}

/// Stack size for the pipeline thread. Parsing, elaboration, and
/// evaluation are all recursive; running them on a dedicated big stack
/// guarantees the [`Limits`] depth guards fire long before the host
/// stack is at risk, even in debug builds with fat frames.
const PIPELINE_STACK_MB: usize = 512;

fn run_source(file: &str, src: &str, opts: &Options, mode: Mode) -> ExitCode {
    let file = file.to_string();
    let src = src.to_string();
    let opts = opts.clone();
    // Telemetry state is thread-local, so the whole observed pipeline
    // (install → compile/run → uninstall → print) lives on the big-stack
    // thread.
    let code = recmod::eval::run_big_stack(PIPELINE_STACK_MB, move || {
        run_pipeline(&file, &src, &opts, mode)
    });
    ExitCode::from(code)
}

fn run_pipeline(file: &str, src: &str, opts: &Options, mode: Mode) -> u8 {
    let telemetry = opts.telemetry_config();
    let observing = telemetry.is_some();
    if let Some(config) = telemetry {
        recmod::telemetry::install(config);
    }
    recmod::telemetry::diag::reset_recorder();
    // The last line of defense: any panic that slips past the
    // structured error paths is a compiler bug, reported as an
    // internal-error diagnostic rather than an unwound process.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_source_inner(file, src, opts, mode)
    }));
    let (code, observed, diags) = match caught {
        Ok(x) => x,
        Err(payload) => {
            recmod::telemetry::count("internal.panics", 1);
            let msg = panic_message(&payload);
            eprintln!("{file}: internal error: panic: {msg}");
            eprintln!("{file}: this is a bug in recmodc, not in your program");
            let diag = Diagnostic::internal("I002", format!("panic: {msg}"));
            (EXIT_INTERNAL, None, vec![diag])
        }
    };
    // Crash forensics must be captured on this thread (the flight
    // recorder is thread-local) and before the telemetry sink is
    // uninstalled (the counter snapshot needs it live).
    if code == EXIT_LIMIT || code == EXIT_INTERNAL {
        let crash = recmod::telemetry::diag::crash_data();
        write_crash_bundle(opts, file, src, exit_status_label(code), code, &crash);
    }
    if opts.diagnostics {
        let doc = diagnostics_doc([(file, exit_status_label(code), code, diags.as_slice())]);
        println!("{}", doc.to_pretty());
    }
    let report = if observing {
        recmod::telemetry::uninstall()
    } else {
        None
    };
    if opts.trace.is_some() {
        if let Some(r) = &report {
            eprint!("{}", r.render_trace());
        }
    }
    if let Some(r) = &report {
        emit_single_profile(file, opts, r);
    }
    if opts.stats != StatsMode::Off {
        if let Some((compiled, eval)) = observed {
            let stats = StatsReport::collect(&compiled, eval, report);
            match opts.stats {
                StatsMode::Json => println!("{}", stats.to_json().to_pretty()),
                StatsMode::Text if opts.machine_stdout() => eprint!("{}", stats.render_text()),
                StatsMode::Text => print!("{}", stats.render_text()),
                StatsMode::Off => unreachable!(),
            }
        }
    }
    code
}

/// The outcome label for a single-file exit code.
fn exit_status_label(code: u8) -> &'static str {
    match code {
        0 => "ok",
        EXIT_LIMIT => "limit",
        EXIT_INTERNAL => "internal",
        _ => "error",
    }
}

/// The `--diagnostics=json` document: one schema-versioned object with
/// a `files` array of `{path, status, exit, diagnostics}` records. The
/// diagnostics arrays are never truncated by `--max-errors`.
fn diagnostics_doc<'a>(
    files: impl IntoIterator<Item = (&'a str, &'static str, u8, &'a [Diagnostic])>,
) -> recmod::telemetry::json::Json {
    use recmod::telemetry::json::Json;
    let entries: Vec<Json> = files
        .into_iter()
        .map(|(path, status, exit, diags)| {
            Json::obj([
                ("path", Json::str(path)),
                ("status", Json::str(status)),
                ("exit", Json::UInt(exit as u64)),
                (
                    "diagnostics",
                    Json::Arr(diags.iter().map(Diagnostic::to_json).collect()),
                ),
            ])
        })
        .collect();
    Json::obj([
        (
            "schema_version",
            Json::UInt(recmod::telemetry::SCHEMA_VERSION),
        ),
        ("kind", Json::str("diagnostics")),
        ("files", Json::Arr(entries)),
    ])
}

/// Writes the crash bundle for a limit/internal exit under `--crash-dir`
/// (default the system temp directory) through the shared
/// `telemetry::bundle` writer, whose filename discriminator keeps
/// repeated failures on one input from overwriting each other. Failure
/// to write is reported but never changes the exit code — forensics
/// must not mask the original error.
fn write_crash_bundle(
    opts: &Options,
    file: &str,
    src: &str,
    status: &'static str,
    exit: u8,
    crash: &recmod::telemetry::diag::CrashData,
) {
    let dir = opts
        .crash_dir
        .as_ref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    match recmod::telemetry::bundle::write_bundle(
        &dir,
        file,
        src,
        status,
        exit,
        &opts.limits,
        crash,
    ) {
        Ok(path) => eprintln!("crash bundle: wrote {}", path.display()),
        Err(msg) => eprintln!("recmodc: {msg}"),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Prints up to `max_errors` diagnostics through the shared renderer
/// (`file:line:col: error: … [CODE]`), classifies them into an exit
/// code (internal errors dominate, then resource limits, then ordinary
/// program errors), and hands back the full untruncated structured set.
fn report_errors(
    file: &str,
    src: &str,
    errors: &[SurfaceError],
    max_errors: usize,
) -> (u8, Vec<Diagnostic>) {
    let diags = sdiag::from_errors(src, errors);
    for d in diags.iter().take(max_errors) {
        eprintln!("{}", sdiag::render_line(file, d));
    }
    if diags.len() > max_errors {
        eprintln!("{}", sdiag::render_elided(file, diags.len() - max_errors));
    }
    let code = if errors.iter().any(|e| e.is_internal()) {
        EXIT_INTERNAL
    } else if errors.iter().any(|e| e.is_limit()) {
        EXIT_LIMIT
    } else {
        EXIT_USER
    };
    (code, diags)
}

type Observed = Option<(recmod::Compiled, Option<recmod::eval::EvalStats>)>;

fn run_source_inner(
    file: &str,
    src: &str,
    opts: &Options,
    mode: Mode,
) -> (u8, Observed, Vec<Diagnostic>) {
    // With `--stats=json` or `--diagnostics=json`, stdout must carry
    // exactly one JSON document; the usual human-readable output moves
    // to stderr.
    macro_rules! out {
        ($($t:tt)*) => {
            if opts.machine_stdout() {
                eprintln!($($t)*)
            } else {
                println!($($t)*)
            }
        };
    }
    let compiled = match recmod::surface::compile_with_limits(src, &opts.limits) {
        Ok(c) => c,
        Err(errors) => {
            let (code, diags) = report_errors(file, src, &errors, opts.max_errors);
            return (code, None, diags);
        }
    };
    match mode {
        Mode::Check => {
            for (name, describe) in compiled.summaries() {
                out!("{name} : {describe}");
            }
            out!("ok");
            (0, Some((compiled, None)), Vec::new())
        }
        Mode::Split => {
            for b in &compiled.elab.bindings {
                out!("── {} ──", b.name);
                match &b.static_part {
                    Some(con) => {
                        out!("  static:  {}", con_to_string(con, &mut Names::new()))
                    }
                    None => out!("  static:  (none — value binding)"),
                }
                out!(
                    "  dynamic: {}",
                    term_to_string(&b.dynamic, &mut Names::new())
                );
            }
            (0, Some((compiled, None)), Vec::new())
        }
        Mode::Run => {
            if compiled.main.is_none() {
                for (name, describe) in compiled.summaries() {
                    out!("{name} : {describe}");
                }
                eprintln!("(no main expression; add one after the declarations)");
                return (0, Some((compiled, None)), Vec::new());
            }
            // Already on the big-stack pipeline thread; evaluate inline.
            let term = compiled.program();
            let mut interp = recmod::eval::Interp::with_pipeline_limits(&opts.limits);
            let outcome = interp.run(&term).map(|v| v.to_string());
            let stats = interp.stats();
            // The counters are reported on both arms: a run that fails
            // or hits a limit is exactly when they are wanted.
            let report_steps = || {
                if opts.steps {
                    eprintln!("steps: {}", stats.steps);
                }
            };
            match outcome {
                Ok(v) => {
                    out!("{v}");
                    report_steps();
                    (0, Some((compiled, Some(stats))), Vec::new())
                }
                Err(e) => {
                    eprintln!("{file}: runtime error: {e}");
                    report_steps();
                    // Runtime failures carry a code too: resource-class
                    // ones map onto the L taxonomy, stuck states are
                    // compiler bugs; an ordinary `raise Fail` is the
                    // program's own business and stays code-less.
                    let (code, diag_code) = match &e {
                        recmod::eval::EvalError::DepthExceeded => (EXIT_LIMIT, Some("L001")),
                        recmod::eval::EvalError::Limit(l) => (EXIT_LIMIT, Some(l.kind.code())),
                        e if e.is_limit() => (EXIT_LIMIT, Some("L003")),
                        // The kernel accepted this program, so a stuck
                        // or ill-formed runtime state is our bug.
                        recmod::eval::EvalError::Stuck(_)
                        | recmod::eval::EvalError::BlackHole
                        | recmod::eval::EvalError::OpenTerm => (EXIT_INTERNAL, Some("I001")),
                        _ => (EXIT_USER, None),
                    };
                    let diags = diag_code
                        .map(|c| vec![Diagnostic::internal(c, format!("runtime error: {e}"))])
                        .unwrap_or_default();
                    (code, Some((compiled, Some(stats))), diags)
                }
            }
        }
    }
}
