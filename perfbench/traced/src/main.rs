//! In-process traced run of the recmod benchmark.
//!
//! `perfbench/run.py --trace 1` generates a workload's inputs and runs
//! this binary over them. It links the recmod crates and times calls
//! into each layer's public functions, so nothing inside the program
//! changes:
//!
//! * `surface`: `lexer::lex`, `parse_with`, `compile_with_limits_in` on a
//!   renewed warm `Elaborator`, and diagnostic rendering;
//! * `kernel` and `syntax`: deltas of `Tc::stats()` around each compile,
//!   and of `intern_stats()` and `shard_occupancy()` around the loop;
//! * `eval`: `Compiled::program()` and `Interp::run` on `run_lists`, the
//!   only workload that runs code;
//! * `driver.cache`: `cache::key`, `Cache::store` and `Cache::load`;
//! * `driver`: `compile_batch` at jobs 1 against bare compile passes over
//!   the same programs;
//! * `driver.serve`: an in-process `Server` replaying the open-loop
//!   schedule (`--schedule`: due offset, working-set index, edit flag)
//!   that `run.py` generated.
//!
//! Every call is wrapped in a span (name, start, end, parent, program
//! or request id). Spans stay in memory and are written once, at the
//! end, as Chrome trace JSON that Perfetto loads. The compile loop runs
//! each round twice over the same programs, traced and untraced, and
//! `trace.overhead_frac` compares the two.
//!
//! The last line of standard output is a JSON object with `attempted`,
//! `failed`, `failures` (the first few), `notes` and `metrics`
//! (`[name, value]` pairs; the units are in `BENCHMARK.json`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use recmod::driver::cache::{self, Cache, CacheConfig, Entry, Outcome};
use recmod::driver::serve::{Request, Response, ResponseStatus, ServeConfig, Server};
use recmod::driver::{self, DriverConfig, FileStatus, Job};
use recmod::eval::Interp;
use recmod::kernel::stats::KernelStats;
use recmod::surface::diag as sdiag;
use recmod::surface::pipeline::compile_with_limits_in;
use recmod::surface::{lexer, parse_with, Elaborator};
use recmod::syntax::intern;
use recmod::telemetry::json::Json;
use recmod::Limits;

/// Programs in the compile loop's round: enough for a round of about a
/// second on `check_gen`, all of them on the smaller workloads.
const ROUND_PROGRAMS: usize = 400;
/// Share of `--seconds` given to each phase.
const LOOP_SHARE: f64 = 0.3;
const BATCH_SHARE: f64 = 0.1;
const EVAL_SHARE: f64 = 0.2;

struct Args {
    workload: String,
    dir: PathBuf,
    manifest: PathBuf,
    seconds: f64,
    work: PathBuf,
    spans: PathBuf,
    schedule: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let mut take = |k: &str| map.remove(k).ok_or_else(|| format!("missing {k}"));
    Ok(Args {
        workload: take("--workload")?,
        dir: take("--dir")?.into(),
        manifest: take("--manifest")?.into(),
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        work: take("--work")?.into(),
        spans: take("--spans")?.into(),
        schedule: take("--schedule")?.into(),
    })
}

/// What a program must answer: a verdict (`ok` or the first error
/// code) or, for list programs, the value n(n+1)/2.
enum Expect {
    Verdict(String),
    Value(i64),
}

struct Prog {
    name: String,
    src: String,
    expect: Expect,
}

fn load_programs(args: &Args) -> Result<Vec<Prog>, String> {
    let manifest = std::fs::read_to_string(&args.manifest).map_err(|e| e.to_string())?;
    let mut progs = Vec::new();
    for line in manifest.lines() {
        let (name, want) = line.split_once('\t').ok_or("bad manifest line")?;
        let src = std::fs::read_to_string(args.dir.join(name)).map_err(|e| e.to_string())?;
        let expect = if args.workload == "run_lists" {
            let n: i64 = want.parse().map_err(|e| format!("{name}: {e}"))?;
            Expect::Value(n * (n + 1) / 2)
        } else {
            Expect::Verdict(want.to_string())
        };
        progs.push(Prog {
            name: name.to_string(),
            src,
            expect,
        });
    }
    if progs.is_empty() {
        return Err("empty manifest".into());
    }
    Ok(progs)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    /// Program index or request id; spans of one program share it.
    id: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory span recorder. When off, `enter`/`exit` record nothing
/// but still return durations, so the untraced loop runs the same code
/// minus the recording.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<(usize, u64)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, id: u64) {
        let start = self.now();
        let idx = if self.on {
            self.spans.push(Span {
                name,
                id,
                parent: self.stack.last().map(|&(i, _)| i),
                start,
                end: start,
            });
            self.spans.len() - 1
        } else {
            usize::MAX
        };
        self.stack.push((idx, start));
    }

    /// Closes the innermost span; returns its duration in ns.
    fn exit(&mut self) -> u64 {
        let end = self.now();
        let (idx, start) = self.stack.pop().expect("exit matches an enter");
        if let Some(s) = self.spans.get_mut(idx) {
            s.end = end;
        }
        end - start
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover. Returns name -> (calls, total ns, self ns).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            let dur = s.end - s.start;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child[i]);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linear-interpolated percentile `q` (0..=100); 0 for an empty sample.
fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = (xs.len() - 1) as f64 * q / 100.0;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(xs.len() - 1);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn kernel_delta(after: &KernelStats, before: &KernelStats, acc: &mut KernelStats) {
    for (i, f) in acc.fuel_by_op.iter_mut().enumerate() {
        *f += after.fuel_by_op[i] - before.fuel_by_op[i];
    }
    acc.mu_unrolls += after.mu_unrolls - before.mu_unrolls;
    acc.whnf_cache_hits += after.whnf_cache_hits - before.whnf_cache_hits;
    acc.whnf_cache_misses += after.whnf_cache_misses - before.whnf_cache_misses;
    acc.synth_cache_hits += after.synth_cache_hits - before.synth_cache_hits;
    acc.synth_cache_misses += after.synth_cache_misses - before.synth_cache_misses;
    acc.eval_steps += after.eval_steps - before.eval_steps;
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

#[derive(Default)]
struct Report {
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Per-program measurements from the traced compile loop.
#[derive(Default)]
struct LoopSamples {
    kb: f64,
    lex_ns: u64,
    parse_self_ns: u64,
    compile_ms: Vec<f64>,
    elab_self_ns: u64,
    render_us: Vec<f64>,
    kernel: KernelStats,
    compiles: u64,
    link_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    eval_steps: Vec<f64>,
    key_ns: u64,
    key_kb: f64,
    load_us: Vec<f64>,
    store_us: Vec<f64>,
}

/// One program through the compile path: lex, parse, compile on the
/// renewed warm elaborator, render diagnostics. Returns the elaborator
/// for the next program.
fn one_program(
    r: &mut Report,
    limits: Limits,
    tr: &mut Tracer,
    samples: &mut LoopSamples,
    idx: usize,
    prog: &Prog,
    mut elab: Elaborator,
) -> Elaborator {
    let id = idx as u64;
    let src = prog.src.as_str();
    let traced = tr.on;
    tr.enter("program", id);

    tr.enter("surface.lex", id);
    black_box(lexer::lex(black_box(src)).is_ok());
    let lex_ns = tr.exit();

    tr.enter("surface.parse", id);
    black_box(parse_with(black_box(src), &limits).is_ok());
    let parse_ns = tr.exit();

    elab.renew(limits);
    let k0 = elab.tc.stats();
    tr.enter("surface.compile", id);
    let result = compile_with_limits_in(elab, src);
    let compile_ns = tr.exit();

    let (verdict, elab) = match result {
        Ok(compiled) => {
            let k1 = compiled.elab.tc.stats();
            if traced {
                kernel_delta(&k1, &k0, &mut samples.kernel);
            }
            ("ok", compiled.elab)
        }
        Err((errors, elab)) => {
            let k1 = elab.tc.stats();
            if traced {
                kernel_delta(&k1, &k0, &mut samples.kernel);
            }
            tr.enter("surface.render", id);
            let diags = sdiag::from_errors(src, &errors);
            let lines: Vec<String> = diags
                .iter()
                .map(|d| sdiag::render_line(&prog.name, d))
                .collect();
            black_box(lines);
            let render_ns = tr.exit();
            if traced {
                samples.render_us.push(render_ns as f64 / 1e3);
            }
            (diags.first().map_or("none", |d| d.code), elab)
        }
    };
    r.attempted += 1;
    if let Expect::Verdict(want) = &prog.expect {
        if verdict != want {
            r.fail(format!("{}: expected {want}, got {verdict}", prog.name));
        }
    } else if verdict != "ok" {
        r.fail(format!("{}: expected ok, got {verdict}", prog.name));
    }

    tr.exit();
    if traced {
        samples.kb += src.len() as f64 / 1024.0;
        samples.lex_ns += lex_ns;
        samples.parse_self_ns += parse_ns.saturating_sub(lex_ns);
        samples.compile_ms.push(ms(compile_ns));
        samples.elab_self_ns += compile_ns.saturating_sub(parse_ns);
        samples.compiles += 1;
    }
    elab
}

fn compile_loop(
    r: &mut Report,
    limits: Limits,
    tr: &mut Tracer,
    progs: &[Prog],
    budget: Duration,
) -> LoopSamples {
    let round = &progs[..progs.len().min(ROUND_PROGRAMS)];
    let mut samples = LoopSamples::default();
    let mut elab = Elaborator::with_limits(limits);
    let (mut on_ns, mut off_ns) = (Vec::new(), Vec::new());
    let i0 = intern::intern_stats();
    let start = Instant::now();
    while on_ns.is_empty() || start.elapsed() < budget {
        // Alternate which side goes first, so drift favours neither.
        let order = if on_ns.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for on in order {
            tr.on = on;
            let t = Instant::now();
            for (i, prog) in round.iter().enumerate() {
                elab = one_program(r, limits, tr, &mut samples, i, prog, elab);
            }
            let ns = t.elapsed().as_nanos() as f64;
            if on { &mut on_ns } else { &mut off_ns }.push(ns);
        }
    }
    tr.on = true;
    let i1 = intern::intern_stats();
    let hits = (i1.hits - i0.hits) as f64;
    let misses = (i1.misses - i0.misses) as f64;
    let nodes: u64 = intern::shard_occupancy().iter().sum();
    r.notes.push(format!(
        "traced loop: {} round(s) of {} program(s), traced {:.3} s vs untraced {:.3} s (median round)",
        on_ns.len(),
        round.len(),
        pct(&on_ns, 50.0) / 1e9,
        pct(&off_ns, 50.0) / 1e9
    ));
    r.metric(
        "trace.overhead_frac",
        ratio(pct(&on_ns, 50.0), pct(&off_ns, 50.0)) - 1.0,
    );
    r.metric("syntax.intern_hit_ratio", ratio(hits, hits + misses));
    r.metric("syntax.intern_nodes", nodes as f64);
    samples
}

/// Links and runs each list program (`Compiled::program`, then
/// `Interp::run`) and checks its value, until the budget is spent. Kept
/// out of the compile rounds: freeing a long list's values makes the
/// next allocation-heavy call pay for it, which would show up as lexer
/// time.
fn eval_phase(
    r: &mut Report,
    limits: Limits,
    tr: &mut Tracer,
    s: &mut LoopSamples,
    progs: &[Prog],
    budget: Duration,
) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        rounds += 1;
        for (i, prog) in progs.iter().enumerate() {
            let id = i as u64;
            let Ok(compiled) = recmod::surface::compile_with_limits(&prog.src, &limits) else {
                r.fail(format!("{}: did not compile", prog.name));
                continue;
            };
            tr.enter("program", id);
            tr.enter("eval.link", id);
            let term = compiled.program();
            s.link_ms.push(ms(tr.exit()));
            let mut interp = Interp::with_pipeline_limits(&limits);
            tr.enter("eval.run", id);
            let value = interp.run(&term).and_then(|v| v.as_int());
            s.eval_ms.push(ms(tr.exit()));
            tr.exit();
            s.eval_steps.push(interp.steps() as f64);
            r.attempted += 1;
            if let Expect::Value(want) = prog.expect {
                match value {
                    Ok(v) if v == want => {}
                    other => r.fail(format!("{}: ran to {other:?}, expected {want}", prog.name)),
                }
            }
        }
    }
    r.notes.push(format!(
        "eval: {rounds} round(s) of {} program(s)",
        progs.len()
    ));
}

/// `cache::key`, `Cache::store` and `Cache::load` on each of the
/// loop's programs, with the verdict each compiled to. Kept out of the
/// overhead rounds: a store syncs a file, whose cost varies more than
/// the tracing being measured.
fn cache_phase(
    r: &mut Report,
    tr: &mut Tracer,
    s: &mut LoopSamples,
    progs: &[Prog],
    limits: Limits,
    dir: &Path,
) -> Result<(), String> {
    let cache = Cache::open(&CacheConfig::new(dir)).map_err(|w| w.render())?;
    let engine = recmod::kernel::resolve_engine().name();
    for (i, prog) in progs.iter().take(ROUND_PROGRAMS).enumerate() {
        let id = i as u64;
        let (status, diags) = match &prog.expect {
            Expect::Verdict(code) if code != "ok" => (
                FileStatus::Error,
                recmod::surface::compile_with_limits(&prog.src, &limits)
                    .err()
                    .map(|errs| sdiag::from_errors(&prog.src, &errs))
                    .unwrap_or_default(),
            ),
            _ => (FileStatus::Ok, Vec::new()),
        };
        let entry = Entry {
            status,
            summaries: Vec::new(),
            diags,
            counters: BTreeMap::new(),
        };
        tr.enter("cache.key", id);
        let key = cache::key(&prog.src, &limits, engine);
        s.key_ns += tr.exit();
        s.key_kb += prog.src.len() as f64 / 1024.0;
        tr.enter("cache.store", id);
        cache.store(key, &entry);
        s.store_us.push(tr.exit() as f64 / 1e3);
        tr.enter("cache.load", id);
        let hit = matches!(cache.load(key), Outcome::Hit(_));
        s.load_us.push(tr.exit() as f64 / 1e3);
        r.attempted += 1;
        if !hit {
            r.fail(format!("{}: stored cache entry did not load", prog.name));
        }
    }
    Ok(())
}

fn loop_metrics(r: &mut Report, s: &LoopSamples) {
    let n = s.compiles as f64;
    let k = &s.kernel;
    r.metric("surface.lex_us_per_kb", ratio(s.lex_ns as f64 / 1e3, s.kb));
    r.metric(
        "surface.parse_us_per_kb",
        ratio(s.parse_self_ns as f64 / 1e3, s.kb),
    );
    r.metric("compile_ms.p50", pct(&s.compile_ms, 50.0));
    r.metric("compile_ms.p99", pct(&s.compile_ms, 99.0));
    r.metric("surface.elab_self_ms", ratio(ms(s.elab_self_ns), n));
    r.metric("surface.render_us", mean(&s.render_us));
    r.metric("kernel.fuel_per_program", ratio(k.fuel_used() as f64, n));
    r.metric(
        "kernel.whnf_hit_ratio",
        ratio(
            k.whnf_cache_hits as f64,
            (k.whnf_cache_hits + k.whnf_cache_misses) as f64,
        ),
    );
    r.metric(
        "kernel.synth_hit_ratio",
        ratio(
            k.synth_cache_hits as f64,
            (k.synth_cache_hits + k.synth_cache_misses) as f64,
        ),
    );
    r.metric(
        "kernel.mu_unrolls_per_program",
        ratio(k.mu_unrolls as f64, n),
    );
    r.metric(
        "kernel.machine_steps_per_program",
        ratio(k.eval_steps as f64, n),
    );
    r.metric("eval.ms.p50", pct(&s.eval_ms, 50.0));
    r.metric("eval.ms.p90", pct(&s.eval_ms, 90.0));
    r.metric("eval.steps", mean(&s.eval_steps));
    r.metric("link.ms", mean(&s.link_ms));
    r.metric(
        "cache.key_us_per_kb",
        ratio(s.key_ns as f64 / 1e3, s.key_kb),
    );
    r.metric("cache.load_us.p50", pct(&s.load_us, 50.0));
    r.metric("cache.store_us.p50", pct(&s.store_us, 50.0));
}

/// `compile_batch` at jobs 1 over the loop's programs, alternated with
/// a bare pass that only renews one warm elaborator and calls
/// `compile_with_limits_in` on the same programs in the same order. The
/// difference is what the batch driver adds per file: worker set-up,
/// `catch_unwind`, classification, rendering and ordering.
fn batch_phase(r: &mut Report, progs: &[Prog], limits: Limits, budget: Duration) {
    let round = &progs[..progs.len().min(ROUND_PROGRAMS)];
    let jobs: Vec<Job> = round
        .iter()
        .map(|p| Job::new(p.name.clone(), p.src.clone()))
        .collect();
    let config = DriverConfig {
        jobs: 1,
        limits,
        ..DriverConfig::default()
    };
    let sources: Vec<String> = round.iter().map(|p| p.src.clone()).collect();
    let (mut batch, mut bare) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while batch.len() < 3 || (start.elapsed() < budget && batch.len() < 15) {
        let t = Instant::now();
        let result = driver::compile_batch(&jobs, &config);
        batch.push(t.elapsed().as_nanos() as f64);
        r.attempted += result.outcomes.len() as u64;
        for (o, p) in result.outcomes.iter().zip(round) {
            let got = match o.status {
                FileStatus::Ok => "ok",
                _ => o.diags.first().map_or("none", |d| d.code),
            };
            let ok = match &p.expect {
                Expect::Verdict(want) => got == want,
                Expect::Value(_) => got == "ok",
            };
            if !ok {
                r.fail(format!("batch {}: got {got}", p.name));
            }
        }

        bare.push(bare_pass(&sources, limits));
    }
    let (wall, compiled) = (pct(&batch, 50.0), pct(&bare, 50.0));
    r.notes.push(format!(
        "batch: {} pass(es) of {} program(s), median wall {:.3} s vs bare compile passes {:.3} s",
        batch.len(),
        round.len(),
        wall / 1e9,
        compiled / 1e9
    ));
    r.metric("driver.batch_overhead_frac", ratio(wall - compiled, wall));
}

/// Compiles `sources` in order on one renewed warm elaborator, on a
/// fresh thread with the batch driver's stack size, so its thread-local
/// state starts out like a batch worker's. Returns the wall time in ns.
fn bare_pass(sources: &[String], limits: Limits) -> f64 {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(driver::DEFAULT_STACK_SIZE)
            .spawn_scoped(scope, || {
                let t = Instant::now();
                let mut elab = Elaborator::with_limits(limits);
                for src in sources {
                    elab.renew(limits);
                    elab = match compile_with_limits_in(elab, src) {
                        Ok(compiled) => compiled.elab,
                        Err((_, elab)) => elab,
                    };
                }
                t.elapsed().as_nanos() as f64
            })
            .expect("spawn the bare compile thread")
            .join()
            .expect("bare compile thread panicked")
    })
}

/// One open-loop entry: due offset, working-set index, edit or re-submit.
struct Due {
    at: f64,
    idx: usize,
    edit: bool,
}

fn load_schedule(path: &Path) -> Result<Vec<Due>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let [at, idx, edit] = f[..] else {
            return Err(format!("bad schedule line {line:?}"));
        };
        out.push(Due {
            at: at.parse().map_err(|_| "bad due time")?,
            idx: idx.parse().map_err(|_| "bad index")?,
            edit: edit == "1",
        });
    }
    Ok(out)
}

fn uint_at(doc: &Json, path: &[&str]) -> u64 {
    let mut cur = doc;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0,
        }
    }
    cur.as_u64().unwrap_or(0)
}

fn worker_busy_ns(server: &Server) -> u64 {
    let doc = server.metrics_json(false);
    doc.get("workers")
        .and_then(Json::as_arr)
        .map_or(0, |ws| ws.iter().map(|w| uint_at(w, &["busy_nanos"])).sum())
}

fn response_ok(resp: &Response, prog: &Prog) -> bool {
    let got = match resp.status {
        ResponseStatus::Ok => "ok",
        ResponseStatus::Error => resp.diags.first().map_or("none", |d| d.code),
        _ => return false,
    };
    match &prog.expect {
        Expect::Verdict(want) => got == want,
        Expect::Value(_) => got == "ok",
    }
}

/// Replays the open-loop schedule against an in-process `Server` with
/// a fresh cache: the working set is pre-filled, then every due entry
/// is either a one-token edit (a miss and a store) or an unchanged
/// re-submit (a hit).
fn serve_phase(
    r: &mut Report,
    tr: &mut Tracer,
    progs: &[Prog],
    schedule: &[Due],
    work: &Path,
) -> Result<(), String> {
    let cfg = ServeConfig {
        workers: 1,
        cache: Some(CacheConfig::new(work.join("serve-cache"))),
        ..ServeConfig::default()
    };
    let mut server = Server::start(cfg)?;
    let working = progs.len().min(
        schedule
            .iter()
            .map(|d| d.idx + 1)
            .max()
            .unwrap_or(progs.len()),
    );
    let mut current: Vec<String> = progs[..working].iter().map(|p| p.src.clone()).collect();
    let (tx, rx) = mpsc::channel::<Response>();
    let collector = std::thread::spawn(move || {
        let mut got = Vec::new();
        for resp in rx {
            got.push((Instant::now(), resp));
        }
        got
    });
    // Pre-fill: every working-set program once, in order.
    let mut submitted: BTreeMap<u64, (Instant, Instant, usize)> = BTreeMap::new();
    let mut next_id = 0u64;
    let prefill = Instant::now();
    for (i, src) in current.iter().enumerate() {
        next_id += 1;
        submitted.insert(next_id, (prefill, prefill, i));
        server.submit(
            Request::new(next_id, progs[i].name.clone(), src.clone()),
            tx.clone(),
        );
    }
    let prefilled = next_id;
    while server.stats().completed < prefilled {
        std::thread::sleep(Duration::from_millis(1));
    }
    let busy0 = worker_busy_ns(&server);
    let c0 = server.metrics_json(false);
    let base = Instant::now() + Duration::from_millis(20);
    let mut rev = 100_000u64;
    for d in schedule {
        let due = base + Duration::from_secs_f64(d.at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if d.edit {
            rev += 1;
            let rest = current[d.idx].split_once('\n').map_or("", |(_, rest)| rest);
            current[d.idx] = format!("val rev = {rev}\n{rest}");
        }
        next_id += 1;
        submitted.insert(next_id, (due, Instant::now(), d.idx));
        server.submit(
            Request::new(next_id, progs[d.idx].name.clone(), current[d.idx].clone()),
            tx.clone(),
        );
    }
    drop(tx);
    let wait = Instant::now();
    while server.stats().completed < next_id && wait.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let window = base.elapsed().as_nanos() as f64;
    let busy = worker_busy_ns(&server).saturating_sub(busy0) as f64;
    let c1 = server.metrics_json(false);
    server.shutdown();
    drop(server);
    let got = collector.join().map_err(|_| "collector panicked")?;

    let mut reply_ms = Vec::new();
    let (mut attempts, mut shed, mut answered) = (0u64, 0u64, 0u64);
    let mut seen = BTreeMap::new();
    for (at, resp) in &got {
        let Some(id) = resp.id.as_u64() else {
            r.fail("serve replay: reply without an id".into());
            continue;
        };
        let Some(&(due, sent, idx)) = submitted.get(&id) else {
            r.fail(format!("serve replay: unknown reply id {id}"));
            continue;
        };
        if seen.insert(id, ()).is_some() {
            r.fail(format!("serve replay: duplicated reply {id}"));
            continue;
        }
        if !response_ok(resp, &progs[idx]) {
            r.fail(format!(
                "serve replay: wrong reply to {}: {:?}",
                progs[idx].name, resp.status
            ));
        }
        if resp.status == ResponseStatus::Overloaded {
            shed += 1;
        }
        if id > prefilled {
            answered += 1;
            attempts += u64::from(resp.attempts);
            reply_ms.push(ms(at.saturating_duration_since(sent).as_nanos() as u64));
            tr.spans.push(Span {
                name: "serve.request",
                id,
                parent: None,
                start: due.saturating_duration_since(tr.epoch).as_nanos() as u64,
                end: at.saturating_duration_since(tr.epoch).as_nanos() as u64,
            });
        }
    }
    r.attempted += next_id;
    let missing = next_id - seen.len() as u64;
    if missing > 0 {
        r.fail(format!("serve replay: {missing} request(s) got no reply"));
    }
    let counter = |doc: &Json, name: &str| uint_at(doc, &["cache", "counters", name]);
    let hits = (counter(&c1, "hits") - counter(&c0, "hits")) as f64;
    let misses = (counter(&c1, "misses") - counter(&c0, "misses")) as f64;
    r.notes.push(format!(
        "serve replay: {} request(s) after a pre-fill of {working}; cache hits {hits}, misses {misses}",
        schedule.len()
    ));
    r.metric("cache.hit_ratio", ratio(hits, hits + misses));
    r.metric("serve.reply_ms.p50", pct(&reply_ms, 50.0));
    r.metric("serve.reply_ms.p99", pct(&reply_ms, 99.0));
    r.metric(
        "serve.attempts_per_request",
        ratio(attempts as f64, answered as f64),
    );
    r.metric("serve.shed_frac", ratio(shed as f64, schedule.len() as f64));
    r.metric("serve.worker_busy_frac", ratio(busy, window));
    Ok(())
}

/// Writes the spans as Chrome trace JSON (Perfetto loads it): nested
/// compile-loop spans as complete events on one lane, overlapping serve
/// requests as async events keyed by request id.
fn write_spans(tr: &Tracer, path: &Path) -> Result<(), String> {
    let mut events = Vec::with_capacity(tr.spans.len());
    for s in &tr.spans {
        let mut args = vec![("id", Json::UInt(s.id))];
        if let Some(p) = s.parent {
            args.push(("parent", Json::str(tr.spans[p].name)));
        }
        let ts = Json::Float(s.start as f64 / 1e3);
        if s.name == "serve.request" {
            for (ph, at) in [("b", ts.clone()), ("e", Json::Float(s.end as f64 / 1e3))] {
                events.push(Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("serve")),
                    ("ph", Json::str(ph)),
                    ("id", Json::UInt(s.id)),
                    ("ts", at),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(2)),
                ]));
            }
        } else {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", ts),
                ("dur", Json::Float((s.end - s.start) as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(1)),
                ("args", Json::obj(args)),
            ]));
        }
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(path, doc.to_compact()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<Report, String> {
    let progs = load_programs(args)?;
    let limits = Limits::default();
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);

    let mut samples = compile_loop(&mut report, limits, &mut tr, &progs, secs(LOOP_SHARE));
    if args.workload == "run_lists" {
        eval_phase(
            &mut report,
            limits,
            &mut tr,
            &mut samples,
            &progs,
            secs(EVAL_SHARE),
        );
    }
    let cache_dir = args.work.join("layer-cache");
    cache_phase(
        &mut report,
        &mut tr,
        &mut samples,
        &progs,
        limits,
        &cache_dir,
    )?;
    loop_metrics(&mut report, &samples);
    batch_phase(&mut report, &progs, limits, secs(BATCH_SHARE));
    let schedule = load_schedule(&args.schedule)?;
    serve_phase(&mut report, &mut tr, &progs, &schedule, &args.work)?;

    let mut table = String::from("per-layer self time (traced loop):");
    for (name, (calls, total, own)) in tr.self_times() {
        table.push_str(&format!(
            "\n  {name:<16} calls {calls:>8}  total {:>10.3} ms  self {:>10.3} ms",
            ms(total),
            ms(own)
        ));
    }
    report.notes.push(table);
    write_spans(&tr, &args.spans)?;
    report.notes.push(format!(
        "spans: {} written to {}",
        tr.spans.len(),
        args.spans.display()
    ));
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    // Deep object recursion (long lists) needs the CLI's big stack.
    let result = recmod::eval::run_big_stack(512, move || run(&args));
    match result {
        Ok(r) => {
            let doc = Json::obj([
                ("attempted", Json::UInt(r.attempted)),
                ("failed", Json::UInt(r.failures.len() as u64)),
                (
                    "failures",
                    Json::Arr(r.failures.iter().take(20).map(Json::str).collect()),
                ),
                ("notes", Json::Arr(r.notes.iter().map(Json::str).collect())),
                (
                    "metrics",
                    Json::Arr(
                        r.metrics
                            .iter()
                            .map(|&(n, v)| Json::Arr(vec![Json::str(n), Json::Float(v)]))
                            .collect(),
                    ),
                ),
            ]);
            println!("{}", doc.to_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
