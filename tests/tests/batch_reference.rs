//! The batch driver against its reference. Each worker keeps one
//! elaborator across files (`Elaborator::renew`), so a file's verdict
//! must not depend on which files that worker compiled before it: every
//! batch outcome must equal a fresh single-file compile of the same
//! source.

use recmod::driver::{cache::CacheConfig, compile_batch, DriverConfig, FileStatus, Job};
use recmod::surface::diag;
use recmod::Limits;

/// A fresh single-file compile of `job` under `limits`: its status,
/// binding summaries and diagnostics rendered as the batch renders them.
fn fresh(
    job: &Job,
    limits: &Limits,
    max_errors: usize,
) -> (FileStatus, Vec<(String, String)>, Vec<String>) {
    match recmod::compile_with_limits(&job.source, limits) {
        Ok(compiled) => (FileStatus::Ok, compiled.summaries(), Vec::new()),
        Err(errors) => {
            let status = if errors.iter().any(|e| e.is_limit()) {
                FileStatus::Limit
            } else {
                FileStatus::Error
            };
            let lines: Vec<String> = diag::from_errors(&job.source, &errors)
                .iter()
                .map(|d| diag::render_line(&job.name, d))
                .collect();
            assert!(lines.len() <= max_errors, "{}", job.name);
            (status, Vec::new(), lines)
        }
    }
}

/// Asserts that every outcome of `jobs` compiled under `config` equals
/// the job's fresh single-file compile.
fn assert_matches_fresh(jobs: &[Job], config: &DriverConfig, what: &str) {
    let batch = compile_batch(jobs, config);
    assert_eq!(batch.outcomes.len(), jobs.len());
    for (job, got) in jobs.iter().zip(&batch.outcomes) {
        let (status, summaries, diagnostics) = fresh(job, &config.limits, config.max_errors);
        assert_eq!(got.name, job.name);
        assert_eq!(got.status, status, "{what}: {}", job.name);
        assert_eq!(got.summaries, summaries, "{what}: {}", job.name);
        assert_eq!(got.diagnostics, diagnostics, "{what}: {}", job.name);
    }
}

#[test]
fn warm_batch_matches_fresh_single_file_compiles() {
    // The corpus twice over on two workers: the second copy of every
    // program runs on an elaborator that has already seen the corpus.
    let corpus = recmod::corpus::all();
    let jobs: Vec<Job> = (0..2)
        .flat_map(|rep| {
            corpus
                .iter()
                .map(move |e| Job::new(format!("{}#{rep}", e.name), e.source))
        })
        .collect();
    let config = DriverConfig {
        jobs: 2,
        ..DriverConfig::default()
    };
    assert_matches_fresh(&jobs, &config, "corpus twice");
    // The corpus holds both verdicts, so both paths above are compared.
    let statuses: Vec<_> = jobs
        .iter()
        .map(|j| fresh(j, &config.limits, config.max_errors).0)
        .collect();
    assert!(statuses.contains(&FileStatus::Ok));
    assert!(statuses.contains(&FileStatus::Error));
}

/// The least fuel under which a fresh compile of `src` succeeds.
fn fresh_boundary(src: &str) -> u64 {
    let ok = |fuel| recmod::compile_with_limits(src, &Limits::default().with_fuel(fuel)).is_ok();
    let (mut lo, mut hi) = (0, Limits::default().fuel);
    assert!(ok(hi) && !ok(lo));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// At the fuel boundary F of a program, one unit of fuel decides the
/// verdict, so anything a renewed elaborator or the artifact cache
/// carried over from an earlier compile would show as a flipped verdict
/// or a different `L003` message. Just below F and at F, a second copy
/// on the same worker and a replay through a cache that an earlier
/// batch filled must both give the fresh verdict.
#[test]
fn verdicts_at_the_fuel_boundary_do_not_depend_on_earlier_compiles() {
    let src = recmod::corpus::OPAQUE_LIST;
    let boundary = fresh_boundary(src);
    let dir = std::env::temp_dir().join(format!("recmod-itest-boundary-{}", std::process::id()));
    for fuel in [boundary - 1, boundary] {
        let _ = std::fs::remove_dir_all(&dir);
        let limits = Limits::default().with_fuel(fuel);
        let twice = [Job::new("a.rm", src), Job::new("a.rm", src)];
        let config = DriverConfig {
            jobs: 1,
            limits,
            ..DriverConfig::default()
        };
        assert_matches_fresh(&twice, &config, &format!("two copies at fuel {fuel}"));

        let cached = DriverConfig {
            cache: Some(CacheConfig::new(&dir)),
            ..config
        };
        compile_batch(&twice, &cached);
        assert_matches_fresh(
            &twice[..1],
            &cached,
            &format!("cache replay at fuel {fuel}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
