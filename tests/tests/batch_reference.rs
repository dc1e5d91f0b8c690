//! The batch driver against its reference. Each worker keeps one
//! elaborator warm across files (`Elaborator::renew`), so a file's
//! verdict must not depend on which files that worker compiled before
//! it: every batch outcome must equal a fresh single-file compile of the
//! same source.

use recmod::driver::{compile_batch, DriverConfig, FileStatus, Job};
use recmod::surface::diag;

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
    let batch = compile_batch(&jobs, &config);
    assert_eq!(batch.outcomes.len(), jobs.len());

    for (job, got) in jobs.iter().zip(&batch.outcomes) {
        let (status, summaries, diagnostics) =
            match recmod::compile_with_limits(&job.source, &config.limits) {
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
                    assert!(lines.len() <= config.max_errors, "{}", job.name);
                    (status, Vec::new(), lines)
                }
            };
        assert_eq!(got.name, job.name);
        assert_eq!(got.status, status, "{}", job.name);
        assert_eq!(got.summaries, summaries, "{}", job.name);
        assert_eq!(got.diagnostics, diagnostics, "{}", job.name);
    }
    // The corpus holds both verdicts, so both paths above are compared.
    assert!(batch.outcomes.iter().any(|o| o.status == FileStatus::Ok));
    assert!(batch.outcomes.iter().any(|o| o.status == FileStatus::Error));
}
