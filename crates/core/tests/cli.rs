//! End-to-end tests for the `recmodc` binary: exit codes, multi-error
//! reporting, stdin input, and resource-limit verdicts.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn recmodc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_recmodc"))
        .args(args)
        .output()
        .expect("recmodc runs")
}

fn recmodc_stdin(args: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_recmodc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("recmodc spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input.as_bytes())
        .expect("write to stdin");
    child.wait_with_output().expect("recmodc runs")
}

fn code(out: &Output) -> i32 {
    out.status
        .code()
        .expect("recmodc exits normally, not by signal")
}

#[test]
fn ok_program_exits_zero() {
    let out = recmodc(&["-e", "1 + 2 * 3"]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
}

#[test]
fn type_error_exits_one_with_span() {
    let out = recmodc(&["-e", "1 = true"]);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("<expr>:1:1:"), "missing file:line:col: {err}");
    assert!(err.contains("error:"), "missing error label: {err}");
}

#[test]
fn two_independent_syntax_errors_both_reported() {
    let dir = std::env::temp_dir().join("recmodc-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("two_errors.rm");
    std::fs::write(&path, "val x = 1 +\nval y = )\nval z = 3\n;\nz\n").expect("write");
    let out = recmodc(&["check", path.to_str().expect("utf8 path")]);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    let diagnostics = err.lines().filter(|l| l.contains(": error:")).count();
    assert!(
        diagnostics >= 2,
        "expected at least 2 diagnostics after recovery, got {diagnostics}:\n{err}"
    );
    assert!(
        err.contains(":2:"),
        "second line's errors carry its line number: {err}"
    );
}

#[test]
fn max_errors_caps_the_report() {
    let mut src = String::new();
    for i in 0..30 {
        src.push_str(&format!("val x{i} = )\n"));
    }
    src.push_str(";\n0\n");
    let out = recmodc_stdin(&["check", "-", "--max-errors", "3"], &src);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    let diagnostics = err.lines().filter(|l| l.contains(": error:")).count();
    assert_eq!(diagnostics, 3, "--max-errors 3 must cap the report:\n{err}");
    assert!(err.contains("more error"), "overflow note missing:\n{err}");
}

#[test]
fn stdin_dash_runs_a_program() {
    let out = recmodc_stdin(&["run", "-"], "let val x = 20 in x + 1 end");
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "21");
    let err = String::from_utf8_lossy(&out.stderr);
    // Diagnostics for stdin input are attributed to `<stdin>`.
    let out2 = recmodc_stdin(&["check", "-"], "unbound");
    assert!(
        String::from_utf8_lossy(&out2.stderr).contains("<stdin>:"),
        "stdin diagnostics name the pseudo-file: {err}"
    );
}

#[test]
fn deep_nesting_exits_three_with_structured_limit() {
    let mut src = String::new();
    for _ in 0..10_000 {
        src.push('(');
    }
    src.push('1');
    for _ in 0..10_000 {
        src.push(')');
    }
    let out = recmodc_stdin(&["run", "-"], &src);
    assert_eq!(
        code(&out),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("limit exceeded"),
        "not a structured limit: {err}"
    );
    assert!(err.contains("recursion depth"), "wrong limit kind: {err}");
}

#[test]
fn custom_limits_flag_tightens_the_budget() {
    // Depth 500 parses under the default limit but not under depth=100.
    let mut src = String::new();
    for _ in 0..500 {
        src.push('(');
    }
    src.push('1');
    for _ in 0..500 {
        src.push(')');
    }
    let ok = recmodc_stdin(&["run", "-"], &src);
    assert_eq!(
        code(&ok),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let limited = recmodc_stdin(&["run", "-", "--limits", "depth=100"], &src);
    assert_eq!(
        code(&limited),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&limited.stderr)
    );
}

#[test]
fn bad_usage_exits_two() {
    let out = recmodc(&["frobnicate", "x.rm"]);
    assert_eq!(code(&out), 2);
    let out = recmodc(&["run", "-", "--limits", "depth=banana"]);
    assert_eq!(code(&out), 2);
    // Both flags claim stdout for one JSON document.
    let out = recmodc(&["check", "-", "--diagnostics=json", "--stats=json"]);
    assert_eq!(code(&out), 2);
}

/// A scratch directory unique to one test (temp-dir collisions across
/// concurrent test binaries would make the bundle assertions flaky).
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("recmodc-cli-tests")
        .join(format!("{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The parsed `--diagnostics=json` document from stdout.
fn diagnostics_doc(out: &Output) -> recmod::telemetry::json::Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    recmod::telemetry::json::parse(&stdout)
        .unwrap_or_else(|e| panic!("diagnostics stdout is not valid JSON ({e}):\n{stdout}"))
}

/// Every diagnostic object in a diagnostics document, flattened.
fn all_diagnostics(doc: &recmod::telemetry::json::Json) -> Vec<&recmod::telemetry::json::Json> {
    doc.get("files")
        .and_then(|f| f.as_arr())
        .expect("files array")
        .iter()
        .flat_map(|f| {
            f.get("diagnostics")
                .and_then(|d| d.as_arr())
                .expect("diagnostics array")
        })
        .collect()
}

fn is_stable_code(code: &str) -> bool {
    code.len() == 4
        && matches!(code.as_bytes()[0], b'K' | b'S' | b'L' | b'I')
        && code.as_bytes()[1..].iter().all(u8::is_ascii_digit)
}

#[test]
fn batch_max_errors_truncates_text_but_not_json() {
    let dir = scratch("batch-truncation");
    // Three files, each with five independent syntax errors.
    for file in 0..3 {
        let mut src = String::new();
        for i in 0..5 {
            src.push_str(&format!("val x{i} = )\n"));
        }
        std::fs::write(dir.join(format!("f{file}.rm")), src).expect("write");
    }
    let out = recmodc(&[
        "check",
        "--jobs",
        "2",
        dir.to_str().expect("utf8 path"),
        "--max-errors",
        "2",
        "--diagnostics=json",
    ]);
    assert_eq!(
        code(&out),
        1,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Text report: two diagnostics per file, then the elision note.
    let err = String::from_utf8_lossy(&out.stderr);
    for file in 0..3 {
        let name = format!("f{file}.rm");
        let shown = err
            .lines()
            .filter(|l| l.contains(&name) && l.contains(": error:"))
            .count();
        assert_eq!(shown, 2, "--max-errors 2 must cap {name}:\n{err}");
        assert!(
            err.lines()
                .any(|l| l.contains(&name) && l.contains("3 more error(s)")),
            "elision note missing for {name}:\n{err}"
        );
    }
    // JSON stream: all five diagnostics per file survive.
    let doc = diagnostics_doc(&out);
    let files = doc.get("files").and_then(|f| f.as_arr()).expect("files");
    assert_eq!(files.len(), 3);
    for f in files {
        let diags = f.get("diagnostics").and_then(|d| d.as_arr()).expect("arr");
        assert_eq!(
            diags.len(),
            5,
            "the machine-readable stream must not be truncated"
        );
    }
}

#[test]
fn corpus_bad_diagnostics_carry_codes_and_provenance() {
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/bad");
    let out = recmodc(&["check", "--jobs", "2", bad, "--diagnostics=json"]);
    assert_eq!(code(&out), 1);
    let doc = diagnostics_doc(&out);
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(recmod::telemetry::SCHEMA_VERSION)
    );
    let diags = all_diagnostics(&doc);
    assert!(!diags.is_empty(), "corpus/bad produces diagnostics");
    for d in diags {
        let code = d.get("code").and_then(|c| c.as_str()).expect("code");
        assert!(is_stable_code(code), "malformed code {code}");
        let provenance = d
            .get("provenance")
            .and_then(|p| p.as_arr())
            .expect("provenance");
        assert!(
            !provenance.is_empty(),
            "every diagnostic names the judgement frames that produced it"
        );
    }
}

#[test]
fn mid_kernel_limit_diagnostics_anchor_to_the_declaration() {
    let src = "val a = 1\nval b : int = a + 1\n";
    let out = recmodc_stdin(
        &["check", "-", "--limits", "fuel=1", "--diagnostics=json"],
        src,
    );
    assert_eq!(code(&out), 3);
    let doc = diagnostics_doc(&out);
    let diags = all_diagnostics(&doc);
    let limit = diags
        .iter()
        .find(|d| d.get("code").and_then(|c| c.as_str()) == Some("L003"))
        .expect("a fuel-exhausted diagnostic");
    // The kernel loses the source position mid-judgement; the
    // elaborator re-anchors the diagnostic to the declaration it was
    // checking rather than the whole file.
    let line = limit
        .get("span")
        .and_then(|s| s.get("line"))
        .and_then(|l| l.as_u64());
    assert_eq!(line, Some(2), "limit anchors to the second declaration");
}

#[test]
fn explain_describes_every_code() {
    let out = recmodc(&["explain"]);
    assert_eq!(code(&out), 0);
    let listing = String::from_utf8_lossy(&out.stdout);
    for code in ["K011", "S003", "L004", "I002"] {
        assert!(listing.contains(code), "listing lacks {code}");
    }
    let out = recmodc(&["explain", "K011"]);
    assert_eq!(code(&out), 0);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("equivalent"), "summary missing: {text}");
    assert!(text.contains("example:"), "example missing: {text}");
    let out = recmodc(&["explain", "Z999"]);
    assert_eq!(code(&out), 2);
}

#[test]
fn limit_exit_writes_a_crash_bundle() {
    let dir = scratch("crash-bundle");
    let out = recmodc_stdin(
        &[
            "check",
            "-",
            "--deadline-ms",
            "0",
            "--crash-dir",
            dir.to_str().expect("utf8 path"),
        ],
        "val x = 1\n",
    );
    assert_eq!(
        code(&out),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bundle = std::fs::read_dir(&dir)
        .expect("read crash dir")
        .filter_map(Result::ok)
        .find(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("recmod-crash-") && name.ends_with(".json")
        })
        .expect("a recmod-crash-*.json bundle");
    let text = std::fs::read_to_string(bundle.path()).expect("read bundle");
    let doc = recmod::telemetry::json::parse(&text).expect("bundle is valid JSON");
    assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some("crash"));
    assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("limit"));
    assert_eq!(doc.get("exit").and_then(|e| e.as_u64()), Some(3));
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_u64()),
        Some(recmod::telemetry::SCHEMA_VERSION)
    );
    let recorder = doc
        .get("recorder")
        .and_then(|r| r.as_arr())
        .expect("recorder tail");
    assert!(
        recorder
            .iter()
            .any(|e| e.get("kind").and_then(|k| k.as_str()) == Some("limit")),
        "the flight recorder saw the limit fire"
    );
    assert!(doc.get("limits").is_some(), "limits in force are recorded");
    assert!(
        doc.get("input_fnv1a").and_then(|h| h.as_str()).is_some(),
        "input hash present"
    );
}

/// The `steps:` line `--steps` writes to stderr.
fn steps_line(out: &Output) -> u64 {
    let err = String::from_utf8_lossy(&out.stderr);
    err.lines()
        .find_map(|l| l.strip_prefix("steps: "))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no steps line: {err}"))
}

/// `eval.steps` from a `--stats=json` document on stdout.
fn stats_eval_steps(out: &Output) -> u64 {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = recmod::telemetry::json::parse(&stdout)
        .unwrap_or_else(|e| panic!("stats stdout is not valid JSON ({e}):\n{stdout}"));
    doc.get("eval")
        .and_then(|e| e.get("steps"))
        .and_then(|s| s.as_u64())
        .unwrap_or_else(|| panic!("no eval.steps: {stdout}"))
}

#[test]
fn failed_runs_still_report_their_counters() {
    let dir = scratch("failed-run-counters");
    let crash_dir = dir.to_str().expect("utf8 path");
    // Deep object recursion under the default limits stops at the
    // evaluator's depth guard, not with a host stack overflow: the
    // pipeline thread's stack must hold every interpreter frame up to
    // the guard, in debug builds too.
    let deep = "fun f (n : int) : int = if n = 0 then 0 else 1 + f (n - 1);\nf 100000\n";
    let out = recmodc_stdin(
        &["run", "-", "--diagnostics=json", "--crash-dir", crash_dir],
        deep,
    );
    assert_eq!(
        code(&out),
        3,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let codes: Vec<_> = all_diagnostics(&diagnostics_doc(&out))
        .iter()
        .filter_map(|d| d.get("code").and_then(|c| c.as_str()))
        .map(str::to_string)
        .collect();
    assert_eq!(codes, ["L001"]);

    // Depth guard (exit 3) and `raise Fail` (exit 1): `--steps` and
    // `--stats` both report the run that stopped, and agree.
    let failing =
        "fun g (n : int) : int = if n = 0 then (raise Fail : int) else g (n - 1);\ng 10\n";
    for (src, want) in [(deep, 3), (failing, 1)] {
        let out = recmodc_stdin(
            &[
                "run",
                "-",
                "--steps",
                "--stats=json",
                "--crash-dir",
                crash_dir,
            ],
            src,
        );
        assert_eq!(
            code(&out),
            want,
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let steps = steps_line(&out);
        assert!(steps > 0);
        assert_eq!(steps, stats_eval_steps(&out));
    }
}
