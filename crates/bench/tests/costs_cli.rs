//! Exit codes of the cost-model gate, `bench_json --costs`, which CI
//! relies on: `0` when the counters match the golden baseline, `1` on
//! drift, `2` on a broken baseline or a usage error.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_costs.json")
}

fn bench_json(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_json"))
        .args(args)
        .output()
        .expect("run bench_json");
    out.status.code().expect("bench_json exited normally")
}

/// Writes `text` to a fresh file in the temp dir and returns its path.
fn temp_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "recmod-costs-cli-{tag}-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("write temp baseline");
    path
}

#[test]
fn matching_baseline_exits_0() {
    let golden = golden();
    assert_eq!(
        bench_json(&["--costs", "--compare", golden.to_str().unwrap()]),
        0
    );
}

#[test]
fn one_counter_off_by_one_exits_1() {
    let text = std::fs::read_to_string(golden()).expect("read golden costs");
    let key = "\"kernel.eval_steps\": ";
    let start = text.find(key).expect("golden file has eval_steps") + key.len();
    let end = start + text[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let bumped: u64 = text[start..end].parse::<u64>().unwrap() + 1;
    let text = format!("{}{bumped}{}", &text[..start], &text[end..]);
    let path = temp_file("drift", &text);
    let code = bench_json(&["--costs", "--compare", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 1);
}

#[test]
fn non_json_baseline_exits_2() {
    let path = temp_file("garbage", "not json\n");
    let code = bench_json(&["--costs", "--compare", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2);
}

#[test]
fn missing_costs_flag_exits_2() {
    assert_eq!(bench_json(&[]), 2);
    assert_eq!(bench_json(&["--compare", golden().to_str().unwrap()]), 2);
}
