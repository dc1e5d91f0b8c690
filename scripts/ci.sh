#!/usr/bin/env bash
# Full CI gate: formatting, lints, build, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (panic-free core: deny unwrap/expect/panic) =="
# The kernel, phase-splitter, surface pipeline, evaluator, the batch
# driver, and the interner they all sit on must stay panic-free in
# non-test code: every failure is a structured
# TypeError/SurfaceError/EvalError/FileOutcome.
cargo clippy -p recmod-kernel -p recmod-phase -p recmod-surface -p recmod-syntax \
  -p recmod-eval -p recmod-driver --lib -- \
  -D warnings \
  -D clippy::unwrap_used \
  -D clippy::expect_used \
  -D clippy::panic

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== bounded fuzz (2400 seeded iterations, 200 per class) =="
FUZZ_ITERS=2400 cargo test -q -p recmod-tests --release --test fuzz

echo "== NbE engine differential (2000 dedicated iterations) =="
# The NbE machine vs the legacy substitution engine on random well- and
# ill-kinded constructors plus whole-program compiles: verdicts, stable
# codes, and rendered diagnostics must be identical (EXPERIMENTS.md R1
# documents a 50k-iteration campaign of this class).
FUZZ_CLASS=nbe-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== rewrite-memo differential (2000 dedicated iterations) =="
# The per-thread rewrite memo (crates/syntax/src/memo.rs) against a
# memo-free reference: long random sequences of shifts, constructor
# substitutions and selfifications, with interner sweeps interleaved,
# must return the very pointers the reference traversal interns.
FUZZ_CLASS=subst-memo-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== expression differential (2000 dedicated iterations) =="
# One of the evaluator's two oracles: random expressions with lets and
# up to two nested applied `fn`s, whose bodies read variables bound
# outside them, so variables resolve to frame slots and to closure
# captures across function levels. The pipeline's value must equal a
# reference interpreter's.
FUZZ_CLASS=expression-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== module differential (2000 dedicated iterations) =="
# The evaluator's other oracle: random operation sequences on the
# paper's transparent and opaque recursive list modules and on a native
# model must give the same checksums (the §3 observational-equivalence
# claim).
FUZZ_CLASS=module-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== profiled differential (2000 dedicated iterations) =="
# Observation must not perturb: each (often mutated) program compiles
# twice on fresh threads, once with a profiling sink installed, and the
# verdicts, stable codes and rendered diagnostics must be identical. A
# profiled compile pushes the same frames, timed and closing into spans.
FUZZ_CLASS=profiled-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== diagnostics totality (2000 dedicated iterations) =="
# Every diagnostic of a (often mutated) program under strict limits has
# a well-formed code, non-empty provenance and a JSON form that parses
# back, and the frame stack is fully unwound when the compile returns.
FUZZ_CLASS=diagnostics-total FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== interning differential (2000 dedicated iterations) =="
# The per-thread interner against a deep reference walk: id equality
# must be structural equality, and rebuilding a constructor through
# fresh intern calls must return the identical canonical pointers.
FUZZ_CLASS=intern-differential FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== thread isolation (2000 dedicated iterations) =="
# Batch workers share nothing: a random batch compiled on two workers
# and on one gives byte-identical outcomes, and nothing the workers do
# shows in the calling thread's interner counters or telemetry sink.
FUZZ_CLASS=thread-isolation FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== history independence (2000 dedicated iterations) =="
# A renewed elaborator is a fresh one: a program compiled under a fuel
# budget near its needs, fresh, after another program on the same
# renewed elaborator, and beside another thread's compile, must give
# identical verdicts, codes, rendered diagnostics and fuel per operation.
FUZZ_CLASS=history-independence FUZZ_ITERS=2000 \
  cargo test -q -p recmod-tests --release --test fuzz seeded

echo "== cost-model gate (counters vs tests/golden_costs.json) =="
# Deterministic per-example counters (fuel, unrolls, cache traffic —
# never wall clocks) compared against the checked-in baseline. Gating:
# a drift beyond the declared tolerances fails CI. After an intentional
# cost change, regenerate with
#   cargo run --release -p recmod-bench --bin bench_json -- --costs \
#     > tests/golden_costs.json
./target/release/bench_json --costs --compare tests/golden_costs.json

echo "== experiment tables (tables binary) =="
# Gating: regenerates the EXPERIMENTS.md counter tables. The E1 list
# rows assert the run's value n(n+1)/2, so a wrong evaluator fails here.
./target/release/tables >/dev/null

echo "== traced benchmark instrument builds =="
# Gating: perfbench/traced is a separate workspace that calls the public
# driver/eval/kernel API; nothing else builds it, so an API change that
# breaks it would otherwise surface only when the benchmark runs.
CARGO_TARGET_DIR=target/traced cargo build --release \
  --manifest-path perfbench/traced/Cargo.toml

echo "== batch smoke (recmodc check --jobs 2 over tests/corpus) =="
# The parallel driver, end to end through the CLI: the well-typed corpus
# must exit 0 and the mixed corpus must exit 1 (per-file diagnostics,
# aggregated exit code). Both runs are deterministic, so this gates.
./target/release/recmodc check --jobs 2 tests/corpus/ok >/dev/null
if ./target/release/recmodc check --jobs 2 tests/corpus >/dev/null 2>/dev/null; then
  echo "batch smoke: FAILED (mixed corpus should exit 1)"
  exit 1
else
  code=$?
  if [[ $code -ne 1 ]]; then
    echo "batch smoke: FAILED (mixed corpus exited $code, want 1)"
    exit 1
  fi
fi
# Scheduling must not show through: the JSON diagnostics document of the
# built-in plus on-disk corpus is byte-identical at one and four workers.
for j in 1 4; do
  set +e
  ./target/release/recmodc check --jobs "$j" --corpus tests/corpus \
    --diagnostics=json >"/tmp/ci_batch_jobs$j.json" 2>/dev/null
  code=$?
  set -e
  if [[ $code -ne 1 ]]; then
    echo "batch smoke: FAILED (--jobs $j mixed corpus exited $code, want 1)"
    exit 1
  fi
done
cmp -s /tmp/ci_batch_jobs1.json /tmp/ci_batch_jobs4.json || {
  echo "batch smoke: FAILED (--jobs 1 vs --jobs 4 diagnostics JSON differs)"; exit 1; }
echo "batch smoke: ok"

echo "== fuel-boundary invariant (generated corpus at --fuel 1100) =="
# Gating: near a fuel boundary one unit of fuel decides a verdict, so
# anything a worker carried from one file to the next would show here.
# The seed-1 generated corpus under --fuel 1100 (about 1 000 files stop
# with L003) must print the same bytes at one and four workers, apart
# from the worker count and the names of the crash bundles each L003
# writes.
BOUNDARY_DIR=$(mktemp -d)
python3 perfbench/gen.py --seed 1 --out "$BOUNDARY_DIR/corpus" >/dev/null
for j in 1 4; do
  mkdir "$BOUNDARY_DIR/crash$j"
  set +e
  ./target/release/recmodc check --jobs "$j" --no-cache --fuel 1100 \
    --crash-dir "$BOUNDARY_DIR/crash$j" "$BOUNDARY_DIR/corpus" \
    >"$BOUNDARY_DIR/out$j" 2>"$BOUNDARY_DIR/err$j"
  echo "exit $?" >>"$BOUNDARY_DIR/out$j"
  set -e
  sed -i -e 's/ on [0-9]* worker(s)/ on N worker(s)/' "$BOUNDARY_DIR/out$j"
  sed -i -e 's/^crash bundle: wrote .*/crash bundle: wrote/' "$BOUNDARY_DIR/err$j"
done
cmp -s "$BOUNDARY_DIR/out1" "$BOUNDARY_DIR/out4" || {
  echo "fuel-boundary invariant: FAILED (--jobs 1 vs --jobs 4 stdout differs)"; exit 1; }
cmp -s "$BOUNDARY_DIR/err1" "$BOUNDARY_DIR/err4" || {
  echo "fuel-boundary invariant: FAILED (--jobs 1 vs --jobs 4 stderr differs)"; exit 1; }
grep -q "L003" "$BOUNDARY_DIR/err1" || {
  echo "fuel-boundary invariant: FAILED (no file reached the fuel limit)"; exit 1; }
rm -rf "$BOUNDARY_DIR"
echo "fuel-boundary invariant: ok"

echo "== generated-corpus verdicts (gen.py --seed 1 vs expected.tsv) =="
# Gating: every one of the 2 800 generated programs has a known verdict
# (`ok`, or the code of its first diagnostic) in the generator's
# expected.tsv. A kernel change that flips one fails here, not only in
# the benchmark.
VERDICT_DIR=$(mktemp -d)
python3 perfbench/gen.py --seed 1 --out "$VERDICT_DIR/corpus" >/dev/null
set +e
./target/release/recmodc check --jobs 1 --no-cache \
  --log-json="$VERDICT_DIR/log.jsonl" "$VERDICT_DIR/corpus" >/dev/null 2>&1
code=$?
set -e
if [[ $code -ne 1 ]]; then
  echo "generated-corpus verdicts: FAILED (mixed corpus exited $code, want 1)"
  exit 1
fi
VERDICT_DIR="$VERDICT_DIR" python3 - <<'EOF'
import json, os, sys

d = os.environ["VERDICT_DIR"]
want = {}
with open(os.path.join(d, "corpus", "expected.tsv"), encoding="utf-8") as f:
    for line in f:
        name, verdict = line.rstrip("\n").split("\t")
        want[name] = verdict
got = {}
with open(os.path.join(d, "log.jsonl"), encoding="utf-8") as f:
    for line in f:
        event = json.loads(line)
        if event.get("kind") != "file":
            continue
        diags = event["diagnostics"]
        if event["status"] == "ok":
            verdict = "ok"
        else:
            verdict = diags[0]["code"] if diags else event["status"]
        got[os.path.basename(event["path"])] = verdict
wrong = [(n, v, got.get(n)) for n, v in sorted(want.items()) if got.get(n) != v]
extra = sorted(set(got) - set(want))
for name, v, g in wrong[:10]:
    print(f"generated-corpus verdicts: {name}: expected {v}, got {g}")
if wrong or extra or not want:
    print(f"generated-corpus verdicts: FAILED ({len(wrong)} wrong of "
          f"{len(want)}, {len(extra)} unexpected files)")
    sys.exit(1)
EOF
rm -rf "$VERDICT_DIR"
echo "generated-corpus verdicts: ok"

echo "== cache smoke (artifact cache: hits, byte-identity, opt-out) =="
# Gating: the content-addressed artifact cache end to end through the
# CLI. Checks: (1) a second run against a freshly-populated --cache-dir
# serves every file from the cache (counters: cache.hit == driver.files,
# zero misses) and its stdout is byte-identical to the cold run's; (2)
# --no-cache produces the same stdout and exit code as the cached runs
# (the cache may change *when* work happens, never *what* is printed).
CACHE_DIR=$(mktemp -d)/entries
run_corpus() { # run_corpus <outfile> [extra flags...]
  local out="$1"; shift
  set +e
  ./target/release/recmodc check --jobs 2 --corpus "$@" >"$out" 2>/dev/null
  local code=$?
  set -e
  if [[ $code -ne 1 ]]; then
    echo "cache smoke: FAILED (mixed corpus exited $code, want 1)"
    exit 1
  fi
}
run_corpus /tmp/ci_cache_cold.txt --cache-dir "$CACHE_DIR"
run_corpus /tmp/ci_cache_warm.txt --cache-dir "$CACHE_DIR"
run_corpus /tmp/ci_cache_off.txt --no-cache --cache-dir "$CACHE_DIR"
cmp -s /tmp/ci_cache_cold.txt /tmp/ci_cache_warm.txt || {
  echo "cache smoke: FAILED (cold vs warm stdout differs)"; exit 1; }
cmp -s /tmp/ci_cache_cold.txt /tmp/ci_cache_off.txt || {
  echo "cache smoke: FAILED (cached vs --no-cache stdout differs)"; exit 1; }
set +e
./target/release/recmodc check --jobs 2 --corpus --cache-dir "$CACHE_DIR" \
  --stats=json >/tmp/ci_cache_stats.json 2>/dev/null
set -e
python3 - <<'EOF'
import json
stats = json.load(open("/tmp/ci_cache_stats.json"))
c = stats["counters"]
files = c["driver.files"]
assert files > 0, "corpus batch compiled nothing"
assert c.get("cache.hit", 0) == files, f"want {files} hits, got {c}"
assert c.get("cache.miss", 0) == 0, f"warm run missed: {c}"
EOF
rm -rf "$(dirname "$CACHE_DIR")"
echo "cache smoke: ok"

echo "== diagnostics smoke (JSON emitters + crash bundle) =="
# Gating: every JSON emitter round-trips through a real parser, and the
# forensics path works end to end. Checks: (1) --diagnostics=json on the
# mixed corpus exits 1 with a schema-versioned document where every
# diagnostic carries a stable code and non-empty provenance; (2) the
# per-file JSONL log embeds the same structured diagnostics; (3)
# --stats=json parses; (4) a deliberate limit hit (deadline 0) exits 3
# and drops a parseable recmod-crash-*.json bundle.
CRASH_DIR=$(mktemp -d)
if ./target/release/recmodc check --jobs 2 tests/corpus \
    --diagnostics=json --log-json=/tmp/ci_diag_log.jsonl \
    >/tmp/ci_diag.json 2>/dev/null; then
  echo "diagnostics smoke: FAILED (mixed corpus should exit 1)"
  exit 1
else
  code=$?
  if [[ $code -ne 1 ]]; then
    echo "diagnostics smoke: FAILED (mixed corpus exited $code, want 1)"
    exit 1
  fi
fi
./target/release/recmodc check --jobs 2 tests/corpus/ok --stats=json \
  >/tmp/ci_stats.json 2>/dev/null
if ./target/release/recmodc check --deadline-ms 0 --crash-dir "$CRASH_DIR" \
    tests/corpus/ok/values.rm >/dev/null 2>/dev/null; then
  echo "diagnostics smoke: FAILED (deadline 0 should exit 3)"
  exit 1
else
  code=$?
  if [[ $code -ne 3 ]]; then
    echo "diagnostics smoke: FAILED (deadline 0 exited $code, want 3)"
    exit 1
  fi
fi
CRASH_DIR="$CRASH_DIR" python3 - <<'EOF'
import glob, json, os, re

doc = json.load(open("/tmp/ci_diag.json"))
assert doc["schema_version"] >= 1 and doc["kind"] == "diagnostics"
diags = [d for f in doc["files"] for d in f["diagnostics"]]
assert diags, "mixed corpus must produce diagnostics"
for d in diags:
    assert re.fullmatch(r"[KSLI]\d{3}", d["code"]), d
    assert d["provenance"], f"empty provenance on {d['code']}"
    assert {"start", "end", "line", "col"} <= d["span"].keys()

lines = [json.loads(l) for l in open("/tmp/ci_diag_log.jsonl")]
assert lines[0]["kind"] == "meta"
logged = [d for l in lines[1:] for d in l["diagnostics"]]
assert sorted(d["code"] for d in logged) == sorted(d["code"] for d in diags)

stats = json.load(open("/tmp/ci_stats.json"))
assert stats["schema_version"] >= 1 and "error_codes" in stats

bundles = glob.glob(os.path.join(os.environ["CRASH_DIR"], "recmod-crash-*.json"))
assert len(bundles) == 1, bundles
crash = json.load(open(bundles[0]))
assert crash["kind"] == "crash" and crash["exit"] == 3
assert crash["recorder"] and crash["limits"]["deadline_ms"] == 0
EOF
rm -rf "$CRASH_DIR"
echo "diagnostics smoke: ok"

echo "== serve smoke (compile service round-trip, shedding, fault injection) =="
# Gating: the supervised compile service end to end through the CLI.
# Checks: (1) an ok and a bad request each get exactly one well-formed
# response and a shutdown op drains cleanly with exit 0; (2) with
# --queue-depth 0 every check request is shed with status `overloaded`
# (exit class 5), never silently dropped; (3) with deterministic fault
# injection (--faults=1,1.0,kill) the worker is killed mid-compile, the
# supervisor respawns it, the request is retried to the clean verdict
# (attempts 2, injected ["kill"]), and the *next* request is answered
# by the respawned worker.
python3 - <<'EOF'
import json, subprocess

BIN = "./target/release/recmodc"
# Enough declarations that any injected fault trigger (1..=64 judgement
# boundaries) fires mid-compile.
BUSY = "\n".join(f"val x{i} = {i} + {i}" for i in range(80))

def serve(args, requests):
    p = subprocess.Popen([BIN, "serve", *args], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    out = []
    for req in requests:
        p.stdin.write(json.dumps(req) + "\n")
        p.stdin.flush()
        line = p.stdout.readline()
        assert line, f"server wedged: no response to {req}"
        out.append(json.loads(line))
    p.stdin.close()
    assert p.wait(timeout=60) == 0, "server did not exit cleanly"
    return out

# (1) ok + bad round-trip, stats, clean shutdown.
ok, bad, stats, bye = serve([], [
    {"id": 1, "source": "val x = 1 + 2"},
    {"id": 2, "source": "val y = x +"},
    {"op": "stats", "id": 3},
    {"op": "shutdown", "id": 4},
])
assert ok["schema_version"] >= 1 and ok["kind"] == "response"
assert ok["id"] == 1 and ok["status"] == "ok" and ok["exit"] == 0
assert ok["summaries"] == [{"name": "x", "desc": "int"}]
assert bad["id"] == 2 and bad["status"] == "error" and bad["exit"] == 1
assert bad["diagnostics"] and all(d["code"] for d in bad["diagnostics"])
assert stats["stats"]["accepted"] == 2 and stats["stats"]["completed"] == 2
assert bye["status"] == "ok" and "drained" in bye["message"]

# (2) admission control: queue depth 0 sheds with a structured verdict.
shed, = serve(["--queue-depth", "0"], [{"id": 1, "source": "val x = 1"}])
assert shed["status"] == "overloaded" and shed["exit"] == 5, shed

# (3) injected worker kill: retried to the clean verdict on a respawned
# worker, which then answers the next request too.
first, second, stats = serve(["--faults=1,1.0,kill", "--jobs", "1"], [
    {"id": 1, "source": BUSY},
    {"id": 2, "source": BUSY},
    {"op": "stats", "id": 3},
])
assert first["status"] == "ok" and first["attempts"] == 2, first
assert first["injected"] == ["kill"], first
assert second["status"] == "ok", second
assert stats["stats"]["respawns"] >= 1, stats
assert stats["stats"]["workers_spawned"] == stats["stats"]["workers_joined"] + 1
EOF
echo "serve smoke: ok"

echo "== metrics smoke (serve telemetry: histograms, determinism, exposition) =="
# Gating: the live-telemetry surface end to end through the CLI.
# Checks: (1) after driving N requests the `metrics` op returns a
# schema-versioned document whose latency histogram counts sum to N
# with p99 >= p50; (2) the deterministic subset is byte-stable across
# two identical seeded --faults replays of the same requests; (3) the
# Prometheus text rendering parses as `name{labels} value` lines.
python3 - <<'EOF'
import json, subprocess

BIN = "./target/release/recmodc"

def serve(args, requests):
    p = subprocess.Popen([BIN, "serve", *args], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    out = []
    for req in requests:
        p.stdin.write(json.dumps(req) + "\n")
        p.stdin.flush()
        line = p.stdout.readline()
        assert line, f"server wedged: no response to {req}"
        out.append(json.loads(line))
    p.stdin.close()
    assert p.wait(timeout=60) == 0, "server did not exit cleanly"
    return out

# (1) drive N requests, then scrape the metrics document.
N = 8
reqs = [{"id": i, "source": f"val x{i} = {i} + {i}"} for i in range(N)]
*_, m, text, bye = serve(["--jobs", "2"], reqs + [
    {"op": "metrics", "id": 100},
    {"op": "metrics", "id": 101, "format": "text"},
    {"op": "shutdown", "id": 102},
])
doc = m["metrics"]
assert doc["schema_version"] >= 1 and doc["kind"] == "metrics"
assert doc["metrics_schema_version"] >= 1
for h in ("latency_nanos", "queue_wait_nanos", "compile_nanos", "work_units"):
    hist = doc[h]
    assert sum(b["count"] for b in hist["buckets"]) == hist["count"] == N, (h, hist)
    assert hist["p50"] <= hist["p90"] <= hist["p99"] <= hist["max"], (h, hist)
assert doc["requests"]["accepted"] == N and doc["requests"]["completed"] == N
assert doc["status"]["ok"] == N
assert doc["queue"]["depth"] == 0 and doc["queue"]["inflight"] == 0

# (2) deterministic subset: byte-stable across two seeded fault replays.
def replay():
    out = serve(["--jobs", "2", "--faults=7,0.5,panic"], reqs + [
        {"op": "metrics", "id": 100, "deterministic": True},
        {"op": "shutdown", "id": 102},
    ])
    return json.dumps(out[-2]["metrics"], sort_keys=True)
a, b = replay(), replay()
assert a == b, f"deterministic metrics diverged across replays:\n{a}\n{b}"

# (3) Prometheus text: every line is a comment or `name{labels} value`.
lines = text["metrics"].splitlines()
assert any(l.startswith("# TYPE recmod_serve_latency_seconds histogram")
           for l in lines), lines[:5]
assert f'recmod_serve_requests_total{{event="completed"}} {N}' in lines
for l in lines:
    assert l.startswith("# ") or len(l.split(" ")) == 2, f"bad line: {l}"
EOF
echo "metrics smoke: ok"

echo "== profile smoke (non-gating) =="
# The deep-profiling layer end to end: a profiled parallel batch must
# still exit 0 and produce a parseable Chrome trace and JSONL event
# log. Timings inside are CI noise, so this only checks shape.
if ./target/release/recmodc check --jobs 4 --profile=/tmp/ci_trace.json \
    --log-json=/tmp/ci_log.jsonl tests/corpus/ok >/dev/null 2>/dev/null \
    && python3 -c '
import json
doc = json.load(open("/tmp/ci_trace.json"))
assert doc["schema_version"] >= 1 and doc["traceEvents"]
lines = [json.loads(l) for l in open("/tmp/ci_log.jsonl")]
assert lines and lines[0]["kind"] == "meta"
' 2>/dev/null; then
  echo "profile smoke: ok"
else
  echo "profile smoke: FAILED (non-gating, continuing)"
fi

echo "CI green."
