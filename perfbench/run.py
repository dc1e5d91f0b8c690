#!/usr/bin/env python3
"""The recmod benchmark: one command, three workloads.

    python3 perfbench/run.py --workload check_gen --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds ``recmodc`` from
source (into ``$CARGO_TARGET_DIR``, default ``.bench_build``), generates
the workload's inputs from ``--seed`` with ``perfbench/gen.py``, drives
the shipped binary for ``--seconds`` seconds, checks every answer
against the generator's known one, and prints every metric by name and
unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` instead builds the in-process tracer in
``perfbench/traced`` and reports the per-layer metrics, plus a
Perfetto-loadable span file in ``.bench_out/``. See
``perfbench/README.md`` for what each number means and which layer
should move it.
"""

import argparse
import json
import math
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import gen  # noqa: E402

# Every run is single-worker: the target host has two cores and the open-loop
# generator needs the other one.
JOBS = "1"

# Set-up is a fresh process on one tiny file (the n=1 section 3.1 list),
# so it reads process start and first-file cost. It is measured a few
# times before each pass or cycle and at least SETUP_REPEATS times a run,
# so its median does not hang on the host's state in one moment.
SETUP_BURST = 3
SETUP_REPEATS = 31

# serve_edit: working-set size and the fixed open-loop rate. The rate is
# about half of the measured single-worker capacity for this mix (see
# README.md, "Fixing the serve_edit rate"); it is a constant so both
# sides of a comparison get the same offered load.
SERVE_WORKING_SET = 48
# Each working-set program is a file of this many templates (about 7 ms
# to compile), so a request's latency is mostly compile work rather than
# thread wake-ups and pipe hops, whose cost swings with the shared host.
SERVE_UNIT_TEMPLATES = 6
SERVE_RATE = 35.0
# serve_edit set-up (spawn -> first reply -> working set compiled into a
# fresh cache) is substantive, so it is repeated this many times; one of
# the sessions, in the middle, goes on to the measured schedule.
SERVE_SETUPS = 11
SERVE_EDIT_SHARE = 2.0 / 3.0
# A request meets the objective if its verdict is right and it answered
# within this many ms of when it was due.
SERVE_SLO_MS = 50.0
# A run whose generator sent its p99 request later than this after its
# due time is invalid: the offered load was not the one asked for.
SERVE_MAX_LATENESS_MS = 20.0

# --trace 1: seconds of the serve replay, as a share of --seconds (the
# traced binary reads the same share off the schedule it is given).
TRACE_SERVE_SHARE = 0.2

# run_lists: (opaque n, transparent n) pairs; every cycle runs each pair
# once, at a seeded jitter of up to 1% of n. Opaque costs O(n^2)
# interpreter steps and transparent O(n), so the cycle is evaluator-bound.
# Thirteen programs a cycle, so the pooled p50 and p90 each fall inside
# one program's times (ranks 7 and 12), not between two.
LIST_LADDER = [
    (60, 250), (90, 500), (120, 750), (150, 1000), (180, None),
    (210, None), (240, None), (270, None), (300, None),
]


class Fatal(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def pct(values, q):
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise Fatal("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_process(argv, stdout, stderr, stdin=subprocess.DEVNULL):
    """Runs ``argv`` to completion. Returns (exit code, wall s, peak RSS
    in MB, user+sys CPU s) of that one child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        for need in ("Cargo.toml", "crates", "perfbench/gen.py", "BENCHMARK.json"):
            if not os.path.exists(os.path.join(self.root, need)):
                raise Fatal("run from the root of a recmod checkout (%s is missing)" % need)
        # The metrics this run reports, in order, with their units.
        with open(os.path.join(self.root, "BENCHMARK.json")) as f:
            listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
        self.units = {m["name"]: m["unit"] for m in listed}
        self.target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.work = os.path.join(self.root, ".bench_work", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        os.makedirs(self.work)
        self.recmodc = os.path.join(self.target, "release", "recmodc")
        self.attempted = 0
        self.failed = 0
        # Why the run is not correct: wrong answers (the first few) and
        # invalid conditions such as a generator that fell behind.
        self.problems = []
        # Every serve process started, so none outlives the run.
        self.servers = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def cargo(self, *argv):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        with open(self.path("build.log"), "ab") as log:
            code = subprocess.call(("cargo",) + argv, stdout=log, stderr=log, env=env)
        if code != 0:
            with open(self.path("build.log"), "rb") as log:
                sys.stderr.write(log.read().decode(errors="replace")[-4000:])
            raise Fatal("cargo %s failed with exit %d" % (" ".join(argv), code))

    def build(self):
        self.cargo("build", "--release", "--quiet", "-p", "recmod", "--bin", "recmodc")
        if self.args.trace:
            self.cargo("build", "--release", "--quiet", "--manifest-path",
                       os.path.join("perfbench", "traced", "Cargo.toml"))

    def fail(self, count, why):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)

    def stop_servers(self):
        for proc in self.servers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def tiny(self):
        """Writes the set-up program, the n=1 section 3.1 opaque list, into
        a directory of its own; returns (directory, file path, n)."""
        [(name, src, n)] = gen.list_programs(self.args.seed + 1, [(1, None)])
        directory = self.path("tiny")
        gen.write(directory, [(name, src, n)])
        return directory, os.path.join(directory, name), n

    # ------------------------------------------------------------------
    # check_gen
    # ------------------------------------------------------------------

    def check_pass(self, directory, expected):
        """One ``recmodc check --jobs 1 --no-cache DIR`` process with a
        batch log; counts wrong verdicts as failed and returns (wall s,
        peak RSS MB, per-file compile ms from the log)."""
        log = self.path("batch.jsonl")
        code, wall, rss, _ = run_process(
            [self.recmodc, "check", "--jobs", JOBS, "--no-cache", "--log-json", log, directory],
            subprocess.DEVNULL, subprocess.DEVNULL)
        self.attempted += len(expected)
        if code not in (0, 1):
            self.fail(len(expected), "check pass exited %d" % code)
            return wall, rss, []
        got = read_batch_log(log)
        for name, want in expected.items():
            if got.get(name, (None,))[0] != want:
                self.fail(1, "%s: expected %s, got %s" % (name, want, got.get(name)))
        if len(got) != len(expected):
            self.fail(1, "batch log lists %d files, expected %d" % (len(got), len(expected)))
        return wall, rss, [ms for _, ms in got.values()]

    def check_gen(self):
        progs = gen.corpus(self.args.seed, gen.CHECK_PROGRAMS)
        corpus_dir = self.path("corpus")
        gen.write(corpus_dir, progs)
        if self.args.trace:
            return self.traced(corpus_dir, progs)

        tiny_dir, tiny_file, _ = self.tiny()
        tiny_expected = {os.path.basename(tiny_file): "ok"}
        expected = {name: exp for name, _, exp in progs}

        def setup():
            setups.append(self.check_pass(tiny_dir, tiny_expected)[0])

        setups, walls, rsss, file_ms = [], [], [], []
        start = time.perf_counter()
        while len(walls) < 3 or time.perf_counter() - start < self.args.seconds:
            for _ in range(SETUP_BURST):
                setup()
            wall, rss, ms = self.check_pass(corpus_dir, expected)
            walls.append(wall)
            rsss.append(rss)
            file_ms.extend(ms)
        while len(setups) < SETUP_REPEATS:
            setup()
        n = len(progs)
        print("check_gen: %d passes of %d programs, pass wall %s s" % (
            len(walls), n, ", ".join("%.3f" % w for w in walls)))
        return {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rsss),
            "programs_per_s": n / statistics.median(walls),
            # Per-file compile times from the batch log, pooled over passes.
            "program_ms.p50": pct(file_ms, 50),
            "program_ms.p90": pct(file_ms, 90),
        }

    # ------------------------------------------------------------------
    # run_lists
    # ------------------------------------------------------------------

    def run_list(self, path, n):
        """One ``recmodc run FILE`` process; returns (wall s, peak RSS MB)
        and counts a wrong value as failed."""
        out = self.path("run.out")
        with open(out, "wb") as o:
            code, wall, rss, _ = run_process(
                [self.recmodc, "run", path], o, subprocess.DEVNULL)
        self.attempted += 1
        with open(out, "rb") as o:
            first = o.readline().strip()
        if code != 0 or first != str(n * (n + 1) // 2).encode():
            self.fail(1, "%s: exit %d, printed %r, expected %d" % (
                os.path.basename(path), code, first[:40], n * (n + 1) // 2))
        return wall, rss

    def run_lists(self):
        progs = gen.list_programs(self.args.seed, LIST_LADDER)
        list_dir = self.path("lists")
        gen.write(list_dir, progs)
        files = [(os.path.join(list_dir, name), n) for name, _, n in progs]

        if self.args.trace:
            return self.traced(list_dir, progs)

        _, tiny_file, tiny_n = self.tiny()

        def setup():
            setups.append(self.run_list(tiny_file, tiny_n)[0])

        rng = random.Random(self.args.seed)
        setups, walls, cycle_rss, cycle_rate = [], [], [], []
        start = time.perf_counter()
        while len(cycle_rate) < 3 or time.perf_counter() - start < self.args.seconds:
            for _ in range(SETUP_BURST):
                setup()
            order = list(files)
            rng.shuffle(order)
            t0 = time.perf_counter()
            peak = 0.0
            for path, n in order:
                wall, rss = self.run_list(path, n)
                walls.append(wall * 1000.0)
                peak = max(peak, rss)
            cycle_rate.append(len(order) / (time.perf_counter() - t0))
            cycle_rss.append(peak)
        while len(setups) < SETUP_REPEATS:
            setup()
        print("run_lists: %d cycles of %d programs" % (len(cycle_rate), len(files)))
        return {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(cycle_rss),
            "programs_per_s": statistics.median(cycle_rate),
            "program_ms.p50": pct(walls, 50),
            # The highest percentile with at least ten samples beyond it
            # in a run of a few hundred programs.
            "program_ms.p90": pct(walls, 90),
        }

    # ------------------------------------------------------------------
    # serve_edit
    # ------------------------------------------------------------------

    def serve_edit(self):
        """Set-up SERVE_SETUPS times on fresh caches; the middle session
        then takes one open-loop schedule of the whole ``--seconds``, so
        the per-request cost of a cache that keeps growing shows."""
        progs = gen.units(self.args.seed, SERVE_WORKING_SET, SERVE_UNIT_TEMPLATES)
        if self.args.trace:
            wdir = self.path("working_set")
            gen.write(wdir, progs)
            return self.traced(wdir, progs)
        setups = []
        for i in range(SERVE_SETUPS):
            session = ServeSession(self, progs, self.path("cache%d" % i))
            setups.append(session.setup())
            if i == SERVE_SETUPS // 2:
                d = session.drive(serve_schedule(self.args.seed, len(progs), self.args.seconds))
                rss = session.close()
            else:
                session.close()
        print("serve_edit: latency from due p99 %.3f ms; %.4f of requests right within "
              "%.0f ms; server CPU %.3f ms/request; latency from send p50 %.3f ms" % (
                  pct(d["lat"], 99), d["good"] / d["sent"], SERVE_SLO_MS,
                  d["cpu"] * 1000.0 / max(1, len(d["lat"])), pct(d["send_lat"], 50)))
        return {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "programs_per_s": len(d["lat"]) / d["wall"],
            # A request is one program; its latency runs from its due time.
            "program_ms.p50": pct(d["lat"], 50),
            "program_ms.p90": pct(d["lat"], 90),
        }

    # ------------------------------------------------------------------
    # traced in-process run
    # ------------------------------------------------------------------

    def traced(self, directory, progs):
        """Runs ``perfbench/traced`` over the workload's inputs (``progs``
        written to ``directory``, in order) and returns its per-layer
        metrics; the span file lands in ``.bench_out``. The serve layer
        replays the open-loop schedule over the first working-set
        programs both in-process and through ``recmodc serve``; the
        difference of their median reply times is the transport cost."""
        manifest = self.path("manifest.tsv")
        with open(manifest, "w") as f:
            for name, _, expected in progs:
                f.write("%s\t%s\n" % (name, expected))
        working = progs[:SERVE_WORKING_SET]
        schedule = serve_schedule(self.args.seed, len(working),
                                  self.args.seconds * TRACE_SERVE_SHARE)
        sched = self.path("schedule.tsv")
        with open(sched, "w") as f:
            for due, idx, edit in schedule:
                f.write("%.6f\t%d\t%d\n" % (due, idx, edit))
        out_dir = os.path.join(self.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        argv = [os.path.join(self.target, "release", "perfbench-traced"),
                "--workload", self.args.workload, "--dir", directory, "--manifest", manifest,
                "--seconds", str(self.args.seconds), "--work", self.work,
                "--schedule", sched,
                "--spans", os.path.join(out_dir, "%s.trace.json" % self.args.workload)]
        res = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        sys.stderr.write(res.stderr.decode(errors="replace"))
        if res.returncode != 0:
            raise Fatal("traced run exited %d" % res.returncode)
        doc = json.loads(res.stdout.decode().strip().splitlines()[-1])
        self.attempted += doc["attempted"]
        self.failed += doc["failed"]
        self.problems.extend(doc["failures"])
        for line in doc["notes"]:
            print(line)
        metrics = dict(doc["metrics"])

        session = ServeSession(self, working, self.path("transport-cache"))
        session.setup()
        cli = session.drive(schedule)
        session.close()
        metrics["serve.transport_ms.p50"] = (
            pct(cli["send_lat"], 50) - metrics["serve.reply_ms.p50"])
        return metrics

    def finish(self, metrics):
        differ = set(self.units) ^ set(metrics)
        if differ:
            raise Fatal("metrics differ from BENCHMARK.json: %s" % sorted(differ))
        correct = self.failed == 0 and not self.problems
        for why in self.problems:
            print("FAILED: " + why)
        print("%s: attempted %d, succeeded %d, failed %d" % (
            self.args.workload, self.attempted, self.attempted - self.failed, self.failed))
        out = {}
        for name, unit in self.units.items():
            print("  %-32s %14.6f %s" % (name, metrics[name], unit))
            out[name] = {"value": metrics[name], "unit": unit}
        print(json.dumps({"correct": correct, "attempted": max(1, self.attempted),
                          "failed": self.failed, "metrics": out}))
        return 0


def read_batch_log(path):
    """file name -> (verdict, compile ms) from a ``--log-json`` batch log;
    the verdict is "ok" or the code of the first diagnostic."""
    got = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            event = json.loads(line)
            if event.get("kind") != "file":
                continue
            diags = event["diagnostics"]
            if event["status"] == "ok":
                verdict = "ok"
            else:
                verdict = diags[0].get("code") if diags else event["status"]
            got[os.path.basename(event["path"])] = (verdict, event["nanos"] / 1e6)
    return got


def serve_schedule(seed, working_set, seconds):
    """The seeded open-loop schedule: Poisson arrivals at SERVE_RATE for
    ``seconds``; each entry is (due offset s, working-set index, edit?)."""
    rng = gen.SplitMix64(seed ^ 0x5E7E)
    due, out = 0.0, []
    while True:
        u = (rng.next_u64() >> 11) / float(1 << 53)
        due += -math.log1p(-u) / SERVE_RATE
        if due >= seconds:
            return out
        idx = rng.below(working_set)
        edit = (rng.next_u64() >> 11) / float(1 << 53) < SERVE_EDIT_SHARE
        out.append((due, idx, 1 if edit else 0))


def proc_cpu_s(pid):
    """user+sys CPU seconds of a live process, from /proc."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeSession:
    """One ``recmodc serve`` process on stdio with a fresh cache dir."""

    def __init__(self, bench, progs, cache_dir):
        self.bench = bench
        self.current = [src for _, src, _ in progs]
        # List programs (run_lists) carry their length; they check "ok".
        self.expected = ["ok" if isinstance(exp, int) else exp for _, _, exp in progs]
        self.names = ["w%03d.rm" % i for i in range(len(progs))]
        self.next_id = 0
        self.next_rev = 10000
        self.replies = queue.Queue()
        self.err = open(bench.path("serve.err"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [bench.recmodc, "serve", "--jobs", JOBS, "--cache-dir", cache_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err)
        bench.servers.append(self.proc)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.replies.put((time.perf_counter(), line))
        self.replies.put((time.perf_counter(), None))

    def send(self, obj):
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def request(self, idx):
        """Sends the current version of working-set program ``idx``;
        returns the request id."""
        self.next_id += 1
        self.send({"op": "check", "id": self.next_id, "name": self.names[idx],
                   "source": self.current[idx]})
        return self.next_id

    def edit(self, idx):
        """A one-token edit: the ``rev`` literal on the first line gets a
        value never used before, so the content hash is new."""
        src = self.current[idx]
        first, rest = src.split("\n", 1)
        self.next_rev += 1
        self.current[idx] = "val rev = %d\n%s" % (self.next_rev, rest)

    def recv(self, timeout):
        at, line = self.replies.get(timeout=timeout)
        if line is None:
            raise Fatal("recmodc serve closed its output")
        return at, json.loads(line)

    def verdict_ok(self, resp, idx):
        want = self.expected[idx]
        if resp.get("status") == "ok":
            return want == "ok"
        diags = resp.get("diagnostics") or []
        return resp.get("status") == "error" and bool(diags) and diags[0].get("code") == want

    def setup(self):
        """Spawn -> first reply -> every working-set program compiled and
        stored in the fresh cache. Returns the elapsed seconds."""
        self.send({"op": "stats", "id": 0})
        self.recv(60)
        ids = {self.request(i): i for i in range(len(self.current))}
        for _ in ids:
            _, resp = self.recv(60)
            idx = ids.get(resp.get("id"))
            self.bench.attempted += 1
            if idx is None or not self.verdict_ok(resp, idx):
                self.bench.fail(1, "serve prefill: bad reply %s" % str(resp)[:200])
        return time.perf_counter() - self.t0

    def drive(self, schedule):
        """Sends ``schedule`` open-loop from this thread, then checks
        every reply. Replies are only queued while sending (by the
        reader thread) and parsed afterwards, so the sender is never
        kept from its next due time by parsing. Returns the raw samples:
        latency from due and from send time (ms), replies right within
        the objective, requests sent, wall and server CPU seconds."""
        sent = {}  # id -> (due, send time, working-set index)
        lateness = []
        cpu0 = proc_cpu_s(self.proc.pid)
        w0 = time.perf_counter()
        base = w0 + 0.05
        for due, idx, edit in schedule:
            at = base + due
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if edit:
                self.edit(idx)
            now = time.perf_counter()
            sent[self.request(idx)] = (at, now, idx)
            lateness.append((now - at) * 1000.0)
        replies = []
        try:
            while len(replies) < len(schedule):
                replies.append(self.recv(30))
        except queue.Empty:
            pass
        wall = replies[-1][0] - w0 if replies else time.perf_counter() - w0
        cpu = proc_cpu_s(self.proc.pid) - cpu0

        lat, send_lat, seen = [], [], set()
        good = attempts = 0
        for at, resp in replies:
            rid = resp.get("id")
            if rid not in sent or rid in seen:
                self.bench.fail(1, "serve: unexpected or duplicated reply id %r" % rid)
                continue
            seen.add(rid)
            due, sent_at, idx = sent[rid]
            ms = (at - due) * 1000.0
            lat.append(ms)
            send_lat.append((at - sent_at) * 1000.0)
            attempts += resp.get("attempts", 0)
            if self.verdict_ok(resp, idx):
                if ms <= SERVE_SLO_MS:
                    good += 1
            else:
                self.bench.fail(1, "serve: wrong reply to %s: %s" % (
                    self.names[idx], str(resp)[:200]))
        self.bench.attempted += len(schedule)
        missing = len(schedule) - len(seen)
        if missing:
            self.bench.fail(missing, "serve: %d requests got no reply" % missing)
        late99 = pct(lateness, 99)
        print(
            "serve: %d requests at %.0f/s, %d edits; generator lateness p50 %.3f ms, "
            "p99 %.3f ms; mean attempts %.3f" % (
                len(schedule), SERVE_RATE, sum(e for _, _, e in schedule),
                pct(lateness, 50), late99, attempts / max(1, len(seen))))
        if late99 > SERVE_MAX_LATENESS_MS:
            self.bench.problems.append(
                "generator fell behind: p99 lateness %.3f ms > %.1f ms" % (
                    late99, SERVE_MAX_LATENESS_MS))
        return {"lat": lat, "send_lat": send_lat, "good": good, "sent": len(schedule),
                "wall": wall, "cpu": cpu}

    def close(self):
        """Shuts the server down and returns its peak RSS in MB."""
        try:
            self.send({"op": "shutdown", "id": -1})
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.reader.join()
        self.err.close()
        if self.proc.returncode != 0:
            self.bench.fail(1, "recmodc serve exited %d" % self.proc.returncode)
        return usage.ru_maxrss / 1024.0


def main(argv):
    ap = argparse.ArgumentParser(description="recmod benchmark")
    ap.add_argument("--workload", required=True, choices=["check_gen", "serve_edit", "run_lists"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # The open-loop sender shares the interpreter with the reply reader;
    # a short switch interval keeps it close to its due times.
    sys.setswitchinterval(0.0002)
    # A terminated run still stops its servers and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bench = Bench(args)
    except Fatal as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    try:
        bench.build()
        metrics = getattr(bench, args.workload)()
        return bench.finish(metrics)
    except Fatal as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        bench.stop_servers()
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
