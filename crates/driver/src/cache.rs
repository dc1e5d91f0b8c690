//! Content-addressed on-disk artifact cache: verdicts keyed by what
//! they are a function of.
//!
//! The kernel's judgements are pure: a file's verdict (ok/error), its
//! binding summaries, and its structured diagnostics are a function of
//! exactly four inputs — the source bytes, the resource [`Limits`], the
//! output schema ([`SCHEMA_VERSION`]), and the equivalence engine. So a
//! cache entry is addressed by `fnv1a` over precisely that tuple
//! ([`key`]) and stores the verdict plus everything needed to replay
//! the file's output without touching the pipeline. `NodeId`s are
//! deliberately **never** persisted: each thread's interner mints them
//! in its own first-intern order, so they are not run-stable.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * **Writes are atomic** — temp file in the cache directory, then
//!   `rename`, so a concurrent reader sees either the old entry, the
//!   new entry, or nothing; never a torn file.
//! * **Entries are checksummed** — the payload's compact JSON rendering
//!   is FNV-hashed into the envelope; truncated, bit-flipped, or
//!   hand-edited entries fail verification and read as *misses*
//!   ([`Outcome::Corrupt`]), never as stale verdicts or crashes.
//! * **Version skew is a silent miss** — the payload repeats the schema
//!   version (also part of the key, belt and braces); a mismatch reads
//!   as [`Outcome::Skew`].
//! * **The cache is advisory** — every failure (unreadable directory,
//!   I/O error, corruption) degrades to recompiling, reported as a
//!   `C00x` *warning* on stderr, never as a diagnostic or a nonzero
//!   exit. Verdicts and rendered output are byte-identical with the
//!   cache on, off, or warm.
//!
//! Size is bounded by an LRU-ish garbage collector: hits bump an
//! entry's mtime, and when the directory's total entry size exceeds the
//! configured cap, the oldest-mtime entries are evicted down to 3/4 of
//! the cap.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

use recmod_surface::diag::Diagnostic;
use recmod_telemetry::bundle::fnv1a;
use recmod_telemetry::json::{self, Json};
use recmod_telemetry::metrics::PromText;
use recmod_telemetry::{Limits, SCHEMA_VERSION};

use crate::FileStatus;

/// Default size cap for the cache directory (sum of entry file sizes).
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Cache settings as carried in driver/serve configs.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory holding the entries (created if absent).
    pub dir: PathBuf,
    /// Entry-size cap that triggers the LRU-ish GC.
    pub max_bytes: u64,
}

impl CacheConfig {
    /// A config with the default size cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }
}

/// A cache-layer health warning (`C001`–`C003`). Warnings describe the
/// cache, never the compiled program: they go to stderr and do not
/// affect verdicts or exit codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheWarning {
    /// Registry code: `C001` I/O error, `C002` corrupt entry skipped,
    /// `C003` cache directory uncreatable.
    pub code: &'static str,
    /// Human-readable description of what happened.
    pub message: String,
}

impl CacheWarning {
    /// The canonical stderr rendering.
    pub fn render(&self) -> String {
        format!("warning: cache: {} [{}]", self.message, self.code)
    }
}

/// What a cached verdict stores: enough to replay a file's rendered
/// output without recompiling. Rendered diagnostic *lines* are not
/// stored — they embed the display name, which is not part of the key
/// (the same content under two paths shares one entry) — so hits
/// re-render from the structured diagnostics.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The verdict. Only [`FileStatus::Ok`] and [`FileStatus::Error`]
    /// are cacheable: limit and internal outcomes depend on wall clocks
    /// and bugs, not on the key.
    pub status: FileStatus,
    /// `(name, description)` binding summaries (ok outcomes).
    pub summaries: Vec<(String, String)>,
    /// Structured diagnostics (error outcomes).
    pub diags: Vec<Diagnostic>,
    /// A cost-counter map carried in the entry format. Nothing reads it
    /// back (a replayed file reports the counters of its replay, not of
    /// the original compile), and the batch and serve drivers store it
    /// empty.
    pub counters: BTreeMap<String, u64>,
}

/// How a lookup resolved.
#[derive(Debug)]
pub enum Outcome {
    /// A verified entry.
    Hit(Box<Entry>),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed parsing or checksum verification.
    Corrupt,
    /// An entry existed but was written under another schema version.
    Skew,
    /// The entry could not be read (permissions, transient I/O).
    IoError,
}

/// An open cache directory, shared by all workers of a batch or
/// service. Interior mutability is limited to the warning log and the
/// event counts; entry I/O goes straight to the filesystem, whose
/// rename atomicity is the real synchronization point.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    max_bytes: u64,
    warnings: Mutex<Vec<CacheWarning>>,
    /// Events since the cache was opened, indexed by [`CacheEvent`].
    counts: [AtomicU64; EVENTS.len()],
}

/// Something the cache did, counted both on the calling thread's
/// telemetry sink and on the [`Cache`] itself (see [`EVENTS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A lookup answered from a verified entry.
    Hit,
    /// A lookup that found nothing (or a schema-skewed entry).
    Miss,
    /// A verdict written (atomic temp + rename completed).
    Store,
    /// An entry skipped for failed parse/checksum (`C002`).
    CorruptSkipped,
    /// A read or write lost to I/O trouble (`C001`).
    IoError,
    /// An entry evicted by the size-capped GC.
    GcEvicted,
}

/// The cache's events, one row each in [`CacheEvent`] order: the
/// per-thread telemetry counter the event bumps (batch `--stats` and
/// per-file deltas) and its key in the `cache.counters` object of the
/// serve `stats` and `metrics` documents. Prometheus labels
/// `recmod_cache_events_total` with the counter name past `cache.`.
pub const EVENTS: [(CacheEvent, &str, &str); 6] = [
    (CacheEvent::Hit, "cache.hit", "hits"),
    (CacheEvent::Miss, "cache.miss", "misses"),
    (CacheEvent::Store, "cache.store", "stores"),
    (
        CacheEvent::CorruptSkipped,
        "cache.corrupt_skipped",
        "corrupt_skipped",
    ),
    (CacheEvent::IoError, "cache.io_error", "io_errors"),
    (CacheEvent::GcEvicted, "cache.gc_evicted", "gc_evicted"),
];

/// A plain-data snapshot of a [`Cache`]'s events since it was opened.
/// A `C003` (directory uncreatable) means no `Cache` exists at all,
/// which the serve layer reports as `open_failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats([u64; EVENTS.len()]);

impl CacheStats {
    fn get(&self, event: CacheEvent) -> u64 {
        self.0[event as usize]
    }

    /// Hit ratio in `[0, 1]` over completed lookups; `0` before any.
    pub fn hit_ratio(&self) -> f64 {
        let (hits, misses) = (self.get(CacheEvent::Hit), self.get(CacheEvent::Miss));
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// The counter object embedded in `stats`/`metrics` documents.
    pub fn to_json(&self) -> Json {
        let counts = EVENTS
            .iter()
            .zip(self.0)
            .map(|(&(_, _, key), n)| (key, Json::UInt(n)));
        Json::obj(counts.chain([("hit_ratio", Json::Float(self.hit_ratio()))]))
    }

    /// Appends the events and the hit ratio to a Prometheus document.
    pub(crate) fn write_prom(&self, out: &mut PromText) {
        for (&(_, counter, _), n) in EVENTS.iter().zip(self.0) {
            let event = counter.strip_prefix("cache.").unwrap_or(counter);
            out.counter("recmod_cache_events_total", &[("event", event)], n);
        }
        out.gauge("recmod_cache_hit_ratio", &[], self.hit_ratio());
    }
}

/// Computes the content address of a compile: the verdict is a pure
/// function of these four inputs and nothing else. `deadline_ms`
/// participates (a deadline is part of the requested limits) but
/// wall-clock *outcomes* are never cached, so a generous deadline can
/// only ever replay honest ok/error verdicts.
pub fn key(source: &str, limits: &Limits, engine: &str) -> u64 {
    fnv1a(&[
        source.as_bytes(),
        &(limits.max_depth as u64).to_le_bytes(),
        &limits.max_nodes.to_le_bytes(),
        &limits.fuel.to_le_bytes(),
        &limits.eval_fuel.to_le_bytes(),
        &limits.eval_depth.to_le_bytes(),
        &limits.deadline_ms.to_le_bytes(),
        &SCHEMA_VERSION.to_le_bytes(),
        engine.as_bytes(),
    ])
}

/// Tiebreaker for temp-file names when two threads store the same key
/// simultaneously (both renames then target the same final path; either
/// order leaves a valid entry, since both wrote the same payload).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Cache {
    /// Opens (creating if necessary) a cache directory.
    ///
    /// # Errors
    ///
    /// A `C003` warning when the directory cannot be created; callers
    /// run uncached and surface the warning once.
    pub fn open(config: &CacheConfig) -> Result<Cache, CacheWarning> {
        match std::fs::create_dir_all(&config.dir) {
            Ok(()) => Ok(Cache {
                dir: config.dir.clone(),
                max_bytes: config.max_bytes,
                warnings: Mutex::new(Vec::new()),
                counts: Default::default(),
            }),
            Err(e) => Err(CacheWarning {
                code: "C003",
                message: format!(
                    "cannot create cache directory {}: {e}; caching disabled",
                    config.dir.display()
                ),
            }),
        }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    fn warn(&self, code: &'static str, message: String) {
        let w = CacheWarning { code, message };
        let mut log = self
            .warnings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !log.contains(&w) {
            log.push(w);
        }
    }

    /// Counts `event` twice over: on the calling thread's telemetry
    /// sink, if one is installed, and on this cache's own atomics, which
    /// serve reads because its workers usually run without a sink.
    fn record(&self, event: CacheEvent) {
        recmod_telemetry::count(EVENTS[event as usize].1, 1);
        self.counts[event as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the events counted since the cache was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats(self.counts.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }

    /// Drains the deduplicated warning log (call once per batch).
    pub fn take_warnings(&self) -> Vec<CacheWarning> {
        std::mem::take(
            &mut self
                .warnings
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Looks up a key, verifying the envelope checksum and schema
    /// version. Every non-hit degrades to "compile it"; corruption and
    /// I/O trouble additionally log a warning and bump their counters.
    pub fn load(&self, key: u64) -> Outcome {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                self.record(CacheEvent::Miss);
                return Outcome::Miss;
            }
            Err(e) => {
                self.record(CacheEvent::IoError);
                self.warn("C001", format!("cannot read {}: {e}", path.display()));
                return Outcome::IoError;
            }
        };
        match verify(&text) {
            Verified::Entry(entry) => {
                // LRU bookkeeping: a hit makes the entry "recently
                // used". Touches are throttled to once a minute per
                // entry (GC ordering doesn't need finer grain) and
                // failure to touch is harmless (GC just sees an older
                // entry), so every result here is ignored.
                let now = SystemTime::now();
                let stale = std::fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| now.duration_since(mtime).ok())
                    .is_none_or(|age| age.as_secs() >= 60);
                if stale {
                    if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                        let _ = f.set_modified(now);
                    }
                }
                self.record(CacheEvent::Hit);
                Outcome::Hit(entry)
            }
            Verified::Skew => {
                self.record(CacheEvent::Miss);
                Outcome::Skew
            }
            Verified::Corrupt(why) => {
                self.record(CacheEvent::CorruptSkipped);
                self.warn(
                    "C002",
                    format!("corrupt entry {} skipped ({why})", path.display()),
                );
                Outcome::Corrupt
            }
        }
    }

    /// Stores a verdict under `key` (atomic: temp file + rename), then
    /// runs the size-capped GC. Only ok/error verdicts may be stored.
    pub fn store(&self, key: u64, entry: &Entry) {
        debug_assert!(
            matches!(entry.status, FileStatus::Ok | FileStatus::Error),
            "only deterministic verdicts are cacheable"
        );
        let payload = payload_json(entry).to_compact();
        let doc = format!(
            "{{\"checksum\":{},\"payload\":{payload}}}",
            fnv1a(&[payload.as_bytes()])
        );
        let tmp = self.dir.join(format!(
            "tmp-{key:016x}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result =
            std::fs::write(&tmp, doc).and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        match result {
            Ok(()) => {
                self.record(CacheEvent::Store);
                self.gc();
            }
            Err(e) => {
                self.record(CacheEvent::IoError);
                let _ = std::fs::remove_file(&tmp);
                self.warn("C001", format!("cannot write entry for {key:016x}: {e}"));
            }
        }
    }

    /// Runs after every store: lists the whole directory and sums its
    /// entry sizes, so each store costs O(entries). Over the cap, it
    /// evicts oldest-mtime entries until the total fits in 3/4 of the
    /// cap, so the next few stores find the directory under the cap and
    /// evict nothing, though each still lists it. Failures are ignored:
    /// GC is best-effort hygiene.
    fn gc(&self) {
        let Ok(read) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for e in read.flatten() {
            let path = e.path();
            if path.extension().is_none_or(|ext| ext != "json") {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            entries.push((mtime, meta.len(), path));
        }
        if total <= self.max_bytes {
            return;
        }
        entries.sort();
        let floor = self.max_bytes / 4 * 3;
        for (_, len, path) in entries {
            if total <= floor {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                self.record(CacheEvent::GcEvicted);
                total = total.saturating_sub(len);
            }
        }
    }
}

fn payload_json(entry: &Entry) -> Json {
    Json::obj([
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        (
            "status",
            Json::str(match entry.status {
                FileStatus::Ok => "ok",
                _ => "error",
            }),
        ),
        (
            "summaries",
            Json::Arr(
                entry
                    .summaries
                    .iter()
                    .map(|(n, d)| Json::Arr(vec![Json::str(n.clone()), Json::str(d.clone())]))
                    .collect(),
            ),
        ),
        (
            "diags",
            Json::Arr(entry.diags.iter().map(Diagnostic::to_json).collect()),
        ),
        (
            "counters",
            Json::Obj(
                entry
                    .counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                    .collect(),
            ),
        ),
    ])
}

enum Verified {
    Entry(Box<Entry>),
    Skew,
    Corrupt(&'static str),
}

/// Parses and verifies one entry document. Checksum first: nothing in
/// the payload is trusted until the envelope hash over its canonical
/// (compact, key-ordered) rendering matches.
fn verify(text: &str) -> Verified {
    let Ok(doc) = json::parse(text) else {
        return Verified::Corrupt("unparseable");
    };
    let Some(checksum) = doc.get("checksum").and_then(Json::as_u64) else {
        return Verified::Corrupt("missing checksum");
    };
    let Some(payload) = doc.get("payload") else {
        return Verified::Corrupt("missing payload");
    };
    if fnv1a(&[payload.to_compact().as_bytes()]) != checksum {
        return Verified::Corrupt("checksum mismatch");
    }
    if payload.get("schema_version").and_then(Json::as_u64) != Some(SCHEMA_VERSION) {
        return Verified::Skew;
    }
    let status = match payload.get("status").and_then(Json::as_str) {
        Some("ok") => FileStatus::Ok,
        Some("error") => FileStatus::Error,
        _ => return Verified::Corrupt("bad status"),
    };
    let mut summaries = Vec::new();
    match payload.get("summaries").and_then(Json::as_arr) {
        Some(pairs) => {
            for p in pairs {
                match p.as_arr() {
                    Some([n, d]) => match (n.as_str(), d.as_str()) {
                        (Some(n), Some(d)) => summaries.push((n.to_string(), d.to_string())),
                        _ => return Verified::Corrupt("bad summary pair"),
                    },
                    _ => return Verified::Corrupt("bad summary shape"),
                }
            }
        }
        None => return Verified::Corrupt("missing summaries"),
    }
    let mut diags = Vec::new();
    match payload.get("diags").and_then(Json::as_arr) {
        Some(ds) => {
            for d in ds {
                match Diagnostic::from_json(d) {
                    Some(d) => diags.push(d),
                    None => return Verified::Corrupt("bad diagnostic"),
                }
            }
        }
        None => return Verified::Corrupt("missing diags"),
    }
    let mut counters = BTreeMap::new();
    if let Some(Json::Obj(map)) = payload.get("counters") {
        for (k, v) in map {
            match v.as_u64() {
                Some(v) => {
                    counters.insert(k.clone(), v);
                }
                None => return Verified::Corrupt("bad counter"),
            }
        }
    }
    Verified::Entry(Box::new(Entry {
        status,
        summaries,
        diags,
        counters,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("recmod-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> Entry {
        Entry {
            status: FileStatus::Ok,
            summaries: vec![("x".into(), "int".into())],
            diags: Vec::new(),
            counters: BTreeMap::from([("kernel.fuel.whnf".to_string(), 7u64)]),
        }
    }

    #[test]
    fn event_rows_follow_the_enum() {
        for (i, &(event, _, _)) in EVENTS.iter().enumerate() {
            assert_eq!(event as usize, i, "{event:?} is out of place in EVENTS");
        }
    }

    #[test]
    fn round_trips_a_verdict() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("roundtrip"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "nbe");
        assert!(matches!(cache.load(k), Outcome::Miss));
        cache.store(k, &sample_entry());
        let Outcome::Hit(entry) = cache.load(k) else {
            panic!("expected hit after store");
        };
        assert_eq!(entry.status, FileStatus::Ok);
        assert_eq!(entry.summaries, vec![("x".to_string(), "int".to_string())]);
        assert_eq!(entry.counters.get("kernel.fuel.whnf"), Some(&7));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_separates_every_input() {
        let limits = Limits::default();
        let base = key("src", &limits, "nbe");
        assert_ne!(base, key("src2", &limits, "nbe"));
        assert_ne!(base, key("src", &limits, "subst"));
        let mut bigger = limits;
        bigger.fuel += 1;
        assert_ne!(base, key("src", &bigger, "nbe"));
    }

    #[test]
    fn flipped_byte_is_rejected_by_checksum() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("poison"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "nbe");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        // Flip the verdict from "ok" to "error"-shaped junk ("qk"): the
        // checksum over the payload must reject the edit.
        let poisoned = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"ok\"", "\"qk\"");
        std::fs::write(&path, poisoned).unwrap();
        assert!(matches!(cache.load(k), Outcome::Corrupt));
        let ws = cache.take_warnings();
        assert!(ws.iter().any(|w| w.code == "C002"), "C002 logged: {ws:?}");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_a_silent_miss_not_a_crash() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("trunc"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "nbe");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(cache.load(k), Outcome::Corrupt));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn schema_skew_is_a_silent_miss() {
        let cache = Cache::open(&CacheConfig::new(tmp_dir("skew"))).unwrap();
        let k = key("val x = 1\n", &Limits::default(), "nbe");
        cache.store(k, &sample_entry());
        let path = cache.entry_path(k);
        // Rewrite the payload under a bogus schema version *with a
        // valid checksum*: skew detection must not depend on the entry
        // being corrupt.
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = json::parse(&text)
            .unwrap()
            .get("payload")
            .cloned()
            .map(|p| {
                let Json::Obj(mut m) = p else { unreachable!() };
                m.insert("schema_version".into(), Json::UInt(9999));
                Json::Obj(m).to_compact()
            })
            .unwrap();
        std::fs::write(
            &path,
            format!(
                "{{\"checksum\":{},\"payload\":{payload}}}",
                fnv1a(&[payload.as_bytes()])
            ),
        )
        .unwrap();
        assert!(matches!(cache.load(k), Outcome::Skew));
        assert!(cache.take_warnings().is_empty(), "skew is silent");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_down_to_the_floor() {
        let dir = tmp_dir("gc");
        let cache = Cache::open(&CacheConfig {
            dir: dir.clone(),
            max_bytes: 2048,
        })
        .unwrap();
        for i in 0..64u64 {
            cache.store(
                key(&format!("src{i}"), &Limits::default(), "nbe"),
                &sample_entry(),
            );
        }
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        assert!(total <= 2048, "GC keeps the dir under the cap: {total}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
