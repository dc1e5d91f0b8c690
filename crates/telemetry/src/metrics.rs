//! Log-bucketed histograms and Prometheus text for live service telemetry.
//!
//! The serve daemon needs latency *distributions* (p50/p99/max), not
//! process-lifetime averages, and it needs them without perturbing the
//! deterministic S14 cost counters: nothing in this module touches the
//! thread-local telemetry sink, the flight recorder, or the fault
//! clock, so the tolerance-0 golden-cost gate is unaffected by metrics
//! being compiled in and recorded on every request.
//!
//! # Bucket scheme
//!
//! [`Histogram`] is HDR-style: a fixed ladder of integer bucket upper
//! bounds growing by a factor of ~1.2 per step (`next = max(cur + 1,
//! cur * 6 / 5)`), from 1 up to [`BUCKET_CAP`] (10 minutes in
//! nanoseconds, ~150 buckets), plus one unbounded overflow bucket.
//! Recording a value increments one bucket counter — no samples are
//! stored — yet any quantile is recoverable from the bucket counts
//! with a relative error bounded by the 1.2 growth factor, and the
//! exact maximum is kept on the side. The same ladder serves both
//! nanosecond latencies and unitless work counts: integer values near
//! 1 get exact buckets (the `+ 1` branch), large ones get the
//! geometric ladder.
//!
//! # Concurrency
//!
//! All cells are relaxed [`AtomicU64`]s: `record` is a handful of
//! wait-free RMW operations with no locks, allocation, or syscalls, so
//! it is safe on the serve hot path. Snapshots taken while writers are
//! active are eventually consistent per cell; a snapshot's `count` is
//! *defined* as the sum of its bucket counts, so `count == Σ buckets`
//! holds by construction and quantiles are always internally coherent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::json::Json;

fn int(v: u64) -> Json {
    Json::UInt(v)
}

/// Upper bound of the last finite bucket: 10 minutes in nanoseconds.
/// Values above it land in the unbounded overflow bucket and report
/// quantiles from the exact tracked maximum.
pub const BUCKET_CAP: u64 = 600_000_000_000;

/// The shared bucket ladder: strictly increasing upper bounds from 1
/// to [`BUCKET_CAP`], growth factor ~1.2 (`next = max(cur + 1,
/// cur * 6 / 5)`). Built once, process-wide.
pub fn bucket_bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = Vec::with_capacity(192);
        let mut cur: u64 = 1;
        while cur < BUCKET_CAP {
            bounds.push(cur);
            cur = (cur + 1).max(cur * 6 / 5);
        }
        bounds.push(cur);
        bounds
    })
}

/// A fixed-ladder log-bucketed histogram with wait-free recording.
///
/// See the module docs for the bucket scheme. The value domain is
/// `u64`; the serve layer records nanoseconds and unitless work
/// counts.
#[derive(Debug)]
pub struct Histogram {
    /// One counter per finite bound in [`bucket_bounds`], plus a final
    /// overflow counter for values above [`BUCKET_CAP`].
    buckets: Box<[AtomicU64]>,
    /// Sum of all recorded values (exact, saturating only at u64 wrap
    /// which is unreachable for realistic latencies).
    sum: AtomicU64,
    /// Largest value recorded so far (exact).
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over the shared bucket ladder.
    pub fn new() -> Histogram {
        let n = bucket_bounds().len() + 1;
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, AtomicU64::default);
        Histogram {
            buckets: buckets.into_boxed_slice(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free: three relaxed atomic RMWs
    /// plus a binary search over the static bound ladder.
    pub fn record(&self, value: u64) {
        let bounds = bucket_bounds();
        let idx = bounds.partition_point(|&b| b < value);
        if let Some(cell) = self.buckets.get(idx) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts, sum, and maximum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, from which quantiles
/// and renderings are derived. `count` is the sum of `counts` by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; index `i < bucket_bounds().len()`
    /// holds values `<= bucket_bounds()[i]` (and greater than the
    /// previous bound); the final slot is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations (`counts.iter().sum()`).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the smallest bucket
    /// upper bound whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the exact tracked maximum (so `quantile(1.0) ==
    /// max`, and a histogram whose observations all fit one bucket
    /// reports that bucket's real extremum rather than its bound).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let bounds = bucket_bounds();
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match bounds.get(i) {
                    Some(&bound) => bound.min(self.max),
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }

    /// Renders the snapshot as a JSON object:
    /// `{"count", "sum", "max", "p50", "p90", "p99", "buckets"}` where
    /// `buckets` lists only non-empty buckets as `{"le", "count"}`
    /// pairs (`"le"` is the bucket's inclusive upper bound; `null` for
    /// the unbounded overflow bucket).
    pub fn to_json(&self) -> Json {
        let bounds = bucket_bounds();
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| {
                let le = match bounds.get(i) {
                    Some(&b) => int(b),
                    None => Json::Null,
                };
                Json::obj([("le", le), ("count", int(c))])
            })
            .collect();
        Json::obj([
            ("count", int(self.count)),
            ("sum", int(self.sum)),
            ("max", int(self.max)),
            ("p50", int(self.quantile(0.50))),
            ("p90", int(self.quantile(0.90))),
            ("p99", int(self.quantile(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// A Prometheus text-format (version 0.0.4) writer: `# TYPE` headers,
/// `name{label="value"} value` samples, cumulative histogram buckets
/// with a final `+Inf`. Zero-dependency, append-only; families must be
/// emitted contiguously (the writer emits one `# TYPE` header per
/// consecutive family change).
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    family: String,
}

impl PromText {
    /// An empty writer.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn header(&mut self, name: &str, kind: &str) {
        if self.family != name {
            self.out.push_str("# TYPE ");
            self.out.push_str(name);
            self.out.push(' ');
            self.out.push_str(kind);
            self.out.push('\n');
            self.family.clear();
            self.family.push_str(name);
        }
    }

    fn sample(&mut self, name: &str, suffix: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        self.out.push_str(suffix);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                for ch in v.chars() {
                    match ch {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// Emits one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, "counter");
        self.sample(name, "", labels, &value.to_string());
    }

    /// Emits one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.header(name, "gauge");
        self.sample(name, "", labels, &format!("{value}"));
    }

    /// Emits a histogram family: cumulative `_bucket{le=...}` samples
    /// for every non-empty bucket plus `+Inf`, then `_sum` and
    /// `_count`. Recorded values are divided by `scale` for rendering
    /// (pass `1e9` to render nanoseconds as Prometheus-conventional
    /// seconds, `1.0` for unitless histograms).
    pub fn histogram(&mut self, name: &str, snap: &HistogramSnapshot, scale: f64) {
        self.header(name, "histogram");
        let bounds = bucket_bounds();
        let mut cumulative = 0u64;
        for (i, &c) in snap.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cumulative += c;
            if let Some(&bound) = bounds.get(i) {
                let le = format!("{}", bound as f64 / scale);
                self.sample(
                    name,
                    "_bucket",
                    &[("le", le.as_str())],
                    &cumulative.to_string(),
                );
            }
        }
        self.sample(name, "_bucket", &[("le", "+Inf")], &snap.count.to_string());
        self.sample(name, "_sum", &[], &format!("{}", snap.sum as f64 / scale));
        self.sample(name, "_count", &[], &snap.count.to_string());
    }

    /// The accumulated text document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_a_strict_geometric_ladder() {
        let bounds = bucket_bounds();
        assert_eq!(bounds.first(), Some(&1));
        assert!(*bounds.last().unwrap() >= BUCKET_CAP);
        for w in bounds.windows(2) {
            assert!(w[1] > w[0], "not strictly increasing at {w:?}");
            // Growth never exceeds the 1.2 factor (plus the integer +1
            // floor for tiny bounds), so quantile error is bounded.
            assert!(
                w[1] <= (w[0] * 6 / 5).max(w[0] + 1),
                "grows too fast at {w:?}"
            );
        }
        // Small ladder: ~150 buckets, cheap to snapshot and render.
        assert!(bounds.len() < 200, "ladder too long: {}", bounds.len());
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(0.99), 0);
    }

    #[test]
    fn quantiles_are_exact_on_bucket_bounds() {
        // Observations placed exactly on ladder bounds are recovered
        // exactly: 100 low, 800 mid, 100 high (three distinct bounds).
        let bounds = bucket_bounds();
        let low = 10u64;
        assert!(bounds.contains(&low), "{low} must be a ladder bound");
        let mid = *bounds.iter().find(|&&b| b >= 1000).unwrap();
        let high = *bounds.iter().find(|&&b| b >= 100_000).unwrap();
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(low);
        }
        for _ in 0..800 {
            h.record(mid);
        }
        for _ in 0..100 {
            h.record(high);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 100 * low + 800 * mid + 100 * high);
        assert_eq!(s.max, high);
        assert_eq!(s.quantile(0.05), low);
        assert_eq!(s.quantile(0.10), low);
        assert_eq!(s.quantile(0.50), mid);
        assert_eq!(s.quantile(0.90), mid);
        assert_eq!(s.quantile(0.99), high);
        assert_eq!(s.quantile(1.0), high);
    }

    #[test]
    fn quantile_error_is_bounded_by_growth_factor() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = s.quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                got <= exact * 6 / 5 + 1,
                "q{q}: {got} above 1.2x bound of {exact}"
            );
        }
        assert!(s.quantile(0.99) >= s.quantile(0.5));
    }

    #[test]
    fn overflow_bucket_reports_the_exact_max() {
        let h = Histogram::new();
        h.record(7); // a ladder bound
        h.record(BUCKET_CAP * 3);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, BUCKET_CAP * 3);
        assert_eq!(s.quantile(0.25), 7);
        assert_eq!(s.quantile(0.99), BUCKET_CAP * 3);
    }

    #[test]
    fn single_bucket_quantile_clamps_to_max() {
        // All mass in one bucket: the quantile reports the exact
        // extremum, not the bucket's upper bound.
        let h = Histogram::new();
        h.record(1001); // lands in a bucket with bound > 1001
        let s = h.snapshot();
        let bounds = bucket_bounds();
        assert!(!bounds.contains(&1001));
        assert_eq!(s.quantile(0.5), 1001);
        assert_eq!(s.quantile(1.0), 1001);
    }

    #[test]
    fn json_rendering_is_sparse_and_coherent() {
        let h = Histogram::new();
        for _ in 0..5 {
            h.record(1000);
        }
        let doc = h.snapshot().to_json();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(5));
        // p50 is clamped to the exact max, not the bucket bound.
        assert_eq!(doc.get("p50").and_then(Json::as_u64), Some(1000));
        let le = *bucket_bounds().iter().find(|&&b| b >= 1000).unwrap();
        let buckets = doc.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1, "only non-empty buckets are listed");
        assert_eq!(buckets[0].get("le").and_then(Json::as_u64), Some(le));
        assert_eq!(buckets[0].get("count").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn prom_text_renders_cumulative_buckets() {
        let h = Histogram::new();
        h.record(1000);
        h.record(1000);
        h.record(2_000_000_000_000); // overflow
        let mut w = PromText::new();
        w.counter("recmod_requests_total", &[], 3);
        w.gauge("recmod_queue_depth", &[], 0.0);
        w.gauge("recmod_shard_entries", &[("shard", "0")], 17.0);
        w.histogram("recmod_latency_seconds", &h.snapshot(), 1e9);
        let text = w.finish();
        assert!(text.contains("# TYPE recmod_requests_total counter\n"));
        assert!(text.contains("recmod_requests_total 3\n"));
        assert!(text.contains("recmod_shard_entries{shard=\"0\"} 17\n"));
        assert!(text.contains("# TYPE recmod_latency_seconds histogram\n"));
        let le = *bucket_bounds().iter().find(|&&b| b >= 1000).unwrap();
        let want = format!(
            "recmod_latency_seconds_bucket{{le=\"{}\"}} 2\n",
            le as f64 / 1e9
        );
        assert!(text.contains(&want), "missing {want:?} in:\n{text}");
        assert!(text.contains("recmod_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("recmod_latency_seconds_count 3\n"));
    }
}
