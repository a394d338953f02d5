//! The per-context registry of named counters, gauges and histograms.
//!
//! Counters are monotonic `u64` sums (op counts, FLOPs, nnz processed,
//! bytes allocated). Gauges hold the latest `f64` (gradient norm, learning
//! rate). Histograms keep count/sum/min/max plus a reservoir-free
//! log-spaced bucket sketch (8 sub-buckets per power-of-two octave, exact
//! below 16), so p50/p99 readouts land within 12.5% of the true sample —
//! one bucket width, see [`histogram_bucket_width`].
//!
//! Every function here acts on the calling thread's context
//! ([`crate::Scope`]): a name counted under one context is invisible to
//! every other. An update to a name the context already holds takes the
//! registry's *read* lock for a lookup by `&str` and applies relaxed atomic
//! operations — it never allocates and updaters never wait for each other;
//! only the first touch of a name takes the write lock and allocates the
//! key. Everything is a no-op, behind one relaxed load, while the context's
//! telemetry is disabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::context::{when_on, with_current, ENABLED};
use crate::json::Json;

/// Sub-bucket resolution of the log-spaced sketch: each power-of-two
/// octave splits into `2^SUB_BITS` equal-width buckets, bounding the
/// relative quantile error at `2^-SUB_BITS` (12.5%) of the true value.
const SUB_BITS: usize = 3;
/// Buckets per octave.
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Values below `2^(SUB_BITS+1)` get one exact bucket each (the sub-bucket
/// scheme cannot split octaves narrower than `SUB_COUNT` values).
const PRECISE: usize = 2 * SUB_COUNT;
/// Total buckets: the exact region plus 8 sub-buckets for each of the
/// octaves `2^4 .. 2^63`. Covers the full u64 range.
const BUCKETS: usize = PRECISE + (64 - (SUB_BITS + 1)) * SUB_COUNT;

/// Index of the log-spaced bucket containing `value`.
fn bucket_index(value: u64) -> usize {
    if value < PRECISE as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros() as usize; // SUB_BITS+1 ..= 63
    let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB_COUNT - 1);
    PRECISE + (exp - (SUB_BITS + 1)) * SUB_COUNT + sub
}

/// Largest value that lands in bucket `index` (quantiles report this
/// upper bound, so they never under-estimate).
fn bucket_upper(index: usize) -> u64 {
    if index < PRECISE {
        return index as u64;
    }
    let exp = SUB_BITS + 1 + (index - PRECISE) / SUB_COUNT;
    let sub = ((index - PRECISE) % SUB_COUNT) as u64;
    let lower = (SUB_COUNT as u64 + sub) << (exp - SUB_BITS);
    lower + ((1u64 << (exp - SUB_BITS)) - 1)
}

/// Width of the histogram bucket `value` falls into — the quantile
/// error bound at that magnitude (1 below `2^(SUB_BITS+1)`, then
/// ≤ 12.5% of the value). Tests compare sketch quantiles against exact
/// ones within this tolerance.
pub fn histogram_bucket_width(value: u64) -> u64 {
    let i = bucket_index(value);
    if i < PRECISE {
        1
    } else {
        bucket_upper(i) - bucket_upper(i - 1)
    }
}

struct Histogram {
    count: AtomicU64,
    /// Sum in value units, stored as integer (values are rounded).
    sum: AtomicU64,
    /// Min/max as raw u64 (values are non-negative integers here).
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }

    /// Approximate quantile from the log-spaced sketch: returns the upper
    /// bound of the bucket containing the q-th ordered sample, clamped to
    /// the observed max so sparse top buckets cannot over-report.
    fn quantile(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(AtomicU64),
    /// Gauge: latest f64, stored as bits.
    Gauge(AtomicU64),
    Histogram(Box<Histogram>),
}

/// The three ways to update a metric; `value` is the delta, the gauge's
/// bits, or the sample.
#[derive(Clone, Copy)]
enum Update {
    Add,
    Set,
    Record,
}

impl Metric {
    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
            Metric::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
            Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
        }
    }

    /// Applies the update if it fits this metric's kind; an update to a name
    /// registered as another kind is dropped.
    fn apply(&self, update: Update, value: u64) {
        match (self, update) {
            (Metric::Counter(c), Update::Add) => {
                c.fetch_add(value, Ordering::Relaxed);
            }
            (Metric::Gauge(g), Update::Set) => g.store(value, Ordering::Relaxed),
            (Metric::Histogram(h), Update::Record) => h.record(value),
            _ => {}
        }
    }
}

/// One context's metrics, by name.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    fn update(&self, name: &str, update: Update, value: u64) {
        if let Some(metric) = self.metrics.read().unwrap().get(name) {
            return metric.apply(update, value);
        }
        // First touch of the name: the only path that allocates.
        #[cfg(test)]
        tests::INSERTS.with(|n| n.set(n.get() + 1));
        let mut metrics = self.metrics.write().unwrap();
        let metric = metrics
            .entry(name.to_string())
            .or_insert_with(|| match update {
                Update::Add => Metric::Counter(AtomicU64::new(0)),
                Update::Set => Metric::Gauge(AtomicU64::new(0)),
                Update::Record => Metric::Histogram(Box::new(Histogram::new())),
            });
        metric.apply(update, value);
    }
}

/// Reads the calling thread's context's metrics.
fn read<R>(f: impl FnOnce(&BTreeMap<String, Metric>) -> R) -> R {
    with_current(|scope| f(&scope.state().metrics.metrics.read().unwrap()))
}

/// Runs one update on the calling thread's context, if its telemetry is on.
#[inline]
fn update(name: &str, update: Update, value: u64) {
    when_on(ENABLED, |scope| {
        scope.state().metrics.update(name, update, value)
    });
}

/// Adds `delta` to the named counter. No-op when telemetry is disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    update(name, Update::Add, delta);
}

/// Current value of the named counter (0 if never touched).
pub fn counter_get(name: &str) -> u64 {
    match read(|metrics| metrics.get(name).map(Metric::value)) {
        Some(MetricValue::Counter(total)) => total,
        _ => 0,
    }
}

/// Sets the named gauge to `value`. No-op when telemetry is disabled.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    update(name, Update::Set, value.to_bits());
}

/// Latest value of the named gauge, `None` if never set.
pub fn gauge_get(name: &str) -> Option<f64> {
    match read(|metrics| metrics.get(name).map(Metric::value)) {
        Some(MetricValue::Gauge(latest)) => Some(latest),
        _ => None,
    }
}

/// Records one sample (a non-negative integer, e.g. microseconds) into the
/// named histogram. No-op when telemetry is disabled.
#[inline]
pub fn histogram_record(name: &str, value: u64) {
    update(name, Update::Record, value);
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate median (log-spaced-bucket upper bound, within one
    /// [`histogram_bucket_width`] of the exact sample).
    pub p50: u64,
    /// Approximate 99th percentile (log-spaced-bucket upper bound, within
    /// one [`histogram_bucket_width`] of the exact sample).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Latest gauge reading.
    Gauge(f64),
    /// Histogram summary statistics.
    Histogram(HistogramSummary),
}

impl MetricValue {
    /// JSON rendering used by the run ledger's `run_end` record and the
    /// serving `/metrics` endpoint: counters and gauges become numbers,
    /// histograms become `{count, sum, min, max, p50, p99}` objects.
    pub fn to_json(&self) -> Json {
        match *self {
            MetricValue::Counter(c) => Json::from(c),
            MetricValue::Gauge(g) => Json::from(g),
            MetricValue::Histogram(HistogramSummary {
                count,
                sum,
                min,
                max,
                p50,
                p99,
            }) => Json::obj([
                ("count", count.into()),
                ("sum", sum.into()),
                ("min", min.into()),
                ("max", max.into()),
                ("p50", p50.into()),
                ("p99", p99.into()),
            ]),
        }
    }
}

/// A consistent-enough copy of every registered metric, name-sorted.
pub type Snapshot = BTreeMap<String, MetricValue>;

/// Copies the current value of every metric. Names sort alphabetically,
/// so dotted prefixes (`tensor.matmul.calls`) group naturally.
pub fn metrics_snapshot() -> Snapshot {
    read(|metrics| {
        metrics
            .iter()
            .map(|(name, m)| (name.clone(), m.value()))
            .collect()
    })
}

/// The full metrics snapshot as one JSON object keyed by metric name —
/// exactly what the ledger embeds in `run_end` and what `GET /metrics`
/// serves.
pub fn metrics_snapshot_json() -> Json {
    Json::Obj(
        metrics_snapshot()
            .into_iter()
            .map(|(name, v)| (name, v.to_json()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::enabled_context;
    use crate::{set_enabled, Scope};
    use std::cell::Cell;

    thread_local! {
        /// First touches of a name seen by [`Registry::update`] on this thread.
        pub(super) static INSERTS: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn counters_sum_across_the_threads_of_one_context() {
        let name = "test.concurrent.counter";
        let total = enabled_context(|| {
            let scope = Scope::capture();
            std::thread::scope(|threads| {
                for _ in 0..8 {
                    threads.spawn(|| {
                        scope.run(|| {
                            for _ in 0..1000 {
                                counter_add(name, 3);
                            }
                        })
                    });
                }
            });
            counter_get(name)
        });
        assert_eq!(total, 8 * 1000 * 3);
    }

    #[test]
    fn only_the_first_touch_of_a_name_inserts() {
        enabled_context(|| {
            let inserts = || INSERTS.with(Cell::get);
            let before = inserts();
            counter_add("test.insert.counter", 1);
            gauge_set("test.insert.gauge", 1.0);
            histogram_record("test.insert.histo", 1);
            assert_eq!(inserts(), before + 3);
            for _ in 0..10 {
                counter_add("test.insert.counter", 1);
                gauge_set("test.insert.gauge", 2.0);
                histogram_record("test.insert.histo", 2);
            }
            assert_eq!(
                inserts(),
                before + 3,
                "an existing name took the insert path"
            );
            assert_eq!(counter_get("test.insert.counter"), 11);
            assert_eq!(metrics_snapshot().len(), 3);
        });
    }

    #[test]
    fn an_update_of_another_kind_is_dropped() {
        enabled_context(|| {
            counter_add("test.kind", 4);
            gauge_set("test.kind", 1.0);
            histogram_record("test.kind", 9);
            assert_eq!(counter_get("test.kind"), 4);
            assert_eq!(gauge_get("test.kind"), None);
        });
    }

    #[test]
    fn gauges_keep_latest() {
        enabled_context(|| {
            gauge_set("test.gauge", 1.5);
            gauge_set("test.gauge", -2.25);
            assert_eq!(gauge_get("test.gauge"), Some(-2.25));
            assert_eq!(gauge_get("test.gauge.unset"), None);
        });
    }

    #[test]
    fn histogram_summary_statistics() {
        let name = "test.histo";
        let snap = enabled_context(|| {
            for v in [1u64, 2, 3, 100] {
                histogram_record(name, v);
            }
            metrics_snapshot()
        });
        match snap.get(name) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 4);
                assert_eq!(h.sum, 106);
                assert_eq!(h.min, 1);
                assert_eq!(h.max, 100);
                assert!(h.p50 >= 2 && h.p50 <= 3, "p50 = {}", h.p50);
                assert!(h.p99 >= 100, "p99 = {}", h.p99);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every value lands in a bucket whose upper bound is ≥ the value
        // and whose width bounds the error at 12.5%.
        for v in (0u64..4096).chain([1_000_000, 123_456_789, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            assert!(
                upper - v < histogram_bucket_width(v).max(1),
                "value {v} further than one width {} from upper {upper}",
                histogram_bucket_width(v)
            );
            if i + 1 < BUCKETS {
                assert!(bucket_upper(i + 1) > upper, "uppers must increase at {i}");
            }
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX, "top bucket saturates");
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_one_bucket() {
        // A latency-shaped sample: bulk around 300–800µs, a 1% tail at
        // ~20ms. A flat log2 sketch reports p99 = 1023 for this shape
        // (28% over the exact 799); the log-spaced sketch must land
        // within one sub-bucket width (≤ 12.5%) of the exact percentile.
        let name = "test.histo.fidelity";
        let mut samples: Vec<u64> = Vec::new();
        for i in 0..990u64 {
            samples.push(300 + (i * 500) / 990);
        }
        for i in 0..10u64 {
            samples.push(20_000 + i * 37);
        }
        let snap = enabled_context(|| {
            for &s in &samples {
                histogram_record(name, s);
            }
            metrics_snapshot()
        });
        samples.sort_unstable();
        let exact = |q: f64| samples[((samples.len() as f64 * q).ceil() as usize).max(1) - 1];
        let Some(MetricValue::Histogram(h)) = snap.get(name) else {
            panic!("missing histogram");
        };
        for (got, want) in [(h.p50, exact(0.50)), (h.p99, exact(0.99))] {
            assert!(got >= want, "sketch quantile {got} under exact {want}");
            assert!(
                got - want <= histogram_bucket_width(want),
                "sketch {got} vs exact {want}: off by more than one bucket width {}",
                histogram_bucket_width(want)
            );
        }
    }

    #[test]
    fn disabled_updates_are_dropped() {
        enabled_context(|| {
            set_enabled(false);
            counter_add("test.disabled.counter", 10);
            set_enabled(true);
            assert_eq!(metrics_snapshot().len(), 0);
        });
    }
}
