//! Wall-clock telemetry: counters, gauges, and log2-bucketed latency
//! histograms with a deterministic export format.
//!
//! The simulator's canonical artifacts (report, trace, profile) are pure
//! functions of *virtual* time and must stay byte-identical run-over-run;
//! host nanoseconds may only ever appear in clearly wall-clock side
//! channels (`wall_ns`, `wire_route_ns`, host_perf). This module is that
//! side channel grown into a real instrument: per-`WireMsg`-class latency
//! histograms recorded on both sides of a socket, merged under node-tagged
//! keys, and exported as deterministic JSON (deterministic in *shape* —
//! key order, field order — while the recorded nanoseconds are of course
//! wall-clock measurements).
//!
//! Everything here is std-only and allocation-light: a [`Histogram`] is a
//! fixed 65-slot array (one slot per power-of-two bucket), a
//! [`MetricsRegistry`] is a `BTreeMap` so iteration and JSON export are
//! deterministic, and the whole registry round-trips through a compact
//! length-checked binary blob so `fgdsm-node` workers can ship their
//! metrics home inside the `ByeStats` control frame.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of histogram buckets: slot 0 holds exact zeros, slot `k`
/// (1..=64) holds values in `[2^(k-1), 2^k)` — slot 64 therefore
/// saturates at `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// Version tag of the registry's binary wire blob.
pub const METRICS_BLOB_VERSION: u16 = 1;

/// Caps for the paranoid blob decoder: a worker registry holds a few
/// dozen entries; anything bigger than this is a corrupt frame.
const MAX_BLOB_ENTRIES: usize = 4096;
const MAX_BLOB_NAME: usize = 256;

/// The five `WireMsg` payload classes by `kind()` byte, for metric-key
/// construction (`encode.push`, `node2.apply.diff`, …).
pub fn class_name(kind: u8) -> &'static str {
    match kind {
        0 => "push",
        1 => "flush",
        2 => "copy",
        3 => "diff",
        4 => "strided",
        _ => "unknown",
    }
}

/// Is wall-clock telemetry requested via the environment?
/// `FGDSM_METRICS=1|true|on` enables it; anything else (or unset) leaves
/// it off.
pub fn env_enabled() -> bool {
    std::env::var("FGDSM_METRICS").is_ok_and(|v| v == "1" || v == "true" || v == "on")
}

/// A log2-bucketed latency histogram over `u64` nanoseconds.
///
/// Percentiles are reported as the *upper bound* of the smallest bucket
/// whose cumulative count reaches the rank `ceil(p × count)`. That
/// definition is deliberately conservative (never under-reports) and has
/// a property the cross-process merge relies on: the percentile of a
/// merged histogram always lies between the smallest and largest
/// per-part percentile (see the proptest in `tests/proptests.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    /// Saturating sum — a pathological series of `u64::MAX` samples must
    /// not wrap the aggregate.
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, else 64 − leading_zeros, i.e.
    /// the bit width of the value.
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (what percentiles report).
    fn bucket_upper(k: usize) -> u64 {
        if k >= 64 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 with no samples.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (0.0 < p ≤ 1.0) as the upper bound of the
    /// smallest bucket whose cumulative count reaches `ceil(p × count)`.
    /// Returns 0 for an empty histogram. The bound is *not* clamped to
    /// `max()` — keeping it a pure function of bucket occupancy is what
    /// makes a merged histogram's percentile provably lie between the
    /// smallest and largest per-part percentile (clamping breaks that:
    /// a merge can land in a bucket between two parts' maxima).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::bucket_upper(k);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }

    /// Append this histogram's JSON object (fixed field order; only
    /// non-empty buckets listed, as `[bucket_index, count]` pairs).
    fn write_json(&self, out: &mut String) {
        write!(
            out,
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
        )
        .unwrap();
        let mut first = true;
        for (k, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            write!(out, "[{k},{c}]").unwrap();
        }
        out.push_str("]}");
    }
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(i64),
    /// Boxed: a histogram is a 65-slot array, far larger than the other
    /// variants, and registries hold mostly counters.
    Hist(Box<Histogram>),
}

impl Metric {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The histogram, if this is one.
    pub fn as_hist(&self) -> Option<&Histogram> {
        match self {
            Metric::Hist(h) => Some(h),
            _ => None,
        }
    }

    fn new_hist() -> Metric {
        Metric::Hist(Box::default())
    }
}

/// A deterministic named-metric registry. Keys are dotted paths
/// (`route.batch`, `frames.diff`, `node1.apply.copy`); iteration, JSON
/// export and the binary blob are all in key order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    map: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Add to a counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += v,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        match self.map.entry(name.to_string()).or_insert(Metric::Gauge(0)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Record one sample into a histogram (created empty on first touch).
    pub fn record_ns(&mut self, name: &str, ns: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(Metric::new_hist)
        {
            Metric::Hist(h) => h.record(ns),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        match self.map.get(name) {
            Some(Metric::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of every counter whose key ends with `.{suffix}` or equals
    /// `suffix` — e.g. `sum_counters("payload_bytes.diff")` across all
    /// node prefixes.
    pub fn sum_counters_matching(&self, suffix: &str) -> u64 {
        let dotted = format!(".{suffix}");
        self.map
            .iter()
            .filter(|(k, _)| k.as_str() == suffix || k.ends_with(&dotted))
            .map(|(_, m)| match m {
                Metric::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Fold `other` into this registry with every key prefixed by
    /// `{tag}.` — how the coordinator files each process's metric set
    /// under its own namespace (`coord.`, `node0.`, `node1.` …).
    /// Counters add, gauges take the incoming value, histograms merge.
    pub fn merge_tagged(&mut self, tag: &str, other: &MetricsRegistry) {
        for (k, m) in &other.map {
            let key = format!("{tag}.{k}");
            match (self.map.entry(key), m) {
                (e, Metric::Counter(v)) => match e.or_insert(Metric::Counter(0)) {
                    Metric::Counter(c) => *c += v,
                    other => panic!("merge type clash on counter: {other:?}"),
                },
                (e, Metric::Gauge(v)) => match e.or_insert(Metric::Gauge(0)) {
                    Metric::Gauge(g) => *g = *v,
                    other => panic!("merge type clash on gauge: {other:?}"),
                },
                (e, Metric::Hist(h)) => match e.or_insert_with(Metric::new_hist) {
                    Metric::Hist(mine) => mine.merge(h),
                    other => panic!("merge type clash on histogram: {other:?}"),
                },
            }
        }
    }

    /// Deterministic JSON export: one object keyed by metric name (in
    /// key order), each value a `{"type":…}` object with a fixed field
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (k, m) in &self.map {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            // Keys are ASCII dotted paths; escape conservatively anyway.
            out.push('"');
            for c in k.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push_str("\":");
            match m {
                Metric::Counter(v) => {
                    write!(out, "{{\"type\":\"counter\",\"value\":{v}}}").unwrap()
                }
                Metric::Gauge(v) => write!(out, "{{\"type\":\"gauge\",\"value\":{v}}}").unwrap(),
                Metric::Hist(h) => {
                    out.push_str("{\"type\":\"hist\",\"hist\":");
                    h.write_json(&mut out);
                    out.push('}');
                }
            }
        }
        out.push('}');
        out
    }

    /// Compact binary blob for shipping a registry inside a control
    /// frame. Layout (all little-endian):
    /// `version:u16, entries:u32, then per entry: name_len:u16, name,
    /// tag:u8, payload` — counter/gauge payloads are one u64/i64; a
    /// histogram is `count,sum,min,max : u64` plus `nonzero:u8` sparse
    /// `(bucket:u8, count:u64)` pairs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&METRICS_BLOB_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        for (k, m) in &self.map {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k.as_bytes());
            match m {
                Metric::Counter(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Metric::Gauge(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Metric::Hist(h) => {
                    out.push(2);
                    out.extend_from_slice(&h.count.to_le_bytes());
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    out.extend_from_slice(&h.min.to_le_bytes());
                    out.extend_from_slice(&h.max.to_le_bytes());
                    let nonzero = h.counts.iter().filter(|&&c| c != 0).count() as u8;
                    out.push(nonzero);
                    for (i, &c) in h.counts.iter().enumerate() {
                        if c != 0 {
                            out.push(i as u8);
                            out.extend_from_slice(&c.to_le_bytes());
                        }
                    }
                }
            }
        }
        out
    }

    /// Paranoid decode of [`to_bytes`](Self::to_bytes): every length is
    /// checked, caps are enforced, trailing bytes are rejected.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
            let s = buf
                .get(*at..*at + n)
                .ok_or_else(|| format!("metrics blob truncated at offset {at}"))?;
            *at += n;
            Ok(s)
        };
        let u16le = |at: &mut usize| -> Result<u16, String> {
            Ok(u16::from_le_bytes(take(at, 2)?.try_into().unwrap()))
        };
        let u64le = |at: &mut usize| -> Result<u64, String> {
            Ok(u64::from_le_bytes(take(at, 8)?.try_into().unwrap()))
        };
        let version = u16le(&mut at)?;
        if version != METRICS_BLOB_VERSION {
            return Err(format!("metrics blob version {version} unsupported"));
        }
        let entries = u32::from_le_bytes(take(&mut at, 4)?.try_into().unwrap()) as usize;
        if entries > MAX_BLOB_ENTRIES {
            return Err(format!("metrics blob claims {entries} entries"));
        }
        let mut map = BTreeMap::new();
        for _ in 0..entries {
            let name_len = u16le(&mut at)? as usize;
            if name_len > MAX_BLOB_NAME {
                return Err(format!("metric name of {name_len} bytes"));
            }
            let name = std::str::from_utf8(take(&mut at, name_len)?)
                .map_err(|_| "metric name is not utf-8".to_string())?
                .to_string();
            let tag = take(&mut at, 1)?[0];
            let metric = match tag {
                0 => Metric::Counter(u64le(&mut at)?),
                1 => Metric::Gauge(u64le(&mut at)? as i64),
                2 => {
                    let mut h = Histogram::new();
                    h.count = u64le(&mut at)?;
                    h.sum = u64le(&mut at)?;
                    h.min = u64le(&mut at)?;
                    h.max = u64le(&mut at)?;
                    let nonzero = take(&mut at, 1)?[0] as usize;
                    let mut total = 0u64;
                    for _ in 0..nonzero {
                        let k = take(&mut at, 1)?[0] as usize;
                        if k >= HIST_BUCKETS {
                            return Err(format!("histogram bucket {k} out of range"));
                        }
                        let c = u64le(&mut at)?;
                        h.counts[k] += c;
                        total += c;
                    }
                    if total != h.count {
                        return Err(format!(
                            "histogram bucket counts sum to {total}, header says {}",
                            h.count
                        ));
                    }
                    Metric::Hist(Box::new(h))
                }
                t => return Err(format!("unknown metric tag {t}")),
            };
            if map.insert(name.clone(), metric).is_some() {
                return Err(format!("duplicate metric `{name}`"));
            }
        }
        if at != buf.len() {
            return Err(format!("trailing bytes after metrics blob at {at}"));
        }
        Ok(MetricsRegistry { map })
    }
}

/// One wall-clock socket-batch span recorded by the coordinator's
/// transport: the route of one frame batch to worker `dst`, timed from
/// the telemetry epoch. `dur_ns` is the coordinator time spent on this
/// batch alone (sending it, then reading its reply), so the spans of one
/// wave never overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireSpan {
    pub dst: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub frames: u32,
    pub bytes: u64,
}

/// Least-squares fit of the paper's message cost form over batch spans:
/// `dur_ns ≈ α + β·bytes`. Returns `(α ns, β ns/byte)`; with fewer than
/// two distinct batch sizes β is undetermined and reported as 0, α as
/// the mean duration (`(0, 0)` for no spans).
pub fn fit_cost_form(spans: &[WireSpan]) -> (f64, f64) {
    if spans.is_empty() {
        return (0.0, 0.0);
    }
    let n = spans.len() as f64;
    let mx = spans.iter().map(|s| s.bytes as f64).sum::<f64>() / n;
    let my = spans.iter().map(|s| s.dur_ns as f64).sum::<f64>() / n;
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for s in spans {
        let dx = s.bytes as f64 - mx;
        sxx += dx * dx;
        sxy += dx * (s.dur_ns as f64 - my);
    }
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let beta = sxy / sxx;
    (my - beta * mx, beta)
}

/// Splice wall-clock socket-batch spans into a virtual-clock Chrome
/// trace: the base trace's events stay on `pid:0` ("coordinator —
/// virtual time"), each worker process gets its own pid track
/// (`pid = dst + 1`) carrying `ph:"X"` spans for its socket batches,
/// and `ph:"M"` `process_name` metadata labels every track. The result
/// is one JSON array loadable in Perfetto.
pub fn merge_chrome(base: &str, spans: &[WireSpan]) -> String {
    let trimmed = base.trim_end();
    let body = trimmed
        .strip_suffix(']')
        .unwrap_or(trimmed)
        .trim_end()
        .to_string();
    let mut out = body;
    let base_empty = out.trim_end().ends_with('[');
    let push_evt = |out: &mut String, first: &mut bool| {
        if !std::mem::take(first) || !base_empty {
            out.push(',');
        }
    };
    let mut first = base_empty;
    // Track labels: pid 0 is the coordinator's virtual-time tracks; each
    // worker process appears once, in dst order.
    push_evt(&mut out, &mut first);
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0.000,\
         \"args\":{\"name\":\"coordinator (virtual time)\"}}",
    );
    let mut dsts: Vec<u32> = spans.iter().map(|s| s.dst).collect();
    dsts.sort_unstable();
    dsts.dedup();
    for d in &dsts {
        push_evt(&mut out, &mut first);
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"ts\":0.000,\
             \"args\":{{\"name\":\"worker node {d} (wall clock)\"}}}}",
            d + 1
        )
        .unwrap();
    }
    for s in spans {
        push_evt(&mut out, &mut first);
        write!(
            out,
            "{{\"name\":\"socket_batch\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\
             \"args\":{{\"frames\":{},\"bytes\":{}}}}}",
            s.dst + 1,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns / 1000,
            s.dur_ns % 1000,
            s.frames,
            s.bytes
        )
        .unwrap();
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!((h.min(), h.max()), (1234, 1234));
        // 1234 has 11 bits → bucket 11, upper bound 2047; every
        // percentile of a single sample reports that bound.
        assert_eq!(h.percentile(0.5), 2047);
        assert_eq!(h.percentile(0.99), 2047);
    }

    #[test]
    fn zero_valued_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!((h.min(), h.max()), (0, 0));
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn max_sample_saturates_top_bucket_and_sum() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(h.percentile(0.99), u64::MAX);
        // The top bucket holds everything from 2^63 up; its upper bound
        // saturates at u64::MAX.
        let mut g = Histogram::new();
        g.record(1u64 << 63);
        assert_eq!(g.percentile(0.5), u64::MAX);
    }

    #[test]
    fn percentiles_walk_buckets_in_order() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper bound 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper bound 16383
        }
        assert_eq!(h.percentile(0.5), 127);
        assert_eq!(h.percentile(0.90), 127);
        // 10_000 has 14 bits → bucket 14, upper bound 16383.
        assert_eq!(h.percentile(0.99), 16_383);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        a.record(7);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!((a.min(), a.max()), (5, 1_000_000));
        assert_eq!(a.sum(), 1_000_012);
    }

    #[test]
    fn registry_merge_tagged_prefixes_and_folds() {
        let mut coord = MetricsRegistry::new();
        coord.counter_add("frames.push", 3);
        coord.record_ns("route.push", 500);
        let mut w = MetricsRegistry::new();
        w.counter_add("frames.push", 3);
        w.record_ns("apply.push", 900);
        w.gauge_set("mirror_words", 128);
        let mut merged = MetricsRegistry::new();
        merged.merge_tagged("coord", &coord);
        merged.merge_tagged("node0", &w);
        merged.merge_tagged("node0", &w); // folding twice adds counters
        assert_eq!(merged.counter("coord.frames.push"), 3);
        assert_eq!(merged.counter("node0.frames.push"), 6);
        assert_eq!(merged.hist("node0.apply.push").unwrap().count(), 2);
        assert_eq!(merged.hist("coord.route.push").unwrap().count(), 1);
        assert_eq!(
            merged.sum_counters_matching("frames.push"),
            9,
            "suffix sum spans all process tags"
        );
    }

    #[test]
    fn json_export_is_deterministic_and_parseable_shape() {
        let mut r = MetricsRegistry::new();
        r.record_ns("route.diff", 42);
        r.counter_add("frames.diff", 1);
        let j1 = r.to_json();
        let j2 = r.clone().to_json();
        assert_eq!(j1, j2);
        // BTreeMap ordering: counters key sorts before route key.
        let fpos = j1.find("frames.diff").unwrap();
        let rpos = j1.find("route.diff").unwrap();
        assert!(fpos < rpos, "keys must export in sorted order: {j1}");
        assert!(j1.contains("\"type\":\"counter\",\"value\":1"));
        // 42 has 6 bits → bucket 6, upper bound 63.
        assert!(j1.contains("\"p50\":63"));
    }

    #[test]
    fn blob_round_trips_and_rejects_corruption() {
        let mut r = MetricsRegistry::new();
        r.counter_add("frames.copy", 7);
        r.gauge_set("inflight", -3);
        for v in [0, 1, 17, 100_000, u64::MAX] {
            r.record_ns("recv.copy", v);
        }
        let blob = r.to_bytes();
        let back = MetricsRegistry::from_bytes(&blob).unwrap();
        assert_eq!(back, r);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..blob.len() {
            assert!(MetricsRegistry::from_bytes(&blob[..cut]).is_err());
        }
        // Trailing garbage is rejected.
        let mut long = blob.clone();
        long.push(0);
        assert!(MetricsRegistry::from_bytes(&long).is_err());
        // A wrong version is rejected.
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(MetricsRegistry::from_bytes(&bad).is_err());
        // The empty registry round-trips too.
        let empty = MetricsRegistry::new();
        assert_eq!(
            MetricsRegistry::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn class_names_cover_every_wire_kind() {
        assert_eq!(class_name(0), "push");
        assert_eq!(class_name(1), "flush");
        assert_eq!(class_name(2), "copy");
        assert_eq!(class_name(3), "diff");
        assert_eq!(class_name(4), "strided");
        assert_eq!(class_name(99), "unknown");
    }

    #[test]
    fn cost_form_fit_recovers_alpha_and_beta() {
        let span = |bytes: u64, dur_ns: u64| WireSpan {
            dst: 0,
            start_ns: 0,
            dur_ns,
            frames: 1,
            bytes,
        };
        // 20 µs + 12 ns/B, exactly.
        let spans: Vec<WireSpan> = [100, 1000, 5000]
            .iter()
            .map(|&b| span(b, 20_000 + 12 * b))
            .collect();
        let (alpha, beta) = fit_cost_form(&spans);
        assert!((alpha - 20_000.0).abs() < 1e-6, "alpha {alpha}");
        assert!((beta - 12.0).abs() < 1e-9, "beta {beta}");
        // One batch size: beta undetermined, alpha the mean.
        assert_eq!(fit_cost_form(&[span(8, 10), span(8, 30)]), (20.0, 0.0));
        assert_eq!(fit_cost_form(&[]), (0.0, 0.0));
    }

    #[test]
    fn merge_chrome_splices_pid_tracks() {
        let base = r#"[{"name":"compute","ph":"X","pid":0,"tid":1,"ts":0.000,"dur":5.000}]"#;
        let spans = [
            WireSpan {
                dst: 0,
                start_ns: 1500,
                dur_ns: 2750,
                frames: 3,
                bytes: 96,
            },
            WireSpan {
                dst: 2,
                start_ns: 4000,
                dur_ns: 1000,
                frames: 1,
                bytes: 32,
            },
        ];
        let merged = merge_chrome(base, &spans);
        assert!(merged.starts_with('[') && merged.ends_with(']'));
        assert!(merged.contains("\"ph\":\"M\""));
        assert!(merged.contains("coordinator (virtual time)"));
        assert!(merged.contains("worker node 0 (wall clock)"));
        assert!(merged.contains("worker node 2 (wall clock)"));
        assert!(merged.contains("\"pid\":1,\"tid\":0,\"ts\":1.500,\"dur\":2.750"));
        assert!(merged.contains("\"args\":{\"frames\":3,\"bytes\":96}"));
        // An empty base trace still yields a valid array.
        let merged_empty = merge_chrome("[]", &spans);
        assert!(merged_empty.starts_with("[{"));
        assert!(merged_empty.ends_with(']'));
        assert!(
            !merged_empty.contains("[,"),
            "no leading comma: {merged_empty}"
        );
    }
}
