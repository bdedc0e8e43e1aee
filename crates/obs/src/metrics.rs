//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms behind one mutex, safe to share across threads and cheap
//! enough to update from a discrete-event hot loop.
//!
//! Histograms keep exact `count/sum/sum_sq/min/max` alongside the bucket
//! array, so means and standard deviations read back from the registry
//! are *exact* (the bench binaries rely on this to reproduce the paper's
//! eq. (1)–(4) aggregates), while quantiles are bucket-resolution
//! estimates clamped to the observed `[min, max]`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::fmt_f64;

/// Default histogram bucket upper bounds: a 1–2–5 ladder over nine
/// decades, wide enough for seconds, hours, JPM and megabytes alike.
/// Every registry histogram uses the same bounds so merges never clash.
pub fn default_bounds() -> Vec<f64> {
    let mut out = Vec::new();
    let mut decade = 0.001;
    for _ in 0..9 {
        for m in [1.0, 2.0, 5.0] {
            out.push(decade * m);
        }
        decade *= 10.0;
    }
    out
}

/// A fixed-bucket histogram with exact moment tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sorted, strictly increasing bucket upper bounds. Values above the
    /// last bound land in the overflow bucket.
    bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

/// Exact summary statistics of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Population standard deviation (0 when empty).
    pub sd: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

/// A histogram over [`default_bounds`], the bounds of every registry
/// histogram.
impl Default for Histogram {
    fn default() -> Self {
        Self::new(&default_bounds())
    }
}

impl Histogram {
    /// Create a histogram over the given upper bounds (sorted and
    /// deduplicated; non-finite bounds are dropped).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation (non-finite values are ignored).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact summary statistics.
    pub fn stats(&self) -> HistStats {
        if self.count == 0 {
            return HistStats {
                count: 0,
                sum: 0.0,
                mean: 0.0,
                sd: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        HistStats {
            count: self.count,
            sum: self.sum,
            mean,
            sd: var.sqrt(),
            min: self.min,
            max: self.max,
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the bucket
    /// containing the `q`-th observation, clamped to the observed
    /// `[min, max]`. Monotone in `q`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let rep = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return Some(rep.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Add another histogram's contents into this one. The bucket bounds
    /// must be identical (registry histograms always are).
    pub fn merge(&mut self, other: &Histogram) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err("histogram bucket bounds differ".into());
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// `(upper_bound, count)` pairs, overflow bucket last with a `None`
    /// bound.
    pub fn buckets(&self) -> Vec<(Option<f64>, u64)> {
        let mut out: Vec<(Option<f64>, u64)> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| (Some(*b), *c))
            .collect();
        out.push((None, self.counts[self.bounds.len()]));
        out
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl RegistryInner {
    fn merge_histogram(&mut self, name: &str, h: &Histogram) -> Result<(), String> {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
                Ok(())
            }
        }
    }
}

/// A thread-safe registry of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// Add `delta` to counter `name`, creating it at zero.
    pub fn inc(&self, name: &str, delta: u64) {
        let mut g = self.inner.lock().expect("registry lock");
        *g.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        let g = self.inner.lock().expect("registry lock");
        g.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` (last write wins; non-finite values ignored).
    pub fn gauge(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut g = self.inner.lock().expect("registry lock");
        g.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let g = self.inner.lock().expect("registry lock");
        g.gauges.get(name).copied()
    }

    /// Record `value` into histogram `name` (created on first use with
    /// [`default_bounds`]).
    pub fn observe(&self, name: &str, value: f64) {
        let mut g = self.inner.lock().expect("registry lock");
        g.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Add histogram `h` into histogram `name`, creating it as a copy of
    /// `h` when absent. An empty `h` changes nothing, so `name` exists
    /// exactly when some value was observed. Errors if the bucket bounds
    /// differ.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) -> Result<(), String> {
        if h.count == 0 {
            return Ok(());
        }
        let mut g = self.inner.lock().expect("registry lock");
        g.merge_histogram(name, h)
    }

    /// Exact summary statistics of histogram `name`.
    pub fn histogram_stats(&self, name: &str) -> Option<HistStats> {
        let g = self.inner.lock().expect("registry lock");
        g.histograms.get(name).map(|h| h.stats())
    }

    /// Quantile estimate of histogram `name`.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let g = self.inner.lock().expect("registry lock");
        g.histograms.get(name).and_then(|h| h.quantile(q))
    }

    /// Snapshot of every counter, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let g = self.inner.lock().expect("registry lock");
        g.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Merge another registry into this one: counters and histograms
    /// add, gauges take the maximum (the merge must stay commutative for
    /// chaos-matrix cell aggregation).
    pub fn merge(&self, other: &MetricsRegistry) -> Result<(), String> {
        let o = other.inner.lock().expect("registry lock");
        let mut g = self.inner.lock().expect("registry lock");
        for (k, v) in &o.counters {
            *g.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &o.gauges {
            let e = g.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *e = e.max(*v);
        }
        for (k, h) in &o.histograms {
            g.merge_histogram(k, h)?;
        }
        Ok(())
    }

    /// Deterministic JSON export: keys sorted, histogram buckets in
    /// bound order, every float rendered through [`fmt_f64`].
    pub fn to_json(&self) -> String {
        let g = self.inner.lock().expect("registry lock");
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in g.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", crate::json::escape(k)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in g.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", crate::json::escape(k), fmt_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in g.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = h.stats();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"sd\":{},\"min\":{},\"max\":{},\"buckets\":[",
                crate::json::escape(k),
                s.count,
                fmt_f64(s.sum),
                fmt_f64(s.mean),
                fmt_f64(s.sd),
                fmt_f64(s.min),
                fmt_f64(s.max),
            ));
            for (j, (bound, c)) in h.buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match bound {
                    Some(b) => out.push_str(&format!("[{},{c}]", fmt_f64(b))),
                    None => out.push_str(&format!("[null,{c}]")),
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::default();
        r.inc("a", 2);
        r.inc("a", 3);
        r.gauge("g", 1.5);
        r.gauge("g", 2.5);
        r.gauge("bad", f64::NAN); // ignored
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge_value("g"), Some(2.5));
        assert_eq!(r.gauge_value("bad"), None);
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::new(&default_bounds());
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        h.observe(f64::INFINITY); // ignored
        let s = h.stats();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10.0);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.sd - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new(&default_bounds());
        for v in [0.3, 7.0, 42.0, 900.0, 12_000.0] {
            h.observe(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0).unwrap();
            assert!(q >= prev, "quantile not monotone at {i}");
            assert!((0.3..=12_000.0).contains(&q));
            prev = q;
        }
        assert_eq!(h.quantile(1.0), Some(12_000.0));
        assert!(Histogram::new(&default_bounds()).quantile(0.5).is_none());
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1e9);
        let buckets = h.buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[2], (None, 1));
        assert_eq!(h.quantile(0.5), Some(1e9));
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms() {
        let a = MetricsRegistry::default();
        let b = MetricsRegistry::default();
        a.inc("c", 1);
        b.inc("c", 2);
        b.inc("only_b", 7);
        a.observe("h", 1.0);
        b.observe("h", 3.0);
        b.observe("h2", 5.0);
        a.gauge("g", 1.0);
        b.gauge("g", 4.0);
        a.merge(&b).unwrap();
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.histogram_stats("h").unwrap().count, 2);
        assert_eq!(a.histogram_stats("h").unwrap().sum, 4.0);
        assert_eq!(a.histogram_stats("h2").unwrap().sum, 5.0);
        assert_eq!(a.gauge_value("g"), Some(4.0));
    }

    #[test]
    fn merging_a_run_histogram_matches_observing_each_value() {
        let per_event = MetricsRegistry::default();
        let once = MetricsRegistry::default();
        // An earlier run already recorded under the same name.
        per_event.observe("h", 4.0);
        once.observe("h", 4.0);
        let mut run = Histogram::default();
        for v in [3.0, 0.0, 120.0, 7.0] {
            per_event.observe("h", v);
            run.observe(v);
        }
        once.merge_histogram("h", &run).unwrap();
        // An empty run histogram creates no key.
        once.merge_histogram("unobserved", &Histogram::default())
            .unwrap();
        assert_eq!(once.to_json(), per_event.to_json());
    }

    #[test]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 3.0]);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn json_export_is_valid_and_sorted() {
        let r = MetricsRegistry::default();
        r.inc("z.last", 1);
        r.inc("a.first", 2);
        r.gauge("mid", 0.5);
        r.observe("lat_s", 0.42);
        let j = r.to_json();
        crate::json::validate(&j).unwrap();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert!(j.contains("\"buckets\":["));
    }
}
