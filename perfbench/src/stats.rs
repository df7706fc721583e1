//! Small measurement helpers: nearest-rank percentiles with failures
//! ranked last, medians, and per-name span aggregates kept in memory
//! until the run ends.

use std::collections::BTreeMap;
use std::time::Duration;

/// Latency samples of one run: the successful operations plus a count of
/// operations that missed their limit. A failed one ranks above every
/// success.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ok_ns: Vec<u64>,
    failed: u64,
    sorted: bool,
}

impl Latencies {
    pub fn ok(&mut self, d: Duration) {
        self.ok_ns
            .push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.sorted = false;
    }

    pub fn fail(&mut self) {
        self.failed += 1;
    }

    pub fn merge(&mut self, other: Latencies) {
        self.ok_ns.extend(other.ok_ns);
        self.failed += other.failed;
        self.sorted = false;
    }

    pub fn succeeded(&self) -> u64 {
        self.ok_ns.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn attempted(&self) -> u64 {
        self.succeeded() + self.failed
    }

    pub fn max_ok_ns(&self) -> u64 {
        self.ok_ns.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100) over every attempted call:
    /// `Some(ns)` when the ranked call succeeded, `None` when it failed.
    ///
    /// # Panics
    ///
    /// Panics if no call was attempted.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        let n = self.attempted();
        assert!(n > 0, "percentile of an empty sample");
        if !self.sorted {
            self.ok_ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        self.ok_ns.get(rank - 1).copied()
    }
}

/// Median of a non-empty sample (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Width of the wall-clock windows a run is cut into.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The operations that completed in one window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    pub lat: Latencies,
    /// Work completed (grants, critical sections or states).
    pub work: f64,
}

/// A run's operations, bucketed by completion time into [`WINDOW`]s.
///
/// The end-to-end summary reads each metric from the run's best full
/// window rather than from the whole run. On a shared host the noise is
/// one-sided — preemption, a busy sibling hyperthread or a protocol
/// hiccup only ever make an operation slower — so the best second of a
/// run is the steadiest estimate of what the code costs (Chen & Revels,
/// "Robust benchmarking in noisy environments", 2016). The whole-run view
/// stays available through [`Windows::all`].
#[derive(Debug, Clone)]
pub struct Windows {
    start: std::time::Instant,
    full: usize,
    windows: Vec<Window>,
}

/// The end-to-end latency and rate summary of one run; each field comes
/// from the window that is best for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The lowest window median of operation time (`None`: every window's
    /// median call failed, or no window saw an operation).
    pub p50_ns: Option<u64>,
    /// The lowest window 99th percentile of operation time.
    pub p99_ns: Option<u64>,
    /// The highest window rate.
    pub per_s: f64,
}

/// The best of `values`: the lowest when `better_low`, else the highest.
fn best(values: impl Iterator<Item = f64>, better_low: bool) -> f64 {
    let pick = if better_low { f64::min } else { f64::max };
    let start = if better_low {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    };
    values.fold(start, pick)
}

impl Windows {
    /// Windows for a run that started at `start` and measures `secs`
    /// seconds; only the whole windows inside it count as full.
    pub fn new(start: std::time::Instant, secs: f64) -> Self {
        Windows {
            start,
            full: ((secs / WINDOW.as_secs_f64()) as usize).max(1),
            windows: Vec::new(),
        }
    }

    /// The window holding an operation that completed at `at`.
    pub fn at(&mut self, at: std::time::Instant) -> &mut Window {
        let k = (at.saturating_duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as usize;
        if self.windows.len() <= k {
            self.windows.resize_with(k + 1, Window::default);
        }
        &mut self.windows[k]
    }

    pub fn merge(&mut self, other: Windows) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.lat.merge(theirs.lat);
            mine.work += theirs.work;
        }
    }

    /// Work completed in each window, in order.
    pub fn work(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.work).collect()
    }

    /// Each window's nearest-rank percentile `p` (`None`: no success
    /// ranks there), in order.
    pub fn percentiles(&self, p: f64) -> Vec<Option<u64>> {
        self.windows
            .iter()
            .map(|w| {
                let mut lat = w.lat.clone();
                (lat.attempted() > 0).then(|| lat.percentile(p)).flatten()
            })
            .collect()
    }

    /// Every operation of the run, full windows or not.
    pub fn all(&self) -> Latencies {
        let mut all = Latencies::default();
        for w in &self.windows {
            all.merge(w.lat.clone());
        }
        all
    }

    /// Summarises the run. `rate` turns a full window into its rate; a
    /// full window without operations (a stall longer than a window)
    /// ranks worst on every metric.
    pub fn summary(&self, rate: impl Fn(&Window) -> f64) -> Summary {
        let full: Vec<Window> = (0..self.full)
            .map(|k| self.windows.get(k).cloned().unwrap_or_default())
            .collect();
        let quantile = |p: f64| -> Option<u64> {
            let per_window: Vec<f64> = full
                .iter()
                .map(|w| {
                    let mut lat = w.lat.clone();
                    (lat.attempted() > 0)
                        .then(|| lat.percentile(p))
                        .flatten()
                        .map_or(f64::INFINITY, |ns| ns as f64)
                })
                .collect();
            let good = best(per_window.into_iter(), true);
            good.is_finite().then_some(good as u64)
        };
        Summary {
            p50_ns: quantile(50.0),
            p99_ns: quantile(99.0),
            per_s: best(full.iter().map(&rate), false),
        }
    }
}

/// Calls and total time of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl SpanAgg {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Spans recorded around calls into the program, aggregated per name so a
/// run of millions of calls fits in memory; written out when the run ends.
#[derive(Debug, Default, Clone)]
pub struct Spans(BTreeMap<String, SpanAgg>);

impl Spans {
    /// Records one call that took `d`.
    pub fn record(&mut self, name: &str, d: Duration) {
        let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.record_ns(name, ns, 1);
        let agg = self.0.get_mut(name).expect("just recorded");
        agg.max_ns = agg.max_ns.max(ns);
    }

    /// Adds `calls` calls totalling `total_ns`, already aggregated by a
    /// timing wrapper (their maximum is not known).
    pub fn record_ns(&mut self, name: &str, total_ns: u64, calls: u64) {
        let agg = self.0.entry(name.to_owned()).or_default();
        agg.calls += calls;
        agg.total_ns += total_ns;
    }

    pub fn merge(&mut self, other: &Spans) {
        for (name, a) in &other.0 {
            let agg = self.0.entry(name.clone()).or_default();
            agg.calls += a.calls;
            agg.total_ns += a.total_ns;
            agg.max_ns = agg.max_ns.max(a.max_ns);
        }
    }

    pub fn get(&self, name: &str) -> SpanAgg {
        self.0.get(name).copied().unwrap_or_default()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &SpanAgg)> {
        self.0.iter()
    }
}

#[cfg(test)]
/// True when `name` is a valid metric or workload name: it starts with a
/// letter or digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(ok_us: &[u64], failed: u64) -> Latencies {
        let mut l = Latencies::default();
        for &us in ok_us {
            l.ok(Duration::from_micros(us));
        }
        for _ in 0..failed {
            l.fail();
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = lat(&[5, 1, 4, 2, 3], 0);
        assert_eq!(l.percentile(50.0), Some(3_000));
        assert_eq!(l.percentile(20.0), Some(1_000));
        assert_eq!(l.percentile(21.0), Some(2_000));
        assert_eq!(l.percentile(100.0), Some(5_000));
        assert_eq!(l.percentile(0.1), Some(1_000));
    }

    #[test]
    fn failures_rank_above_every_success() {
        // 98 fast successes and 2 failures: p98 is the slowest success,
        // p99 lands on a failure even though no success was slow.
        let mut l = lat(&[10; 98], 2);
        assert_eq!(l.attempted(), 100);
        assert_eq!(l.percentile(50.0), Some(10_000));
        assert_eq!(l.percentile(98.0), Some(10_000));
        assert_eq!(l.percentile(99.0), None);
        // A failure outranks a success far slower than the others.
        let mut l = lat(&[1, 1, 1_000_000], 1);
        assert_eq!(l.percentile(75.0), Some(1_000_000_000));
        assert_eq!(l.percentile(76.0), None);
    }

    #[test]
    fn all_failed_sample_has_no_successful_rank() {
        let mut l = lat(&[], 3);
        assert_eq!(l.percentile(1.0), None);
        assert_eq!(l.succeeded(), 0);
    }

    #[test]
    fn merge_keeps_failures() {
        let mut a = lat(&[1, 2], 1);
        a.merge(lat(&[3], 2));
        assert_eq!((a.succeeded(), a.failed()), (3, 3));
        assert_eq!(a.percentile(50.0), Some(3_000));
        assert_eq!(a.percentile(51.0), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Twenty one-second windows: window `k` holds 100 calls of
    /// `base + k` µs, one of them `slow` µs.
    fn twenty_windows(base: u64, slow: u64) -> Windows {
        let t0 = std::time::Instant::now();
        let mut w = Windows::new(t0, 20.0);
        for k in 0..20u64 {
            for i in 0..100 {
                let win = w.at(t0 + Duration::from_millis(k * 1_000 + 10));
                win.lat
                    .ok(Duration::from_micros(if i == 0 { slow } else { base + k }));
                win.work += 1.0 + k as f64;
            }
        }
        w
    }

    #[test]
    fn summary_reads_the_best_window() {
        let w = twenty_windows(10, 10_000);
        let s = w.summary(|win| win.work);
        // Window 0 is the fastest: its p50 is 10 µs.
        assert_eq!(s.p50_ns, Some(10_000));
        // Each window's p99 is its 99th call, not its one slow call.
        assert_eq!(s.p99_ns, Some(10_000));
        // Window 19 has the highest rate: 100 × 20.
        assert_eq!(s.per_s, 2_000.0);
        assert_eq!(w.all().attempted(), 2_000);
    }

    #[test]
    fn a_few_spoiled_windows_do_not_move_the_summary() {
        let t0 = std::time::Instant::now();
        let mut w = twenty_windows(10, 10);
        let clean = w.summary(|win| win.work);
        // Five stalled windows: every call fails or crawls.
        for k in [3u64, 7, 8, 12, 19] {
            let win = w.at(t0 + Duration::from_millis(k * 1_000 + 500));
            for _ in 0..50 {
                win.lat.fail();
            }
        }
        let spoiled = w.summary(|win| win.work);
        assert_eq!(clean, spoiled);
        assert_eq!(w.all().failed(), 250);
    }

    #[test]
    fn empty_windows_rank_worst() {
        let t0 = std::time::Instant::now();
        let mut w = Windows::new(t0, 3.0);
        let win = w.at(t0);
        win.lat.ok(Duration::from_micros(7));
        win.work += 1.0;
        w.at(t0 + Duration::from_millis(1_100)).lat.fail();
        // Window 2 saw nothing at all; a call finishing after the run
        // lands in a partial window that does not count.
        w.at(t0 + Duration::from_millis(3_600)).lat.fail();
        let s = w.summary(|win| win.work);
        assert_eq!(s.p50_ns, Some(7_000));
        assert_eq!(s.p99_ns, Some(7_000));
        assert_eq!(s.per_s, 1.0);
        assert_eq!(w.all().failed(), 2);
    }

    #[test]
    fn only_failures_give_no_latency() {
        let t0 = std::time::Instant::now();
        let mut w = Windows::new(t0, 1.0);
        w.at(t0).lat.fail();
        let s = w.summary(|win| win.work);
        assert_eq!((s.p50_ns, s.p99_ns, s.per_s), (None, None, 0.0));
    }

    #[test]
    fn merged_windows_add_up() {
        let t0 = std::time::Instant::now();
        let mut a = Windows::new(t0, 2.0);
        let mut b = Windows::new(t0, 2.0);
        a.at(t0).work += 2.0;
        b.at(t0 + Duration::from_millis(1_200)).work += 3.0;
        b.at(t0).work += 1.0;
        a.merge(b);
        let s = a.summary(|win| win.work);
        assert_eq!(s.per_s, 3.0);
        assert_eq!(a.work(), vec![3.0, 3.0]);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "latency_p50_us",
            "node.handle_ns.NEW-ARBITER",
            "9lives",
            "a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "colon:name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn spans_aggregate_per_name() {
        let mut s = Spans::default();
        s.record("a", Duration::from_nanos(10));
        s.record("a", Duration::from_nanos(30));
        s.record_ns("b", 100, 4);
        let mut t = Spans::default();
        t.record("a", Duration::from_nanos(50));
        s.merge(&t);
        assert_eq!(s.get("a").calls, 3);
        assert_eq!(s.get("a").total_ns, 90);
        assert_eq!(s.get("a").max_ns, 50);
        assert_eq!(s.get("b").mean_ns(), 25.0);
        assert_eq!(s.get("missing"), SpanAgg::default());
    }
}
