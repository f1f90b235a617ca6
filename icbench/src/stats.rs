//! Sample statistics and the window accounting every workload shares.

use std::time::Instant;

/// How many samples must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`BEYOND`] samples lie above it: p50 needs 20 samples, p95 200,
/// p99 1000. A failed op is recorded as `f64::INFINITY`, so it counts
/// as missing every percentile it falls under.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = nearest_rank(n, p)?;
    (n - rank >= BEYOND).then(|| sorted[rank - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p * n as f64).ceil() as usize).clamp(1, n))
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A timed window of closed-loop client threads. It opens at one common
/// instant; each thread stops *issuing* at the deadline and then drains
/// what it has in flight, so the window closes when the last reply
/// lands and throughput divides by that span, not by the nominal length.
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub ops: u64,
}

impl Window {
    pub fn close(start: Instant, thread_ends: &[(Instant, u64)]) -> Window {
        let end = thread_ends
            .iter()
            .map(|&(end, _)| end)
            .max()
            .unwrap_or(start);
        Window {
            start,
            end,
            ops: thread_ends.iter().map(|&(_, ops)| ops).sum(),
        }
    }

    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    pub fn per_second(&self) -> f64 {
        self.ops as f64 / self.seconds().max(1e-9)
    }
}

/// One slice of a window: `every` consecutive completions.
pub struct Slice {
    pub from: Instant,
    pub to: Instant,
    /// Latencies of the slice's ops, ascending.
    pub latencies_ms: Vec<f64>,
}

impl Slice {
    pub fn seconds(&self) -> f64 {
        self.to.duration_since(self.from).as_secs_f64()
    }
}

/// Cuts a window into slices of `every` completed ops, in completion
/// order: a slice ends when its last op completes and the next begins
/// there. A trailing partial slice is dropped. Each workload picks
/// `every` as a whole number of its decks, cycles or update rounds, so
/// every slice holds the same mix of work; reporting the *median* slice
/// then discards the stretches in which the machine, not the program,
/// was slow.
pub fn slices(start: Instant, ops: &mut [(Instant, f64)], every: usize) -> Vec<Slice> {
    ops.sort_by_key(|&(done, _)| done);
    let mut from = start;
    ops.chunks_exact(every)
        .map(|chunk| {
            let to = chunk[every - 1].0;
            let mut latencies_ms: Vec<f64> = chunk.iter().map(|&(_, ms)| ms).collect();
            latencies_ms.sort_by(f64::total_cmp);
            let slice = Slice {
                from,
                to,
                latencies_ms,
            };
            from = to;
            slice
        })
        .collect()
}

/// A percentile of a window, and whether ten samples lay beyond it.
pub struct Sliced {
    pub value: f64,
    pub supported: bool,
}

/// The median over slices of each slice's `p`-th percentile — or, when a
/// slice is too small for the percentile (fewer than [`BEYOND`] samples
/// beyond it), the percentile of the slices pooled (`pooled_sorted`). A
/// window with too few samples even for that still gets its nearest-rank
/// value, marked unsupported: on a machine slowed to a fraction of its
/// speed a run reports what it saw and says so; it does not fail.
/// `None` only without any sample.
pub fn sliced_percentile(slices: &[&Slice], pooled_sorted: &[f64], p: f64) -> Option<Sliced> {
    let per_slice: Option<Vec<f64>> = slices
        .iter()
        .map(|s| percentile(&s.latencies_ms, p))
        .collect();
    if let Some(mut values) = per_slice.filter(|v| !v.is_empty()) {
        return Some(Sliced {
            value: median(&mut values),
            supported: true,
        });
    }
    let rank = nearest_rank(pooled_sorted.len(), p)?;
    Some(Sliced {
        value: pooled_sorted[rank - 1],
        supported: pooled_sorted.len() - rank >= BEYOND,
    })
}

/// A counter sampled over time (process CPU seconds, stolen ticks), read
/// back at slice boundaries.
pub struct Track(pub Vec<(Instant, f64)>);

impl Track {
    /// The counter at `t`, linearly interpolated between the two
    /// nearest samples.
    pub fn at(&self, t: Instant) -> f64 {
        let samples = &self.0;
        let i = samples.partition_point(|(at, _)| *at <= t);
        if i == 0 {
            return samples[0].1;
        }
        if i == samples.len() {
            return samples[i - 1].1;
        }
        let ((t0, c0), (t1, c1)) = (samples[i - 1], samples[i]);
        let span = t1.duration_since(t0).as_secs_f64().max(1e-9);
        c0 + (c1 - c0) * t.duration_since(t0).as_secs_f64() / span
    }

    /// How much the counter grew over a slice.
    pub fn over(&self, slice: &Slice) -> f64 {
        self.at(slice.to) - self.at(slice.from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None, "only 9 beyond");
        assert_eq!(percentile(&v[..200], 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_failed_op_poisons_the_percentiles_it_falls_under() {
        let mut v: Vec<f64> = (1..=400).map(f64::from).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 30));
        v.sort_by(f64::total_cmp);
        assert!(percentile(&v, 0.50).unwrap().is_finite());
        assert!(percentile(&v, 0.95).unwrap().is_infinite());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slices_hold_a_fixed_op_count_and_drop_the_partial_tail() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        // Completions out of order, as merged client tallies are.
        let mut ops: Vec<(Instant, f64)> = [30, 10, 20, 70, 40, 90, 95]
            .into_iter()
            .map(|ms| (at(ms), ms as f64))
            .collect();
        let cut = slices(start, &mut ops, 3);
        assert_eq!(cut.len(), 2);
        assert_eq!((cut[0].from, cut[0].to), (start, at(30)));
        assert_eq!((cut[1].from, cut[1].to), (at(30), at(90)));
        assert_eq!(cut[1].latencies_ms, vec![40.0, 70.0, 90.0]);
        assert!((cut[1].seconds() - 0.06).abs() < 1e-9);
        assert!(slices(start, &mut ops, 8).is_empty());
    }

    #[test]
    fn sliced_percentile_takes_the_median_slice_or_falls_back_to_the_window() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        // Three slices of 40 ops; the middle one is uniformly 10x slower.
        let mut ops: Vec<(Instant, f64)> = (0..120u64)
            .map(|i| {
                let scale = if (40..80).contains(&i) { 10.0 } else { 1.0 };
                (at(i), scale * (1 + i % 40) as f64)
            })
            .collect();
        let cut = slices(start, &mut ops, 40);
        let cut: Vec<&Slice> = cut.iter().collect();
        let mut whole: Vec<f64> = ops.iter().map(|&(_, ms)| ms).collect();
        whole.sort_by(f64::total_cmp);
        let value = |pooled: &[f64], p| {
            let got = sliced_percentile(&cut, pooled, p).expect("samples");
            (got.value, got.supported)
        };
        // p50 fits a 40-op slice (20 beyond): the slow slice is outvoted.
        assert_eq!(value(&whole, 0.50), (20.0, true));
        // p95 does not (2 beyond), and the pooled 120 have only 6 beyond:
        // the nearest rank stands, marked unsupported.
        assert_eq!(value(&whole, 0.95), (340.0, false));
        let long: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(value(&long, 0.95), (380.0, true));
        assert!(sliced_percentile(&[], &[], 0.5).is_none());
    }

    #[test]
    fn track_interpolates_between_samples() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let track = Track(vec![(at(0), 1.0), (at(100), 1.2), (at(200), 1.2)]);
        assert!((track.at(at(50)) - 1.1).abs() < 1e-9);
        assert!((track.at(at(150)) - 1.2).abs() < 1e-9);
        assert_eq!(track.at(at(500)), 1.2);
        assert_eq!(track.at(start), 1.0);
        let slice = Slice {
            from: at(50),
            to: at(100),
            latencies_ms: Vec::new(),
        };
        assert!((track.over(&slice) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn window_closes_at_the_last_reply_and_sums_ops() {
        let start = Instant::now();
        let a = (start + Duration::from_millis(1000), 300);
        let b = (start + Duration::from_millis(1250), 200);
        let w = Window::close(start, &[a, b]);
        assert_eq!(w.ops, 500);
        assert!((w.seconds() - 1.25).abs() < 1e-9);
        assert!((w.per_second() - 400.0).abs() < 1e-6);
    }
}
