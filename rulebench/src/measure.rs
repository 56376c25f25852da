//! Latency samples, the percentile rule, and process-level readings.

/// The tail percentile reported for `n` samples: the highest of 99.9, 99,
/// 90 and 75 that still leaves at least ten samples beyond it (fewer than
/// that and the "percentile" is one outlier). `None` below 40 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 75.0]
        .into_iter()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` sorted samples lie strictly beyond the `p`-th percentile
/// position used by [`percentile`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    // Nearest-rank on a 0-based index, clamped to the last sample.
    (((p / 100.0) * n as f64).ceil() as usize)
        .saturating_sub(1)
        .min(n - 1)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p)]
}

/// Median of unsorted values (upper median for even counts).
pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`).
fn proc_status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`; ticks are 1/100 s on Linux.
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Engine worker threads: `min(nproc, 4)`, recorded with every result.
pub fn engine_threads() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // ~10^2 samples: p90 leaves 10 beyond, p99 would leave 1.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99 needs 1 100 samples under nearest-rank (11 beyond).
        assert_eq!(tail_percentile(1_100), Some(99.0));
        assert_eq!(tail_percentile(200_000), Some(99.9));
        assert_eq!(tail_percentile(44), Some(75.0));
        assert_eq!(tail_percentile(30), None);
        for n in [40usize, 100, 1_000, 1_100, 10_000, 11_000, 123_456] {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[5], 99.0), 5);
        assert_eq!(samples_beyond(100, 90.0), 10);
    }

    #[test]
    fn proc_readings_are_present_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(engine_threads() >= 1 && engine_threads() <= 4);
    }
}
