//! Order statistics and process measurements shared by every phase.

use std::time::Duration;

/// Samples a tail percentile needs before it is reported: p99 of fewer
/// than 1000 samples has fewer than ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Nearest-rank `q`-quantile of unsorted samples (`None` when empty).
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    Some(xs[rank.min(xs.len()) - 1])
}

/// Median (the 0.5 nearest-rank quantile).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// p99, refused (`None`) below [`MIN_P99_SAMPLES`] samples.
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.len() < MIN_P99_SAMPLES {
        return None;
    }
    quantile(samples, 0.99)
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU clock ticks spent so far, from `/proc/stat` and
/// `/proc/self/stat`.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    /// All CPUs, every state.
    pub total: u64,
    /// Idle and waiting on I/O.
    pub idle: u64,
    /// Stolen: time the hypervisor gave this VM's CPUs to another guest.
    pub steal: u64,
    /// This process, user and system.
    pub own: u64,
}

impl Ticks {
    /// Reads the counters now.
    pub fn now() -> Option<Ticks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest
        // guest_nice]; guest time is already counted in user and nice.
        let own = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesised command name: utime and stime
        // are the 12th and 13th.
        let mut rest = own.rsplit_once(')')?.1.split_whitespace().skip(11);
        let utime: u64 = rest.next()?.parse().ok()?;
        let stime: u64 = rest.next()?.parse().ok()?;
        Some(Ticks {
            total: cpu.iter().take(8).sum(),
            idle: cpu.get(3)? + cpu.get(4)?,
            steal: *cpu.get(7)?,
            own: utime + stime,
        })
    }

    /// Over the interval from `self` to `later`, as shares of all CPU
    /// time: `(steal, busy outside this process)`.
    pub fn shares_until(&self, later: &Ticks) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let steal = later.steal.saturating_sub(self.steal);
        let busy = (later.total - later.idle).saturating_sub(self.total - self.idle);
        let others = busy
            .saturating_sub(steal)
            .saturating_sub(later.own.saturating_sub(self.own));
        (steal as f64 / total, others as f64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(p99(&few), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99(&enough), Some(989.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }
}
