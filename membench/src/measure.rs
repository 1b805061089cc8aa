//! Sample statistics, output checks, and the metric list a run reports.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU time the hypervisor has given to other guests while
/// this guest's CPUs were runnable (`steal` in `/proc/stat`, summed over
/// CPUs); 0 where the kernel does not report it.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        // /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Output checks made and failed. A failed check prints what diverged
/// on stderr so a non-zero `failed` count can be traced to its cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; `detail` is printed when it fails.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", detail());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one closed-loop pass measured: host seconds per item, units of
/// work done and the host seconds they took, and the output checks made.
#[derive(Default)]
pub struct PassLog {
    pub items_s: Vec<f64>,
    pub work: f64,
    pub work_s: f64,
    pub checks: Checks,
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// 64-bit FNV-1a, used to digest simulated statistics so two commits can
/// be compared exactly from their reports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Applies the workload seed to a pinned seed. Seed 0 keeps the pinned
/// value, so `--seed 0` reproduces the paper's own inputs.
pub fn mix_seed(pinned: u64, seed: u64) -> u64 {
    pinned ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "perturbed".into());
        assert_eq!(
            c,
            Checks {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(c.failed_frac(), 0.5);
    }

    #[test]
    fn seed_zero_keeps_pinned_inputs() {
        assert_eq!(mix_seed(42, 0), 42);
        assert_ne!(mix_seed(42, 1), 42);
    }
}
