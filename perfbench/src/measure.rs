//! Measurement plumbing shared by every workload: the seeded generator, the
//! sample statistics, and the host diagnostics that let
//! a reader tell host drift from a program change.

use std::hint::black_box;
use std::time::Instant;

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow set-up does not move `setup_s`.
pub const SETUP_REPEATS: usize = 3;

/// SplitMix64: small, seedable, and identical on every platform, so a seed
/// names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Latency samples and wall time of one timed phase.
#[derive(Default)]
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub seconds: f64,
}

impl Phase {
    pub fn requests_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.seconds
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail is chosen from. The rungs are far enough apart
/// that a workload's sample count, which varies with host speed by up to
/// 2.5x, stays in one rung's range at a given run length, so every run
/// averages the same share of its slowest requests. At 40 s `suite-cold`
/// takes 1000-2200 samples (p95: 200-4999) and `serve-mixed` 7000-22000
/// (p99.8: 5000 and up). In tenths of a percent, so nearest ranks are
/// computed exactly.
const TAIL_LADDER: [usize; 3] = [998, 950, 750];

/// The tail of a latency sample: the highest ladder percentile with at
/// least ten samples beyond it (nearest rank), or the median when no rung
/// qualifies, as `(percentile, samples beyond, mean of the samples
/// beyond)`.
///
/// The mean, not the percentile's own value, is reported because the host
/// alternates between a fast and a slow period (heat-3d takes about 270 ms
/// in one and 480 ms in the other): a single order statistic inside one
/// request cluster lands in one period's mode or the other depending on the
/// share of slow time in the run, and jumps by that whole factor between
/// runs, while the mean moves in proportion to the share, as
/// `requests_per_s` does.
pub fn tail(values: &[f64]) -> (f64, usize, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rung = |per_mille: usize| (per_mille * n).div_ceil(1000);
    let (per_mille, rank) = TAIL_LADDER
        .iter()
        .map(|&p| (p, rung(p)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .unwrap_or((500, rung(500).min(n.saturating_sub(1))));
    let beyond = &v[rank..];
    (
        per_mille as f64 / 10.0,
        beyond.len(),
        beyond.iter().sum::<f64>() / beyond.len() as f64,
    )
}

/// Geometric mean, summed in sorted order so that the result does not
/// depend on the order the values were produced in.
pub fn geomean(values: &[f64]) -> f64 {
    let mut logs: Vec<f64> = values.iter().map(|v| v.ln()).collect();
    logs.sort_by(f64::total_cmp);
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory freed by a finished stage (a discarded set-up's daemon, the
/// timed phase's daemon) back to the OS. Without it, worker-thread heaps
/// keep what a shut-down daemon freed, and `peak_rss_mb` depends on which
/// heap later allocations happen to land in: 143–206 MiB over ten
/// `serve-mixed` runs of the same build, against 107 MiB with it.
pub fn release_freed_memory() {
    // SAFETY: glibc's `malloc_trim` is thread-safe, takes a plain integer
    // and only returns free pages of the allocator's own heaps to the OS.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host diagnostics, printed by every run and never used to gate or to
/// normalize: a program-independent reference loop timed before and after
/// the timed phase, and the client thread's run-queue wait over the phase.
#[derive(Default)]
pub struct Host {
    pub ref_before_ms: f64,
    pub ref_after_ms: f64,
    pub runqueue_wait_ms: f64,
}

impl Host {
    pub fn ref_ms(&self) -> f64 {
        (self.ref_before_ms + self.ref_after_ms) / 2.0
    }
}

/// A fixed loop that touches no program code: 10^7 steps of an integer
/// hash, then 2·10^6 dependent loads around a random cycle over a 2 MiB
/// table. The loads make it feel the memory-latency drift that slows the
/// analysis on shared hosts and that the integer part alone misses (in
/// probes its spread was 4% while the trace walker's was 20%).
fn reference_loop_ms() -> f64 {
    const SLOTS: usize = 1 << 19;
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = Rng::new(0x2545_F491_4F6C_DD1D, 0);
    // Sattolo's shuffle: one cycle through every slot.
    for i in (1..SLOTS).rev() {
        next.swap(i, rng.below(i));
    }
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..black_box(10_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let mut at = black_box(x as usize % SLOTS);
    for _ in 0..black_box(2_000_000u32) {
        at = next[at] as usize;
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e3
}

/// Run-queue wait (ns, field 2 of `schedstat`) of the calling thread, the
/// client that drives the timed phase.
fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Runs `phase` between two reference-loop timings and records the
/// run-queue wait it accumulated.
pub fn bracket<T>(host: &mut Host, phase: impl FnOnce() -> T) -> T {
    host.ref_before_ms = reference_loop_ms();
    let wait = runqueue_wait_ns();
    let out = phase();
    host.runqueue_wait_ms = runqueue_wait_ns().saturating_sub(wait) as f64 / 1e6;
    host.ref_after_ms = reference_loop_ms();
    out
}

/// Failed checks of one run: counted per timed request, described for the
/// reader (the first few in full).
#[derive(Default)]
pub struct Checks {
    pub failed_requests: u64,
    pub self_check_failures: u64,
    pub messages: Vec<String>,
}

impl Checks {
    const KEEP: usize = 20;

    fn note(&mut self, message: String) {
        if self.messages.len() < Self::KEEP {
            self.messages.push(message);
        }
    }

    /// A timed request that errored or whose output failed a check.
    pub fn request_failed(&mut self, message: String) {
        self.failed_requests += 1;
        self.note(message);
    }

    /// A failed check outside the timed requests (set-up determinism,
    /// reference simulation, counter self-check).
    pub fn self_check_failed(&mut self, message: String) {
        self.self_check_failures += 1;
        self.note(message);
    }

    pub fn all_passed(&self) -> bool {
        self.failed_requests == 0 && self.self_check_failures == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_rung_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.8, 10, 4995.5));
        let values: Vec<f64> = (1..=4999).map(f64::from).collect();
        assert_eq!(tail(&values), (95.0, 249, 4875.0));
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&values), (75.0, 49, 175.0));
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), (75.0, 10, 35.5));
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&values), (50.0, 5, 8.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn permutations_repeat_per_seed() {
        let a = Rng::new(7, 1).permutation(30);
        assert_eq!(a, Rng::new(7, 1).permutation(30));
        assert_ne!(a, Rng::new(8, 1).permutation(30));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<_>>());
    }
}
