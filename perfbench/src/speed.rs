//! Host-speed normalisation of timed work.
//!
//! A shared host can run the same code at very different speeds from one
//! second to the next, and slow periods can outlast a whole run (see
//! `WORKLOADS.md`, "Host speed"). So every timed duration is scaled by the
//! host's speed at the time it was measured. A fixed probe kernel, which
//! uses none of the system's code, is timed before and after each stretch
//! of about [`PROBE_EVERY`] of timed work. A duration `t` measured in the
//! stretch is reported as `t × NOMINAL_PROBE_MS / p`, where `p` is the
//! mean of the two probe times around it. A change to the system moves `t`
//! and leaves `p` alone; a slow host moves both.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Timed work between two probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(10);

/// The probe time at which reported times equal wall times: about what
/// the probe takes on the 2-core host the benchmark was tuned on when
/// that host runs at its fast speed.
pub const NOMINAL_PROBE_MS: f64 = 0.2;

/// Timed runs of the kernel per probe; the probe time is their median.
const PROBE_RUNS: usize = 3;

/// Entries of the probe's pointer-chasing table (4 MiB of `u32`).
const CHASE_LEN: usize = 1 << 20;
/// Dependent loads per probe run.
const CHASE_STEPS: usize = 3000;

/// A random cyclic permutation of `0..CHASE_LEN`, built once per process.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHASE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE_LEN];
        for w in 0..CHASE_LEN {
            next[order[w] as usize] = order[(w + 1) % CHASE_LEN];
        }
        next
    })
}

/// The probe kernel: hashing, a small sort, string building and
/// dependent loads over a table larger than the caches, the kind of work
/// the engine does (key hashing, dedup, ordering, allocation, probes into
/// large relations). A kernel without the loads tracked small-catalog
/// queries as well but missed about a tenth of the host's slowdown on
/// `recursive`.
fn kernel() -> u64 {
    let mut groups: HashMap<u64, u64> = HashMap::with_capacity(2048);
    for i in 0..4096u64 {
        *groups
            .entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 1500)
            .or_default() += i;
    }
    let mut sums: Vec<u64> = groups.values().copied().collect();
    sums.sort_unstable();
    let keys: HashSet<String> = (0..256u64)
        .map(|i| format!("k{}", i * 7919 % 1000))
        .collect();
    let mut keys: Vec<&String> = keys.iter().collect();
    keys.sort();
    let table = chase_table();
    let mut at = 0usize;
    for _ in 0..CHASE_STEPS {
        at = table[at] as usize;
    }
    sums.iter()
        .fold(keys.len() as u64 + at as u64, |a, &x| a.wrapping_add(x))
}

/// One probe: the median time of [`PROBE_RUNS`] kernel runs, in ms.
pub fn probe_ms() -> f64 {
    let mut runs: Vec<f64> = (0..PROBE_RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[PROBE_RUNS / 2]
}

/// Holds timed durations, each with a tag, until the next probe, then
/// hands them back with their normalised length.
pub struct Meter<T> {
    /// The last probe time (ms).
    last: f64,
    /// Raw time held since the last probe.
    held: Duration,
    pending: Vec<(T, Duration)>,
    /// Every probe time, for the record.
    pub probes: Vec<f64>,
}

impl<T> Meter<T> {
    /// Probe once to start.
    pub fn new() -> Meter<T> {
        let last = probe_ms();
        Meter {
            last,
            held: Duration::ZERO,
            pending: Vec::new(),
            probes: vec![last],
        }
    }

    /// Hold a measured duration. Returns the held durations, normalised,
    /// when a probe is due.
    pub fn push(&mut self, tag: T, raw: Duration) -> Vec<(T, Duration)> {
        self.held += raw;
        self.pending.push((tag, raw));
        if self.held >= PROBE_EVERY {
            self.flush()
        } else {
            Vec::new()
        }
    }

    /// Probe now and return every held duration, normalised.
    pub fn flush(&mut self) -> Vec<(T, Duration)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let now = probe_ms();
        let factor = NOMINAL_PROBE_MS / ((self.last + now) / 2.0);
        self.last = now;
        self.probes.push(now);
        self.held = Duration::ZERO;
        self.pending
            .drain(..)
            .map(|(tag, raw)| (tag, raw.mul_f64(factor)))
            .collect()
    }
}

impl<T> Default for Meter<T> {
    fn default() -> Meter<T> {
        Meter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn held_durations_come_back_scaled_by_one_factor() {
        let mut m = Meter::new();
        assert!(m.push(1, Duration::from_millis(1)).is_empty());
        let out = m.push(2, Duration::from_millis(9));
        assert_eq!(out.len(), 2);
        let ratio = out[1].1.as_secs_f64() / out[0].1.as_secs_f64();
        assert!((ratio - 9.0).abs() < 1e-4, "{ratio}");
        assert!(m.flush().is_empty());
        assert_eq!(m.probes.len(), 2);
    }
}
