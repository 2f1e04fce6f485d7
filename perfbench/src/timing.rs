//! Reading times on a shared host: the calibration loop that scales every
//! reported time to a reference host speed, the estimators, and the
//! process's peak memory.  README.md ("Shared-host caveat") gives the
//! measurements behind these choices.

use std::hint::black_box;
use std::time::Instant;

use crate::trace::since;

/// Iterations of the calibration loop (about 1 ms on a 2 GHz Xeon).
const CALIBRATION_ITERS: u64 = 40_000;
/// Every reported time is scaled to a reference host speed at which the
/// calibration loop takes this long.
pub const CALIBRATION_REF_NS: f64 = 1e6;
/// Round time per calibration sample, so that a long round is read against
/// more than one short sample of the host's speed.
const CALIBRATION_EVERY_NS: u64 = 50_000_000;

/// The host's speed right after rounds that took `rounds_ns`: the fastest
/// of one calibration sample per `CALIBRATION_EVERY_NS` of them, at least
/// one.
pub fn calibration_after(rounds_ns: u64) -> f64 {
    fastest((0..(rounds_ns / CALIBRATION_EVERY_NS).max(1)).map(|_| calibration_ns() as f64))
}

/// Time a fixed loop of scalar work that uses none of the repository's
/// code: a SplitMix64 stream driving a 16-entry binary heap (the shape of
/// a simulation calendar) and one logarithm per step.  Its time tracks the
/// host's speed, not the code under test: on a shared host whose speed
/// drifts by a fifth for minutes at a time, dividing by it cancels the
/// drift, while a change to the repository's code moves only the rounds.
fn calibration_ns() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    fn next(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    let t0 = Instant::now();
    let mut z = black_box(0x5EED_u64);
    let mut heap: BinaryHeap<Reverse<u64>> = (0..16).map(|_| Reverse(next(&mut z) >> 40)).collect();
    let mut acc = 0.0f64;
    for _ in 0..CALIBRATION_ITERS {
        let Reverse(t) = heap.pop().expect("the calibration heap never drains");
        let u = next(&mut z);
        acc += ((u >> 11) as f64 / (1u64 << 53) as f64 + 1e-12).ln();
        heap.push(Reverse(t + (u >> 44)));
    }
    black_box((acc, heap.len()));
    since(t0)
}

/// The fastest sample, for repeated measurements of identical work (layer
/// replays, index builds, the calibration loop).  A co-tenant on a shared
/// host only ever adds time, so the fastest is the least disturbed.
pub fn fastest(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile of `xs` (nearest rank).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
