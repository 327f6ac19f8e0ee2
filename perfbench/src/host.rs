//! The host's speed, measured next to every repetition.
//!
//! On a shared virtual machine the memory system's speed drifts by a
//! quarter or more over tens of seconds as other tenants load it, and the
//! measured program's times drift with it (see the README). Each
//! repetition is therefore bracketed by a fixed probe — streaming sums
//! over a 4 MiB buffer, the benchmark's own code, which no change to the
//! program touches — and the end-to-end times are scaled by the probe's
//! time over its reference time. A slower program still reads slower; a
//! slower host reads less so.

use crate::report::median;
use crate::sys;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host (a 2-vCPU Intel Xeon VM), in
/// seconds. Only the ratio of a run's probe time to this constant enters
/// the results.
pub const REFERENCE_S: f64 = 180e-6;

/// Words of the probe buffer: 4 MiB, beyond a core's private caches.
const WORDS: usize = 1 << 19;

/// Timed passes per probe; the probe is their median.
const PASSES: usize = 25;

/// Seconds one streaming pass over the probe buffer takes (the median of
/// [`PASSES`] passes). The buffer is mapped for the probe alone, so that
/// it leaves nothing resident behind.
pub fn probe() -> f64 {
    let mut pages = sys::Pages::new(WORDS).expect("mapping the probe buffer");
    let buffer = pages.as_mut_slice();
    for (i, word) in buffer.iter_mut().enumerate() {
        *word = i as u64;
    }
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            black_box(black_box(&*buffer).iter().fold(0u64, |a, &w| a.wrapping_add(w)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// What [`bracket`] measured around a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Bracket {
    /// The host's slowdown: the mean of the two probe times over
    /// [`REFERENCE_S`].
    pub slowdown: f64,
    /// This process's peak RSS during the repetition alone, in MiB;
    /// `None` where the kernel would not reset the peak.
    pub peak_rss_mib: Option<f64>,
}

/// Runs `f` between two probes. The peak RSS is reset after the first
/// probe and read before the second, so that the probes' buffer never
/// counts as the measured program's memory.
pub fn bracket<R>(f: impl FnOnce() -> R) -> (R, Bracket) {
    let before = probe();
    let reset = sys::reset_peak_rss();
    let result = f();
    let peak_rss_mib = reset.ok().and_then(|()| sys::peak_rss_mib(None));
    let after = probe();
    (result, Bracket { slowdown: (before + after) / 2.0 / REFERENCE_S, peak_rss_mib })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_bracket_times_the_host_and_leaves_the_probe_out_of_the_peak() {
        let _serial = crate::tests::serial();
        let resident_mib = || -> f64 {
            let status = std::fs::read_to_string("/proc/self/status").expect("status");
            let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS");
            let kib: f64 = line[6..].trim().trim_end_matches("kB").trim().parse().expect("kB");
            kib / 1024.0
        };
        let (value, around) =
            bracket(|| vec![1u8; 1 << 20].iter().map(|&b| u64::from(b)).sum::<u64>());
        assert_eq!(value, 1 << 20);
        assert!(around.slowdown > 0.0 && around.slowdown.is_finite(), "{around:?}");
        // without the reset, the peak would hold the first probe's 4 MiB
        let before = resident_mib();
        let (_, idle) = bracket(|| ());
        let peak = idle.peak_rss_mib.expect("the peak resets");
        assert!(peak < before + 2.0, "peak {peak} MiB, resident before {before} MiB");
    }
}
