//! Host-speed reference: every reported time is scaled to a reference host
//! speed, so runs made while the host is busy or idle stay comparable.
//!
//! On shared hosts the same code runs up to about 1.6x slower for minutes at a
//! time (other tenants contending for the core and its caches). That swamps
//! run-to-run comparisons. So each run times a fixed calibration kernel at
//! least every [`CALIBRATION_PERIOD`], and each timing sample `t` taken at time
//! `x` is reported as `t * REFERENCE_MS / k(x)`, where `k(x)` interpolates the
//! kernel's time between the calibrations around `x`.
//!
//! The kernel uses only std code the benchmark owns: sorting integers and
//! strings, updating a hash map, and allocating and freeing many small
//! strings. So a change to the analyzer cannot change it. The provenance line
//! carries each run's unscaled values and its median kernel time.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel time that defines the reference host speed.
pub const REFERENCE_MS: f64 = 8.0;

/// How long a run may go without a calibration.
pub const CALIBRATION_PERIOD: Duration = Duration::from_millis(500);

/// The calibration kernel and the calibrations a run made.
pub struct HostClock {
    ints: Vec<u64>,
    ints_work: Vec<u64>,
    strings: Vec<String>,
    map: HashMap<u64, u64>,
    points: Vec<(Instant, f64)>,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let ints: Vec<u64> = (0..200_000).map(|_| next()).collect();
        let strings = (0..20_000)
            .map(|i| format!("state-{i}-{}", next() % 977))
            .collect();
        HostClock {
            ints_work: ints.clone(),
            ints,
            strings,
            map: HashMap::with_capacity(1 << 16),
            points: Vec::new(),
        }
    }
}

impl HostClock {
    fn kernel_ms(&mut self) -> f64 {
        let started = Instant::now();
        self.ints_work.copy_from_slice(&self.ints);
        self.ints_work.sort_unstable();
        self.map.clear();
        for &k in &self.ints[..50_000] {
            *self.map.entry(k % 40_000).or_insert(0) += k;
        }
        self.strings.sort_unstable();
        self.strings.reverse();
        let copies: Vec<String> = self.strings.iter().map(|s| s.to_uppercase()).collect();
        std::hint::black_box((&self.ints_work, &self.map, &self.strings, copies));
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Times the kernel now: one warm-up pass, then the median of three.
    pub fn calibrate(&mut self) {
        self.kernel_ms();
        let mut times = [self.kernel_ms(), self.kernel_ms(), self.kernel_ms()];
        times.sort_by(f64::total_cmp);
        self.points.push((Instant::now(), times[1]));
    }

    /// Calibrates if the last calibration is older than [`CALIBRATION_PERIOD`].
    pub fn calibrate_if_due(&mut self) {
        match self.points.last() {
            Some((at, _)) if at.elapsed() < CALIBRATION_PERIOD => {}
            _ => self.calibrate(),
        }
    }

    /// The factor that scales a time measured at `at` to the reference speed.
    pub fn scale(&self, at: Instant) -> f64 {
        let after = self.points.partition_point(|(t, _)| *t <= at);
        let kernel = match (
            after.checked_sub(1).map(|i| self.points[i]),
            self.points.get(after),
        ) {
            (Some((t0, k0)), Some(&(t1, k1))) => {
                let span = (t1 - t0).as_secs_f64();
                let w = if span > 0.0 {
                    (at - t0).as_secs_f64() / span
                } else {
                    0.0
                };
                k0 + (k1 - k0) * w
            }
            (Some((_, k)), None) | (None, Some(&(_, k))) => k,
            (None, None) => return 1.0,
        };
        REFERENCE_MS / kernel
    }

    /// The median kernel time over the run, ms.
    pub fn median_kernel_ms(&self) -> f64 {
        crate::report::median(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}
