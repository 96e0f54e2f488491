//! Samples, percentiles, and the result line the benchmark prints last.

use crate::clock::HostClock;
use crate::replay::Ledger;
use soteria::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics: name, unit. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sweep_ms_p50", "ms"),
    ("app_cold_ms_p50", "ms"),
    ("app_cold_ms_p90", "ms"),
    ("g3_cold_ms_p50", "ms"),
    ("update_ms_p50", "ms"),
    ("update_ms_p90", "ms"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p90", "ms"),
    ("restart_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_ratio", "ratio"),
];

/// The per-layer metrics: name, unit. Times and counts are per iteration of
/// the workload (medians over iterations); ratios are over the whole run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.tokens", "count"),
    ("ir.build_ms", "ms"),
    ("analysis.symbolic_ms", "ms"),
    ("analysis.abstraction_ms", "ms"),
    ("analysis.specs", "count"),
    ("model.build_ms", "ms"),
    ("model.states", "count"),
    ("model.determinism_ms", "ms"),
    ("model.union_ms", "ms"),
    ("model.union_transitions", "count"),
    ("model.union_delta_ms", "ms"),
    ("model.union_delta_taken", "ratio"),
    ("checker.kripke_ms", "ms"),
    ("checker.kripke_states", "count"),
    ("checker.kripke_edges", "count"),
    ("checker.check_ms", "ms"),
    ("checker.formulas", "count"),
    ("checker.kripke_delta_ms", "ms"),
    ("checker.kripke_delta_taken", "ratio"),
    ("checker.check_reuse_ms", "ms"),
    ("properties.general_ms", "ms"),
    ("soteria.fp_recheck_ms", "ms"),
    ("soteria.fp_rechecks", "count"),
    ("soteria.report_json_ms", "ms"),
    ("soteria.restore_ms", "ms"),
    ("service.protocol_parse_ms", "ms"),
    ("service.protocol_render_ms", "ms"),
    ("service.store_encode_ms", "ms"),
    ("service.store_decode_ms", "ms"),
    ("service.store_bytes", "bytes"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.env_incremental_ratio", "ratio"),
    ("soteria.end_to_end_ms", "ms"),
    ("soteria.unattributed_ms", "ms"),
    ("soteria.unattributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One traced iteration: what the replay recorded, and the production time
/// of the same operations.
#[derive(Debug, Clone)]
pub struct TracedIteration {
    /// Per-layer times and counts of the replay.
    pub ledger: Ledger,
    /// Production wall time of the iteration's operations.
    pub end_to_end_ms: f64,
    /// Wall time of the replay of the same operations.
    pub replay_ms: f64,
}

/// Everything one run measured. Times are kept raw with the instant they
/// were taken, and scaled to the reference host speed when reported.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: error, timeout, panic, or a verdict or report
    /// that differs from the golden file or the direct API.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Timing samples by end-to-end metric family (`sweep_ms`, `app_cold_ms`, ...).
    samples: BTreeMap<&'static str, Vec<(Instant, f64)>>,
    /// Set-up times, seconds.
    setup_s: Vec<(Instant, f64)>,
    /// Peak resident set of the analysing process, MB, per iteration.
    pub rss_mb: Vec<f64>,
    /// Traced iterations (trace runs only).
    traced: Vec<(Instant, TracedIteration)>,
    /// Run-wide `(hits, attempts)` for ratio metrics.
    pub ratios: BTreeMap<&'static str, (f64, f64)>,
    /// The host-speed calibrations of this run.
    pub clock: HostClock,
}

impl Outcome {
    /// Records one timing sample, taken just now.
    pub fn sample(&mut self, family: &'static str, ms: f64) {
        self.samples
            .entry(family)
            .or_default()
            .push((Instant::now(), ms));
    }

    /// Records one set-up time, seconds, taken just now.
    pub fn setup(&mut self, seconds: f64) {
        self.setup_s.push((Instant::now(), seconds));
    }

    /// Records one traced iteration, finished just now.
    pub fn traced(&mut self, iteration: TracedIteration) {
        self.traced.push((Instant::now(), iteration));
    }

    /// Iterations recorded in `family`.
    pub fn count(&self, family: &str) -> usize {
        self.samples.get(family).map_or(0, Vec::len)
    }

    fn scaled(&self, values: &[(Instant, f64)], scale: bool) -> Vec<f64> {
        values
            .iter()
            .map(|&(at, v)| if scale { v * self.clock.scale(at) } else { v })
            .collect()
    }

    /// Counts one operation, failing it with `error` if that is `Err`.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.fail(error);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Adds to a run-wide ratio.
    pub fn ratio(&mut self, name: &'static str, hits: f64, attempts: f64) {
        let entry = self.ratios.entry(name).or_default();
        entry.0 += hits;
        entry.1 += attempts;
    }

    /// The end-to-end metric values, times scaled to the reference host
    /// speed when `scale` is set (the reported values) or raw.
    pub fn end_to_end(&self, scale: bool) -> Vec<(&'static str, &'static str, f64)> {
        let verified = if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        };
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => median(&self.scaled(&self.setup_s, scale)),
                    "peak_rss_mb" => median(&self.rss_mb),
                    "verified_ratio" => verified,
                    _ => {
                        let (family, p) = name.rsplit_once("_p").expect("percentile suffix");
                        let samples = self.samples.get(family).map(Vec::as_slice).unwrap_or(&[]);
                        percentile(
                            &self.scaled(samples, scale),
                            p.parse().expect("numeric percentile"),
                        )
                    }
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The per-layer metric values (trace runs), times scaled to the
    /// reference host speed.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let per_iteration = |f: &dyn Fn(&TracedIteration) -> f64| -> f64 {
            median(&self.traced.iter().map(|(_, t)| f(t)).collect::<Vec<_>>())
        };
        let ms_per_iteration = |f: &dyn Fn(&TracedIteration) -> f64| -> f64 {
            let scaled = |(at, t): &(Instant, TracedIteration)| f(t) * self.clock.scale(*at);
            median(&self.traced.iter().map(scaled).collect::<Vec<_>>())
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "soteria.end_to_end_ms" => ms_per_iteration(&|t| t.end_to_end_ms),
                    "soteria.unattributed_ms" => {
                        ms_per_iteration(&|t| t.end_to_end_ms - t.ledger.layer_sum_ms())
                    }
                    "soteria.unattributed_share" => per_iteration(&|t| {
                        (t.end_to_end_ms - t.ledger.layer_sum_ms()) / t.end_to_end_ms
                    }),
                    "trace.overhead_ms" => ms_per_iteration(&|t| t.replay_ms - t.end_to_end_ms),
                    "trace.overhead_share" => {
                        per_iteration(&|t| (t.replay_ms - t.end_to_end_ms) / t.end_to_end_ms)
                    }
                    _ if unit == "ratio" => {
                        let (hits, attempts) =
                            self.ratios.get(name).copied().unwrap_or_else(|| {
                                // `<x>_taken` is `<x>_hits` over `<x>_attempts` in the ledger.
                                let stem = name.trim_end_matches("_taken");
                                let total = |suffix: &str| -> f64 {
                                    let key = format!("{stem}_{suffix}");
                                    self.traced
                                        .iter()
                                        .filter_map(|(_, t)| t.ledger.counts.get(key.as_str()))
                                        .sum()
                                };
                                (total("hits"), total("attempts"))
                            });
                        if attempts > 0.0 {
                            hits / attempts
                        } else {
                            0.0
                        }
                    }
                    _ if unit == "ms" => {
                        ms_per_iteration(&|t| t.ledger.ms.get(name).copied().unwrap_or(0.0))
                    }
                    _ => per_iteration(&|t| t.ledger.counts.get(name).copied().unwrap_or(0.0)),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end(true)
        };
        let metrics = JsonValue::Object(
            metrics
                .into_iter()
                .map(|(name, unit, value)| {
                    (
                        name.to_string(),
                        JsonValue::object([
                            (
                                "value",
                                JsonValue::Number(if value.is_finite() { value } else { -1.0 }),
                            ),
                            ("unit", JsonValue::string(unit)),
                        ]),
                    )
                })
                .collect(),
        );
        let all_finite = self.end_to_end(true).iter().all(|(_, _, v)| v.is_finite());
        JsonValue::object([
            (
                "correct",
                JsonValue::Bool(self.failed == 0 && self.attempted > 0 && all_finite),
            ),
            ("attempted", JsonValue::Number(self.attempted as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}
