//! Paper-reproduction helpers for the Soteria reproduction.
//!
//! The library exposes the corpus-sweep helpers shared by the integration
//! tests, the examples, and the table/figure-reproduction binaries
//! (`table2_dataset`, `table3_individual`, `table4_multiapp`,
//! `maliot_results`, `fig11_state_reduction`, `fig11_extraction_time`). Each
//! binary regenerates one table or figure of the paper's evaluation (Sec. 6);
//! the corpus ground truth in `soteria-corpus` records the paper-reported
//! verdicts they are compared against. Performance is measured by the
//! repository benchmark, `python3 perfbench/run.py`, not here.

use soteria::analysis::AnalysisConfig;
use soteria::properties::Violation;
use soteria::{
    render_environment_report, render_report, AppAnalysis, EnvironmentAnalysis, Soteria,
};
use soteria_corpus::{maliot_groups, market_groups, CorpusApp};
use std::time::Duration;

/// Analyses every app of a corpus slice, panicking on parse errors (corpus sources are
/// under our control). Runs through the batch [`Soteria::analyze_apps`] API, so the
/// per-app sweep fans out across the analyzer's worker threads; the returned vector
/// is index-parallel to `apps` at every thread count.
pub fn analyze_all(soteria: &Soteria, apps: &[CorpusApp]) -> Vec<AppAnalysis> {
    let pairs: Vec<(&str, &str)> =
        apps.iter().map(|app| (app.id.as_str(), app.source.as_str())).collect();
    soteria
        .analyze_apps(&pairs)
        .into_iter()
        .zip(apps)
        .map(|(result, app)| {
            result.unwrap_or_else(|e| panic!("{} failed to parse: {e}", app.id))
        })
        .collect()
}

/// The same-domain edits the benchmark's `serve-edit` updates make to members
/// of market G.3: each editable member's toggles. Variant `mask` of a member
/// applies toggle `i` when bit `i` is set; mask 0 is the original source.
pub const G3_EDIT_TOGGLES: &[(&str, &[(&str, &str)])] = &[
    ("TP21", &[("detector_outlet.off()", "detector_outlet.on()")]),
    (
        "TP22",
        &[
            ("heater_switch.on()", "heater_switch.off()"),
            ("coffee_switch.on()", "coffee_switch.off()"),
        ],
    ),
];

/// `source` of the G.3 member `member` with variant `mask`'s toggles applied
/// (see [`G3_EDIT_TOGGLES`]).
pub fn g3_variant_source(member: &str, source: &str, mask: u32) -> String {
    let (_, toggles) = G3_EDIT_TOGGLES
        .iter()
        .find(|(m, _)| *m == member)
        .unwrap_or_else(|| panic!("{member} is not an editable G.3 member"));
    let mut edited = source.to_string();
    for (i, (from, to)) in toggles.iter().enumerate() {
        if mask & (1 << i) != 0 {
            assert!(edited.contains(from), "{member} lacks {from}");
            edited = edited.replace(from, to);
        }
    }
    edited
}

/// `(group name, member app ids)` of the market interaction groups G.1–G.3, in
/// the shape [`analyze_groups`] takes.
pub fn market_group_specs() -> Vec<(String, Vec<String>)> {
    market_groups()
        .iter()
        .map(|g| (g.id.to_string(), g.members.iter().map(|m| m.to_string()).collect()))
        .collect()
}

/// `(group name, member app ids)` of the MalIoT multi-app groups.
pub fn maliot_group_specs() -> Vec<(String, Vec<String>)> {
    maliot_groups()
        .iter()
        .map(|(name, members, _)| {
            (name.to_string(), members.iter().map(|m| m.to_string()).collect())
        })
        .collect()
}

/// Analyses a corpus' multi-app groups as one environment batch
/// ([`Soteria::analyze_environments`]). `analyses` must be index-parallel to
/// `apps` — exactly what [`analyze_all`] returns. Panics on a member id missing
/// from the corpus.
pub fn analyze_groups(
    soteria: &Soteria,
    apps: &[CorpusApp],
    analyses: &[AppAnalysis],
    groups: &[(String, Vec<String>)],
) -> Vec<EnvironmentAnalysis> {
    let member_analyses: Vec<Vec<AppAnalysis>> = groups
        .iter()
        .map(|(_, members)| {
            members
                .iter()
                .map(|id| {
                    let idx = apps
                        .iter()
                        .position(|a| &a.id == id)
                        .unwrap_or_else(|| panic!("member {id} in corpus"));
                    analyses[idx].clone()
                })
                .collect()
        })
        .collect();
    let batch: Vec<(&str, &[AppAnalysis])> = groups
        .iter()
        .zip(&member_analyses)
        .map(|((name, _), members)| (name.as_str(), members.as_slice()))
        .collect();
    soteria.analyze_environments(&batch)
}

/// An analyzer with the paper's configuration at an explicit worker count (`0` =
/// auto). Used by the determinism tests so every suite pins thread counts the
/// same way.
pub fn soteria_with_threads(threads: usize) -> Soteria {
    Soteria::with_config(AnalysisConfig { threads, ..AnalysisConfig::paper() })
}

/// Runs one service submission attempt repeatedly until it stops bouncing off
/// the queue bound — the batch-sweep shape over a bounded service (CI runs the
/// suites under `SOTERIA_MAX_PENDING=2` + `SOTERIA_ADMISSION=reject`). Backs
/// off 1ms per retry instead of hot-looping the admission mutexes the busy
/// workers hold; any non-QueueFull error is returned.
fn admitted<T>(
    mut attempt: impl FnMut() -> Result<T, soteria_service::ServiceError>,
) -> Result<T, soteria_service::ServiceError> {
    loop {
        match attempt() {
            Err(soteria_service::ServiceError::QueueFull { .. }) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return other,
        }
    }
}

/// Submits an app, retrying while the service's queue bound rejects it. Any
/// other submission error panics (corpus sources are under our control).
pub fn submit_app_admitted(
    service: &soteria_service::Service,
    name: &str,
    source: &str,
) -> soteria_service::AppJob {
    admitted(|| service.submit_app(name, source)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// [`submit_app_admitted`]'s twin for named environments; member-resolution
/// errors panic (corpus groups are submitted over their own member set).
pub fn submit_environment_admitted(
    service: &soteria_service::Service,
    group: &str,
    members: &[&str],
) -> soteria_service::EnvJob {
    admitted(|| service.submit_environment_by_names(group, members))
        .unwrap_or_else(|e| panic!("{group}: {e}"))
}

/// Submits a whole corpus workload to the analysis service — every app, then
/// every multi-app group over the submitted names (group jobs park on their
/// member tickets) — and drains the results in submission order. The service
/// twin of [`corpus_sweep`], shared by the determinism, observability and
/// persistent-store tests. Submissions retry through the admission bound, so the
/// sweep also works against a small rejecting queue; panics on a group member
/// missing from the submission set.
pub fn service_corpus_sweep(
    service: &soteria_service::Service,
    apps: &[CorpusApp],
    groups: &[(String, Vec<String>)],
) -> Vec<soteria_service::JobOutcome> {
    for app in apps {
        submit_app_admitted(service, &app.id, &app.source);
    }
    for (name, members) in groups {
        let refs: Vec<&str> = members.iter().map(String::as_str).collect();
        submit_environment_admitted(service, name, &refs);
    }
    service.collect()
}

/// Projects drained service outcomes into the thread-count-invariant
/// [`SweepOutcome`] shape (apps in submission order, then groups). Panics on a
/// job error — corpus sources are under our control.
pub fn service_sweep_outcome(outcomes: &[soteria_service::JobOutcome]) -> SweepOutcome {
    let mut apps: Vec<std::sync::Arc<AppAnalysis>> = Vec::new();
    let mut envs: Vec<std::sync::Arc<EnvironmentAnalysis>> = Vec::new();
    for outcome in outcomes {
        match outcome {
            soteria_service::JobOutcome::App { name, result, .. } => {
                apps.push(result.clone().unwrap_or_else(|e| panic!("{name}: {e}")))
            }
            soteria_service::JobOutcome::Environment { name, result, .. } => {
                envs.push(result.clone().unwrap_or_else(|e| panic!("{name}: {e}")))
            }
        }
    }
    SweepOutcome {
        app_violations: apps.iter().map(|a| a.violations.clone()).collect(),
        env_violations: envs.iter().map(|e| e.violations.clone()).collect(),
        app_reports: apps.iter().map(|a| stable_app_report(a)).collect(),
        env_reports: envs.iter().map(|e| render_environment_report(e)).collect(),
    }
}

/// One full corpus sweep through the batch APIs: every app
/// ([`Soteria::analyze_apps`] via [`analyze_all`]), then every multi-app group
/// ([`Soteria::analyze_environments`] via [`analyze_groups`]).
pub fn corpus_sweep(
    soteria: &Soteria,
    apps: &[CorpusApp],
    groups: &[(String, Vec<String>)],
) -> (Vec<AppAnalysis>, Vec<EnvironmentAnalysis>) {
    let analyses = analyze_all(soteria, apps);
    let environments = analyze_groups(soteria, apps, &analyses, groups);
    (analyses, environments)
}

/// A verdict as the corpus pins write it: the reported property ids in report
/// order, each suffixed with `?` when flagged as a possible false positive, or
/// `-` when nothing is reported.
pub fn verdict(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "-".to_string();
    }
    let ids: Vec<String> = violations
        .iter()
        .map(|v| format!("{}{}", v.property, if v.possibly_false_positive { "?" } else { "" }))
        .collect();
    ids.join(" ")
}

/// An app report with its measured-wall-clock line stripped — the one
/// legitimately run-dependent line, so everything that remains must be identical
/// at every thread count.
pub fn stable_app_report(analysis: &AppAnalysis) -> String {
    render_report(analysis)
        .lines()
        .filter(|l| !l.starts_with("extraction:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Everything a corpus sweep produces that must be independent of the thread
/// count: per-app and per-group violation lists (content *and* order) and the
/// rendered reports. The determinism and observability tests compare it
/// field by field for better failure messages.
#[derive(PartialEq)]
pub struct SweepOutcome {
    /// Per-app violation lists, in corpus order.
    pub app_violations: Vec<Vec<Violation>>,
    /// Per-group violation lists, in group order.
    pub env_violations: Vec<Vec<Violation>>,
    /// Per-app reports with timing lines stripped ([`stable_app_report`]).
    pub app_reports: Vec<String>,
    /// Per-group environment reports (no timing lines to strip).
    pub env_reports: Vec<String>,
}

/// Collects the thread-count-invariant outcome of a corpus sweep.
pub fn sweep_outcome(apps: &[AppAnalysis], envs: &[EnvironmentAnalysis]) -> SweepOutcome {
    SweepOutcome {
        app_violations: apps.iter().map(|a| a.violations.clone()).collect(),
        env_violations: envs.iter().map(|e| e.violations.clone()).collect(),
        app_reports: apps.iter().map(stable_app_report).collect(),
        env_reports: envs.iter().map(render_environment_report).collect(),
    }
}

/// Summary statistics of one corpus group (a Table 2 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRow {
    /// Group name ("Official" / "Third-party").
    pub group: String,
    /// Number of apps.
    pub apps: usize,
    /// Number of distinct device capabilities across the group.
    pub unique_devices: usize,
    /// Average state count (after reduction).
    pub avg_states: usize,
    /// Maximum state count (after reduction).
    pub max_states: usize,
    /// Average non-blank lines of code.
    pub avg_loc: usize,
    /// Maximum non-blank lines of code.
    pub max_loc: usize,
}

/// Computes a Table 2 row from a group of analyses.
pub fn dataset_row(group: &str, analyses: &[AppAnalysis]) -> DatasetRow {
    let unique: std::collections::BTreeSet<String> = analyses
        .iter()
        .flat_map(|a| a.ir.capabilities().into_iter().map(String::from))
        .collect();
    let states: Vec<usize> = analyses.iter().map(|a| a.model.state_count()).collect();
    let loc: Vec<usize> = analyses.iter().map(|a| a.ir.lines_of_code).collect();
    DatasetRow {
        group: group.to_string(),
        apps: analyses.len(),
        unique_devices: unique.len(),
        avg_states: states.iter().sum::<usize>() / states.len().max(1),
        max_states: states.iter().copied().max().unwrap_or(0),
        avg_loc: loc.iter().sum::<usize>() / loc.len().max(1),
        max_loc: loc.iter().copied().max().unwrap_or(0),
    }
}

/// Formats a Table 2 row.
pub fn format_dataset_row(row: &DatasetRow) -> String {
    format!(
        "{:<12} {:>4} {:>15} {:>10}/{:<5} {:>8}/{:<5}",
        row.group, row.apps, row.unique_devices, row.avg_states, row.max_states, row.avg_loc,
        row.max_loc
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::third_party_apps;

    #[test]
    fn dataset_row_aggregates() {
        let soteria = Soteria::new();
        let apps: Vec<CorpusApp> = third_party_apps().into_iter().take(4).collect();
        let analyses = analyze_all(&soteria, &apps);
        let row = dataset_row("Third-party", &analyses);
        assert_eq!(row.apps, 4);
        assert!(row.unique_devices >= 2);
        assert!(row.max_states >= row.avg_states);
        assert!(row.max_loc >= row.avg_loc);
        let line = format_dataset_row(&row);
        assert!(line.contains("Third-party"));
    }
}
