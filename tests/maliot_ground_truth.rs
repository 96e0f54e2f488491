//! MalIoT evaluation (Sec. 6.2, Appendix C): the analyzer must find every in-scope
//! violation, report the App5 finding as a possible false positive, and stay silent on
//! the out-of-scope apps (App9, App10, App11).

use soteria::{AppAnalysis, Soteria};
use soteria_bench::verdict;
use soteria_corpus::{maliot_groups, maliot_suite, CorpusApp};
use std::collections::BTreeMap;

fn analyze_suite() -> (Vec<CorpusApp>, BTreeMap<String, AppAnalysis>) {
    let soteria = Soteria::new();
    let suite = maliot_suite();
    let analyses: BTreeMap<String, AppAnalysis> = suite
        .iter()
        .map(|app| {
            let analysis = soteria
                .analyze_app(&app.id, &app.source)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", app.id));
            (app.id.clone(), analysis)
        })
        .collect();
    (suite, analyses)
}

fn violated(analysis: &AppAnalysis) -> Vec<String> {
    analysis.violated_properties().iter().map(|p| p.to_string()).collect()
}

#[test]
fn individual_maliot_violations_are_detected() {
    let (suite, analyses) = analyze_suite();
    for app in &suite {
        if app.ground_truth.out_of_scope.is_some() || app.ground_truth.multi_app_group.is_some() {
            continue;
        }
        let analysis = &analyses[&app.id];
        let found = violated(analysis);
        for expectation in &app.ground_truth.expectations {
            assert!(
                found.contains(&expectation.property),
                "{}: expected {} but found only {:?}",
                app.id,
                expectation.property,
                found
            );
        }
    }
}

#[test]
fn app5_reflection_violation_is_marked_as_possible_false_positive() {
    let (_, analyses) = analyze_suite();
    let app5 = &analyses["App5"];
    let p10: Vec<_> = app5
        .violations
        .iter()
        .filter(|v| v.property.to_string() == "P.10")
        .collect();
    assert!(!p10.is_empty(), "App5 must report P.10 (the paper's false positive)");
    assert!(
        p10.iter().all(|v| v.possibly_false_positive),
        "the P.10 report must be flagged as a possible false positive"
    );
}

#[test]
fn out_of_scope_apps_produce_no_confirmed_violations() {
    let (suite, analyses) = analyze_suite();
    for app in suite.iter().filter(|a| a.ground_truth.out_of_scope.is_some()) {
        let analysis = &analyses[&app.id];
        let confirmed: Vec<_> =
            analysis.violations.iter().filter(|v| !v.possibly_false_positive).collect();
        assert!(
            confirmed.is_empty(),
            "{} is outside the threat model but reported {:?}",
            app.id,
            confirmed
        );
    }
}

#[test]
fn maliot_multi_app_groups_reveal_interaction_violations() {
    let soteria = Soteria::new();
    let (_, analyses) = analyze_suite();
    for (group_name, members, expected) in maliot_groups() {
        let member_analyses: Vec<AppAnalysis> =
            members.iter().map(|m| analyses[*m].clone()).collect();
        let env = soteria.analyze_environment(group_name, &member_analyses);
        let mut found: Vec<String> =
            env.violated_properties().iter().map(|p| p.to_string()).collect();
        for member in &member_analyses {
            found.extend(violated(member));
        }
        for property in expected {
            assert!(
                found.contains(&property.to_string()),
                "{group_name}: expected {property}, found {found:?}"
            );
        }
    }
}

#[test]
fn detection_summary_matches_paper_shape() {
    // The paper: 17 of 20 violations detected, one false positive (App5), three apps
    // out of scope. Here we confirm the aggregate shape on our re-authored suite.
    let (suite, analyses) = analyze_suite();
    let in_scope = suite.iter().filter(|a| a.ground_truth.out_of_scope.is_none()).count();
    assert_eq!(in_scope, 14);
    let flagged = suite
        .iter()
        .filter(|a| a.ground_truth.out_of_scope.is_none())
        .filter(|a| {
            a.ground_truth.multi_app_group.is_some()
                || !analyses[&a.id].violations.is_empty()
        })
        .count();
    assert_eq!(flagged, in_scope, "every in-scope app is flagged alone or in its group");
}

/// Every MalIoT app's exact verdict: its reported properties in report order,
/// `ID*n` standing for `n` repeats of `ID`.
const PINNED: &[(&str, &str)] = &[
    ("App1", "P.2"),
    ("App2", "P.9"),
    ("App3", "S.2"),
    ("App4", "S.1 S.1 S.4 S.4"),
    ("App5", "S.1? S.2? DET*144 P.10?"),
    ("App6", "P.1 P.12"),
    ("App7", "S.4"),
    ("App8", "S.5 P.1"),
    ("App9", "-"),
    ("App10", "-"),
    ("App11", "-"),
    ("App12", "-"),
    ("App13", "-"),
    ("App14", "-"),
    ("App15", "-"),
    ("App16", "-"),
    ("App17", "P.14"),
];

/// Every finding beyond an app's own `ground_truth.expectations`, as
/// `(app, finding, count, reason)`.
const BEYOND_GROUND_TRUTH: &[(&str, &str, usize, &str)] = &[
    (
        "App4",
        "S.1",
        1,
        "over-approximation: saveEnergyHandler runs on app touch and on its runIn timer, \
         and S.1 is reported once per triggering event",
    ),
    (
        "App4",
        "S.4",
        2,
        "over-approximation: the app-touch and timer triggers of saveEnergyHandler count \
         as racing events, reported once per conflicting pair (off then on, on then off)",
    ),
    (
        "App5",
        "S.1?",
        1,
        "reflection over-approximation: the reflective call may reach silenceAlarm after \
         the siren; it vanishes without reflection, hence the ?",
    ),
    (
        "App5",
        "S.2?",
        1,
        "reflection over-approximation: the reflective call may reach keepSirening, \
         sounding the siren twice; it vanishes without reflection, hence the ?",
    ),
    (
        "App5",
        "DET",
        144,
        "reflection over-approximation: smoke.detected may leave the alarm on siren or \
         off, one finding per nondeterministic (state, event) pair; determinism is not \
         re-checked without reflection, so no ?",
    ),
];

/// Expands a pin's `ID*n` repeats into the space-separated verdict.
fn expand(pin: &str) -> String {
    let ids: Vec<String> = pin
        .split(' ')
        .map(|id| match id.split_once('*') {
            Some((id, n)) => vec![id; n.parse().expect("repeat count")].join(" "),
            None => id.to_string(),
        })
        .collect();
    ids.join(" ")
}

#[test]
fn app_verdicts_are_pinned_exactly() {
    let (suite, analyses) = analyze_suite();
    let ids: Vec<&str> = suite.iter().map(|a| a.id.as_str()).collect();
    let pinned_ids: Vec<&str> = PINNED.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, pinned_ids);
    for (app, (_, pin)) in suite.iter().zip(PINNED) {
        let pinned = expand(pin);
        let found = verdict(&analyses[&app.id].violations);
        assert_eq!(found, pinned, "{}: verdict differs from its pin", app.id);
        // What the pin reports beyond the app's own expectations is exactly the
        // explained findings above.
        let truth = &app.ground_truth;
        let own = truth.multi_app_group.is_none() && truth.out_of_scope.is_none();
        let expected = if own { truth.expectations.as_slice() } else { &[] };
        let mut beyond: Vec<&str> = pinned.split(' ').filter(|p| *p != "-").collect();
        for expectation in expected {
            let mark = if expectation.false_positive { "?" } else { "" };
            let id = format!("{}{mark}", expectation.property);
            let at = beyond.iter().position(|p| *p == id);
            let at = at.unwrap_or_else(|| panic!("{}: expected {id} is not reported", app.id));
            beyond.remove(at);
        }
        let mut explained: Vec<&str> = BEYOND_GROUND_TRUTH
            .iter()
            .filter(|(id, ..)| *id == app.id)
            .flat_map(|(_, finding, count, _)| std::iter::repeat_n(*finding, *count))
            .collect();
        beyond.sort_unstable();
        explained.sort_unstable();
        assert_eq!(beyond, explained, "{}: unexplained findings beyond the ground truth", app.id);
    }
}
