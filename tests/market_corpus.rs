//! Market-corpus evaluation (Sec. 6.1, Table 3): individual-app analysis over the 65
//! re-created market apps.

use soteria::{AppAnalysis, Soteria};
use soteria_bench::{analyze_all, verdict};
use soteria_corpus::{all_market_apps, official_apps, third_party_apps};

fn violated(analysis: &AppAnalysis) -> Vec<String> {
    analysis.violated_properties().iter().map(|p| p.to_string()).collect()
}

#[test]
fn official_apps_have_no_individual_violations() {
    let soteria = Soteria::new();
    for app in official_apps() {
        let analysis = soteria
            .analyze_app(&app.id, &app.source)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", app.id));
        assert!(
            analysis.violations.is_empty(),
            "official app {} unexpectedly violates {:?}",
            app.id,
            analysis.violations
        );
    }
}

#[test]
fn flagged_third_party_apps_violate_their_expected_properties() {
    let soteria = Soteria::new();
    for app in third_party_apps() {
        let analysis = soteria
            .analyze_app(&app.id, &app.source)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", app.id));
        let found = violated(&analysis);
        for expectation in &app.ground_truth.expectations {
            assert!(
                found.contains(&expectation.property),
                "{}: expected {} but found {:?}",
                app.id,
                expectation.property,
                found
            );
        }
    }
}

#[test]
fn benign_third_party_apps_are_clean() {
    let soteria = Soteria::new();
    for app in third_party_apps() {
        if !app.ground_truth.expectations.is_empty() {
            continue;
        }
        let analysis = soteria.analyze_app(&app.id, &app.source).unwrap();
        assert!(
            analysis.violations.is_empty(),
            "benign app {} unexpectedly violates {:?}",
            app.id,
            analysis.violations
        );
    }
}

#[test]
fn table3_summary_counts() {
    // The paper flags nine individual apps (one with multiple properties, eight with a
    // single property), all of them third-party.
    let soteria = Soteria::new();
    let mut flagged: Vec<String> = Vec::new();
    let mut multi_property: Vec<(String, Vec<String>)> = Vec::new();
    for app in third_party_apps() {
        let analysis = soteria.analyze_app(&app.id, &app.source).unwrap();
        if !analysis.violations.is_empty() {
            flagged.push(app.id.clone());
            let properties: Vec<String> =
                analysis.violated_properties().iter().map(|p| p.to_string()).collect();
            if properties.len() > 1 {
                multi_property.push((app.id.clone(), properties));
            }
        }
    }
    assert_eq!(flagged.len(), 9, "nine third-party apps are flagged individually: {flagged:?}");
    assert_eq!(
        multi_property.len(),
        1,
        "exactly one app violates multiple properties: {multi_property:?}"
    );
}

/// Every market app's exact verdict: its reported properties in report order.
/// Only the nine Table 3 apps report anything, and each reports exactly its
/// ground-truth properties — no finding goes beyond `ground_truth.expectations`.
#[test]
fn app_verdicts_are_pinned_exactly() {
    const FLAGGED: &[(&str, &str)] = &[
        ("TP1", "P.13"),
        ("TP2", "P.12"),
        ("TP3", "S.4"),
        ("TP4", "P.29"),
        ("TP5", "P.28"),
        ("TP6", "S.1 P.12"),
        ("TP7", "S.1"),
        ("TP8", "P.1"),
        ("TP9", "S.2"),
    ];
    let apps = all_market_apps();
    assert_eq!(apps.len(), 65);
    assert!(FLAGGED.iter().all(|(id, _)| apps.iter().any(|a| a.id == *id)));
    let analyses = analyze_all(&Soteria::new(), &apps);
    for (app, analysis) in apps.iter().zip(&analyses) {
        let pinned = FLAGGED.iter().find(|(id, _)| *id == app.id).map_or("-", |(_, v)| *v);
        assert_eq!(verdict(&analysis.violations), pinned, "{}: verdict differs from its pin", app.id);
        let mut expected: Vec<&str> =
            app.ground_truth.expectations.iter().map(|e| e.property.as_str()).collect();
        let mut found: Vec<&str> = pinned.split(' ').filter(|p| *p != "-").collect();
        expected.sort_unstable();
        found.sort_unstable();
        assert_eq!(found, expected, "{}: pin differs from the ground truth", app.id);
    }
}
