//! Multi-app environment evaluation (Sec. 6.1, Table 4): the interacting app groups
//! G.1–G.3 violate properties none of their members violates alone.

use soteria::{AppAnalysis, Soteria};
use soteria_corpus::{all_market_apps, maliot_groups, maliot_suite, market_groups};
use std::collections::BTreeMap;

fn analyze_members(soteria: &Soteria) -> BTreeMap<String, AppAnalysis> {
    let member_ids: Vec<String> = market_groups()
        .iter()
        .flat_map(|g| g.members.iter().map(|m| m.to_string()))
        .collect();
    all_market_apps()
        .into_iter()
        .filter(|a| member_ids.contains(&a.id))
        .map(|a| {
            let analysis = soteria.analyze_app(&a.id, &a.source).unwrap();
            (a.id, analysis)
        })
        .collect()
}

#[test]
fn group_members_are_individually_clean() {
    let soteria = Soteria::new();
    let analyses = analyze_members(&soteria);
    // All group members except TP2, TP3 (flagged individually in Table 3) are clean on
    // their own — the group violations only appear in the combined environment.
    for (id, analysis) in &analyses {
        if id == "TP2" || id == "TP3" {
            continue;
        }
        assert!(
            analysis.violations.is_empty(),
            "group member {id} unexpectedly violates {:?} alone",
            analysis.violations
        );
    }
}

#[test]
fn groups_violate_the_expected_properties() {
    let soteria = Soteria::new();
    let analyses = analyze_members(&soteria);
    for group in market_groups() {
        let members: Vec<AppAnalysis> =
            group.members.iter().map(|m| analyses[*m].clone()).collect();
        let env = soteria.analyze_environment(group.id, &members);
        let mut found: Vec<String> =
            env.violated_properties().iter().map(|p| p.to_string()).collect();
        // Violations already visible in a member's individual report also count
        // towards the group (the paper lists TP3's S.4 under G.2 for instance).
        for member in &members {
            found.extend(member.violated_properties().iter().map(|p| p.to_string()));
        }
        for property in &group.expected {
            assert!(
                found.contains(&property.to_string()),
                "{}: expected {} but found {:?}",
                group.id,
                property,
                found
            );
        }
    }
}

#[test]
fn union_models_are_larger_than_members() {
    let soteria = Soteria::new();
    let analyses = analyze_members(&soteria);
    for group in market_groups() {
        let members: Vec<AppAnalysis> =
            group.members.iter().map(|m| analyses[*m].clone()).collect();
        let env = soteria.analyze_environment(group.id, &members);
        let max_member_transitions =
            members.iter().map(|m| m.model.transition_count()).max().unwrap_or(0);
        assert!(
            env.union_model.transition_count() >= max_member_transitions,
            "{}: union has fewer transitions than its largest member",
            group.id
        );
        // Union edges carry the contributing app's name (Algorithm 2's edge labels).
        let apps: std::collections::BTreeSet<&str> =
            env.union_model.transitions.iter().map(|t| t.label.app.as_str()).collect();
        assert!(apps.len() >= 2, "{}: union should mix several apps", group.id);
    }
}

/// Every corpus group's exact verdict: its violated properties in report
/// order, repeats included (one entry per conflicting app pair or counter-
/// example). These are the verdicts the benchmark's golden file records.
/// Findings beyond the paper's Table 4 / MalIoT ground truth carry a reason.
#[test]
fn group_verdicts_are_pinned_exactly() {
    const PINNED: &[(&str, &[&str])] = &[
        ("G.1", &["S.1", "S.1", "S.1", "S.2", "S.3", "S.3"]),
        // P.12: TP2's own finding (lights on while nobody is present) carries
        // into the union. P.27: only the union has both TP2's presence sensor
        // and TP3's mode changes, and no member sets the mode on presence.
        ("G.2", &["S.2", "S.4", "P.12", "P.27"]),
        // S.4: TP3's own switch.off/motion.inactive mode race, reported
        // against O7, whose switch.off handler sets the same mode.
        ("G.3", &["S.1", "S.2", "S.2", "S.2", "S.4", "P.12", "P.13", "P.14", "P.17"]),
        ("MalIoT-G1", &["P.3"]),
        // P.2: App1's own finding (light off on motion) carries into the union.
        ("MalIoT-G2", &["S.1", "P.2"]),
        ("MalIoT-G3", &["P.14"]),
    ];
    let soteria = Soteria::new();
    let apps: Vec<_> = all_market_apps().into_iter().chain(maliot_suite()).collect();
    let groups: Vec<(&str, Vec<&str>)> = market_groups()
        .into_iter()
        .map(|g| (g.id, g.members))
        .chain(maliot_groups().into_iter().map(|(name, members, _)| (name, members)))
        .collect();
    assert_eq!(groups.len(), PINNED.len());
    for ((name, members), (pinned_name, pinned)) in groups.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let members: Vec<AppAnalysis> = members
            .iter()
            .map(|id| {
                let app = apps.iter().find(|a| a.id == *id).expect("member in corpus");
                soteria.analyze_app(&app.id, &app.source).expect("member parses")
            })
            .collect();
        let env = soteria.analyze_environment(name, &members);
        let found: Vec<String> = env.violations.iter().map(|v| v.property.to_string()).collect();
        assert_eq!(found, *pinned, "{name}: verdict differs from the pinned one");
    }
}
