//! The Kripke builder against its reference oracle.
//!
//! `Kripke::from_state_model` must build a structure struct-equal to
//! `soteria_checker::kripke::reference::from_state_model` in every field: atom
//! order, state numbering, incoming labels, both CSRs and the naming tables.
//! Counterexample traces and the golden verdicts rely on that. It is checked on
//! every model the corpus pipeline checks, and on random hand-built models that
//! exercise the label classes: equal labels in distinct allocations, one event
//! under two apps, duplicate transitions, deadlocked states and unsorted sources.

use proptest::prelude::*;
use soteria::{IngestedApp, Soteria};
use soteria_bench::{g3_variant_source, G3_EDIT_TOGGLES};
use soteria_analysis::{PathCondition, TransitionSpec};
use soteria_capability::{AttributeValue, Event, EventKind};
use soteria_checker::kripke::reference;
use soteria_checker::Kripke;
use soteria_corpus::{all_market_apps, maliot_groups, maliot_suite, market_groups, CorpusApp};
use soteria_model::{
    build_state_model, union_models, BuildOptions, StateModel, Transition, TransitionLabel,
    UnionOptions,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn assert_matches_reference(context: &str, model: &StateModel) {
    let built = Kripke::from_state_model(model);
    let oracle = reference::from_state_model(model);
    // The cheap public fields first, so a failure names what diverged without
    // printing a whole structure.
    assert_eq!(built.atoms, oracle.atoms, "{context}: atom order");
    assert_eq!(built.model_state, oracle.model_state, "{context}: state numbering");
    assert_eq!(built.incoming_event, oracle.incoming_event, "{context}: incoming events");
    assert_eq!(built.incoming_app, oracle.incoming_app, "{context}: incoming apps");
    assert!(built == oracle, "{context}: structure differs from the reference builder");
}

fn corpus() -> Vec<CorpusApp> {
    all_market_apps().into_iter().chain(maliot_suite()).collect()
}

fn ingest(soteria: &Soteria, id: &str, source: &str) -> IngestedApp {
    soteria.ingest_app(id, source).unwrap_or_else(|e| panic!("{id} failed to parse: {e}"))
}

fn source_of<'a>(apps: &'a [CorpusApp], id: &str) -> &'a str {
    &apps.iter().find(|a| a.id == id).unwrap_or_else(|| panic!("{id} not in the corpus")).source
}

/// The union model of a group, from `(member id, source)` pairs.
fn group_union(soteria: &Soteria, name: &str, members: &[(&str, &str)]) -> StateModel {
    let models: Vec<StateModel> =
        members.iter().map(|(id, source)| ingest(soteria, id, source).model).collect();
    let refs: Vec<&StateModel> = models.iter().collect();
    union_models(name, &refs, &UnionOptions::default())
}

#[test]
fn every_corpus_app_model_matches_the_reference() {
    let soteria = Soteria::new();
    let apps = corpus();
    assert_eq!(apps.len(), 65 + 17);
    for app in &apps {
        assert_matches_reference(&app.id, &ingest(&soteria, &app.id, &app.source).model);
    }
}

#[test]
fn every_corpus_group_union_matches_the_reference() {
    let soteria = Soteria::new();
    let apps = corpus();
    let groups: Vec<(&str, Vec<&str>)> = market_groups()
        .into_iter()
        .map(|g| (g.id, g.members))
        .chain(maliot_groups().into_iter().map(|(name, members, _)| (name, members)))
        .collect();
    assert_eq!(groups.len(), 6, "G.1-G.3 and MalIoT-G1-G3");
    for (name, members) in &groups {
        let members: Vec<(&str, &str)> =
            members.iter().map(|id| (*id, source_of(&apps, id))).collect();
        assert_matches_reference(name, &group_union(&soteria, name, &members));
    }
}

/// The model App5's possible false positives are re-checked on: its own model
/// rebuilt without the reflection-only specs.
#[test]
fn app5_reflection_free_recheck_model_matches_the_reference() {
    let soteria = Soteria::new();
    let app5 = ingest(&soteria, "App5", source_of(&maliot_suite(), "App5"));
    let kept: Vec<TransitionSpec> =
        app5.specs.iter().filter(|s| !s.via_reflection).cloned().collect();
    assert!(kept.len() < app5.specs.len(), "App5 has reflection-only specs");
    let options = BuildOptions::default();
    let model = build_state_model(&app5.ir.name, &app5.abstraction, &kept, &options);
    assert_matches_reference("App5 without reflection", &model);
}

/// The same-domain edits the benchmark's update stream makes to G.3 members:
/// every toggle subset of TP21 and TP22, each in the otherwise unchanged G.3.
/// Each edited union's structure matches the reference.
#[test]
fn g3_edit_variants_match_the_reference() {
    let soteria = Soteria::new();
    let apps = all_market_apps();
    let g3 = market_groups().into_iter().find(|g| g.id == "G.3").expect("G.3");
    for &(member, toggles) in G3_EDIT_TOGGLES {
        assert!(g3.members.contains(&member), "{member} is a G.3 member");
        for mask in 1u32..1 << toggles.len() {
            let edited = g3_variant_source(member, source_of(&apps, member), mask);
            let members: Vec<(&str, &str)> = g3
                .members
                .iter()
                .map(|id| (*id, if *id == member { edited.as_str() } else { source_of(&apps, id) }))
                .collect();
            let union = group_union(&soteria, "G.3", &members);
            let context = format!("G.3 with {member} variant {mask}");
            assert_matches_reference(&context, &union);
        }
    }
}

/// Two events whose kinds differ but render the same label (`timer`), a device
/// event, and app touch: the label pool the hand-built models draw from.
fn event_pool() -> Vec<Event> {
    vec![
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("wet"))),
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("dry"))),
        Event::new("app", EventKind::AppTouch),
        Event::new("timer", EventKind::Timer { schedule: "sunset".into() }),
        Event::new("timer", EventKind::Timer { schedule: "every 5 minutes".into() }),
        Event::new("location", EventKind::Mode { value: Some("away".into()) }),
    ]
}

fn label(event: &Event, app: &str, handler: &str) -> Arc<TransitionLabel> {
    Arc::new(TransitionLabel {
        event: event.clone(),
        condition: PathCondition::top(),
        app: app.into(),
        handler: handler.into(),
        via_reflection: false,
    })
}

/// A model over `domains[i]` values of attribute `i`, with no transitions.
fn empty_model(domains: &[usize]) -> StateModel {
    let mut attrs = BTreeMap::new();
    for (i, &width) in domains.iter().enumerate() {
        attrs.insert(
            (format!("dev{i}"), "attr".to_string()),
            (0..width).map(|v| AttributeValue::symbol(format!("v{v}"))).collect(),
        );
    }
    StateModel::with_attributes("Hand", attrs)
}

/// Every trap at once, in a fixed model: labels first seen out of pool order,
/// equal labels in two allocations, one event under two apps, two event kinds
/// with one rendered label, a duplicate transition, sources out of order, and
/// states nothing leaves.
#[test]
fn hand_built_model_with_every_trap_matches_the_reference() {
    let events = event_pool();
    let mut model = empty_model(&[2, 3]);
    let wet_a = label(&events[0], "A", "h1");
    let wet_a_again = label(&events[0], "A", "h1");
    let wet_b = label(&events[0], "B", "h2");
    let sunset = label(&events[3], "A", "h3");
    let every = label(&events[4], "A", "h4");
    let touch = label(&events[2], "B", "h5");
    for (from, to, l) in [
        (4, 1, &touch),
        (2, 1, &wet_a),
        (0, 1, &wet_a_again),
        (3, 1, &wet_b),
        (3, 1, &wet_b),
        (1, 5, &sunset),
        (0, 5, &every),
        (5, 2, &wet_a),
        (2, 2, &touch),
    ] {
        model.transitions.push(Transition { from, to, label: l.clone() });
    }
    assert_matches_reference("hand-built", &model);
    let kripke = Kripke::from_state_model(&model);
    // 6 quiescent states; event states (1, touch@B), (1, water.wet@A),
    // (1, water.wet@B), (5, timer@A), (2, water.wet@A), (2, touch@B).
    assert_eq!(kripke.state_count(), 12);
    // State 3 has only the duplicated transition: one successor after dedup.
    assert_eq!(kripke.successors(3).len(), 1);
}

/// A splitmix64 stream, seeded per proptest case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// A random model: 1-3 attributes of 1-3 values, and up to 3 transitions per
/// state drawn from a pool of 1-2 allocations per `(event, app)` pair, in
/// random source order, with occasional exact duplicates.
fn random_model(transitions_per_state: usize, seed: u32) -> StateModel {
    let mut rng = Rng(seed as u64);
    let domains: Vec<usize> = (0..1 + rng.below(3)).map(|_| 1 + rng.below(3)).collect();
    let mut model = empty_model(&domains);
    let mut pool: Vec<Arc<TransitionLabel>> = Vec::new();
    for event in event_pool() {
        for app in ["A", "B"] {
            for copy in 0..1 + rng.below(2) {
                pool.push(label(&event, app, &format!("h{copy}")));
            }
        }
    }
    let q = model.state_count();
    for _ in 0..rng.below(transitions_per_state * q + 1) {
        let transition = Transition {
            from: rng.below(q),
            to: rng.below(q),
            label: pool[rng.below(pool.len())].clone(),
        };
        if rng.below(4) == 0 {
            model.transitions.push(transition.clone());
        }
        model.transitions.push(transition);
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_models_match_the_reference((per_state, seed) in (0usize..4, 0u32..u32::MAX)) {
        let model = random_model(per_state, seed);
        assert_matches_reference(&format!("seed {seed}, {per_state} per state"), &model);
    }
}
