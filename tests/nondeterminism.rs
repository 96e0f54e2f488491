//! Nondeterminism reporting against the code it replaced.
//!
//! `StateModel::nondeterminism` formats each label allocation's event key once
//! and decides each pair of label allocations' joint feasibility once, and
//! the analyzer formats the witness states' labels from packed digits
//! (`StateModel::state_labeler`). The witnesses, their order and the
//! violation text must stay what the per-transition detector and
//! `State::label` produced. This file keeps a copy of that detector and
//! compares on every corpus app, every reflection-free re-check model and
//! random models whose conditions conflict, overlap and repeat.

use proptest::prelude::*;
use soteria::{IngestedApp, Soteria};
use soteria_analysis::{Atom, PathCondition, SymValue, TransitionSpec};
use soteria_capability::{AttributeValue, Event, EventKind};
use soteria_corpus::{all_market_apps, maliot_suite, running_apps};
use soteria_lang::BinOp;
use soteria_model::{
    build_state_model, BuildOptions, Nondeterminism, StateId, StateModel, Transition,
    TransitionLabel,
};
use soteria_properties::PropertyId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The detector as it was: one formatted key per transition, one
/// feasibility decision per pair.
fn per_transition_nondeterminism(model: &StateModel) -> Vec<Nondeterminism> {
    let mut found = Vec::new();
    let mut by_state_event: BTreeMap<(StateId, String), Vec<&Transition>> = BTreeMap::new();
    for t in &model.transitions {
        by_state_event
            .entry((t.from, format!("{}:{}", t.label.event.handle, t.label.event.kind)))
            .or_default()
            .push(t);
    }
    for ((state, _), transitions) in by_state_event {
        for (i, a) in transitions.iter().enumerate() {
            for b in transitions.iter().skip(i + 1) {
                if a.to == b.to {
                    continue;
                }
                let joint = a.label.condition.and_all(&b.label.condition.atoms);
                if joint.is_feasible() {
                    found.push(Nondeterminism {
                        state,
                        event: a.label.event.clone(),
                        targets: (a.to, b.to),
                    });
                }
            }
        }
    }
    found
}

/// The violation text as the analyzer formatted it through the map view.
fn map_view_description(model: &StateModel, nd: &Nondeterminism) -> String {
    format!(
        "nondeterministic model: event {} from state {} may reach both {} and {}",
        nd.event.kind,
        model.state(nd.state).label(),
        model.state(nd.targets.0).label(),
        model.state(nd.targets.1).label()
    )
}

/// Asserts the detector and the labeler agree with the old code on `model`;
/// returns the witnesses.
fn assert_detector_agrees(context: &str, model: &StateModel) -> Vec<Nondeterminism> {
    let found = model.nondeterminism();
    assert_eq!(found, per_transition_nondeterminism(model), "{context}: witnesses");
    let label = model.state_labeler();
    let witnessed = found.iter().flat_map(|nd| [nd.state, nd.targets.0, nd.targets.1]);
    // Every state of a small model, the witnessed states of any model.
    let states: Vec<StateId> = if model.state_count() <= 512 {
        (0..model.state_count()).chain(witnessed).collect()
    } else {
        witnessed.collect()
    };
    for s in states {
        assert_eq!(label(s), model.state(s).label(), "{context}: label of state {s}");
    }
    found
}

/// The app's model rebuilt without its reflection-only specs, when it has any.
fn reflection_free_model(app: &IngestedApp) -> Option<StateModel> {
    if !app.specs.iter().any(|s| s.via_reflection) {
        return None;
    }
    let kept: Vec<TransitionSpec> =
        app.specs.iter().filter(|s| !s.via_reflection).cloned().collect();
    Some(build_state_model(&app.ir.name, &app.abstraction, &kept, &BuildOptions::default()))
}

#[test]
fn corpus_models_report_the_same_nondeterminism() {
    let soteria = Soteria::new();
    let market = all_market_apps();
    let maliot = maliot_suite();
    let apps: Vec<(&str, &str)> = running_apps()
        .into_iter()
        .chain(market.iter().chain(&maliot).map(|a| (a.id.as_str(), a.source.as_str())))
        .collect();
    assert_eq!(apps.len(), 4 + 65 + 17);
    let (mut witnesses, mut rechecks) = (0, 0);
    for (id, source) in apps {
        let ingested = soteria.ingest_app(id, source).expect("corpus apps parse");
        let found = assert_detector_agrees(id, &ingested.model);
        witnesses += found.len();
        let expected: Vec<String> =
            found.iter().map(|nd| map_view_description(&ingested.model, nd)).collect();
        if let Some(model) = reflection_free_model(&ingested) {
            assert_detector_agrees(&format!("{id} without reflection"), &model);
            rechecks += 1;
        }
        let reported: Vec<String> = soteria
            .verify_app(ingested)
            .violations
            .into_iter()
            .filter(|v| v.property == PropertyId::Determinism)
            .map(|v| v.description)
            .collect();
        assert_eq!(reported, expected, "{id}: determinism violations");
    }
    assert!(witnesses > 0, "some corpus app is nondeterministic");
    assert!(rechecks > 0, "some corpus app has a reflection-free re-check");
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

/// A random model over 1-3 attributes of 1-3 values. Its labels come from a
/// pool mixing events that share a handle (so keys sort across kinds),
/// conditions that conflict, overlap or are trivial, and equal labels in
/// separate allocations; transitions draw from the pool, so allocations
/// repeat across states as the builder's do.
fn random_model(per_state: usize, rng: &mut Rng) -> StateModel {
    let mut attrs = BTreeMap::new();
    for i in 0..1 + rng.below(3) {
        attrs.insert(
            (format!("dev{i}"), if i == 0 { format!("dev{i}") } else { "level".to_string() }),
            (0..1 + rng.below(3)).map(|v| AttributeValue::symbol(format!("v{v}"))).collect(),
        );
    }
    let mut model = StateModel::with_attributes("Random", attrs);
    let events = [
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("wet"))),
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("dry"))),
        Event::new("app", EventKind::AppTouch),
        Event::new("timer", EventKind::Timer { schedule: "sunset".into() }),
    ];
    let power = SymValue::DeviceAttr { handle: "pm".into(), attribute: "power".into() };
    let conditions = [
        PathCondition::top(),
        PathCondition::top().and(Atom::new(power.clone(), BinOp::Gt, SymValue::number(50))),
        PathCondition::top().and(Atom::new(power.clone(), BinOp::Lt, SymValue::number(5))),
        PathCondition::top().and(Atom::new(power, BinOp::Lt, SymValue::number(80))),
    ];
    let mut pool: Vec<Arc<TransitionLabel>> = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let label = TransitionLabel {
            event: events[rng.below(events.len())].clone(),
            condition: conditions[rng.below(conditions.len())].clone(),
            app: "Random".into(),
            handler: format!("h{}", rng.below(2)),
            via_reflection: false,
        };
        if rng.below(3) == 0 {
            pool.push(Arc::new(label.clone()));
        }
        pool.push(Arc::new(label));
    }
    let q = model.state_count();
    for _ in 0..rng.below(per_state * q + 1) {
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
    fn random_models_report_the_same_nondeterminism(
        (per_state, seed) in (0usize..6, 0u32..u32::MAX)
    ) {
        let mut rng = Rng(seed as u64);
        let model = random_model(per_state, &mut rng);
        assert_detector_agrees(&format!("seed {seed}, {per_state} per state"), &model);
    }
}
