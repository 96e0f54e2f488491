//! The seed (pre-interning) model-construction paths, preserved verbatim.
//!
//! These are the original `BTreeMap`-state implementations of the app-model builder
//! and the union algorithm. They are kept for two reasons:
//!
//! * the differential tests (`tests/packed_vs_legacy.rs`) assert that the packed
//!   fast paths in [`crate::builder`] and [`crate::union`] produce semantically
//!   identical models (state counts, transition sets, model-checking verdicts);
//! * the speedup recorded in `BENCH_pr1.json` was measured against exactly the
//!   seed code.
//!
//! Nothing in the production pipeline calls into this module.

use crate::model::{StateModel, Transition, TransitionLabel};
use crate::state::{AttrKey, State};
use crate::{BuildOptions, UnionOptions};
use soteria_analysis::{Abstraction, TransitionSpec};
use soteria_capability::{AttributeValue, EventKind};
use std::collections::{BTreeMap, HashMap};

/// Enumerates the Cartesian product of the attribute domains as concrete states by
/// progressively cloning partial state maps (the seed implementation).
pub fn cartesian_states_legacy(
    attributes: &BTreeMap<AttrKey, Vec<AttributeValue>>,
) -> Vec<State> {
    let keys: Vec<&AttrKey> = attributes.keys().collect();
    let mut states = vec![State::default()];
    for key in keys {
        let values = &attributes[key];
        let mut next = Vec::with_capacity(states.len() * values.len().max(1));
        for state in &states {
            if values.is_empty() {
                next.push(state.clone());
                continue;
            }
            for value in values {
                let mut s = state.clone();
                s.values.insert(key.clone(), value.clone());
                next.push(s);
            }
        }
        states = next;
    }
    states
}

/// Creates a model over the given domains together with the legacy progressively
/// cloned state enumeration (which the packed constructor provably reproduces in the
/// same mixed-radix order, so the returned model's lazy view is identical).
fn model_with_attributes_legacy(
    name: &str,
    attributes: BTreeMap<AttrKey, Vec<AttributeValue>>,
) -> (StateModel, Vec<State>) {
    let states = cartesian_states_legacy(&attributes);
    let model = StateModel::with_attributes(name, attributes);
    (model, states)
}

/// An index for resolving states to identifiers (the seed `state_index`).
fn state_index_legacy(states: &[State]) -> HashMap<State, usize> {
    states.iter().cloned().enumerate().map(|(i, s)| (s, i)).collect()
}

/// Builds the state model of an app over `BTreeMap` states (the seed path).
pub fn build_state_model_legacy(
    name: &str,
    abstraction: &Abstraction,
    specs: &[TransitionSpec],
    options: &BuildOptions,
) -> StateModel {
    let mut attributes: BTreeMap<AttrKey, Vec<AttributeValue>> = abstraction
        .domains
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();

    let product: usize = attributes.values().map(|d| d.len().max(1)).product();
    if options.prune_untouched_attributes || product > options.max_states {
        let touched = crate::builder::touched_keys(specs);
        attributes.retain(|k, _| touched.contains(k));
    }

    let (mut model, states) = model_with_attributes_legacy(name, attributes);
    let index = state_index_legacy(&states);
    let mut new_transitions = Vec::new();
    for (from_id, from_state) in states.iter().enumerate() {
        for spec in specs {
            let mut target = from_state.clone();
            apply_event_update_legacy(&mut target, &model, spec);
            for effect in &spec.effects {
                let key = (effect.handle.clone(), effect.attribute.clone());
                let Some(domain) = model.attributes.get(&key) else { continue };
                let value =
                    abstraction.abstract_value(&effect.handle, &effect.attribute, &effect.value);
                let value = if domain.contains(&value) {
                    value
                } else if let Some(other) =
                    domain.iter().find(|v| v.as_symbol() == Some("other"))
                {
                    other.clone()
                } else {
                    continue;
                };
                target.values.insert(key, value);
            }
            let Some(&to_id) = index.get(&target) else { continue };
            new_transitions.push(Transition {
                from: from_id,
                to: to_id,
                label: std::sync::Arc::new(TransitionLabel {
                    event: spec.event.clone(),
                    condition: spec.condition.clone(),
                    app: name.to_string(),
                    handler: spec.handler.clone(),
                    via_reflection: spec.via_reflection,
                }),
            });
        }
    }
    // The seed deduplicated with a formatted-string key; the behaviour is identical.
    let mut seen = std::collections::HashSet::new();
    for t in new_transitions {
        let key = format!(
            "{}>{}|{}|{}|{}|{}",
            t.from, t.to, t.label.event, t.label.condition, t.label.app, t.label.handler
        );
        if seen.insert(key) {
            model.transitions.push(t);
        }
    }
    model
}

/// Applies the event's own attribute update to the target state (seed logic).
fn apply_event_update_legacy(target: &mut State, model: &StateModel, spec: &TransitionSpec) {
    match &spec.event.kind {
        EventKind::Device { attribute, value: Some(v), .. } => {
            let key = (spec.event.handle.clone(), attribute.clone());
            if let Some(domain) = model.attributes.get(&key) {
                let val = AttributeValue::symbol(v.clone());
                if domain.contains(&val) {
                    target.values.insert(key, val);
                }
            }
        }
        EventKind::Mode { value: Some(m) } => {
            let key = ("location".to_string(), "mode".to_string());
            if let Some(domain) = model.attributes.get(&key) {
                let val = AttributeValue::symbol(m.clone());
                if domain.contains(&val) {
                    target.values.insert(key, val);
                }
            }
        }
        _ => {}
    }
}

/// Builds the union state model by scanning all union states per app transition (the
/// seed Algorithm 2 implementation, O(edges x union states)).
pub fn union_models_legacy(
    name: &str,
    models: &[&StateModel],
    options: &UnionOptions,
) -> StateModel {
    let mut attributes: BTreeMap<AttrKey, Vec<AttributeValue>> = BTreeMap::new();
    for model in models {
        for (key, domain) in &model.attributes {
            let entry = attributes.entry(key.clone()).or_default();
            for v in domain {
                if !entry.contains(v) {
                    entry.push(v.clone());
                }
            }
        }
    }

    let product: usize = attributes.values().map(|d| d.len().max(1)).product();
    if options.prune_untouched_attributes || product > options.max_states {
        let mut touched: Vec<AttrKey> = Vec::new();
        for model in models {
            let states = model.states();
            for t in &model.transitions {
                let from = &states[t.from];
                let to = &states[t.to];
                for (key, value) in &to.values {
                    if from.values.get(key) != Some(value) && !touched.contains(key) {
                        touched.push(key.clone());
                    }
                }
                if let EventKind::Device { attribute, .. } = &t.label.event.kind {
                    let key = (t.label.event.handle.clone(), attribute.clone());
                    if !touched.contains(&key) {
                        touched.push(key);
                    }
                }
                if matches!(t.label.event.kind, EventKind::Mode { .. }) {
                    let key = ("location".to_string(), "mode".to_string());
                    if !touched.contains(&key) {
                        touched.push(key);
                    }
                }
            }
        }
        attributes.retain(|k, _| touched.contains(k));
    }

    let (mut union, union_states) = model_with_attributes_legacy(name, attributes);
    let index = state_index_legacy(&union_states);

    let mut lifted = Vec::new();
    for model in models {
        let states = model.states();
        for t in &model.transitions {
            let v = &states[t.from];
            let u = &states[t.to];
            let delta: Vec<(AttrKey, AttributeValue)> = u
                .values
                .iter()
                .filter(|(key, value)| v.values.get(*key) != Some(*value))
                .map(|(k, val)| (k.clone(), val.clone()))
                .collect();
            let v_proj: Vec<(&AttrKey, &AttributeValue)> = v
                .values
                .iter()
                .filter(|(k, _)| union.attributes.contains_key(*k))
                .collect();
            for (from_id, union_state) in union_states.iter().enumerate() {
                let contains_v =
                    v_proj.iter().all(|(k, val)| union_state.values.get(*k) == Some(*val));
                if !contains_v {
                    continue;
                }
                let mut target = union_state.clone();
                for (key, value) in &delta {
                    if union.attributes.contains_key(key) {
                        target.values.insert(key.clone(), value.clone());
                    }
                }
                let Some(&to_id) = index.get(&target) else { continue };
                lifted.push(Transition {
                    from: from_id,
                    to: to_id,
                    label: std::sync::Arc::new(TransitionLabel {
                        event: t.label.event.clone(),
                        condition: t.label.condition.clone(),
                        app: model.name.clone(),
                        handler: t.label.handler.clone(),
                        via_reflection: t.label.via_reflection,
                    }),
                });
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    for t in lifted {
        let key = format!(
            "{}>{}|{}|{}|{}|{}",
            t.from, t.to, t.label.event, t.label.condition, t.label.app, t.label.handler
        );
        if seen.insert(key) {
            union.transitions.push(t);
        }
    }
    union
}
