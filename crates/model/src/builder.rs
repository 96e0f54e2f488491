//! Builds the state model of one app from its IR, transition specifications, and
//! property abstraction (Sec. 4.2.1–4.2.2).

use crate::model::{StateModel, Transition, TransitionLabel};
use crate::schema::{AttrId, StateSchema, ValueId};
use crate::state::AttrKey;
use soteria_analysis::{Abstraction, PathCondition, TransitionSpec};
use soteria_capability::{AttributeValue, Event, EventKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Options controlling model construction.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Hard cap on the number of materialised states. A product above it drops
    /// the attributes that no transition reads (as an event) or writes (as an
    /// effect); below it, models keep every attribute so state counts match the
    /// Cartesian-product definition.
    pub max_states: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { max_states: 60_000 }
    }
}

/// Builds the state model of an app.
///
/// * `name` — app name used in labels.
/// * `abstraction` — attribute domains after property abstraction.
/// * `specs` — the app's transition specifications from the symbolic executor.
pub fn build_state_model(
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

    let product = attributes.values().fold(1usize, |acc, d| acc.saturating_mul(d.len().max(1)));
    if product > options.max_states {
        let touched = touched_keys(specs);
        attributes.retain(|k, _| touched.contains(k));
    }

    let mut model = StateModel::with_attributes(name, attributes);

    // Compile every spec once against the interned schema: the attribute updates a
    // spec performs are state-independent, so each becomes a short list of
    // `(attribute id, value digit)` writes plus a ready-made label. The per-state
    // loop below is then pure digit arithmetic.
    let mut interner = LabelInterner::default();
    let compiled: Vec<CompiledSpec> = specs
        .iter()
        .map(|spec| compile_spec(spec, name, abstraction, &model.schema, &mut interner))
        .collect();

    let schema = &model.schema;
    let mut digits = vec![0u8; schema.attr_count()];
    let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut transitions = Vec::new();
    for from_id in 0..schema.state_count() {
        for c in &compiled {
            // `to = from + Σ (new_digit − old_digit) · stride`: the mixed-radix
            // equivalent of writing the update into a cloned state map.
            let mut to_id = from_id;
            for &(attr, digit) in &c.updates {
                to_id = to_id + digit as usize * schema.stride(attr)
                    - digits[attr as usize] as usize * schema.stride(attr);
            }
            if seen.insert((from_id, to_id, c.class)) {
                transitions.push(Transition { from: from_id, to: to_id, label: c.label.clone() });
            }
        }
        schema.advance(&mut digits);
    }
    model.transitions = transitions;
    model
}

/// A transition spec compiled against a schema: the final digit written to each
/// updated attribute (event update first, then effects, later writes overriding
/// earlier ones — the same overwrite order the seed applied to state maps).
struct CompiledSpec {
    updates: Vec<(AttrId, ValueId)>,
    label: std::sync::Arc<TransitionLabel>,
    class: usize,
}

/// Interns transition-label identities so deduplication compares three integers
/// instead of formatting a string per transition (the seed's `format!` key).
#[derive(Default)]
pub(crate) struct LabelInterner {
    classes: HashMap<(Event, PathCondition, String, String), usize>,
}

impl LabelInterner {
    /// The dense equivalence class of a label's `(event, condition, app, handler)`
    /// identity — `via_reflection` is deliberately excluded, matching the seed's
    /// dedup key.
    pub(crate) fn class_of(
        &mut self,
        event: &Event,
        condition: &PathCondition,
        app: &str,
        handler: &str,
    ) -> usize {
        let next = self.classes.len();
        *self
            .classes
            .entry((event.clone(), condition.clone(), app.to_string(), handler.to_string()))
            .or_insert(next)
    }
}

fn compile_spec(
    spec: &TransitionSpec,
    app: &str,
    abstraction: &Abstraction,
    schema: &StateSchema,
    interner: &mut LabelInterner,
) -> CompiledSpec {
    let mut updates: Vec<(AttrId, ValueId)> = Vec::new();
    let mut write = |attr: AttrId, digit: ValueId| {
        if let Some(slot) = updates.iter_mut().find(|(a, _)| *a == attr) {
            slot.1 = digit;
        } else {
            updates.push((attr, digit));
        }
    };

    // The triggering event updates the subscribed attribute itself (e.g. the water
    // sensor turns wet when the water.wet event fires).
    match &spec.event.kind {
        EventKind::Device { attribute, value: Some(v), .. } => {
            let key = (spec.event.handle.clone(), attribute.clone());
            if let Some(attr) = schema.attr_id(&key) {
                if let Some(digit) = schema.value_id(attr, &AttributeValue::symbol(v.clone())) {
                    write(attr, digit);
                }
            }
        }
        EventKind::Mode { value: Some(m) } => {
            let key = ("location".to_string(), "mode".to_string());
            if let Some(attr) = schema.attr_id(&key) {
                if let Some(digit) = schema.value_id(attr, &AttributeValue::symbol(m.clone())) {
                    write(attr, digit);
                }
            }
        }
        _ => {}
    }
    // The handler's effects update the actuated attributes, falling back to the
    // abstraction's `other` bucket for values outside the domain.
    for effect in &spec.effects {
        let key = (effect.handle.clone(), effect.attribute.clone());
        let Some(attr) = schema.attr_id(&key) else { continue };
        let value = abstraction.abstract_value(&effect.handle, &effect.attribute, &effect.value);
        let digit = schema.value_id(attr, &value).or_else(|| {
            schema
                .domain(attr)
                .iter()
                .position(|v| v.as_symbol() == Some("other"))
                .map(|i| i as ValueId)
        });
        if let Some(digit) = digit {
            write(attr, digit);
        }
    }

    CompiledSpec {
        updates,
        label: std::sync::Arc::new(TransitionLabel {
            event: spec.event.clone(),
            condition: spec.condition.clone(),
            app: app.to_string(),
            handler: spec.handler.clone(),
            via_reflection: spec.via_reflection,
        }),
        class: interner.class_of(&spec.event, &spec.condition, app, &spec.handler),
    }
}

/// Attribute keys referenced by any transition spec, either as the subscribed event's
/// attribute or as an effect target.
pub fn touched_keys(specs: &[TransitionSpec]) -> Vec<AttrKey> {
    let mut keys = Vec::new();
    for spec in specs {
        if let EventKind::Device { attribute, .. } = &spec.event.kind {
            keys.push((spec.event.handle.clone(), attribute.clone()));
        }
        if matches!(spec.event.kind, EventKind::Mode { .. }) {
            keys.push(("location".to_string(), "mode".to_string()));
        }
        for e in &spec.effects {
            keys.push((e.handle.clone(), e.attribute.clone()));
        }
        for atom in &spec.condition.atoms {
            for side in [&atom.lhs, &atom.rhs] {
                if let soteria_analysis::SymValue::DeviceAttr { handle, attribute } = side {
                    keys.push((handle.clone(), attribute.clone()));
                }
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_analysis::{abstract_domains, AnalysisConfig, SymbolicExecutor};
    use soteria_capability::CapabilityRegistry;
    use soteria_ir::AppIr;

    const WATER_LEAK: &str = r#"
        definition(name: "Water-Leak-Detector")
        preferences {
            section("When there's water detected...") {
                input "water_sensor", "capability.waterSensor", title: "Where?"
                input "valve_device", "capability.valve", title: "Valve device"
            }
        }
        def installed() {
            subscribe(water_sensor, "water.wet", waterWetHandler)
        }
        def waterWetHandler(evt) {
            valve_device.close()
        }
    "#;

    fn build(src: &str) -> StateModel {
        let registry = CapabilityRegistry::standard();
        let ir = AppIr::from_source("app", src, &registry).unwrap();
        let exec = SymbolicExecutor::new(&ir, &registry, AnalysisConfig::paper());
        let specs = exec.transition_specs();
        let abstraction = abstract_domains(&ir, &registry, &specs);
        build_state_model(&ir.name, &abstraction, &specs, &BuildOptions::default())
    }

    #[test]
    fn water_leak_detector_has_four_states_and_closing_transitions() {
        let model = build(WATER_LEAK);
        // Two binary attributes -> four states (paper Sec. 4.2.1).
        assert_eq!(model.state_count(), 4);
        // Every state has a water.wet transition into the wet/closed state.
        assert_eq!(model.transition_count(), 4);
        let wet_closed = model
            .states()
            .iter()
            .position(|s| {
                s.get("water_sensor", "water") == Some(&AttributeValue::symbol("wet"))
                    && s.get("valve_device", "valve") == Some(&AttributeValue::symbol("closed"))
            })
            .unwrap();
        assert!(model.transitions.iter().all(|t| t.to == wet_closed));
        assert!(model.nondeterminism().is_empty());
    }

    #[test]
    fn smoke_alarm_transitions_follow_event_value() {
        let src = r#"
            definition(name: "Smoke-Alarm")
            preferences { section("d") {
                input "smoke_detector", "capability.smokeDetector"
                input "the_alarm", "capability.alarm"
            } }
            def installed() { subscribe(smoke_detector, "smoke", h) }
            def h(evt) {
                if (evt.value == "detected") { the_alarm.siren() }
                if (evt.value == "clear") { the_alarm.off() }
            }
        "#;
        let model = build(src);
        // smoke {clear, detected, tested} × alarm {off, siren, strobe, both} = 12.
        assert_eq!(model.state_count(), 12);
        // From the initial state (clear/off), the "detected" path moves to a state
        // with the alarm sounding.
        let initial = model.initial;
        let siren_successor = model.outgoing(initial).any(|t| {
            model.state(t.to).get("the_alarm", "alarm") == Some(&AttributeValue::symbol("siren"))
        });
        assert!(siren_successor);
    }

    #[test]
    fn pruning_drops_untouched_attributes() {
        let src = r#"
            definition(name: "Pruned")
            preferences { section("d") {
                input "sw", "capability.switch"
                input "unused_lock", "capability.lock"
                input "m", "capability.motionSensor"
            } }
            def installed() { subscribe(m, "motion.active", h) }
            def h(evt) { sw.on() }
        "#;
        let registry = CapabilityRegistry::standard();
        let ir = AppIr::from_source("app", src, &registry).unwrap();
        let exec = SymbolicExecutor::new(&ir, &registry, AnalysisConfig::paper());
        let specs = exec.transition_specs();
        let abstraction = abstract_domains(&ir, &registry, &specs);
        let full = build_state_model(&ir.name, &abstraction, &specs, &BuildOptions::default());
        let pruned = build_state_model(
            &ir.name,
            &abstraction,
            &specs,
            &BuildOptions { max_states: 0 },
        );
        assert_eq!(full.state_count(), 8); // switch × lock × motion
        assert_eq!(pruned.state_count(), 4); // switch × motion
        assert!(pruned.attributes.keys().all(|(h, _)| h != "unused_lock"));
    }

    #[test]
    fn touched_keys_include_condition_subjects() {
        let src = r#"
            definition(name: "Energy")
            preferences { section("d") {
                input "the_switch", "capability.switch"
                input "power_meter", "capability.powerMeter"
            } }
            def installed() { subscribe(power_meter, "power", handler) }
            def handler(evt) {
                if (power_meter.currentValue("power") > 50) { the_switch.off() }
            }
        "#;
        let registry = CapabilityRegistry::standard();
        let ir = AppIr::from_source("app", src, &registry).unwrap();
        let exec = SymbolicExecutor::new(&ir, &registry, AnalysisConfig::paper());
        let specs = exec.transition_specs();
        let keys = touched_keys(&specs);
        assert!(keys.contains(&("power_meter".to_string(), "power".to_string())));
        assert!(keys.contains(&("the_switch".to_string(), "switch".to_string())));
    }
}
