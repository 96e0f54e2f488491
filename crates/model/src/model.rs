//! The finite state model `(Q, Σ, δ)` extracted from an app (Sec. 4.2).

use crate::schema::StateSchema;
use crate::state::{AttrKey, State};
use soteria_analysis::PathCondition;
use soteria_capability::{AttributeValue, Event};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Identifier of a state within a [`StateModel`] (index into `states`).
pub type StateId = usize;

/// A transition label: the triggering event, the guarding path condition, and (in
/// union models) the app the transition comes from — Algorithm 2 labels union edges
/// with the contributing app.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransitionLabel {
    /// The triggering event.
    pub event: Event,
    /// The path condition guarding the transition (trivial when unconditional).
    pub condition: PathCondition,
    /// The app contributing the transition (always set; meaningful in union models).
    pub app: String,
    /// The handler that produced the transition.
    pub handler: String,
    /// True if the transition only exists under the reflection over-approximation.
    pub via_reflection: bool,
}

impl fmt::Display for TransitionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.condition.is_trivial() {
            write!(f, "{}", self.event.kind)
        } else {
            write!(f, "{} [{}]", self.event.kind, self.condition)
        }
    }
}

/// A labelled transition between two states.
///
/// The label is behind an [`Arc`] so that the transitions a union lifts from
/// one compiled edge share one label: each copies two indices and a refcount
/// instead of deep-cloning the label's strings. Equality and hashing still
/// compare the label by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Label (shared, compared by value).
    pub label: Arc<TransitionLabel>,
}

/// A nondeterminism witness: one source state and one event with two feasible
/// transitions to different destinations. The paper reports nondeterministic state
/// models as a safety violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nondeterminism {
    /// Source state.
    pub state: StateId,
    /// The event with conflicting outcomes.
    pub event: Event,
    /// The two conflicting destinations.
    pub targets: (StateId, StateId),
}

/// The finite state model of one app (or of a multi-app environment).
///
/// The state space lives in the interned [`StateSchema`]: a state id and its packed
/// digit vector are interconvertible by index arithmetic, and the builders never
/// materialise state maps. The legacy map view ([`StateModel::states`]) is a lazy
/// projection, materialised in one odometer pass on first use, so consumers that
/// need map states (DOT/SMV rendering, counter-example labels, tests) keep working
/// while construction stays allocation-free.
#[derive(Debug, Clone, Default)]
pub struct StateModel {
    /// Name of the app (or of the app group for union models).
    pub name: String,
    /// The attribute domains defining the state space, keyed by `(handle, attribute)`.
    pub attributes: BTreeMap<AttrKey, Vec<AttributeValue>>,
    /// The interned schema: dense attribute/value ids and mixed-radix strides.
    pub schema: StateSchema,
    /// Lazily materialised legacy map view of the packed state space.
    states: std::sync::OnceLock<Vec<State>>,
    /// Labelled transitions.
    pub transitions: Vec<Transition>,
    /// The designated initial state (every attribute at its default value).
    pub initial: StateId,
}

impl StateModel {
    /// Creates an empty model over the given attribute domains, interning the schema.
    /// The map-state view is not materialised until [`StateModel::states`] is called.
    pub fn with_attributes(
        name: impl Into<String>,
        attributes: BTreeMap<AttrKey, Vec<AttributeValue>>,
    ) -> Self {
        StateModel {
            name: name.into(),
            schema: StateSchema::new(&attributes),
            attributes,
            states: std::sync::OnceLock::new(),
            transitions: Vec::new(),
            initial: 0,
        }
    }

    /// All states (the Cartesian product of the attribute domains) as the legacy map
    /// view, materialised on first call.
    pub fn states(&self) -> &[State] {
        self.states.get_or_init(|| self.schema.materialize_all())
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.schema.state_count()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The number of distinct state attributes (the paper's "state attributes" count
    /// in the multi-app micro-benchmark).
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// Looks up the identifier of a state by packing it against the schema (index
    /// arithmetic instead of the seed's linear scan).
    pub fn state_id(&self, state: &State) -> Option<StateId> {
        let packed = self.schema.pack(state)?;
        Some(self.schema.index_of(&packed))
    }

    /// The state with the given identifier.
    pub fn state(&self, id: StateId) -> &State {
        &self.states()[id]
    }

    /// An index for resolving states to identifiers; kept for callers that still
    /// resolve legacy map states in bulk. New code should prefer
    /// [`StateModel::state_id`], which is pure index arithmetic.
    pub fn state_index(&self) -> HashMap<State, StateId> {
        self.states().iter().cloned().enumerate().map(|(i, s)| (s, i)).collect()
    }

    /// Adds a transition (deduplicated).
    pub fn add_transition(&mut self, transition: Transition) {
        if !self.transitions.contains(&transition) {
            self.transitions.push(transition);
        }
    }

    /// Outgoing transitions of a state.
    pub fn outgoing(&self, state: StateId) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.from == state)
    }

    /// All distinct event labels appearing on transitions (the alphabet Σ).
    pub fn alphabet(&self) -> Vec<String> {
        let mut labels: Vec<String> =
            self.transitions.iter().map(|t| t.label.event.kind.label()).collect();
        labels.sort();
        labels.dedup();
        labels
    }

    /// States reachable from the initial state (following transitions in any order).
    pub fn reachable_from_initial(&self) -> Vec<StateId> {
        let mut visited = vec![false; self.state_count()];
        let mut stack = vec![self.initial];
        visited[self.initial] = true;
        while let Some(s) = stack.pop() {
            for t in self.outgoing(s) {
                if !visited[t.to] {
                    visited[t.to] = true;
                    stack.push(t.to);
                }
            }
        }
        visited
            .iter()
            .enumerate()
            .filter_map(|(i, v)| if *v { Some(i) } else { None })
            .collect()
    }

    /// Detects nondeterminism: a state with two feasible transitions on the same event
    /// (with jointly satisfiable conditions) that lead to different states.
    pub fn nondeterminism(&self) -> Vec<Nondeterminism> {
        let mut found = Vec::new();
        let mut by_state_event: BTreeMap<(StateId, String), Vec<&Transition>> = BTreeMap::new();
        for t in &self.transitions {
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
                    // Conditions that can hold simultaneously make the choice of
                    // successor nondeterministic.
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
}

/// Enumerates the Cartesian product of the attribute domains as concrete states.
///
/// The enumeration order is the schema's mixed-radix id order (first key most
/// significant), which is exactly the order the seed's progressive-cloning
/// implementation produced.
pub fn cartesian_states(attributes: &BTreeMap<AttrKey, Vec<AttributeValue>>) -> Vec<State> {
    StateSchema::new(attributes).materialize_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_capability::EventKind;

    fn two_attr_model() -> StateModel {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            ("sensor".to_string(), "water".to_string()),
            vec![AttributeValue::symbol("dry"), AttributeValue::symbol("wet")],
        );
        attrs.insert(
            ("valve".to_string(), "valve".to_string()),
            vec![AttributeValue::symbol("open"), AttributeValue::symbol("closed")],
        );
        StateModel::with_attributes("Water-Leak-Detector", attrs)
    }

    fn wet_event() -> Event {
        Event::new("sensor", EventKind::device("waterSensor", "water", Some("wet")))
    }

    fn label(event: Event) -> Arc<TransitionLabel> {
        Arc::new(TransitionLabel {
            event,
            condition: PathCondition::top(),
            app: "Water-Leak-Detector".into(),
            handler: "h".into(),
            via_reflection: false,
        })
    }

    #[test]
    fn cartesian_product_of_attributes() {
        let model = two_attr_model();
        // Two binary attributes: four states, as in the paper's Water-Leak-Detector
        // example (Sec. 4.2.1).
        assert_eq!(model.state_count(), 4);
        assert_eq!(model.attribute_count(), 2);
        assert!(model
            .states()
            .iter()
            .any(|s| s.get("sensor", "water") == Some(&AttributeValue::symbol("wet"))
                && s.get("valve", "valve") == Some(&AttributeValue::symbol("closed"))));
    }

    #[test]
    fn transitions_and_reachability() {
        let mut model = two_attr_model();
        let from = model
            .state_id(&State::from_triples([
                ("sensor", "water", AttributeValue::symbol("dry")),
                ("valve", "valve", AttributeValue::symbol("open")),
            ]))
            .unwrap();
        let to = model
            .state_id(&State::from_triples([
                ("sensor", "water", AttributeValue::symbol("wet")),
                ("valve", "valve", AttributeValue::symbol("closed")),
            ]))
            .unwrap();
        model.initial = from;
        model.add_transition(Transition { from, to, label: label(wet_event()) });
        // Duplicate insertion is ignored.
        model.add_transition(Transition { from, to, label: label(wet_event()) });
        assert_eq!(model.transition_count(), 1);
        assert_eq!(model.alphabet(), vec!["water.wet".to_string()]);
        let reachable = model.reachable_from_initial();
        assert!(reachable.contains(&from));
        assert!(reachable.contains(&to));
        assert_eq!(reachable.len(), 2);
        assert_eq!(model.outgoing(from).count(), 1);
    }

    #[test]
    fn nondeterminism_detection() {
        let mut model = two_attr_model();
        let from = 0;
        model.add_transition(Transition { from, to: 1, label: label(wet_event()) });
        model.add_transition(Transition { from, to: 2, label: label(wet_event()) });
        let nd = model.nondeterminism();
        assert_eq!(nd.len(), 1);
        assert_eq!(nd[0].state, from);
        assert_eq!(nd[0].targets, (1, 2));
    }

    #[test]
    fn mutually_exclusive_conditions_are_deterministic() {
        use soteria_analysis::{Atom, SymValue};
        use soteria_lang::BinOp;
        let mut model = two_attr_model();
        let power = SymValue::DeviceAttr { handle: "pm".into(), attribute: "power".into() };
        let mut high = (*label(wet_event())).clone();
        high.condition =
            PathCondition::top().and(Atom::new(power.clone(), BinOp::Gt, SymValue::number(50)));
        let high = Arc::new(high);
        let mut low = (*label(wet_event())).clone();
        low.condition =
            PathCondition::top().and(Atom::new(power, BinOp::Lt, SymValue::number(5)));
        let low = Arc::new(low);
        model.add_transition(Transition { from: 0, to: 1, label: high });
        model.add_transition(Transition { from: 0, to: 2, label: low });
        assert!(model.nondeterminism().is_empty());
    }

    #[test]
    fn empty_attribute_map_gives_single_state() {
        let model = StateModel::with_attributes("empty", BTreeMap::new());
        assert_eq!(model.state_count(), 1);
    }
}
