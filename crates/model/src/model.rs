//! The finite state model `(Q, Σ, δ)` extracted from an app (Sec. 4.2).

use crate::schema::{AttrId, StateSchema};
use crate::state::{label_fragment, AttrKey, State};
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

/// The transitions of a model grouped by source state, built with one counting
/// sort over [`StateModel::transitions`]. Each group lists indices into the
/// transition list in list order, so walking a state's group visits its
/// transitions in the order [`StateModel::outgoing`] does, without scanning the
/// whole list per state.
#[derive(Debug, Clone)]
pub struct SourceIndex {
    /// `order[offsets[s]..offsets[s + 1]]` is state `s`'s group.
    offsets: Vec<u32>,
    /// Transition indices, grouped by source.
    order: Vec<u32>,
}

impl SourceIndex {
    /// Indexes `model`'s transitions by source.
    pub fn new(model: &StateModel) -> SourceIndex {
        let q = model.state_count();
        let count = model.transitions.len();
        debug_assert!(count <= u32::MAX as usize, "transition list exceeds u32 indexing");
        // Inclusive prefix sums of the per-source counts leave `offsets[s]` at the
        // end of group `s`; filling back to front walks each one down to its start.
        let mut offsets = vec![0u32; q + 1];
        for t in &model.transitions {
            offsets[t.from] += 1;
        }
        let mut acc = 0u32;
        for slot in &mut offsets {
            acc += *slot;
            *slot = acc;
        }
        let mut order = vec![0u32; count];
        for (i, t) in model.transitions.iter().enumerate().rev() {
            offsets[t.from] -= 1;
            order[offsets[t.from] as usize] = i as u32;
        }
        SourceIndex { offsets, order }
    }

    /// Indices into the model's transition list of the transitions leaving
    /// `state`, in list order.
    pub fn outgoing(&self, state: StateId) -> &[u32] {
        &self.order[self.offsets[state] as usize..self.offsets[state + 1] as usize]
    }

    /// Which states `from` reaches in `model` (the model this index was built
    /// from), `from` included, as a mask over the state universe.
    pub fn reachable_mask(&self, model: &StateModel, from: StateId) -> Vec<bool> {
        let mut visited = vec![false; self.offsets.len() - 1];
        let mut stack = vec![from];
        visited[from] = true;
        while let Some(s) = stack.pop() {
            for &t in self.outgoing(s) {
                let to = model.transitions[t as usize].to;
                if !visited[to] {
                    visited[to] = true;
                    stack.push(to);
                }
            }
        }
        visited
    }
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

    /// Which states the initial state reaches (itself included), as a mask over
    /// the state universe.
    pub fn reachable_mask(&self) -> Vec<bool> {
        SourceIndex::new(self).reachable_mask(self, self.initial)
    }

    /// States reachable from the initial state, in ascending order.
    pub fn reachable_from_initial(&self) -> Vec<StateId> {
        let mask = self.reachable_mask();
        (0..mask.len()).filter(|&s| mask[s]).collect()
    }

    /// Formats state labels ([`State::label`]) from packed state ids, without
    /// materialising the map view: each `(attribute, value)` fragment is
    /// formatted once, when the labeler is made.
    pub fn state_labeler(&self) -> impl Fn(StateId) -> String + '_ {
        let schema = &self.schema;
        let fragments: Vec<Vec<String>> = schema
            .keys()
            .iter()
            .enumerate()
            .map(|(a, (handle, attribute))| {
                let domain = schema.domain(a as AttrId);
                domain.iter().map(|v| label_fragment(handle, attribute, v)).collect()
            })
            .collect();
        move |id| {
            let parts: Vec<&str> = fragments
                .iter()
                .enumerate()
                .map(|(a, f)| f[schema.digit_of(id, a as AttrId) as usize].as_str())
                .collect();
            format!("[{}]", parts.join(", "))
        }
    }

    /// Detects nondeterminism: a state with two feasible transitions on the same event
    /// (with jointly satisfiable conditions) that lead to different states.
    ///
    /// Witnesses come in order of source state, then `handle:kind` event key
    /// (as strings), then transition-list order of the pair. Each label
    /// allocation's key is formatted once, and the joint feasibility of two
    /// conditions is decided once per pair of label allocations: the builder
    /// shares one label per spec across every state.
    pub fn nondeterminism(&self) -> Vec<Nondeterminism> {
        let mut found = Vec::new();
        // Each label allocation's key, as an index into the distinct keys.
        let mut key_of: HashMap<*const TransitionLabel, usize> = HashMap::new();
        let mut key_index: HashMap<String, usize> = HashMap::new();
        let keys: Vec<usize> = self
            .transitions
            .iter()
            .map(|t| {
                *key_of.entry(Arc::as_ptr(&t.label)).or_insert_with(|| {
                    let key = format!("{}:{}", t.label.event.handle, t.label.event.kind);
                    let next = key_index.len();
                    *key_index.entry(key).or_insert(next)
                })
            })
            .collect();
        // Rank the distinct keys as strings, so groups come in the order of a
        // map keyed by `(state, key string)`.
        let mut sorted: Vec<(&String, usize)> = key_index.iter().map(|(k, &i)| (k, i)).collect();
        sorted.sort_unstable();
        let mut rank = vec![0usize; sorted.len()];
        for (r, (_, i)) in sorted.into_iter().enumerate() {
            rank[i] = r;
        }
        // A stable sort keeps list order within each `(state, key)` group.
        let mut order: Vec<usize> = (0..self.transitions.len()).collect();
        order.sort_by_key(|&i| (self.transitions[i].from, rank[keys[i]]));
        let mut feasible: HashMap<(*const TransitionLabel, *const TransitionLabel), bool> =
            HashMap::new();
        for group in order.chunk_by(|&i, &j| {
            (self.transitions[i].from, keys[i]) == (self.transitions[j].from, keys[j])
        }) {
            for (n, &i) in group.iter().enumerate() {
                let a = &self.transitions[i];
                for &j in &group[n + 1..] {
                    let b = &self.transitions[j];
                    if a.to == b.to {
                        continue;
                    }
                    // Conditions that can hold simultaneously make the choice of
                    // successor nondeterministic.
                    let pair = (Arc::as_ptr(&a.label), Arc::as_ptr(&b.label));
                    let joint = *feasible.entry(pair).or_insert_with(|| {
                        a.label.condition.and_all(&b.label.condition.atoms).is_feasible()
                    });
                    if joint {
                        found.push(Nondeterminism {
                            state: a.from,
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
