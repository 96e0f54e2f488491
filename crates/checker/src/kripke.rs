//! Kripke structures derived from state models (Sec. 5, "Model Checking with NuSMV").
//!
//! The translation makes every transition label observable as an atomic proposition:
//! a Kripke state is a pair of a model state and the event that produced it, so
//! properties of the form "when event E occurs, X must hold" become `AG(event_E → X)`
//! (the paper's `water.wet → AX valve.on` example).
//!
//! Labelling is stored column-wise: for every atom a [`BitSet`] row over the state
//! universe. `Ctl::Atom` satisfaction in the checker is then a single row clone, and
//! atom lookup goes through a `HashMap` built once at construction instead of the
//! seed's linear scan per query. Attribute propositions are precomputed per
//! `(attribute id, value digit)` pair of the model's interned schema, so building the
//! structure formats each proposition string once rather than once per state.
//!
//! The transition relation is stored once, in compressed-sparse-row (CSR) form:
//! [`Kripke::successors`] indexes a flat `u32` target array through a per-state
//! offset array. The invariant search, its counterexample parent chain and the
//! oracle engine's per-checker predecessor lists all read that one array. There
//! is no reverse CSR: nothing on a production path walks edges backwards.
//!
//! State names are lazy: construction records only `(model state, incoming event)`
//! per Kripke state plus one label fragment per `(attribute, value)` pair of the
//! schema; the human-readable `"[attr=value, ...] after event"` string is formatted
//! by [`Kripke::state_name`] only when a counterexample trace (or an export) asks
//! for it, instead of eagerly for every state during construction.
//!
//! One builder makes every structure, and it never renders a label per
//! transition: each transition's `(event label, app)` resolves to a small
//! *label class* id once per label allocation, event states are keyed on a
//! packed `(destination, class)` integer, label rows are written directly, and
//! the CSR is emitted from per-model-state target groups read off a
//! counting-sorted [`SourceIndex`]. It has two entry points, which number
//! states in the same order: [`Kripke::reachable_from_state_model`], which
//! every production check uses, builds what the quiescent state of
//! `model.initial` reaches (market G.3 reaches 78 of its 46,944 Kripke
//! states), and [`Kripke::from_state_model`] builds the full structure, what
//! every quiescent state reaches. The full structure is struct-equal to the
//! independent builder in [`reference`], which only tests call.

use crate::bitset::BitSet;
use soteria_model::{SourceIndex, StateId, StateModel, TransitionLabel};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

#[doc(hidden)]
#[path = "kripke_reference.rs"]
pub mod reference;

/// A Kripke structure: states labelled with atomic propositions and a total
/// transition relation stored as successor CSR arrays.
///
/// `PartialEq` compares every field (atoms, labelling rows, the CSR arrays,
/// naming data); two equal structures are interchangeable for checking, which
/// is what the struct-equality gates of [`Kripke::from_state_model`] against
/// [`reference::from_state_model`] rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Kripke {
    /// The atomic-proposition universe.
    pub atoms: Vec<String>,
    /// Initial states.
    pub initial: Vec<usize>,
    /// The underlying model state of each Kripke state.
    pub model_state: Vec<StateId>,
    /// The event label (if any) that produced each Kripke state. Shared
    /// (`Arc<str>`) per label class, so a class's event states hold refcount
    /// bumps instead of tens of thousands of string allocations.
    pub incoming_event: Vec<Option<Arc<str>>>,
    /// CSR offsets into `succ_targets`: the successors of state `s` are
    /// `succ_targets[succ_offsets[s]..succ_offsets[s + 1]]`.
    succ_offsets: Vec<u32>,
    /// Flat successor array (edges, sorted per source).
    succ_targets: Vec<u32>,
    /// Explicit per-state names for hand-built structures (tests, fuzzing); empty
    /// for model-derived structures, whose names are derived lazily.
    name_override: Vec<String>,
    /// Per `(attribute, value digit)` label fragment (`"handle=value"` or
    /// `"handle.attribute=value"`), used to format state names on demand.
    name_fragments: Vec<Vec<String>>,
    /// Mixed-radix strides of the model's schema, for recovering value digits from a
    /// model-state id without keeping the schema alive.
    name_strides: Vec<usize>,
    /// Atom name -> index, built once at construction.
    pub(crate) atom_lookup: HashMap<String, usize>,
    /// For each atom, the set of states where it holds, packed as a bitset row over
    /// the state universe.
    pub(crate) atom_rows: Vec<BitSet>,
}

impl Kripke {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.model_state.len()
    }

    /// Number of (forward) edges.
    pub fn edge_count(&self) -> usize {
        self.succ_targets.len()
    }

    /// The successors of one state (CSR slice).
    pub fn successors(&self, state: usize) -> &[u32] {
        &self.succ_targets[self.succ_offsets[state] as usize..self.succ_offsets[state + 1] as usize]
    }

    /// Index of an atom, if it exists in the universe (hash lookup, not a scan).
    pub fn atom_index(&self, atom: &str) -> Option<usize> {
        self.atom_lookup.get(atom).copied()
    }

    /// The bitset row of one atom: the set of states where it holds.
    pub fn atom_row(&self, atom: usize) -> &BitSet {
        &self.atom_rows[atom]
    }

    /// True if the atom holds in the state.
    pub fn holds(&self, state: usize, atom: &str) -> bool {
        match self.atom_index(atom) {
            Some(i) => self.atom_rows[i].contains(state),
            None => false,
        }
    }

    /// All atoms holding in one state.
    pub fn atoms_of(&self, state: usize) -> Vec<&str> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| self.atom_rows[*i].contains(state))
            .map(|(_, a)| a.as_str())
            .collect()
    }

    /// The human-readable name of one state, formatted on demand: the model state's
    /// attribute valuation, suffixed with `" after {event}"` for event states.
    pub fn state_name(&self, state: usize) -> String {
        if !self.name_override.is_empty() {
            return self.name_override[state].clone();
        }
        let id = self.model_state[state];
        let parts: Vec<&str> = self
            .name_fragments
            .iter()
            .zip(&self.name_strides)
            .map(|(fragments, stride)| {
                let digit = (id / stride) % fragments.len().max(1);
                fragments[digit].as_str()
            })
            .collect();
        let base = format!("[{}]", parts.join(", "));
        match &self.incoming_event[state] {
            Some(event) => format!("{base} after {event}"),
            None => base,
        }
    }

    /// Installs the labelling from per-state atom-index lists, (re)building the atom
    /// rows and the atom lookup. The state universe is `per_state.len()`.
    pub fn set_labels(&mut self, per_state: &[Vec<usize>]) {
        let n = per_state.len();
        self.atom_lookup =
            self.atoms.iter().enumerate().map(|(i, a)| (a.clone(), i)).collect();
        self.atom_rows = vec![BitSet::empty(n); self.atoms.len()];
        for (state, atoms) in per_state.iter().enumerate() {
            for &atom in atoms {
                self.atom_rows[atom].insert(state);
            }
        }
    }

    /// Builds a hand-specified Kripke structure from per-state successor lists, with
    /// explicit state names. Used by tests and the differential fuzzer; call
    /// [`Kripke::set_labels`] afterwards to install the atom labelling. Duplicate
    /// successors collapse, and a state with none gets a self-loop.
    pub fn from_lists(
        atoms: Vec<String>,
        names: Vec<String>,
        successor_lists: &[Vec<usize>],
        initial: Vec<usize>,
    ) -> Kripke {
        let n = successor_lists.len();
        assert_eq!(names.len(), n, "one name per state");
        let mut kripke = Kripke {
            atoms,
            initial,
            incoming_event: vec![None; n],
            name_override: names,
            ..Kripke::default()
        };
        // `model_state` is the identity, so each state is its own target group.
        let mut group_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        group_offsets.push(0);
        let mut grouped: Vec<u32> = Vec::new();
        for succs in successor_lists {
            grouped.extend(succs.iter().map(|&to| to as u32));
            group_offsets.push(grouped.len() as u32);
        }
        sort_dedup_groups(&mut group_offsets, &mut grouped);
        let identity: Vec<usize> = (0..n).collect();
        kripke.set_transitions_grouped(&identity, &group_offsets, &grouped);
        kripke.model_state = identity;
        kripke
    }

    /// Builds the Kripke structure of a state model.
    ///
    /// Kripke states are `(model state, incoming transition label)` pairs: one
    /// "quiescent" state per model state (no incoming event), all of them
    /// initial, plus one state per distinct `(destination, event, app)`
    /// combination among the transitions, numbered in order of first
    /// occurrence. Every Kripke state over model state `m` steps to the event
    /// states of `m`'s outgoing transitions: the one builder's fragment reached
    /// from every quiescent state.
    pub fn from_state_model(model: &StateModel) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        let roots: Vec<StateId> = (0..model.state_count()).collect();
        build(model, &SourceIndex::new(model), &roots, &vec![true; roots.len()])
    }

    /// Builds the part of [`Kripke::from_state_model`]'s structure that the
    /// quiescent state of `model.initial` reaches, with that state as the only
    /// initial state. A CTL formula's value at a state depends only on the
    /// states it reaches, so every check on the fragment gives the verdict of
    /// the full structure with the same initial state.
    ///
    /// Work beyond the one source index and one scan of the transition list
    /// is proportional to the fragment. An atom that labels only unreachable
    /// states is absent, which the checker reads as false everywhere, as it is
    /// on the fragment of the full structure.
    pub fn reachable_from_state_model(model: &StateModel) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        let index = SourceIndex::new(model);
        let reached = index.reachable_mask(model, model.initial);
        build(model, &index, &[model.initial], &reached)
    }

    /// Always `None`: the caller falls back to a scratch build, because
    /// [`Kripke::from_state_model`] is faster than splicing one member's edit
    /// into `base`. Kept only for the benchmark's replay
    /// (`perfbench/harness/src/replay.rs`), which still calls it.
    #[doc(hidden)]
    pub fn from_state_model_delta(
        _base: &Kripke,
        _model: &StateModel,
        _changed_app: &str,
    ) -> Option<(Kripke, bool)> {
        None
    }

    /// Installs the transition relation from a flat CSR of target lists
    /// (`grouped[group_offsets[g]..group_offsets[g + 1]]` is group `g`'s sorted,
    /// deduplicated target list); Kripke state `s` gets group `state_group[s]`
    /// as its successors, and there are `state_group.len()` states. This is
    /// the one CSR emitter: iterating sources in ascending order with ascending
    /// targets per source *is* the globally sorted edge order, so no edge-list
    /// sort is needed, and the arrays match the reference builder's sort-based
    /// emitter. A state whose group is empty gets a totalising self-loop.
    fn set_transitions_grouped(
        &mut self,
        state_group: &[usize],
        group_offsets: &[u32],
        grouped: &[u32],
    ) {
        let n = state_group.len();
        assert!(n <= u32::MAX as usize, "state universe exceeds u32 indexing");
        self.succ_offsets = Vec::with_capacity(n + 1);
        self.succ_offsets.push(0);
        let mut acc = 0u32;
        let mut total = 0usize;
        for &ms in state_group {
            let degree = ((group_offsets[ms + 1] - group_offsets[ms]) as usize).max(1);
            acc += degree as u32;
            total += degree;
            self.succ_offsets.push(acc);
        }
        let mut succ_targets: Vec<u32> = Vec::with_capacity(total);
        for (s, &ms) in state_group.iter().enumerate() {
            let (lo, hi) = (group_offsets[ms] as usize, group_offsets[ms + 1] as usize);
            if lo == hi {
                succ_targets.push(s as u32);
            } else {
                succ_targets.extend_from_slice(&grouped[lo..hi]);
            }
        }
        self.succ_targets = succ_targets;
    }
}

/// The one Kripke builder: the part of the full structure that the quiescent
/// states of `roots` reach, with those states initial. `reached` marks the
/// model states the roots reach and must hold every root.
///
/// States keep the full structure's relative order: the roots' quiescent
/// states first, then the reached event states by the index of their first
/// occurrence in the **whole** transition list, even when that occurrence
/// leaves an unreached state. Successor lists stay in the same relative order,
/// so the checker's breadth-first tie-breaks, and with them its counterexample
/// traces, are the full structure's.
///
/// Union models share one `Arc<TransitionLabel>` per lifted block, so label
/// classes resolve cheaply: market G.3's ~154k transitions carry under 200
/// allocations. A class's atoms are interned when it labels its first state,
/// which in rank order keeps atoms in first-occurrence order.
fn build(model: &StateModel, index: &SourceIndex, roots: &[StateId], reached: &[bool]) -> Kripke {
    let q = model.state_count();
    assert!(q <= u32::MAX as usize, "state universe exceeds u32 indexing");
    let mut kripke = Kripke::default();
    let mut atom_lookup: HashMap<String, usize> = HashMap::new();
    let attr_atoms = install_schema_atoms(&mut kripke, model, &mut atom_lookup);

    // One target group per reached model state, holding event-state slots
    // (indices into `event_keys`, in discovery order) until they are ranked.
    let mut classes = LabelClasses::default();
    let mut event_slot: EventStates = HashMap::default();
    let mut event_keys: Vec<(StateId, u32)> = Vec::new();
    let mut group_of = vec![0usize; q];
    let mut group_offsets: Vec<u32> = vec![0];
    let mut grouped: Vec<u32> = Vec::new();
    for ms in (0..q).filter(|&ms| reached[ms]) {
        group_of[ms] = group_offsets.len() - 1;
        for &t in index.outgoing(ms) {
            let t = &model.transitions[t as usize];
            let class = classes.resolve(&t.label);
            let next = event_keys.len() as u32;
            let slot = *event_slot.entry(event_key(t.to, class)).or_insert_with(|| {
                event_keys.push((t.to, class));
                next
            });
            grouped.push(slot);
        }
        group_offsets.push(grouped.len() as u32);
    }

    // Rank the event states by first occurrence in the whole list, after the
    // roots' quiescent states.
    let mut first = vec![usize::MAX; event_keys.len()];
    let mut unranked = event_keys.len();
    for (i, t) in model.transitions.iter().enumerate() {
        if unranked == 0 {
            break;
        }
        if !reached[t.to] {
            continue;
        }
        let class = classes.resolve(&t.label);
        if let Some(&slot) = event_slot.get(&event_key(t.to, class)) {
            if first[slot as usize] == usize::MAX {
                first[slot as usize] = i;
                unranked -= 1;
            }
        }
    }
    let mut by_rank: Vec<u32> = (0..event_keys.len() as u32).collect();
    by_rank.sort_unstable_by_key(|&slot| first[slot as usize]);
    let mut rank = vec![0u32; event_keys.len()];
    for (r, &slot) in (roots.len() as u32..).zip(&by_rank) {
        rank[slot as usize] = r;
    }
    for target in &mut grouped {
        *target = rank[*target as usize];
    }
    sort_dedup_groups(&mut group_offsets, &mut grouped);

    let n = roots.len() + event_keys.len();
    let model_state: Vec<StateId> = roots
        .iter()
        .copied()
        .chain(by_rank.iter().map(|&slot| event_keys[slot as usize].0))
        .collect();
    let mut class_atoms: Vec<Option<[usize; 3]>> = vec![None; classes.classes.len()];
    let mut rows = vec![BitSet::empty(n); kripke.atoms.len()];
    kripke.incoming_event = vec![None; roots.len()];
    for (s, &slot) in (roots.len()..).zip(&by_rank) {
        let class = event_keys[slot as usize].1 as usize;
        let atoms = *class_atoms[class].get_or_insert_with(|| {
            let atoms = classes.classes[class].intern_atoms(&mut kripke.atoms, &mut atom_lookup);
            rows.resize(kripke.atoms.len(), BitSet::empty(n));
            atoms
        });
        for atom in atoms {
            rows[atom].insert(s);
        }
        kripke.incoming_event.push(Some(classes.classes[class].event.clone()));
    }
    let mut digits = vec![0u8; model.schema.attr_count()];
    for (s, &ms) in model_state.iter().enumerate() {
        model.schema.digits_of(ms, &mut digits);
        for (atoms, &d) in attr_atoms.iter().zip(&digits) {
            rows[atoms[d as usize]].insert(s);
        }
    }
    kripke.atom_rows = rows;
    kripke.atom_lookup = atom_lookup;
    kripke.initial = (0..roots.len()).collect();
    let state_group: Vec<usize> = model_state.iter().map(|&ms| group_of[ms]).collect();
    kripke.set_transitions_grouped(&state_group, &group_offsets, &grouped);
    kripke.model_state = model_state;
    kripke
}

/// Interns one atom name, returning its stable index.
fn intern_atom(atoms: &mut Vec<String>, lookup: &mut HashMap<String, usize>, name: String) -> usize {
    if let Some(&i) = lookup.get(&name) {
        return i;
    }
    let i = atoms.len();
    lookup.insert(name.clone(), i);
    atoms.push(name);
    i
}

/// Sorts and deduplicates each group of a flat grouped list in place
/// (`grouped[offsets[g]..offsets[g + 1]]` is group `g`), compacting the groups
/// and rewriting `offsets` to match.
fn sort_dedup_groups(offsets: &mut [u32], grouped: &mut Vec<u32>) {
    let mut write = 0usize;
    let mut lo = 0usize;
    for end in offsets.iter_mut().skip(1) {
        let hi = *end as usize;
        grouped[lo..hi].sort_unstable();
        let start = write;
        for i in lo..hi {
            let target = grouped[i];
            if write == start || grouped[write - 1] != target {
                grouped[write] = target;
                write += 1;
            }
        }
        *end = write as u32;
        lo = hi;
    }
    grouped.truncate(write);
}

/// One label class: a distinct `(event label, app)` pair among a model's
/// transitions.
struct LabelClass {
    /// The rendered event label, shared by the class's event states.
    event: Arc<str>,
    /// The contributing app, named by the class's `by-app:` atom.
    app: String,
}

impl LabelClass {
    /// Interns the `event:`, `triggered` and `by-app:` atoms of the class's
    /// event states, in that order (the order the reference builder interns
    /// them in when the class's first event state appears).
    fn intern_atoms(
        &self,
        atoms: &mut Vec<String>,
        lookup: &mut HashMap<String, usize>,
    ) -> [usize; 3] {
        [
            intern_atom(atoms, lookup, format!("event:{}", self.event)),
            intern_atom(atoms, lookup, "triggered".to_string()),
            intern_atom(atoms, lookup, format!("by-app:{}", self.app)),
        ]
    }
}

/// The label classes of one model, numbered in order of first occurrence.
///
/// A transition resolves through three memo levels, cheapest first: the last
/// label allocation seen (consecutive transitions of a lifted union block share
/// one `Arc`), a map keyed by allocation address, and a map keyed by the
/// rendered `(event label, app)` value, so distinct allocations with equal
/// contents still share one class. Only the last level renders the label, once
/// per distinct allocation.
#[derive(Default)]
struct LabelClasses {
    last: Option<(*const TransitionLabel, u32)>,
    by_ptr: HashMap<*const TransitionLabel, u32>,
    by_value: HashMap<(String, String), u32>,
    classes: Vec<LabelClass>,
}

impl LabelClasses {
    /// The class of `label`, created on first sight. Creating a class interns
    /// no atoms: the builder interns a class's atoms
    /// ([`LabelClass::intern_atoms`]) when it labels its first emitted state.
    fn resolve(&mut self, label: &Arc<TransitionLabel>) -> u32 {
        let ptr = Arc::as_ptr(label);
        if let Some((last, class)) = self.last {
            if last == ptr {
                return class;
            }
        }
        let class = match self.by_ptr.get(&ptr) {
            Some(&class) => class,
            None => {
                let next = self.classes.len() as u32;
                let key = (label.event.kind.label(), label.app.clone());
                let class = match self.by_value.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let (event, app) = e.key();
                        self.classes.push(LabelClass {
                            event: Arc::from(event.as_str()),
                            app: app.clone(),
                        });
                        *e.insert(next)
                    }
                };
                self.by_ptr.insert(ptr, class);
                class
            }
        };
        self.last = Some((ptr, class));
        class
    }
}

/// Event-state slots by packed `(destination, class)` key.
type EventStates = HashMap<u64, u32, BuildHasherDefault<PackedKeyHasher>>;

/// The packed key of the event state `(destination, class)`.
fn event_key(to: StateId, class: u32) -> u64 {
    ((to as u64) << 32) | class as u64
}

/// Hasher for the packed `(destination, class)` event-state keys: one
/// multiply, with the high half folded down so the table's bucket bits see the
/// destination as well as the class. The keys are dense ids this module
/// assigns, never values taken from outside the program, so the default
/// hasher's flooding resistance would buy nothing here.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | b as u64);
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Interns the schema-derived attribute atoms and installs the lazy-naming
/// tables (fragments and strides) shared by the production and reference
/// builders.
/// Returns the atom ids per `(attribute, value digit)` pair.
fn install_schema_atoms(
    kripke: &mut Kripke,
    model: &StateModel,
    atom_lookup: &mut HashMap<String, usize>,
) -> Vec<Vec<usize>> {
    let schema = &model.schema;
    let mut attr_atoms: Vec<Vec<usize>> = Vec::with_capacity(schema.attr_count());
    for a in 0..schema.attr_count() {
        let attr = a as soteria_model::AttrId;
        let (handle, attribute) = &schema.keys()[a];
        let mut atoms_row = Vec::new();
        let mut fragments = Vec::new();
        for value in schema.domain(attr) {
            atoms_row.push(intern_atom(
                &mut kripke.atoms,
                atom_lookup,
                format!("attr:{handle}.{attribute}={value}"),
            ));
            fragments.push(soteria_model::label_fragment(handle, attribute, value));
        }
        attr_atoms.push(atoms_row);
        kripke.name_fragments.push(fragments);
    }
    // The schema's own mixed-radix strides, so digit extraction in `state_name`
    // uses the same state-id arithmetic as the model layer.
    kripke.name_strides =
        (0..schema.attr_count()).map(|a| schema.stride(a as soteria_model::AttrId)).collect();
    attr_atoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctl, ModelChecker};
    use soteria_analysis::PathCondition;
    use soteria_capability::{AttributeValue, Event, EventKind};
    use soteria_model::{Transition, TransitionLabel};
    use std::collections::BTreeMap;

    fn water_leak_model() -> StateModel {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            ("sensor".to_string(), "water".to_string()),
            vec![AttributeValue::symbol("dry"), AttributeValue::symbol("wet")],
        );
        attrs.insert(
            ("valve".to_string(), "valve".to_string()),
            vec![AttributeValue::symbol("open"), AttributeValue::symbol("closed")],
        );
        let mut model = StateModel::with_attributes("WaterLeak", attrs);
        let index = model.state_index();
        let wet_closed = index
            .iter()
            .find(|(s, _)| {
                s.get("sensor", "water") == Some(&AttributeValue::symbol("wet"))
                    && s.get("valve", "valve") == Some(&AttributeValue::symbol("closed"))
            })
            .map(|(_, &i)| i)
            .unwrap();
        let mut transitions = Vec::new();
        for from in 0..model.state_count() {
            transitions.push(Transition {
                from,
                to: wet_closed,
                label: std::sync::Arc::new(TransitionLabel {
                    event: Event::new("sensor", EventKind::device("waterSensor", "water", Some("wet"))),
                    condition: PathCondition::top(),
                    app: "WaterLeak".into(),
                    handler: "h".into(),
                    via_reflection: false,
                }),
            });
        }
        for t in transitions {
            model.add_transition(t);
        }
        model
    }

    #[test]
    fn kripke_has_quiescent_and_event_states() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        // 4 quiescent states + 1 event state (wet/closed after water.wet).
        assert_eq!(kripke.state_count(), 5);
        assert_eq!(kripke.initial.len(), 4);
        let event_state = (0..kripke.state_count())
            .find(|s| kripke.incoming_event[*s].is_some())
            .unwrap();
        assert!(kripke.holds(event_state, "event:water.wet"));
        assert!(kripke.holds(event_state, "triggered"));
        assert!(kripke.holds(event_state, "attr:valve.valve=closed"));
        assert!(kripke.holds(event_state, "by-app:WaterLeak"));
        assert!(!kripke.holds(0, "triggered"));
    }

    #[test]
    fn matches_the_reference_builder() {
        let model = water_leak_model();
        assert_eq!(Kripke::from_state_model(&model), reference::from_state_model(&model));
        // An unreachable source whose transition is a first occurrence, a
        // deadlock and a class that labels only an unreachable state.
        let model = fragment_model();
        assert_eq!(Kripke::from_state_model(&model), reference::from_state_model(&model));
    }

    #[test]
    fn relation_is_total() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        assert!((0..kripke.state_count()).all(|s| !kripke.successors(s).is_empty()));
    }

    #[test]
    fn every_source_state_reaches_the_event_state() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        let event_state = (0..kripke.state_count())
            .find(|s| kripke.incoming_event[*s].is_some())
            .unwrap();
        for init in &kripke.initial {
            assert!(kripke.successors(*init).contains(&(event_state as u32)));
        }
    }

    #[test]
    fn state_names_are_formatted_lazily_and_match_model_labels() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        for s in 0..kripke.state_count() {
            let expected = match &kripke.incoming_event[s] {
                Some(event) => {
                    format!("{} after {}", model.state(kripke.model_state[s]).label(), event)
                }
                None => model.state(kripke.model_state[s]).label(),
            };
            assert_eq!(kripke.state_name(s), expected, "state {s}");
        }
    }

    #[test]
    fn from_lists_builds_a_named_structure() {
        let mut kripke = Kripke::from_lists(
            vec!["p".into()],
            vec!["a".into(), "b".into()],
            &[vec![1], vec![]],
            vec![0],
        );
        kripke.set_labels(&[vec![0], vec![]]);
        assert_eq!(kripke.state_name(0), "a");
        assert_eq!(kripke.successors(0), &[1]);
        // Deadlocked state 1 gets a self-loop.
        assert_eq!(kripke.successors(1), &[1]);
        assert!(kripke.holds(0, "p"));
    }

    /// Four model states over one attribute, initial state 0. Transition 0
    /// leaves unreachable state 3 but is the first occurrence of the reachable
    /// event state `(2, touch@B)`, ahead of `(1, wet@A)`, which the search
    /// finds first. State 2 is a reachable deadlock; `by-app:C` labels only an
    /// unreachable event state.
    fn fragment_model() -> StateModel {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            ("lamp".to_string(), "level".to_string()),
            (0..4).map(|v| AttributeValue::symbol(format!("l{v}"))).collect(),
        );
        let mut model = StateModel::with_attributes("Fragment", attrs);
        let label = |kind: EventKind, app: &str| {
            std::sync::Arc::new(TransitionLabel {
                event: Event::new("dev", kind),
                condition: PathCondition::top(),
                app: app.into(),
                handler: "h".into(),
                via_reflection: false,
            })
        };
        let wet = label(EventKind::device("waterSensor", "water", Some("wet")), "A");
        let touch = label(EventKind::AppTouch, "B");
        let stray = label(EventKind::AppTouch, "C");
        for (from, to, l) in [(3, 2, &touch), (0, 1, &wet), (1, 2, &touch), (3, 3, &stray)] {
            model.transitions.push(Transition { from, to, label: l.clone() });
        }
        model
    }

    #[test]
    fn fragment_keeps_the_full_order_and_counterexamples() {
        let model = fragment_model();
        let fragment = Kripke::reachable_from_state_model(&model);
        // Full numbering: quiescent 0..4, then (2, touch@B) = 4, (1, wet@A) = 5.
        assert_eq!(fragment.model_state, vec![0, 2, 1]);
        assert_eq!(fragment.initial, vec![0]);
        assert_eq!(fragment.incoming_event[1].as_deref(), Some("app.touch"));
        assert_eq!(fragment.incoming_event[2].as_deref(), Some("water.wet"));
        assert_eq!(fragment.successors(0), &[2]);
        assert_eq!(fragment.successors(2), &[1]);
        // The deadlock keeps its totalising self-loop.
        assert_eq!(fragment.successors(1), &[1]);
        assert_eq!(fragment.atom_index("by-app:C"), None);

        let mut full = reference::from_state_model(&model);
        full.initial = vec![model.initial];
        let formulas = [
            Ctl::atom("by-app:B").not().always_globally(),
            Ctl::atom("by-app:C").not().always_globally(),
            Ctl::atom("attr:lamp.level=l2").exists_finally(),
            Ctl::atom("triggered").all_next(),
        ];
        let on_fragment = ModelChecker::new(&fragment).check_all(&formulas);
        assert_eq!(on_fragment, ModelChecker::new(&full).check_all(&formulas));
        assert_eq!(
            on_fragment[0].counterexample.as_deref(),
            Some(
                &[
                    "[lamp.level=l0]".to_string(),
                    "[lamp.level=l1] after water.wet".to_string(),
                    "[lamp.level=l2] after app.touch".to_string(),
                ][..]
            )
        );
        assert!(on_fragment[1].holds && on_fragment[2].holds && on_fragment[3].holds);
    }

    #[test]
    fn unknown_atom_never_holds() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        assert!(!kripke.holds(0, "attr:missing.device=on"));
        assert_eq!(kripke.atom_index("nonexistent"), None);
        assert!(!kripke.atoms_of(0).is_empty());
    }

    #[test]
    fn atom_rows_match_per_state_view() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        for (i, atom) in kripke.atoms.iter().enumerate() {
            let row = kripke.atom_row(i);
            for s in 0..kripke.state_count() {
                assert_eq!(row.contains(s), kripke.holds(s, atom));
                assert_eq!(row.contains(s), kripke.atoms_of(s).contains(&atom.as_str()));
            }
        }
    }
}
