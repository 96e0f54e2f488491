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
//! No builder renders a label per transition: each transition's
//! `(event label, app)` resolves to a small *label class* id once per label
//! allocation, event states are keyed on a packed `(destination, class)`
//! integer, and one discovery pass, the explorer, builds every structure from
//! a union's compiled edges ([`soteria_model::compile_union`]). A single
//! model is read, without copying, as the one-member union of its own
//! transitions that constrains every attribute. The three entry points number
//! states in the full structure's order:
//!
//! * [`Kripke::reachable_from_state_model`] builds what the quiescent state of
//!   `model.initial` reaches; per-app checks and their reflection-free
//!   re-checks use it;
//! * [`Kripke::reachable_from_union`] builds the same fragment of a union
//!   without reading a lifted transition list; environment checks use it. For
//!   G.3 it searches the members' 168 edges instead of the 154,368 lifted
//!   transitions, to emit 78 of its 46,944 Kripke states;
//! * [`Kripke::from_state_model`] builds the full structure, what every
//!   quiescent state reaches. Only tests and the benchmark's replay call it;
//!   tests hold it struct-equal to the independent builder in [`reference`].

use crate::bitset::BitSet;
use soteria_model::{
    AttrId, CompiledEdge, StateId, StateModel, StateSchema, Transition, TransitionLabel,
    UnionEdges,
};
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
    /// states of `m`'s outgoing transitions. This is the explorer run over the
    /// model's own transitions with every model state as a root, in order.
    pub fn from_state_model(model: &StateModel) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        let roots: Vec<StateId> = (0..model.state_count()).collect();
        explore_model(model, &roots)
    }

    /// Builds the part of [`Kripke::from_state_model`]'s structure that the
    /// quiescent state of `model.initial` reaches, with that state as the only
    /// initial state. A CTL formula's value at a state depends only on the
    /// states it reaches, so every check on the fragment gives the verdict of
    /// the full structure with the same initial state.
    ///
    /// It explores the model's own transitions as a one-member union that
    /// constrains every attribute. An atom that labels only unreachable
    /// states is absent, which the checker reads as false everywhere, as it
    /// is on the fragment of the full structure.
    pub fn reachable_from_state_model(model: &StateModel) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        explore_model(model, &[model.initial])
    }

    /// Builds [`Kripke::reachable_from_state_model`]'s structure of the union
    /// that `union` and `edges` make ([`soteria_model::compile_union`])
    /// without reading a lifted transition list: `union` may be lifted or
    /// not, and only its schema and initial state are read. Repeated member
    /// names need nothing special: the lift drops only transitions with an
    /// identical earlier twin, which keeps every first occurrence, and their
    /// order, as in the plain concatenation of blocks that the explorer ranks.
    pub fn reachable_from_union(union: &StateModel, edges: &UnionEdges) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        let members: Vec<_> =
            edges.members().iter().map(|m| (&m.constrained[..], &m.edges[..])).collect();
        explore(&union.schema, &[union.initial], &members)
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

/// An edge of a union member, as `(base, offset, label)`: from each state
/// whose digits on the member's constrained attributes are `base`'s, it steps
/// by `offset` under `label`.
trait Edge {
    fn parts(&self) -> (StateId, isize, &Arc<TransitionLabel>);
}

impl Edge for CompiledEdge {
    fn parts(&self) -> (StateId, isize, &Arc<TransitionLabel>) {
        (self.base, self.offset, &self.label)
    }
}

/// A model's own transition, as an edge of the one-member union that
/// constrains every attribute: it fires only from `from`.
impl Edge for Transition {
    fn parts(&self) -> (StateId, isize, &Arc<TransitionLabel>) {
        (self.from, self.to as isize - self.from as isize, &self.label)
    }
}

/// [`explore`] over `model`'s own transitions, in list order, read as one
/// member that constrains every attribute, so its lift is the list itself.
fn explore_model(model: &StateModel, roots: &[StateId]) -> Kripke {
    let constrained: Vec<AttrId> = (0..model.schema.attr_count() as AttrId).collect();
    explore(&model.schema, roots, &[(&constrained[..], &model.transitions[..])])
}

/// The explorer: the part of the full structure of the union of `members`
/// (each member's constrained attributes and edges, in union order) that the
/// quiescent states of `roots` reach, with those states initial, numbered in
/// the full structure's order, so the checker's breadth-first tie-breaks, and
/// with them its counterexample traces, are the full structure's.
///
/// A breadth-first search fires edge `e` of member `m` from state `s` exactly
/// when `s`'s digits on `m`'s constrained attributes are `e.base`'s. The full
/// structure ranks an event state `(to, class)` by its first occurrence in
/// the lifted list: member, edge, then free offset. That is in the block of
/// the first edge, in union order, of that class whose destinations include
/// `to`, from any source, reached or not; within a block, free ranks ascend
/// with `to`. So `(edge index, to)` is the rank, and one scan of the edges in
/// union order, which stops once every event state found is ranked, finds it.
/// A class is resolved only when one of its edges fires or is scanned.
fn explore<E: Edge>(
    schema: &StateSchema,
    roots: &[StateId],
    members: &[(&[AttrId], &[E])],
) -> Kripke {
    let q = schema.state_count();
    assert!(q <= u32::MAX as usize, "state universe exceeds u32 indexing");
    // The constrained part of a state's id for one member: the `base` of the
    // edges it fires, the `base + offset` of the edges that reach it.
    let key = |constrained: &[AttrId], digits: &[u8]| -> usize {
        constrained.iter().map(|&a| digits[a as usize] as usize * schema.stride(a)).sum()
    };
    // Edge indexes count across members in union order: member `m`'s are
    // `spans[m]`.
    let mut spans = Vec::with_capacity(members.len());
    let mut total = 0;
    for (_, edges) in members {
        spans.push(total..total + edges.len());
        total += edges.len();
    }
    assert!(total <= u32::MAX as usize, "edge list exceeds u32 indexing");
    // One counting sort: `by_base[starts[b]..starts[b + 1]]` holds the edges
    // whose base is `b`, ascending. Inclusive prefix sums leave `starts[b]` at
    // the end of group `b`; filling back to front walks it down to its start.
    let mut starts = vec![0u32; q + 1];
    for edge in members.iter().flat_map(|&(_, edges)| edges) {
        starts[edge.parts().0] += 1;
    }
    let mut acc = 0u32;
    for slot in &mut starts {
        acc += *slot;
        *slot = acc;
    }
    let mut by_base = vec![0u32; total];
    for (&(_, edges), span) in members.iter().zip(&spans).rev() {
        for (e, edge) in span.clone().zip(edges).rev() {
            let base = edge.parts().0;
            starts[base] -= 1;
            by_base[starts[base] as usize] = e as u32;
        }
    }
    let mut found = Discovered::new(total);

    // Breadth-first, so a state's group is its position in the queue, and
    // `group_of` holds that position plus one (0: not reached).
    let mut group_of = vec![0u32; q];
    let mut queue: Vec<StateId> = roots.to_vec();
    for (position, &root) in (1..).zip(roots) {
        group_of[root] = position;
    }
    let mut digits = vec![0u8; schema.attr_count()];
    let mut head = 0;
    while let Some(&s) = queue.get(head) {
        head += 1;
        schema.digits_of(s, &mut digits);
        for (&(constrained, edges), span) in members.iter().zip(&spans) {
            let base = key(constrained, &digits);
            // Every member's edges at this base: the member's are one run.
            let group = &by_base[starts[base] as usize..starts[base + 1] as usize];
            let first = group.partition_point(|&e| (e as usize) < span.start);
            for &e in group[first..].iter().take_while(|&&e| (e as usize) < span.end) {
                let (_, offset, label) = edges[e as usize - span.start].parts();
                let to = (s as isize + offset) as usize;
                let class = found.class_of(e, label);
                found.target(to, class);
                if group_of[to] == 0 {
                    queue.push(to);
                    group_of[to] = queue.len() as u32;
                }
            }
        }
        found.close_group();
    }

    // Rank by one scan of the edges in union order. Per member, `wanted`
    // holds each unranked event state's packed `(key, class)`, ascending.
    let events = found.event_keys.len();
    let mut rank = vec![u64::MAX; events];
    let mut unranked = events;
    let mut wanted: Vec<(u64, u32)> = Vec::with_capacity(events);
    for (&(constrained, edges), span) in members.iter().zip(&spans) {
        if unranked == 0 {
            break;
        }
        wanted.clear();
        for (slot, &(to, class)) in (0u32..).zip(&found.event_keys) {
            if rank[slot as usize] == u64::MAX {
                schema.digits_of(to, &mut digits);
                wanted.push((event_key(key(constrained, &digits), class), slot));
            }
        }
        wanted.sort_unstable();
        for (e, edge) in (span.start as u32..).zip(edges) {
            if unranked == 0 {
                break;
            }
            let (base, offset, label) = edge.parts();
            let target = (base as isize + offset) as usize;
            // Resolve the edge's class only when some wanted state has its key.
            let at = wanted.partition_point(|&(k, _)| k < event_key(target, 0));
            if wanted.get(at).is_none_or(|&(k, _)| k >> 32 != target as u64) {
                continue;
            }
            let packed = event_key(target, found.class_of(e, label));
            let at = at + wanted[at..].partition_point(|&(k, _)| k < packed);
            for &(_, slot) in wanted[at..].iter().take_while(|&&(k, _)| k == packed) {
                if rank[slot as usize] == u64::MAX {
                    let to = found.event_keys[slot as usize].0;
                    rank[slot as usize] = ((e as u64) << 32) | to as u64;
                    unranked -= 1;
                }
            }
        }
    }
    assert_eq!(unranked, 0, "the edge that discovered an event state reaches it");
    found.emit(schema, roots, &rank, |ms| group_of[ms] as usize - 1)
}

/// What the explorer finds before ranking: the event states `(to, class)` in
/// discovery order, and per reached model state its group of event-state
/// slots. [`Discovered::emit`] turns it into the structure.
struct Discovered {
    classes: LabelClasses,
    /// Per edge index, its class once resolved ([`Discovered::class_of`]).
    edge_class: Vec<u32>,
    slots: EventStates,
    event_keys: Vec<(StateId, u32)>,
    /// `grouped[group_offsets[g]..group_offsets[g + 1]]` is group `g`.
    group_offsets: Vec<u32>,
    grouped: Vec<u32>,
}

impl Discovered {
    fn new(edges: usize) -> Discovered {
        Discovered {
            classes: LabelClasses::default(),
            edge_class: vec![u32::MAX; edges],
            slots: EventStates::default(),
            event_keys: Vec::new(),
            group_offsets: vec![0],
            grouped: Vec::new(),
        }
    }

    /// The class of edge `e`'s label, resolved on first use.
    fn class_of(&mut self, e: u32, label: &Arc<TransitionLabel>) -> u32 {
        let class = &mut self.edge_class[e as usize];
        if *class == u32::MAX {
            *class = self.classes.resolve(label);
        }
        *class
    }

    /// Adds the event state `(to, class)` to the open group.
    fn target(&mut self, to: StateId, class: u32) {
        let next = self.event_keys.len() as u32;
        let slot = *self.slots.entry(event_key(to, class)).or_insert_with(|| {
            self.event_keys.push((to, class));
            next
        });
        self.grouped.push(slot);
    }

    /// Closes the open group: the next [`Discovered::target`] opens another.
    fn close_group(&mut self) {
        self.group_offsets.push(self.grouped.len() as u32);
    }

    /// Builds the structure: the roots' quiescent states first, then the
    /// event states ascending by `rank` (one distinct key per slot), each
    /// state stepping to the ranked event states of its model state's group
    /// (`group_of`). A class's atoms are interned when it labels its first
    /// state, which in rank order keeps atoms in first-occurrence order.
    fn emit(
        mut self,
        schema: &StateSchema,
        roots: &[StateId],
        rank: &[u64],
        group_of: impl Fn(StateId) -> usize,
    ) -> Kripke {
        let mut kripke = Kripke::default();
        let mut atom_lookup: HashMap<String, usize> = HashMap::new();
        let attr_atoms = install_schema_atoms(&mut kripke, schema, &mut atom_lookup);
        let events = self.event_keys.len();
        let mut by_rank: Vec<u32> = (0..events as u32).collect();
        by_rank.sort_unstable_by_key(|&slot| rank[slot as usize]);
        let mut id = vec![0u32; events];
        for (r, &slot) in (roots.len() as u32..).zip(&by_rank) {
            id[slot as usize] = r;
        }
        for target in &mut self.grouped {
            *target = id[*target as usize];
        }
        sort_dedup_groups(&mut self.group_offsets, &mut self.grouped);

        let n = roots.len() + events;
        let model_state: Vec<StateId> = roots
            .iter()
            .copied()
            .chain(by_rank.iter().map(|&slot| self.event_keys[slot as usize].0))
            .collect();
        let classes = &self.classes.classes;
        let mut class_atoms: Vec<Option<[usize; 3]>> = vec![None; classes.len()];
        let mut rows = vec![BitSet::empty(n); kripke.atoms.len()];
        kripke.incoming_event = vec![None; roots.len()];
        for (s, &slot) in (roots.len()..).zip(&by_rank) {
            let class = self.event_keys[slot as usize].1 as usize;
            let atoms = *class_atoms[class].get_or_insert_with(|| {
                let atoms = classes[class].intern_atoms(&mut kripke.atoms, &mut atom_lookup);
                rows.resize(kripke.atoms.len(), BitSet::empty(n));
                atoms
            });
            for atom in atoms {
                rows[atom].insert(s);
            }
            kripke.incoming_event.push(Some(classes[class].event.clone()));
        }
        let mut digits = vec![0u8; schema.attr_count()];
        for (s, &ms) in model_state.iter().enumerate() {
            schema.digits_of(ms, &mut digits);
            for (atoms, &d) in attr_atoms.iter().zip(&digits) {
                rows[atoms[d as usize]].insert(s);
            }
        }
        kripke.atom_rows = rows;
        kripke.atom_lookup = atom_lookup;
        kripke.initial = (0..roots.len()).collect();
        let state_group: Vec<usize> = model_state.iter().map(|&ms| group_of(ms)).collect();
        kripke.set_transitions_grouped(&state_group, &self.group_offsets, &self.grouped);
        kripke.model_state = model_state;
        kripke
    }
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
/// A label resolves through two memo levels: a map keyed by allocation
/// address, and a map keyed by the rendered `(event label, app)` value, so
/// distinct allocations with equal contents still share one class. Only the
/// second level renders the label, once per distinct allocation.
#[derive(Default)]
struct LabelClasses {
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
        if let Some(&class) = self.by_ptr.get(&ptr) {
            return class;
        }
        let next = self.classes.len() as u32;
        let key = (label.event.kind.label(), label.app.clone());
        let class = match self.by_value.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let (event, app) = e.key();
                self.classes.push(LabelClass { event: Arc::from(event.as_str()), app: app.clone() });
                *e.insert(next)
            }
        };
        self.by_ptr.insert(ptr, class);
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
    schema: &StateSchema,
    atom_lookup: &mut HashMap<String, usize>,
) -> Vec<Vec<usize>> {
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
