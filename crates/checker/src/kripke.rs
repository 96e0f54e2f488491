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
//! The transition relation is stored once, in compressed-sparse-row (CSR) form, in
//! **both** directions: [`Kripke::successors`] and [`Kripke::predecessors`] index flat
//! `u32` target arrays through per-state offset arrays. Every consumer — the
//! frontier fixpoints of the symbolic engine, the per-state scans of the explicit
//! engine, and counterexample BFS — runs off the same two arrays, replacing the
//! seed's per-state `Vec<Vec<usize>>` successor lists and the per-`ModelChecker`
//! predecessor rebuild.
//!
//! State names are lazy: construction records only `(model state, incoming event)`
//! per Kripke state plus one label fragment per `(attribute, value)` pair of the
//! schema; the human-readable `"[attr=value, ...] after event"` string is formatted
//! by [`Kripke::state_name`] only when a counterexample trace (or an export) asks
//! for it, instead of eagerly for every state during construction.
//!
//! Construction is linear in the model's transitions and never renders a label
//! per transition: [`Kripke::from_state_model`] resolves each transition's
//! `(event label, app)` to a small *label class* id once per label allocation,
//! keys event states on a packed `(destination, class)` integer, writes the
//! label rows directly, and emits both CSRs from counting-sorted per-model-state
//! target groups. [`Kripke::from_state_model_delta`] splices a single-member edit
//! into a previous structure instead. Both are struct-equal to the reference
//! builder in [`reference`], which only tests call.

use crate::bitset::BitSet;
use soteria_model::{StateId, StateModel, TransitionLabel};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

#[doc(hidden)]
#[path = "kripke_reference.rs"]
pub mod reference;

/// A Kripke structure: states labelled with atomic propositions and a total
/// transition relation stored as forward + reverse CSR arrays.
///
/// `PartialEq` compares every field (atoms, labelling rows, both CSR arrays,
/// naming data); two equal structures are interchangeable for checking, which
/// is what lets a [`crate::SatSnapshot`] from a previous check be reused
/// wholesale when the structure did not change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Kripke {
    /// The atomic-proposition universe.
    pub atoms: Vec<String>,
    /// Initial states.
    pub initial: Vec<usize>,
    /// The underlying model state of each Kripke state.
    pub model_state: Vec<StateId>,
    /// The event label (if any) that produced each Kripke state. Shared
    /// (`Arc<str>`) so the incremental rebuild copies unchanged members' states
    /// with refcount bumps instead of tens of thousands of string allocations.
    pub incoming_event: Vec<Option<Arc<str>>>,
    /// The app (if any) whose transition produced each Kripke state.
    pub incoming_app: Vec<Option<Arc<str>>>,
    /// CSR offsets into `succ_targets`: the successors of state `s` are
    /// `succ_targets[succ_offsets[s]..succ_offsets[s + 1]]`.
    succ_offsets: Vec<u32>,
    /// Flat successor array (forward edges, sorted per source).
    succ_targets: Vec<u32>,
    /// CSR offsets into `pred_targets` (reverse edges).
    pred_offsets: Vec<u32>,
    /// Flat predecessor array (reverse edges, sorted per target).
    pred_targets: Vec<u32>,
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
    /// For model-derived structures, the Kripke target state of each model
    /// transition, aligned with the model's transition order. Lets
    /// [`Kripke::from_state_model_delta`] recover the edge relation of a
    /// mostly-identical model without re-hashing unchanged labels. Empty for
    /// hand-built structures.
    pub(crate) transition_targets: Vec<u32>,
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

    /// The predecessors of one state (reverse CSR slice).
    pub fn predecessors(&self, state: usize) -> &[u32] {
        &self.pred_targets[self.pred_offsets[state] as usize..self.pred_offsets[state + 1] as usize]
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
            model_state: (0..n).collect(),
            incoming_event: vec![None; n],
            incoming_app: vec![None; n],
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
        kripke.set_transitions_grouped(&group_offsets, &grouped);
        kripke
    }

    /// Builds the Kripke structure of a state model.
    ///
    /// Kripke states are `(model state, incoming transition label)` pairs: one
    /// "quiescent" state per model state (no incoming event) plus one state per
    /// distinct `(destination, event, app)` combination among the transitions,
    /// numbered in order of first occurrence. Every Kripke state over model state
    /// `m` steps to the event states of `m`'s outgoing transitions.
    ///
    /// Nothing here is per-transition string work. Each transition's
    /// `(event label, app)` resolves to a label class once per label allocation
    /// (union models share one `Arc<TransitionLabel>` per lifted block, so market
    /// G.3's ~154k transitions carry under 200 allocations). A class interns its
    /// `event:`/`triggered`/`by-app:` atoms when it first appears, which is when
    /// it creates its first event state, so atoms keep first-occurrence order.
    /// Event states are keyed on a packed `(destination, class)` `u64`, label
    /// rows are written directly, and the successor lists are counting-sorted
    /// into per-model-state groups, each sorted and deduplicated on its own,
    /// before [`Kripke::set_transitions_grouped`] emits both CSRs.
    ///
    /// The per-transition targets are recorded on the structure: they are what
    /// lets [`Kripke::from_state_model_delta`] recover the edge relation of a
    /// later, mostly-identical model without resolving unchanged labels again.
    pub fn from_state_model(model: &StateModel) -> Kripke {
        let _span = soteria_obs::span("kripke.build");
        let schema = &model.schema;
        let q = model.state_count();
        debug_assert!(q <= u32::MAX as usize, "state universe exceeds u32 indexing");
        let mut kripke = Kripke::default();
        let mut atom_lookup: HashMap<String, usize> = HashMap::new();
        let attr_atoms = install_schema_atoms(&mut kripke, model, &mut atom_lookup);

        // Event states in creation order, as (destination, class), plus each
        // transition's Kripke target.
        let mut classes = LabelClasses::default();
        let mut event_state: HashMap<u64, u32, BuildHasherDefault<PackedKeyHasher>> =
            HashMap::default();
        let mut event_keys: Vec<(StateId, u32)> = Vec::new();
        let mut targets: Vec<u32> = Vec::with_capacity(model.transitions.len());
        for t in &model.transitions {
            let class = classes.resolve(&t.label, &mut kripke.atoms, &mut atom_lookup);
            let key = ((t.to as u64) << 32) | class as u64;
            let next = (q + event_keys.len()) as u32;
            let id = *event_state.entry(key).or_insert_with(|| {
                event_keys.push((t.to, class));
                next
            });
            targets.push(id);
        }
        let n = q + event_keys.len();

        // Quiescent states first, one per model state, all initial; then the
        // event states, sharing their class's label strings.
        kripke.model_state = (0..q).chain(event_keys.iter().map(|&(to, _)| to)).collect();
        kripke.initial = (0..q).collect();
        kripke.incoming_event = vec![None; q];
        kripke.incoming_event.extend(
            event_keys.iter().map(|&(_, c)| Some(classes.classes[c as usize].event.clone())),
        );
        kripke.incoming_app = vec![None; q];
        kripke.incoming_app.extend(
            event_keys.iter().map(|&(_, c)| Some(classes.classes[c as usize].app.clone())),
        );

        // Label rows: every state carries its model state's attribute atoms
        // (decoded once per model state by odometer, no division); event states
        // add their class's three atoms.
        let attrs = schema.attr_count();
        let mut digit_table = vec![0u8; q * attrs];
        for s in 1..q {
            let (prev, row) = digit_table[(s - 1) * attrs..(s + 1) * attrs].split_at_mut(attrs);
            row.copy_from_slice(prev);
            schema.advance(row);
        }
        let mut rows = vec![BitSet::empty(n); kripke.atoms.len()];
        for (s, &ms) in kripke.model_state.iter().enumerate() {
            let digits = &digit_table[ms * attrs..(ms + 1) * attrs];
            for (atoms, &d) in attr_atoms.iter().zip(digits) {
                rows[atoms[d as usize]].insert(s);
            }
        }
        for (s, &(_, class)) in (q..).zip(&event_keys) {
            for &atom in &classes.classes[class as usize].atoms {
                rows[atom].insert(s);
            }
        }
        kripke.atom_rows = rows;
        kripke.atom_lookup = atom_lookup;

        // Per-model-state target groups by counting sort on the source column.
        let mut group_offsets = vec![0u32; q + 1];
        for t in &model.transitions {
            group_offsets[t.from + 1] += 1;
        }
        for ms in 0..q {
            group_offsets[ms + 1] += group_offsets[ms];
        }
        let mut cursor: Vec<u32> = group_offsets[..q].to_vec();
        let mut grouped = vec![0u32; targets.len()];
        for (t, &target) in model.transitions.iter().zip(&targets) {
            grouped[cursor[t.from] as usize] = target;
            cursor[t.from] += 1;
        }
        sort_dedup_groups(&mut group_offsets, &mut grouped);
        kripke.transition_targets = targets;
        kripke.set_transitions_grouped(&group_offsets, &grouped);
        kripke
    }

    /// Rebuilds the Kripke structure of a model that differs from `base`'s
    /// source model in exactly one member's contiguous transition block — the
    /// delta-union contract (`soteria_model::union_models_delta`): unchanged
    /// members' transitions are the base's own, spliced by handle. Everything
    /// derivable from the unchanged members is copied from `base` — state
    /// vectors by slice, label rows by word-level bitset blit, per-source edge
    /// lists straight out of the base's CSR arrays (suffix ids shifted
    /// uniformly) — and only the changed member's block is walked with the
    /// full label-hashing construction.
    ///
    /// The result is **byte-identical** to `Kripke::from_state_model(model)`
    /// with `base.initial` applied — same atom order (the event-atom interning
    /// sequence is replayed in state order, which is creation order), same
    /// state numbering (a member's event states are contiguous because its
    /// `(destination, event, app)` keys carry its own name), and the same CSR
    /// arrays (per-source target lists keep their sorted order under the
    /// segment splice: prefix ids < changed ids < shifted suffix ids).
    ///
    /// Returns `None` — the caller falls back to a scratch build — whenever a
    /// precondition cannot be verified cheaply: `base` is not a model-derived
    /// structure over the same schema, either side's changed block is not
    /// contiguous, or a prefix/suffix transition disagrees with `base`'s
    /// recorded target on destination or app (the event kind and source state
    /// are the delta-union contract's: unchanged blocks are spliced, not
    /// rebuilt). The second tuple field reports whether every changed-member
    /// event state already existed in `base` — only then can a
    /// [`crate::SatSnapshot`] projection onto the new structure be total.
    pub fn from_state_model_delta(
        base: &Kripke,
        model: &StateModel,
        changed_app: &str,
    ) -> Option<(Kripke, bool)> {
        let _span = soteria_obs::span("kripke.delta");
        let q = model.state_count();
        let schema = &model.schema;
        let n_old = base.state_count();
        if n_old < q || base.transition_targets.is_empty() || !base.name_override.is_empty() {
            return None;
        }
        // `base` must have the quiescent-prefix shape this module builds...
        if (0..q).any(|s| base.model_state[s] != s || base.incoming_event[s].is_some()) {
            return None;
        }
        // ...over the same schema.
        let strides: Vec<usize> =
            (0..schema.attr_count()).map(|a| schema.stride(a as soteria_model::AttrId)).collect();
        if base.name_strides != strides || base.name_fragments.len() != schema.attr_count() {
            return None;
        }
        if (0..schema.attr_count()).any(|a| {
            base.name_fragments[a].len() != schema.domain(a as soteria_model::AttrId).len()
        }) {
            return None;
        }

        // The changed member's block in the new model: exactly one contiguous run.
        let (mut ns, mut ne) = (usize::MAX, 0usize);
        for (i, t) in model.transitions.iter().enumerate() {
            if t.label.app == changed_app {
                if ns == usize::MAX {
                    (ns, ne) = (i, i + 1);
                } else if i == ne {
                    ne = i + 1;
                } else {
                    return None;
                }
            }
        }
        // The changed member's event states in `base`: one contiguous run (its
        // keys carry its own app name, so no other member contributes to it);
        // fused with the per-state event-label sanity check.
        let (mut cs, mut ce) = (usize::MAX, 0usize);
        for s in q..n_old {
            let app = base.incoming_app[s].as_deref()?;
            base.incoming_event[s].as_ref()?;
            if app == changed_app {
                if cs == usize::MAX {
                    (cs, ce) = (s, s + 1);
                } else if s == ce {
                    ce = s + 1;
                } else {
                    return None;
                }
            }
        }
        // Its transition block in `base`, recovered from the recorded targets:
        // only the changed member's transitions point into `cs..ce`.
        let old_total = base.transition_targets.len();
        let (mut os, mut oe) = (usize::MAX, 0usize);
        for (i, &t) in base.transition_targets.iter().enumerate() {
            if (cs..ce).contains(&(t as usize)) {
                if os == usize::MAX {
                    (os, oe) = (i, i + 1);
                } else if i == oe {
                    oe = i + 1;
                } else {
                    return None;
                }
            }
        }
        if ns == usize::MAX
            || os != ns
            || old_total - oe != model.transitions.len() - ne
        {
            return None;
        }
        // Prefix and suffix transitions must agree with the recorded targets on
        // destination and app (the cheap two fields of the event-state key).
        for (i, t) in model.transitions[..ns].iter().enumerate() {
            let tgt = base.transition_targets[i] as usize;
            if tgt < q
                || tgt >= cs
                || base.model_state[tgt] != t.to
                || base.incoming_app[tgt].as_deref() != Some(t.label.app.as_str())
            {
                return None;
            }
        }
        for (k, t) in model.transitions[ne..].iter().enumerate() {
            let tgt = base.transition_targets[oe + k] as usize;
            if tgt < ce
                || tgt >= n_old
                || base.model_state[tgt] != t.to
                || base.incoming_app[tgt].as_deref() != Some(t.label.app.as_str())
            {
                return None;
            }
        }

        // The changed member's event states, in creation (first-transition)
        // order, plus each of its transitions' Kripke target. Every transition
        // in the block carries `changed_app`, so the app is dropped from the
        // keys; event labels are interned through a cache keyed by the label
        // *allocation* (the delta union shares one `Arc<TransitionLabel>` per
        // member transition across its lifted copies, so the cache renders each
        // distinct label once and the per-transition step hashes a pointer).
        // `all_in_base` tracks whether the block introduces any state `base`
        // did not have.
        let old_event_keys: HashSet<(StateId, &str)> = (cs..ce)
            .map(|s| (base.model_state[s], base.incoming_event[s].as_deref().unwrap_or_default()))
            .collect();
        let app_arc: Arc<str> = Arc::from(changed_app);
        let mut labels: Vec<Arc<str>> = Vec::new();
        let mut label_lookup: HashMap<Arc<str>, u32> = HashMap::new();
        let mut label_of_ptr: HashMap<usize, u32> = HashMap::new();
        let mut event_state: HashMap<(StateId, u32), u32> = HashMap::new();
        let mut changed_states: Vec<(StateId, u32)> = Vec::new();
        let mut changed_targets: Vec<u32> = Vec::with_capacity(ne - ns);
        let mut all_in_base = true;
        for t in &model.transitions[ns..ne] {
            let ptr = Arc::as_ptr(&t.label) as usize;
            let lid = match label_of_ptr.get(&ptr) {
                Some(&l) => l,
                None => {
                    let rendered = t.label.event.kind.label();
                    let l = match label_lookup.get(rendered.as_str()) {
                        Some(&l) => l,
                        None => {
                            let l = labels.len() as u32;
                            let arc: Arc<str> = Arc::from(rendered.as_str());
                            label_lookup.insert(arc.clone(), l);
                            labels.push(arc);
                            l
                        }
                    };
                    label_of_ptr.insert(ptr, l);
                    l
                }
            };
            let key = (t.to, lid);
            let id = match event_state.get(&key) {
                Some(&id) => id,
                None => {
                    let id = (cs + changed_states.len()) as u32;
                    all_in_base &=
                        old_event_keys.contains(&(t.to, &*labels[lid as usize]));
                    changed_states.push(key);
                    event_state.insert(key, id);
                    id
                }
            };
            changed_targets.push(id);
        }
        let new_ce = cs + changed_states.len();
        let n_new = new_ce + (n_old - ce);
        let shift = new_ce as i64 - ce as i64;

        let mut kripke = Kripke::default();
        let mut atom_lookup: HashMap<String, usize> = HashMap::new();
        let attr_atoms = install_schema_atoms(&mut kripke, model, &mut atom_lookup);
        // The attribute atoms' names must match the base's exactly for the row
        // splice (and the replay skip below) to hold; the fragment tables pin
        // the full (handle, attribute, value) triples, not just the counts.
        if base.name_fragments != kripke.name_fragments {
            return None;
        }

        // Quiescent states: same ids, no incoming labels; their attribute-atom
        // bits arrive with the row splice below.
        kripke.model_state.extend(0..q);
        kripke.incoming_event.resize(q, None);
        kripke.incoming_app.resize(q, None);

        // Atom-interning replay without walking the unchanged states. The
        // scratch build interns `event:`/`triggered`/`by-app:` atoms at each
        // event state's creation, in state order; so the prefix's intern
        // sequence is the base's own atom order restricted to atoms whose
        // first occurrence is below `cs`, the changed block interns at its
        // states' creation, and the suffix interns whatever remains, ordered
        // by first occurrence at or after `ce` with the per-state intern order
        // (event, then `triggered`, then `by-app:`) as the tie-break.
        let mut deferred: Vec<(usize, u8)> = Vec::new();
        for (bi, name) in base.atoms.iter().enumerate() {
            if atom_lookup.contains_key(name) {
                continue; // schema atom, interned above in schema order
            }
            match base.atom_rows[bi].first_set_at_or_after(0) {
                Some(f) if f < cs => {
                    intern_atom(&mut kripke.atoms, &mut atom_lookup, name.clone());
                }
                _ => {
                    let rank = match name.as_str() {
                        "triggered" => 1,
                        n if n.starts_with("by-app:") => 2,
                        _ => 0,
                    };
                    deferred.push((bi, rank));
                }
            }
        }
        // Prefix members' event states: ids unchanged, labels shared.
        kripke.model_state.extend_from_slice(&base.model_state[q..cs]);
        kripke.incoming_event.extend(base.incoming_event[q..cs].iter().cloned());
        kripke.incoming_app.extend(base.incoming_app[q..cs].iter().cloned());

        // The changed member's block: the one part that is genuinely new.
        let mut event_atom: Vec<usize> = vec![usize::MAX; labels.len()];
        let mut triggered = usize::MAX;
        let mut app_atom = usize::MAX;
        for &(to, lid) in &changed_states {
            if event_atom[lid as usize] == usize::MAX {
                event_atom[lid as usize] = intern_atom(
                    &mut kripke.atoms,
                    &mut atom_lookup,
                    format!("event:{}", labels[lid as usize]),
                );
            }
            if triggered == usize::MAX {
                triggered =
                    intern_atom(&mut kripke.atoms, &mut atom_lookup, "triggered".to_string());
            }
            if app_atom == usize::MAX {
                app_atom = intern_atom(
                    &mut kripke.atoms,
                    &mut atom_lookup,
                    format!("by-app:{changed_app}"),
                );
            }
            kripke.model_state.push(to);
            kripke.incoming_event.push(Some(labels[lid as usize].clone()));
            kripke.incoming_app.push(Some(app_arc.clone()));
        }

        // Suffix members' event states: ids shifted uniformly, labels shared.
        // (An atom the changed block just interned is no longer "remaining";
        // one set only in the old changed block with no suffix occurrence is
        // dropped entirely, exactly as a scratch build would never see it.)
        let mut suffix_intro: Vec<(u32, u8, usize)> = deferred
            .into_iter()
            .filter(|&(bi, _)| !atom_lookup.contains_key(&base.atoms[bi]))
            .filter_map(|(bi, rank)| {
                base.atom_rows[bi].first_set_at_or_after(ce).map(|f| (f as u32, rank, bi))
            })
            .collect();
        suffix_intro.sort_unstable();
        for &(_, _, bi) in &suffix_intro {
            intern_atom(&mut kripke.atoms, &mut atom_lookup, base.atoms[bi].clone());
        }
        kripke.model_state.extend_from_slice(&base.model_state[ce..]);
        kripke.incoming_event.extend(base.incoming_event[ce..].iter().cloned());
        kripke.incoming_app.extend(base.incoming_app[ce..].iter().cloned());

        // Label rows: splice each atom's unchanged regions out of the base's
        // row by name (bitset blit), then set the changed block's bits from its
        // states' labels. Atoms the base did not have can only hold in the
        // changed block; base atoms that no longer occur are simply absent.
        let mut rows: Vec<BitSet> = Vec::with_capacity(kripke.atoms.len());
        for name in &kripke.atoms {
            let mut row = BitSet::empty(n_new);
            if let Some(&old) = base.atom_lookup.get(name) {
                let old_row = base.atom_row(old);
                row.copy_range(old_row, 0, 0, cs);
                row.copy_range(old_row, ce, new_ce, n_old - ce);
            }
            rows.push(row);
        }
        for (i, &(to, lid)) in changed_states.iter().enumerate() {
            let s = cs + i;
            for a in 0..schema.attr_count() {
                let digit = schema.digit_of(to, a as soteria_model::AttrId) as usize;
                rows[attr_atoms[a][digit]].insert(s);
            }
            rows[event_atom[lid as usize]].insert(s);
            rows[triggered].insert(s);
            rows[app_atom].insert(s);
        }
        kripke.atom_rows = rows;
        kripke.atom_lookup = atom_lookup;

        // Per-transition targets: prefix copied, changed block computed, suffix
        // copied with the shift applied.
        let mut targets: Vec<u32> = Vec::with_capacity(model.transitions.len());
        targets.extend_from_slice(&base.transition_targets[..ns]);
        targets.extend_from_slice(&changed_targets);
        for &t in &base.transition_targets[oe..] {
            targets.push((t as i64 + shift) as u32);
        }
        kripke.transition_targets = targets;

        // The changed member's edges grouped by source model state: sorting
        // the (from, target) pairs groups, orders, and dedups them in one shot.
        let mut changed_pairs: Vec<(u32, u32)> = model.transitions[ns..ne]
            .iter()
            .zip(&changed_targets)
            .map(|(t, &tgt)| (t.from as u32, tgt))
            .collect();
        changed_pairs.sort_unstable();
        changed_pairs.dedup();

        // Per-model-state target lists, from the base's own CSR, as one flat
        // array (no per-state allocation): a quiescent state's successor list
        // *is* its model state's sorted, deduplicated target list (its only
        // sub-`q` entry can be the totalising self-loop, which the CSR rebuild
        // re-adds). The three segments keep sorted order: prefix ids <
        // changed-block ids < shifted suffix ids.
        let mut group_offsets: Vec<u32> = Vec::with_capacity(q + 1);
        group_offsets.push(0);
        let mut cursor = 0usize;
        let mut total = 0u32;
        for ms in 0..q {
            let mut count = 0u32;
            for &t in base.successors(ms) {
                let t = t as usize;
                if (q..cs).contains(&t) || t >= ce {
                    count += 1;
                }
            }
            while cursor < changed_pairs.len() && changed_pairs[cursor].0 == ms as u32 {
                cursor += 1;
                count += 1;
            }
            total += count;
            group_offsets.push(total);
        }
        let mut grouped: Vec<u32> = Vec::with_capacity(total as usize);
        let mut cursor = 0usize;
        for ms in 0..q {
            let old = base.successors(ms);
            grouped.extend(old.iter().copied().filter(|&t| (q..cs).contains(&(t as usize))));
            while cursor < changed_pairs.len() && changed_pairs[cursor].0 == ms as u32 {
                grouped.push(changed_pairs[cursor].1);
                cursor += 1;
            }
            grouped
                .extend(old.iter().filter(|&&t| t as usize >= ce).map(|&t| (t as i64 + shift) as u32));
        }
        kripke.set_transitions_grouped(&group_offsets, &grouped);
        kripke.initial = base.initial.clone();
        Some((kripke, all_in_base))
    }

    /// Installs the transition relation from a flat per-model-state CSR of
    /// target lists (`grouped[group_offsets[ms]..group_offsets[ms + 1]]` is
    /// model state `ms`'s sorted, deduplicated target list); every Kripke state
    /// over `ms` gets that list as its successors. This is the one CSR emitter:
    /// iterating sources in ascending order with ascending targets per source
    /// *is* the globally sorted edge order, so no edge-list sort is needed, and
    /// the arrays match the reference builder's sort-based emitter. A state
    /// whose group is empty gets a totalising self-loop.
    fn set_transitions_grouped(&mut self, group_offsets: &[u32], grouped: &[u32]) {
        let n = self.state_count();
        debug_assert!(n <= u32::MAX as usize, "state universe exceeds u32 indexing");
        self.succ_offsets = Vec::with_capacity(n + 1);
        self.succ_offsets.push(0);
        let mut acc = 0u32;
        let mut total = 0usize;
        for s in 0..n {
            let ms = self.model_state[s];
            let degree = ((group_offsets[ms + 1] - group_offsets[ms]) as usize).max(1);
            acc += degree as u32;
            total += degree;
            self.succ_offsets.push(acc);
        }
        let mut succ_targets: Vec<u32> = Vec::with_capacity(total);
        for s in 0..n {
            let ms = self.model_state[s];
            let (lo, hi) = (group_offsets[ms] as usize, group_offsets[ms + 1] as usize);
            if lo == hi {
                succ_targets.push(s as u32);
            } else {
                succ_targets.extend_from_slice(&grouped[lo..hi]);
            }
        }
        // Reverse CSR by counting sort; filling in (source asc, target asc)
        // order keeps each predecessor list sorted.
        let mut in_degree = vec![0u32; n];
        for &to in &succ_targets {
            in_degree[to as usize] += 1;
        }
        self.pred_offsets = Vec::with_capacity(n + 1);
        self.pred_offsets.push(0);
        let mut acc = 0u32;
        for &degree in &in_degree {
            acc += degree;
            self.pred_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = self.pred_offsets[..n].to_vec();
        let mut pred_targets = vec![0u32; succ_targets.len()];
        for s in 0..n {
            let (lo, hi) = (self.succ_offsets[s] as usize, self.succ_offsets[s + 1] as usize);
            for &to in &succ_targets[lo..hi] {
                let slot = cursor[to as usize];
                pred_targets[slot as usize] = s as u32;
                cursor[to as usize] += 1;
            }
        }
        self.succ_targets = succ_targets;
        self.pred_targets = pred_targets;
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
    /// The contributing app, shared by the class's event states.
    app: Arc<str>,
    /// The `event:`, `triggered` and `by-app:` atoms of the class's event states.
    atoms: [usize; 3],
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
    /// The class of `label`. A new class interns its atoms (`event:`, then
    /// `triggered`, then `by-app:`), which is the order the reference builder
    /// interns them in when the class's first event state appears.
    fn resolve(
        &mut self,
        label: &Arc<TransitionLabel>,
        atoms: &mut Vec<String>,
        lookup: &mut HashMap<String, usize>,
    ) -> u32 {
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
                            app: Arc::from(app.as_str()),
                            atoms: [
                                intern_atom(atoms, lookup, format!("event:{event}")),
                                intern_atom(atoms, lookup, "triggered".to_string()),
                                intern_atom(atoms, lookup, format!("by-app:{app}")),
                            ],
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
/// tables (fragments and strides) shared by the scratch and delta builds.
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
    fn reverse_csr_mirrors_forward_csr() {
        let model = water_leak_model();
        let kripke = Kripke::from_state_model(&model);
        let n = kripke.state_count();
        let mut forward: Vec<(u32, u32)> = Vec::new();
        for s in 0..n {
            for &t in kripke.successors(s) {
                forward.push((s as u32, t));
            }
        }
        let mut reverse: Vec<(u32, u32)> = Vec::new();
        for t in 0..n {
            for &s in kripke.predecessors(t) {
                reverse.push((s, t as u32));
            }
        }
        forward.sort_unstable();
        reverse.sort_unstable();
        assert_eq!(forward, reverse);
        assert_eq!(forward.len(), kripke.edge_count());
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
        assert_eq!(kripke.predecessors(1), &[0, 1]);
        assert!(kripke.holds(0, "p"));
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
