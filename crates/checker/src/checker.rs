//! CTL model checking over Kripke structures, with counter-example extraction.
//!
//! Two engines are provided with identical semantics:
//!
//! * [`Engine::Symbolic`] — the default; computes satisfaction sets with packed bitset
//!   frontier algorithms (the role BDDs play in NuSMV): `E [a U b]` is a reverse-edge
//!   worklist that only expands states newly added in the previous round, and `EG f`
//!   is the standard successor-count elimination — both O(V + E) instead of the
//!   seed's O(rounds × E) round-based fixpoints. The pre-image iterates the set words
//!   of the target bitset rather than testing membership bit-by-bit. Universes that
//!   fit a single word fall back to the round-based loops, where a whole fixpoint
//!   round is one `u64` operation.
//! * [`Engine::Explicit`] — a straightforward per-state labelling with round-based
//!   fixpoints over the CSR successor slices, kept as the differential baseline for
//!   the frontier algorithms.
//!
//! Satisfaction sets are memoized per checker: [`ModelChecker::sat`] hash-conses
//! formulas into dense node ids (atoms resolve to labelling rows, composite nodes
//! key on `(operator, child ids)` — O(1) hashing per node) and caches each node's
//! set by structural identity (interior mutability, so checking stays `&self`);
//! [`ModelChecker::check_all`] batches a property sweep over one
//! structure so the ~30 P.1–P.30 formulas share subformula sets (`triggered`, event
//! atoms, negations) and the `AG` counterexample path reuses the cached `sat(body)`
//! instead of recomputing it. Both engines and counterexample BFS run off the same
//! CSR edge arrays stored in the [`Kripke`] structure.

use crate::bitset::BitSet;
use crate::ctl::Ctl;
use crate::kripke::Kripke;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Which fixpoint engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Packed bitset frontier fixpoints (BDD-style set computation).
    #[default]
    Symbolic,
    /// Per-state boolean scans with round-based fixpoints (differential baseline).
    Explicit,
}

/// The outcome of checking one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// True if every initial state satisfies the formula.
    pub holds: bool,
    /// Number of initial states violating the formula.
    pub violating_initial_states: usize,
    /// A counter-example trace (state names) when the property fails, starting from a
    /// violating initial state. For `AG`-shaped properties this is a path to a state
    /// where the body fails; otherwise it is the violating initial state itself.
    pub counterexample: Option<Vec<String>>,
}

/// Universes of at most this many states (one bitset word) run the round-based
/// fixpoints: every set operation is a single `u64` op there, so frontier-worklist
/// bookkeeping costs more than it saves.
const SMALL_UNIVERSE: usize = 64;

/// Default state-count threshold above which the symbolic `E [a U b]` and `EG`
/// fixpoints shard each round across worker threads
/// ([`ModelChecker::with_sharding`]). Below it the sequential worklist /
/// elimination loops win: a fixpoint round must process tens of thousands of
/// pre-image edges before the per-round merge barrier amortizes. Overridable
/// per call site ([`soteria_exec::resolve_shard_states`]) and globally via
/// `SOTERIA_SHARD_STATES`; the sharded fixpoints are byte-identical to the
/// sequential ones at every thread count, so the threshold only moves work
/// between schedules, never changes a verdict.
pub const FIXPOINT_SHARD_STATES: usize = 16_384;

/// A hash-consed CTL node: operator discriminant plus dense child ids. Atoms are
/// resolved to their labelling-row index at intern time (all unknown atoms collapse
/// to the same `Atom(None)` node — they satisfy the empty set either way), so node
/// keys are small `Copy` values and interning a formula hashes each node in O(1)
/// instead of re-hashing whole subtrees per cache query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeOp {
    True,
    False,
    Atom(Option<u32>),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Implies(u32, u32),
    Ex(u32),
    Ef(u32),
    Eg(u32),
    Eu(u32, u32),
    Ax(u32),
    Af(u32),
    Ag(u32),
    Au(u32, u32),
}

/// The interner + satisfaction-set memo behind the symbolic engine's cache:
/// structurally identical subformulas intern to the same node id, and each node's
/// sat set is computed at most once per checker. Atom nodes name labelling rows
/// of the checker's structure, so a memo is only valid over that structure or
/// one equal to it (see [`SatSnapshot`]).
#[derive(Debug, Clone, Default)]
struct SatMemo {
    node_ids: HashMap<NodeOp, u32>,
    ops: Vec<NodeOp>,
    sat: Vec<Option<BitSet>>,
}

/// A frozen export of one checker's memoized satisfaction sets plus the
/// structure they were computed over. Produced by [`ModelChecker::snapshot`]
/// and consumed by [`ModelChecker::reuse_from`]: on a structure equal to the
/// snapshot's, every set (temporal ones included) is reused as-is; on any other
/// structure, nothing is.
#[derive(Debug, Clone)]
pub struct SatSnapshot {
    /// The structure the sets were computed over, behind an [`Arc`] so a
    /// snapshot export can share the checker's structure instead of cloning
    /// ~50k states of CSR arrays, and so a no-op resubmission can hand the same
    /// allocation back to the next checker (pointer equality then short-cuts
    /// the structure comparison in [`ModelChecker::reuse_from`]).
    kripke: Arc<Kripke>,
    memo: SatMemo,
}

impl SatSnapshot {
    /// Number of memoized sets in the snapshot.
    pub fn len(&self) -> usize {
        self.memo.sat.iter().filter(|set| set.is_some()).count()
    }

    /// True if the snapshot holds no sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The structure the sets were computed over. An incremental caller hands
    /// this same allocation to the next check when its model did not change.
    pub fn kripke(&self) -> &Arc<Kripke> {
        &self.kripke
    }
}

/// A CTL model checker over one Kripke structure.
pub struct ModelChecker<'a> {
    kripke: &'a Kripke,
    engine: Engine,
    /// Interior-mutable sat-set cache keyed by structurally-hashed `Ctl` nodes,
    /// shared across every `check`/`check_all` call on this checker so a property
    /// sweep computes each distinct subformula set once. Used by the symbolic
    /// engine only; the explicit baseline recomputes from scratch.
    memo: RefCell<SatMemo>,
    /// The in-stage abort handle installed on the constructing thread, if any
    /// (`soteria_exec::current_abort`). Polled between fixpoint rounds and every
    /// `ABORT_POLL_STRIDE` worklist pops; when set, the checker unwinds with the
    /// abort sentinel instead of finishing a sweep nobody wants. `None` (every
    /// non-service path) makes each poll a single branch, and polling never
    /// mutates state — the determinism gates hold byte-identically.
    abort: Option<soteria_exec::AbortHandle>,
    /// Worker threads for the sharded in-formula fixpoints (resolved at
    /// construction; 1 disables sharding — including automatically on parallel
    /// worker threads, where `resolve_threads` self-disables nested fan-out).
    shard_threads: usize,
    /// State-count threshold above which the fixpoints shard
    /// ([`FIXPOINT_SHARD_STATES`] unless overridden).
    shard_states: usize,
}

/// Worklist iterations between abort polls: coarse enough that the relaxed
/// atomic load vanishes against the per-pop edge scans, fine enough that a
/// G.3-scale fixpoint (~47k states) still observes an abort within a few
/// thousand pops.
const ABORT_POLL_STRIDE: usize = 4096;

/// Partitions `words` bitset words into at most `shards` contiguous
/// `[lo, hi)` ranges of near-equal length (empty ranges dropped). Word
/// granularity keeps shard boundaries off bit boundaries: a worker owns whole
/// words of the frontier, so segment extraction never splits or locks a word.
fn word_ranges(words: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.min(words).max(1);
    let len = words.div_ceil(shards);
    (0..shards)
        .map(|i| (i * len, ((i + 1) * len).min(words)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

impl<'a> ModelChecker<'a> {
    /// Creates a checker. The transition relation (forward and reverse) is read
    /// directly from the Kripke structure's CSR arrays; nothing is rebuilt per
    /// checker. Equivalent to [`ModelChecker::with_sharding`] with both knobs
    /// on auto.
    pub fn new(kripke: &'a Kripke, engine: Engine) -> Self {
        Self::with_sharding(kripke, engine, 0, 0)
    }

    /// Creates a checker with explicit in-formula sharding knobs: `threads`
    /// workers (0 = auto: `SOTERIA_THREADS` / available parallelism; always 1 on
    /// a parallel worker thread, so sharding nested under a property-level
    /// fan-out self-disables) and the `shard_states` state-count threshold
    /// (0 = auto: `SOTERIA_SHARD_STATES` / [`FIXPOINT_SHARD_STATES`]). Above the
    /// threshold, with more than one worker and the symbolic engine, the
    /// `E [a U b]` and `EG` fixpoints run their rounds sharded by word ranges of
    /// the frontier — byte-identical to the sequential fixpoints at every
    /// thread count.
    pub fn with_sharding(
        kripke: &'a Kripke,
        engine: Engine,
        threads: usize,
        shard_states: usize,
    ) -> Self {
        ModelChecker {
            kripke,
            engine,
            memo: RefCell::new(SatMemo::default()),
            abort: soteria_exec::current_abort(),
            shard_threads: soteria_exec::resolve_threads(threads),
            shard_states: soteria_exec::resolve_shard_states(
                shard_states,
                FIXPOINT_SHARD_STATES,
            ),
        }
    }

    /// Arms this checker with sat-set reuse from a previous check's
    /// [`SatSnapshot`] (the incremental re-verification path). If the
    /// snapshot's structure is this checker's own allocation or equals it
    /// field-for-field, the checker starts from the snapshot's memo, so every
    /// set it holds (temporal ones included) is reused as-is; otherwise the
    /// checker stays cold. Either way every verdict, violating-state count and
    /// counterexample trace is byte-identical to a fresh check.
    ///
    /// `_dirty_atom_prefixes` is unused. It stays in the signature only for the
    /// benchmark's replay (`perfbench/harness/src/replay.rs`), which passes it.
    pub fn reuse_from(self, prev: &SatSnapshot, _dirty_atom_prefixes: &[String]) -> Self {
        if std::ptr::eq(Arc::as_ptr(&prev.kripke), self.kripke) || *prev.kripke == *self.kripke {
            *self.memo.borrow_mut() = prev.memo.clone();
        }
        self
    }

    /// Exports this checker's memoized sat sets (plus an owned clone of the
    /// structure) for reuse by a later [`ModelChecker::reuse_from`] checker.
    /// Callers that already own the structure behind an [`Arc`] should prefer
    /// [`ModelChecker::snapshot_with`], which skips the clone.
    pub fn snapshot(&self) -> SatSnapshot {
        self.export_sets(Arc::new(self.kripke.clone()))
    }

    /// Exports this checker's memoized sat sets against a caller-supplied
    /// handle to the *same* structure the checker was built over, avoiding the
    /// structure clone of [`ModelChecker::snapshot`].
    pub fn snapshot_with(&self, kripke: Arc<Kripke>) -> SatSnapshot {
        debug_assert!(
            std::ptr::eq(Arc::as_ptr(&kripke), self.kripke),
            "snapshot_with must receive the checker's own structure"
        );
        self.export_sets(kripke)
    }

    fn export_sets(&self, kripke: Arc<Kripke>) -> SatSnapshot {
        SatSnapshot { kripke, memo: self.memo.borrow().clone() }
    }

    /// Abort poll point: unwinds with the abort sentinel when the constructing
    /// stage was aborted. A no-op branch when no handle is installed.
    #[inline]
    fn poll_abort(&self) {
        if let Some(abort) = &self.abort {
            abort.bail_if_aborted();
        }
    }

    /// The set of states satisfying a formula. The symbolic engine memoizes every
    /// subformula by structural identity, so repeated subformulas within and across
    /// a property sweep are computed once. Single-word universes recompute directly:
    /// there every set operation is one `u64` op, cheaper than interning.
    pub fn sat(&self, formula: &Ctl) -> BitSet {
        match self.engine {
            Engine::Symbolic if self.kripke.state_count() > SMALL_UNIVERSE => {
                let id = self.intern(formula);
                self.sat_node(id)
            }
            _ => self.direct_sat(formula),
        }
    }

    /// Hash-conses a formula into the memo, bottom-up. Each node is hashed as a
    /// small `(op, child ids)` key — O(1) per node — rather than by subtree.
    fn intern(&self, formula: &Ctl) -> u32 {
        let op = match formula {
            Ctl::True => NodeOp::True,
            Ctl::False => NodeOp::False,
            Ctl::Atom(a) => NodeOp::Atom(self.kripke.atom_index(a).map(|i| i as u32)),
            Ctl::Not(f) => NodeOp::Not(self.intern(f)),
            Ctl::And(a, b) => NodeOp::And(self.intern(a), self.intern(b)),
            Ctl::Or(a, b) => NodeOp::Or(self.intern(a), self.intern(b)),
            Ctl::Implies(a, b) => NodeOp::Implies(self.intern(a), self.intern(b)),
            Ctl::Ex(f) => NodeOp::Ex(self.intern(f)),
            Ctl::Ef(f) => NodeOp::Ef(self.intern(f)),
            Ctl::Eg(f) => NodeOp::Eg(self.intern(f)),
            Ctl::Eu(a, b) => NodeOp::Eu(self.intern(a), self.intern(b)),
            Ctl::Ax(f) => NodeOp::Ax(self.intern(f)),
            Ctl::Af(f) => NodeOp::Af(self.intern(f)),
            Ctl::Ag(f) => NodeOp::Ag(self.intern(f)),
            Ctl::Au(a, b) => NodeOp::Au(self.intern(a), self.intern(b)),
        };
        self.intern_op(op)
    }

    /// Interns one node, assigning its dense id on first sight.
    fn intern_op(&self, op: NodeOp) -> u32 {
        let mut memo = self.memo.borrow_mut();
        if let Some(&id) = memo.node_ids.get(&op) {
            return id;
        }
        let id = memo.ops.len() as u32;
        memo.node_ids.insert(op, id);
        memo.ops.push(op);
        memo.sat.push(None);
        id
    }

    /// The satisfaction set of an interned node, memoized.
    ///
    /// KEEP IN SYNC with `direct_sat`: the two matches implement the same CTL
    /// semantics over `NodeOp` ids and `Ctl` trees respectively (the symbolic
    /// engine uses this one above `SMALL_UNIVERSE`, `direct_sat` below it, where
    /// interning costs more than recomputation). `tests/engine_differential.rs`
    /// fuzzes both paths against the explicit and legacy checkers across the
    /// threshold.
    fn sat_node(&self, id: u32) -> BitSet {
        if let Some(hit) = &self.memo.borrow().sat[id as usize] {
            return hit.clone();
        }
        let op = self.memo.borrow().ops[id as usize];
        let n = self.kripke.state_count();
        let result = match op {
            NodeOp::True => BitSet::full(n),
            NodeOp::False => BitSet::empty(n),
            // The Kripke structure stores labelling column-wise; satisfaction of an
            // atom is its precomputed row, not a per-state scan.
            NodeOp::Atom(Some(row)) => self.kripke.atom_row(row as usize).clone(),
            NodeOp::Atom(None) => BitSet::empty(n),
            NodeOp::Not(f) => {
                let mut set = self.sat_node(f);
                set.complement();
                set
            }
            NodeOp::And(a, b) => {
                let mut set = self.sat_node(a);
                set.intersect_with(&self.sat_node(b));
                set
            }
            NodeOp::Or(a, b) => {
                let mut set = self.sat_node(a);
                set.union_with(&self.sat_node(b));
                set
            }
            NodeOp::Implies(a, b) => {
                // a -> b  ≡  !a | b
                let mut not_a = self.sat_node(a);
                not_a.complement();
                not_a.union_with(&self.sat_node(b));
                not_a
            }
            NodeOp::Ex(f) => self.pre_exists(&self.sat_node(f)),
            NodeOp::Ef(f) => {
                // EF f = E [true U f]
                self.least_fixpoint_eu(&BitSet::full(n), &self.sat_node(f))
            }
            NodeOp::Eu(a, b) => self.least_fixpoint_eu(&self.sat_node(a), &self.sat_node(b)),
            NodeOp::Eg(f) => self.greatest_fixpoint_eg(&self.sat_node(f)),
            NodeOp::Ax(f) => {
                // AX f = !EX !f
                let mut not_f = self.sat_node(f);
                not_f.complement();
                let mut result = self.pre_exists(&not_f);
                result.complement();
                result
            }
            NodeOp::Af(f) => {
                // AF f = !EG !f
                let mut not_f = self.sat_node(f);
                not_f.complement();
                let mut result = self.greatest_fixpoint_eg(&not_f);
                result.complement();
                result
            }
            NodeOp::Ag(f) => {
                // AG f = !EF !f
                let mut not_f = self.sat_node(f);
                not_f.complement();
                let mut result = self.least_fixpoint_eu(&BitSet::full(n), &not_f);
                result.complement();
                result
            }
            NodeOp::Au(a, b) => {
                // A [a U b] = !(E [!b U (!a & !b)] | EG !b)
                let sat_a = self.sat_node(a);
                let sat_b = self.sat_node(b);
                let mut not_a = sat_a.clone();
                not_a.complement();
                let mut not_b = sat_b.clone();
                not_b.complement();
                let mut not_a_and_not_b = not_a;
                not_a_and_not_b.intersect_with(&not_b);
                let mut bad = self.least_fixpoint_eu(&not_b, &not_a_and_not_b);
                bad.union_with(&self.greatest_fixpoint_eg(&not_b));
                bad.complement();
                bad
            }
        };
        self.memo.borrow_mut().sat[id as usize] = Some(result.clone());
        result
    }

    /// Direct recursion with no memoization: used by the explicit engine (the
    /// differential baseline recomputes everything from scratch) and by the
    /// symbolic engine on single-word universes. The pre-image and fixpoint
    /// helpers still dispatch on the engine.
    ///
    /// KEEP IN SYNC with `sat_node` — same semantics, different node
    /// representation; see the note there.
    fn direct_sat(&self, formula: &Ctl) -> BitSet {
        let n = self.kripke.state_count();
        match formula {
            Ctl::True => BitSet::full(n),
            Ctl::False => BitSet::empty(n),
            Ctl::Atom(a) => match self.kripke.atom_index(a) {
                Some(idx) => self.kripke.atom_row(idx).clone(),
                None => BitSet::empty(n),
            },
            Ctl::Not(f) => {
                let mut set = self.direct_sat(f);
                set.complement();
                set
            }
            Ctl::And(a, b) => {
                let mut set = self.direct_sat(a);
                set.intersect_with(&self.direct_sat(b));
                set
            }
            Ctl::Or(a, b) => {
                let mut set = self.direct_sat(a);
                set.union_with(&self.direct_sat(b));
                set
            }
            Ctl::Implies(a, b) => {
                let mut not_a = self.direct_sat(a);
                not_a.complement();
                not_a.union_with(&self.direct_sat(b));
                not_a
            }
            Ctl::Ex(f) => self.pre_exists(&self.direct_sat(f)),
            Ctl::Ef(f) => self.least_fixpoint_eu(&BitSet::full(n), &self.direct_sat(f)),
            Ctl::Eu(a, b) => {
                self.least_fixpoint_eu(&self.direct_sat(a), &self.direct_sat(b))
            }
            Ctl::Eg(f) => self.greatest_fixpoint_eg(&self.direct_sat(f)),
            Ctl::Ax(f) => {
                let mut not_f = self.direct_sat(f);
                not_f.complement();
                let mut result = self.pre_exists(&not_f);
                result.complement();
                result
            }
            Ctl::Af(f) => {
                let mut not_f = self.direct_sat(f);
                not_f.complement();
                let mut result = self.greatest_fixpoint_eg(&not_f);
                result.complement();
                result
            }
            Ctl::Ag(f) => {
                let mut not_f = self.direct_sat(f);
                not_f.complement();
                let mut result = self.least_fixpoint_eu(&BitSet::full(n), &not_f);
                result.complement();
                result
            }
            Ctl::Au(a, b) => {
                let sat_a = self.direct_sat(a);
                let sat_b = self.direct_sat(b);
                let mut not_a = sat_a.clone();
                not_a.complement();
                let mut not_b = sat_b.clone();
                not_b.complement();
                let mut not_a_and_not_b = not_a;
                not_a_and_not_b.intersect_with(&not_b);
                let mut bad = self.least_fixpoint_eu(&not_b, &not_a_and_not_b);
                bad.union_with(&self.greatest_fixpoint_eg(&not_b));
                bad.complement();
                bad
            }
        }
    }

    /// States with at least one successor in `target` (the existential pre-image).
    fn pre_exists(&self, target: &BitSet) -> BitSet {
        let n = self.kripke.state_count();
        let mut result = BitSet::empty(n);
        match self.engine {
            Engine::Symbolic => {
                // `BitSet::iter` walks set words and peels bits, so only the members
                // of `target` are visited — not the whole universe.
                for to in target.iter() {
                    for &from in self.kripke.predecessors(to) {
                        result.insert(from as usize);
                    }
                }
            }
            Engine::Explicit => {
                for from in 0..n {
                    if self.kripke.successors(from).iter().any(|&s| target.contains(s as usize)) {
                        result.insert(from);
                    }
                }
            }
        }
        result
    }

    /// Least fixpoint for `E [a U b]`.
    ///
    /// The symbolic engine runs a frontier worklist over the reverse CSR edges: only
    /// states newly added in the previous step are expanded, so every reverse edge is
    /// processed at most once — O(V + E) total, versus the round-based loop's
    /// O(rounds × E) re-scan of the entire accumulated set.
    /// Above the sharding threshold with more than one worker, each round of the
    /// reverse-frontier expansion is sharded by word ranges of the frontier
    /// bitset instead ([`Self::least_fixpoint_eu_sharded`]); the least fixpoint
    /// is unique, so every schedule converges to the same set.
    fn least_fixpoint_eu(&self, sat_a: &BitSet, sat_b: &BitSet) -> BitSet {
        let _span = soteria_obs::span("checker.fixpoint_eu");
        if self.engine == Engine::Explicit || self.kripke.state_count() <= SMALL_UNIVERSE {
            return self.least_fixpoint_eu_rounds(sat_a, sat_b);
        }
        if self.shard_threads > 1 && self.kripke.state_count() >= self.shard_states {
            return self.least_fixpoint_eu_sharded(sat_a, sat_b);
        }
        let mut result = sat_b.clone();
        let mut frontier: Vec<u32> = sat_b.iter().map(|s| s as u32).collect();
        let mut pops = 0usize;
        while let Some(s) = frontier.pop() {
            pops += 1;
            if pops.is_multiple_of(ABORT_POLL_STRIDE) {
                self.poll_abort();
            }
            for &p in self.kripke.predecessors(s as usize) {
                let p_usize = p as usize;
                if sat_a.contains(p_usize) && !result.contains(p_usize) {
                    result.insert(p_usize);
                    frontier.push(p);
                }
            }
        }
        result
    }

    /// Word-sharded least fixpoint for `E [a U b]`: each round partitions the
    /// current frontier's backing words into contiguous ranges
    /// ([`word_ranges`]), one worker per range computes the pre-image of its
    /// segment into a private bitset (reading the shared CSR arrays and the
    /// round-start `result` — no shared writes), and a merge barrier unions the
    /// segments into the next frontier. Workers poll a cloned [`AbortHandle`]
    /// every [`ABORT_POLL_STRIDE`] frontier members, same stride as the
    /// sequential worklist.
    ///
    /// Byte-identical to the sequential worklist at every thread count: the
    /// rounds compute exactly the breadth-first layers of the (unique) least
    /// fixpoint of `λS. b ∪ (a ∩ pre∃(S))`, the merge is an order-insensitive
    /// union, and the bitset representation is canonical.
    fn least_fixpoint_eu_sharded(&self, sat_a: &BitSet, sat_b: &BitSet) -> BitSet {
        let n = self.kripke.state_count();
        let kripke = self.kripke;
        let abort = self.abort.clone();
        let mut result = sat_b.clone();
        let mut frontier = sat_b.clone();
        loop {
            self.poll_abort();
            soteria_obs::add("checker.sharded_rounds", 1);
            let words = frontier.words();
            let ranges = word_ranges(words.len(), self.shard_threads);
            let snapshot = &result;
            let locals = soteria_exec::par_map(&ranges, self.shard_threads, |&(lo, hi)| {
                let mut local = BitSet::empty(n);
                let mut visits = 0usize;
                for (wi, &frontier_word) in
                    words.iter().enumerate().take(hi).skip(lo)
                {
                    let mut word = frontier_word;
                    while word != 0 {
                        let s = wi * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        visits += 1;
                        if visits.is_multiple_of(ABORT_POLL_STRIDE) {
                            if let Some(handle) = &abort {
                                handle.bail_if_aborted();
                            }
                        }
                        for &p in kripke.predecessors(s) {
                            let p = p as usize;
                            if sat_a.contains(p) && !snapshot.contains(p) {
                                local.insert(p);
                            }
                        }
                    }
                }
                local
            });
            let mut grown = BitSet::empty(n);
            for local in &locals {
                grown.union_with(local);
            }
            if grown.is_empty() {
                return result;
            }
            result.union_with(&grown);
            frontier = grown;
        }
    }

    /// Round-based least fixpoint (the explicit engine's baseline algorithm).
    fn least_fixpoint_eu_rounds(&self, sat_a: &BitSet, sat_b: &BitSet) -> BitSet {
        let mut result = sat_b.clone();
        loop {
            self.poll_abort();
            let mut pre = self.pre_exists(&result);
            pre.intersect_with(sat_a);
            pre.union_with(&result);
            if pre == result {
                return result;
            }
            result = pre;
        }
    }

    /// Greatest fixpoint for `EG f`.
    ///
    /// The symbolic engine uses successor-count elimination: every state of `sat f`
    /// tracks how many of its successors remain viable; states whose count reaches
    /// zero are eliminated and their predecessors decremented through the reverse
    /// CSR edges. Each edge is touched a constant number of times — O(V + E).
    /// Above the sharding threshold with more than one worker, elimination runs
    /// in word-sharded rounds instead ([`Self::greatest_fixpoint_eg_sharded`]);
    /// the greatest fixpoint is unique, so every schedule converges to the same
    /// set.
    fn greatest_fixpoint_eg(&self, sat_f: &BitSet) -> BitSet {
        let _span = soteria_obs::span("checker.fixpoint_eg");
        if self.engine == Engine::Explicit || self.kripke.state_count() <= SMALL_UNIVERSE {
            return self.greatest_fixpoint_eg_rounds(sat_f);
        }
        if self.shard_threads > 1 && self.kripke.state_count() >= self.shard_states {
            return self.greatest_fixpoint_eg_sharded(sat_f);
        }
        let n = self.kripke.state_count();
        let mut result = sat_f.clone();
        let mut viable = vec![0u32; n];
        let mut eliminated: Vec<u32> = Vec::new();
        for s in sat_f.iter() {
            let count = self
                .kripke
                .successors(s)
                .iter()
                .filter(|&&t| sat_f.contains(t as usize))
                .count() as u32;
            viable[s] = count;
            if count == 0 {
                result.remove(s);
                eliminated.push(s as u32);
            }
        }
        let mut pops = 0usize;
        while let Some(s) = eliminated.pop() {
            pops += 1;
            if pops.is_multiple_of(ABORT_POLL_STRIDE) {
                self.poll_abort();
            }
            for &p in self.kripke.predecessors(s as usize) {
                let p_usize = p as usize;
                if result.contains(p_usize) {
                    viable[p_usize] -= 1;
                    if viable[p_usize] == 0 {
                        result.remove(p_usize);
                        eliminated.push(p);
                    }
                }
            }
        }
        result
    }

    /// Word-sharded greatest fixpoint for `EG f`: each round re-examines a
    /// *dirty* set (initially all of `sat f`, thereafter the surviving
    /// predecessors of the states eliminated last round), sharded by word
    /// ranges — each worker marks the members of its segment that have no
    /// remaining successor in the round-start `result` into a private bitset,
    /// and a merge barrier unions the eliminations. Workers poll a cloned
    /// [`AbortHandle`] every [`ABORT_POLL_STRIDE`] dirty members.
    ///
    /// Byte-identical to sequential successor-count elimination at every thread
    /// count: a state is ever eliminated only when it has no viable successor
    /// (against a conservative, round-start snapshot), a state that loses its
    /// last viable successor mid-round is re-checked next round via the dirty
    /// set, so the loop terminates exactly at the (unique) greatest fixpoint of
    /// `λS. sat f ∩ pre∃(S)`.
    fn greatest_fixpoint_eg_sharded(&self, sat_f: &BitSet) -> BitSet {
        let n = self.kripke.state_count();
        let kripke = self.kripke;
        let abort = self.abort.clone();
        let mut result = sat_f.clone();
        let mut dirty = sat_f.clone();
        loop {
            self.poll_abort();
            soteria_obs::add("checker.sharded_rounds", 1);
            let words = dirty.words();
            let ranges = word_ranges(words.len(), self.shard_threads);
            let snapshot = &result;
            let locals = soteria_exec::par_map(&ranges, self.shard_threads, |&(lo, hi)| {
                let mut local = BitSet::empty(n);
                let mut visits = 0usize;
                for (wi, &frontier_word) in
                    words.iter().enumerate().take(hi).skip(lo)
                {
                    let mut word = frontier_word;
                    while word != 0 {
                        let s = wi * 64 + word.trailing_zeros() as usize;
                        word &= word - 1;
                        visits += 1;
                        if visits.is_multiple_of(ABORT_POLL_STRIDE) {
                            if let Some(handle) = &abort {
                                handle.bail_if_aborted();
                            }
                        }
                        if snapshot.contains(s)
                            && !kripke
                                .successors(s)
                                .iter()
                                .any(|&t| snapshot.contains(t as usize))
                        {
                            local.insert(s);
                        }
                    }
                }
                local
            });
            let mut gone = BitSet::empty(n);
            for local in &locals {
                gone.union_with(local);
            }
            if gone.is_empty() {
                return result;
            }
            result.difference_with(&gone);
            let mut next = BitSet::empty(n);
            for s in gone.iter() {
                for &p in kripke.predecessors(s) {
                    if result.contains(p as usize) {
                        next.insert(p as usize);
                    }
                }
            }
            dirty = next;
        }
    }

    /// Round-based greatest fixpoint (the explicit engine's baseline algorithm).
    fn greatest_fixpoint_eg_rounds(&self, sat_f: &BitSet) -> BitSet {
        let mut result = sat_f.clone();
        loop {
            self.poll_abort();
            let mut pre = self.pre_exists(&result);
            pre.intersect_with(sat_f);
            if pre == result {
                return result;
            }
            result = pre;
        }
    }

    /// Checks a formula against the Kripke structure's initial states and extracts a
    /// counter-example when it fails.
    pub fn check(&self, formula: &Ctl) -> CheckResult {
        let sat = self.sat(formula);
        let violating: Vec<usize> = self
            .kripke
            .initial
            .iter()
            .copied()
            .filter(|s| !sat.contains(*s))
            .collect();
        if violating.is_empty() {
            return CheckResult { holds: true, violating_initial_states: 0, counterexample: None };
        }
        let counterexample = self.counterexample(formula, violating[0]);
        CheckResult {
            holds: false,
            violating_initial_states: violating.len(),
            counterexample: Some(counterexample),
        }
    }

    /// Checks a batch of properties against the same structure. With the symbolic
    /// engine on a universe above `SMALL_UNIVERSE`, the satisfaction-set cache is
    /// shared across the whole batch: subformulas common to several properties
    /// (event atoms, `triggered`, their negations) are computed once. Below the
    /// threshold (and for the explicit baseline) every formula recomputes — there
    /// each set operation is a single `u64` op, cheaper than cache bookkeeping.
    pub fn check_all(&self, formulas: &[Ctl]) -> Vec<CheckResult> {
        let _span = soteria_obs::span("checker.check_all");
        formulas
            .iter()
            .map(|f| {
                self.poll_abort();
                self.check(f)
            })
            .collect()
    }

    /// Builds a counter-example trace starting at `from`. For `AG f` the trace is the
    /// shortest path from `from` to a state violating `f`; for other shapes the trace
    /// is the violating initial state alone.
    fn counterexample(&self, formula: &Ctl, from: usize) -> Vec<String> {
        if let Ctl::Ag(body) = formula {
            // Above `SMALL_UNIVERSE` with the symbolic engine, `sat(body)` hits the
            // memo: the body set was already computed while checking the formula
            // itself. Small universes recompute it (a handful of word ops).
            let mut bad = self.sat(body);
            bad.complement();
            if let Some(path) = self.shortest_path(from, &bad) {
                return path.into_iter().map(|s| self.kripke.state_name(s)).collect();
            }
        }
        vec![self.kripke.state_name(from)]
    }

    /// Breadth-first shortest path from `from` to any state in `targets`, over the
    /// same CSR successor array the engines use.
    fn shortest_path(&self, from: usize, targets: &BitSet) -> Option<Vec<usize>> {
        let n = self.kripke.state_count();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(s) = queue.pop_front() {
            if targets.contains(s) {
                let mut path = vec![s];
                let mut cur = s;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &succ in self.kripke.successors(s) {
                let succ = succ as usize;
                if !visited[succ] {
                    visited[succ] = true;
                    parent[succ] = Some(s);
                    queue.push_back(succ);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built three-state Kripke structure:
    /// s0 --> s1 --> s2, s2 loops; atoms: p on s0 and s1, q on s2.
    fn line_kripke() -> Kripke {
        let mut kripke = Kripke::from_lists(
            vec!["p".into(), "q".into()],
            vec!["s0".into(), "s1".into(), "s2".into()],
            &[vec![1], vec![2], vec![2]],
            vec![0],
        );
        kripke.set_labels(&[vec![0], vec![0], vec![1]]);
        kripke
    }

    fn check(engine: Engine, formula: &Ctl) -> CheckResult {
        let kripke = line_kripke();
        ModelChecker::new(&kripke, engine).check(formula)
    }

    #[test]
    fn basic_temporal_operators() {
        for engine in [Engine::Symbolic, Engine::Explicit] {
            // AF q: every path eventually reaches s2.
            assert!(check(engine, &Ctl::atom("q").always_finally()).holds);
            // AG p fails (s2 has no p).
            let r = check(engine, &Ctl::atom("p").always_globally());
            assert!(!r.holds);
            assert_eq!(r.violating_initial_states, 1);
            // EF q holds, EG p fails, EX p holds (s0 -> s1 has p).
            assert!(check(engine, &Ctl::atom("q").exists_finally()).holds);
            assert!(!check(engine, &Ctl::Eg(Box::new(Ctl::atom("p")))).holds);
            assert!(check(engine, &Ctl::Ex(Box::new(Ctl::atom("p")))).holds);
            // AX p holds at s0 (only successor s1 has p).
            assert!(check(engine, &Ctl::atom("p").all_next()).holds);
            // A [p U q] holds on the single path.
            assert!(check(engine, &Ctl::Au(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q")))).holds);
            // E [p U q] holds as well.
            assert!(check(engine, &Ctl::Eu(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q")))).holds);
            // AG (p | q) holds everywhere.
            assert!(check(engine, &Ctl::atom("p").or(Ctl::atom("q")).always_globally()).holds);
            // Implication and negation.
            assert!(check(engine, &Ctl::atom("q").implies(Ctl::atom("q")).always_globally()).holds);
            assert!(check(engine, &Ctl::False.not()).holds);
        }
    }

    #[test]
    fn counterexample_path_for_ag() {
        let kripke = line_kripke();
        let checker = ModelChecker::new(&kripke, Engine::Symbolic);
        let result = checker.check(&Ctl::atom("p").always_globally());
        let trace = result.counterexample.unwrap();
        assert_eq!(trace, vec!["s0".to_string(), "s1".to_string(), "s2".to_string()]);
    }

    #[test]
    fn engines_agree_on_random_like_formulas() {
        let kripke = line_kripke();
        let formulas = vec![
            Ctl::atom("p").and(Ctl::atom("q").not()).exists_finally(),
            Ctl::Ag(Box::new(Ctl::atom("p").implies(Ctl::atom("q").exists_finally()))),
            Ctl::Af(Box::new(Ctl::atom("q").and(Ctl::atom("p").not()))),
            Ctl::Eg(Box::new(Ctl::atom("q"))),
            Ctl::Au(Box::new(Ctl::True), Box::new(Ctl::atom("q"))),
        ];
        let symbolic = ModelChecker::new(&kripke, Engine::Symbolic);
        let explicit = ModelChecker::new(&kripke, Engine::Explicit);
        for f in formulas {
            let a = symbolic.sat(&f);
            let b = explicit.sat(&f);
            assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>(), "formula {f}");
        }
    }

    #[test]
    fn check_all_matches_individual_checks() {
        let kripke = line_kripke();
        let formulas = vec![
            Ctl::atom("p").always_globally(),
            Ctl::atom("q").always_finally(),
            Ctl::atom("p").or(Ctl::atom("q")).always_globally(),
            Ctl::atom("p").always_globally(), // repeated: served from the cache
        ];
        let batch = ModelChecker::new(&kripke, Engine::Symbolic);
        let batched = batch.check_all(&formulas);
        for (f, b) in formulas.iter().zip(&batched) {
            let fresh = ModelChecker::new(&kripke, Engine::Symbolic).check(f);
            assert_eq!(&fresh, b, "batched result differs on {f}");
        }
        assert_eq!(batched[0], batched[3]);
    }

    /// A 100-state ring (above `SMALL_UNIVERSE`, so the frontier fixpoints and the
    /// memo cache engage): p on even states, q only on state 99.
    fn ring_kripke() -> Kripke {
        ring_with_successors(|s| vec![(s + 1) % 100])
    }

    /// The 100-state ring's states and labels over caller-chosen edges.
    fn ring_with_successors(succ: impl Fn(usize) -> Vec<usize>) -> Kripke {
        let n = 100;
        let succs: Vec<Vec<usize>> = (0..n).map(succ).collect();
        let names: Vec<String> = (0..n).map(|s| format!("r{s}")).collect();
        let mut kripke =
            Kripke::from_lists(vec!["p".into(), "q".into()], names, &succs, vec![0]);
        let labels: Vec<Vec<usize>> = (0..n)
            .map(|s| {
                let mut l = Vec::new();
                if s % 2 == 0 {
                    l.push(0);
                }
                if s == 99 {
                    l.push(1);
                }
                l
            })
            .collect();
        kripke.set_labels(&labels);
        kripke
    }

    #[test]
    fn frontier_and_rounds_agree_above_the_small_universe_threshold() {
        let kripke = ring_kripke();
        let symbolic = ModelChecker::new(&kripke, Engine::Symbolic);
        let explicit = ModelChecker::new(&kripke, Engine::Explicit);
        let formulas = vec![
            Ctl::atom("q").exists_finally(),
            Ctl::atom("q").always_finally(),
            Ctl::Eg(Box::new(Ctl::atom("p").or(Ctl::atom("q").not()))),
            Ctl::Eu(Box::new(Ctl::atom("p").not().not()), Box::new(Ctl::atom("q"))),
            Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally(),
            Ctl::Au(Box::new(Ctl::True), Box::new(Ctl::atom("q"))),
        ];
        for f in &formulas {
            assert_eq!(
                symbolic.sat(f).iter().collect::<Vec<_>>(),
                explicit.sat(f).iter().collect::<Vec<_>>(),
                "engines disagree on {f}"
            );
        }
    }

    #[test]
    fn sat_cache_is_consistent_across_repeated_queries() {
        let kripke = ring_kripke();
        let checker = ModelChecker::new(&kripke, Engine::Symbolic);
        let f = Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally();
        let first = checker.sat(&f);
        let second = checker.sat(&f);
        assert_eq!(first.iter().collect::<Vec<_>>(), second.iter().collect::<Vec<_>>());
        // Every subformula node was interned and memoized: p, q, EF q, p -> EF q,
        // AG (...) — five nodes, five cached sets.
        let memo = checker.memo.borrow();
        assert_eq!(memo.ops.len(), 5);
        assert!(memo.sat.iter().all(|s| s.is_some()));
        // Structurally identical subformulas share one node.
        drop(memo);
        checker.sat(&Ctl::atom("q").exists_finally());
        assert_eq!(checker.memo.borrow().ops.len(), 5);
    }

    #[test]
    fn sharded_fixpoints_match_sequential_at_every_thread_count() {
        let kripke = ring_kripke();
        let formulas = vec![
            Ctl::atom("q").exists_finally(),
            Ctl::atom("q").always_finally(),
            Ctl::Eg(Box::new(Ctl::atom("p").or(Ctl::atom("q").not()))),
            Ctl::Eu(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q"))),
            Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally(),
            Ctl::Au(Box::new(Ctl::True), Box::new(Ctl::atom("q"))),
        ];
        // shard_states = 1 forces the threshold so the 100-state ring shards.
        let sequential = ModelChecker::with_sharding(&kripke, Engine::Symbolic, 1, 1);
        for threads in [1, 2, 4, 8] {
            let sharded = ModelChecker::with_sharding(&kripke, Engine::Symbolic, threads, 1);
            for f in &formulas {
                assert_eq!(
                    sequential.sat(f),
                    sharded.sat(f),
                    "sharded sat differs at {threads} threads on {f}"
                );
                assert_eq!(
                    sequential.check(f),
                    sharded.check(f),
                    "sharded check differs at {threads} threads on {f}"
                );
            }
        }
    }

    #[test]
    fn word_ranges_cover_exactly_once() {
        for words in [0, 1, 3, 64, 65, 1000] {
            for shards in [1, 2, 4, 7, 64, 2000] {
                let ranges = word_ranges(words, shards);
                let mut covered = 0;
                let mut cursor = 0;
                for &(lo, hi) in &ranges {
                    assert!(lo >= cursor && lo < hi, "range ({lo},{hi}) out of order");
                    assert_eq!(lo, cursor, "gap before ({lo},{hi})");
                    covered += hi - lo;
                    cursor = hi;
                }
                assert_eq!(covered, words, "words={words} shards={shards}");
                assert!(ranges.len() <= shards.max(1));
            }
        }
    }

    fn reuse_formulas() -> Vec<Ctl> {
        vec![
            Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally(),
            Ctl::atom("q").always_finally(),
            Ctl::atom("p").and(Ctl::atom("q").not()).exists_finally(),
            Ctl::Eg(Box::new(Ctl::atom("p").not())),
        ]
    }

    #[test]
    fn snapshot_reuse_on_identical_structure_is_byte_identical() {
        let kripke = ring_kripke();
        let formulas = reuse_formulas();
        let cold = ModelChecker::new(&kripke, Engine::Symbolic);
        let cold_results = cold.check_all(&formulas);
        let snapshot = cold.snapshot();
        assert!(!snapshot.is_empty());
        // An equal structure in another allocation, and the snapshot's own.
        for structure in [&ring_kripke(), snapshot.kripke().as_ref()] {
            let warm = ModelChecker::new(structure, Engine::Symbolic).reuse_from(&snapshot, &[]);
            // Every node (temporal included) is seeded before any computation.
            let seeded = warm.memo.borrow().sat.iter().filter(|set| set.is_some()).count();
            assert_eq!(seeded, snapshot.len());
            assert_eq!(warm.check_all(&formulas), cold_results);
        }
    }

    #[test]
    fn snapshot_reuse_on_a_changed_structure_stays_cold() {
        // The same states and labels as the ring, plus one edge (99 -> 50).
        let changed = ring_with_successors(|s| if s == 99 { vec![0, 50] } else { vec![s + 1] });
        let formulas = reuse_formulas();
        let ring = ring_kripke();
        let cold = ModelChecker::new(&ring, Engine::Symbolic);
        cold.check_all(&formulas);
        let snapshot = cold.snapshot();
        let warm = ModelChecker::new(&changed, Engine::Symbolic).reuse_from(&snapshot, &[]);
        assert!(warm.memo.borrow().ops.is_empty(), "a changed structure seeds nothing");
        let fresh = ModelChecker::new(&changed, Engine::Symbolic).check_all(&formulas);
        assert_eq!(warm.check_all(&formulas), fresh);
    }

    #[test]
    fn unknown_atom_is_false_everywhere() {
        let kripke = line_kripke();
        let checker = ModelChecker::new(&kripke, Engine::Symbolic);
        assert!(checker.sat(&Ctl::atom("missing")).is_empty());
        let result = checker.check(&Ctl::atom("missing").always_globally());
        assert!(!result.holds);
    }
}
