//! CTL model checking over Kripke structures, with counter-example extraction.
//!
//! One engine, one evaluator. Satisfaction sets are packed bitsets (the role BDDs
//! play in NuSMV) computed with frontier algorithms: `E [a U b]` is a reverse-edge
//! worklist that only expands states newly added in the previous step, and `EG f`
//! is successor-count elimination — both O(V + E). The pre-image iterates the set
//! words of the target bitset rather than testing membership bit-by-bit.
//!
//! Satisfaction sets are memoized per checker: [`ModelChecker::sat`] hash-conses
//! formulas into dense node ids (atoms resolve to labelling rows, composite nodes
//! key on `(operator, child ids)` — O(1) hashing per node) and caches each node's
//! set by structural identity (interior mutability, so checking stays `&self`);
//! [`ModelChecker::check_all`] batches a property sweep over one
//! structure so the ~30 P.1–P.30 formulas share subformula sets (`triggered`, event
//! atoms, negations) and the `AG` counterexample path reuses the cached `sat(body)`
//! instead of recomputing it. Fixpoints and counterexample BFS run off the same
//! CSR edge arrays stored in the [`Kripke`] structure. The independent oracle is
//! [`crate::LegacyModelChecker`].

use crate::bitset::BitSet;
use crate::ctl::Ctl;
use crate::kripke::Kripke;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// The one checking engine. Kept only because the benchmark harness's replay
/// still passes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Packed bitset frontier fixpoints.
    #[default]
    Symbolic,
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

/// The interner + satisfaction-set memo behind the checker's cache:
/// structurally identical subformulas intern to the same node id, and each node's
/// sat set is computed at most once per checker. Atom nodes name labelling rows
/// of the checker's structure, so a memo is only valid over that structure.
#[derive(Debug, Default)]
struct SatMemo {
    node_ids: HashMap<NodeOp, u32>,
    ops: Vec<NodeOp>,
    sat: Vec<Option<BitSet>>,
}

/// A handle to a checked structure and nothing else: no sat sets are kept
/// across checks. Kept only because the benchmark harness's replay still
/// passes it around.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct SatSnapshot {
    kripke: Arc<Kripke>,
}

impl SatSnapshot {
    /// The structure the snapshot was taken over.
    pub fn kripke(&self) -> &Arc<Kripke> {
        &self.kripke
    }
}

/// `ModelChecker::new(kripke).check_all(formulas)`; every other argument is
/// ignored. Kept only because the benchmark harness's replay still calls it.
#[doc(hidden)]
pub fn check_all_parallel_with(
    kripke: &Kripke,
    _: Engine,
    formulas: &[Ctl],
    _: usize,
    _: usize,
    _: usize,
) -> Vec<CheckResult> {
    ModelChecker::new(kripke).check_all(formulas)
}

/// A CTL model checker over one Kripke structure.
pub struct ModelChecker<'a> {
    kripke: &'a Kripke,
    /// Interior-mutable sat-set cache keyed by structurally-hashed `Ctl` nodes,
    /// shared across every `check`/`check_all` call on this checker so a property
    /// sweep computes each distinct subformula set once.
    memo: RefCell<SatMemo>,
    /// The in-stage abort handle installed on the constructing thread, if any
    /// (`soteria_exec::current_abort`). Polled between properties and every
    /// `ABORT_POLL_STRIDE` worklist pops; when set, the checker unwinds with the
    /// abort sentinel instead of finishing a sweep nobody wants. `None` (every
    /// non-service path) makes each poll a single branch, and polling never
    /// mutates state — the determinism gates hold byte-identically.
    abort: Option<soteria_exec::AbortHandle>,
}

/// Worklist iterations between abort polls: coarse enough that the relaxed
/// atomic load vanishes against the per-pop edge scans, fine enough that a
/// G.3-scale fixpoint (~47k states) still observes an abort within a few
/// thousand pops.
const ABORT_POLL_STRIDE: usize = 4096;

impl<'a> ModelChecker<'a> {
    /// Creates a checker. The transition relation (forward and reverse) is read
    /// directly from the Kripke structure's CSR arrays; nothing is rebuilt per
    /// checker.
    pub fn new(kripke: &'a Kripke) -> Self {
        ModelChecker {
            kripke,
            memo: RefCell::new(SatMemo::default()),
            abort: soteria_exec::current_abort(),
        }
    }

    /// [`ModelChecker::new`]; the engine and sharding arguments are ignored.
    /// Kept only because the benchmark harness's replay still calls it.
    #[doc(hidden)]
    pub fn with_sharding(kripke: &'a Kripke, _: Engine, _: usize, _: usize) -> Self {
        Self::new(kripke)
    }

    /// Returns the checker unchanged: sat sets are not reused across checks.
    /// Kept only because the benchmark harness's replay still calls it.
    #[doc(hidden)]
    pub fn reuse_from(self, _: &SatSnapshot, _: &[String]) -> Self {
        self
    }

    /// Wraps `kripke` in a [`SatSnapshot`]. Kept only because the benchmark
    /// harness's replay still calls it.
    #[doc(hidden)]
    pub fn snapshot_with(&self, kripke: Arc<Kripke>) -> SatSnapshot {
        SatSnapshot { kripke }
    }

    /// Abort poll point: unwinds with the abort sentinel when the constructing
    /// stage was aborted. A no-op branch when no handle is installed.
    #[inline]
    fn poll_abort(&self) {
        if let Some(abort) = &self.abort {
            abort.bail_if_aborted();
        }
    }

    /// The set of states satisfying a formula. Every subformula is memoized by
    /// structural identity, so repeated subformulas within and across a property
    /// sweep are computed once.
    pub fn sat(&self, formula: &Ctl) -> BitSet {
        let id = self.intern(formula);
        self.sat_node(id)
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

    /// The satisfaction set of an interned node, memoized. This is the one
    /// implementation of CTL semantics on the production path;
    /// `tests/engine_differential.rs` fuzzes it against `LegacyModelChecker`.
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

    /// States with at least one successor in `target` (the existential pre-image).
    /// `BitSet::iter` walks set words and peels bits, so only the members of
    /// `target` are visited — not the whole universe.
    fn pre_exists(&self, target: &BitSet) -> BitSet {
        let mut result = BitSet::empty(self.kripke.state_count());
        for to in target.iter() {
            for &from in self.kripke.predecessors(to) {
                result.insert(from as usize);
            }
        }
        result
    }

    /// Least fixpoint for `E [a U b]`: a frontier worklist over the reverse CSR
    /// edges. Only states newly added are expanded, so every reverse edge is
    /// processed at most once — O(V + E) total, versus a round-based loop's
    /// O(rounds × E) re-scan of the entire accumulated set.
    fn least_fixpoint_eu(&self, sat_a: &BitSet, sat_b: &BitSet) -> BitSet {
        let _span = soteria_obs::span("checker.fixpoint_eu");
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

    /// Greatest fixpoint for `EG f`, by successor-count elimination: every state
    /// of `sat f` tracks how many of its successors remain viable; states whose
    /// count reaches zero are eliminated and their predecessors decremented
    /// through the reverse CSR edges. Each edge is touched a constant number of
    /// times — O(V + E).
    fn greatest_fixpoint_eg(&self, sat_f: &BitSet) -> BitSet {
        let _span = soteria_obs::span("checker.fixpoint_eg");
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

    /// Checks a batch of properties against the same structure. The
    /// satisfaction-set cache is shared across the whole batch: subformulas
    /// common to several properties (event atoms, `triggered`, their negations)
    /// are computed once.
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
            // `sat(body)` hits the memo: the body set was already computed while
            // checking the formula itself.
            let mut bad = self.sat(body);
            bad.complement();
            if let Some(path) = self.shortest_path(from, &bad) {
                return path.into_iter().map(|s| self.kripke.state_name(s)).collect();
            }
        }
        vec![self.kripke.state_name(from)]
    }

    /// Breadth-first shortest path from `from` to any state in `targets`, over the
    /// same CSR successor array the fixpoints use.
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
    use crate::legacy::LegacyModelChecker;

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

    /// Checks `formula` on the line structure, asserting the legacy oracle agrees.
    fn check(formula: &Ctl) -> CheckResult {
        let kripke = line_kripke();
        let result = ModelChecker::new(&kripke).check(formula);
        assert_eq!(result, LegacyModelChecker::new(&kripke).check(formula), "legacy on {formula}");
        result
    }

    #[test]
    fn basic_temporal_operators() {
        // AF q: every path eventually reaches s2.
        assert!(check(&Ctl::atom("q").always_finally()).holds);
        // AG p fails (s2 has no p).
        let r = check(&Ctl::atom("p").always_globally());
        assert!(!r.holds);
        assert_eq!(r.violating_initial_states, 1);
        // EF q holds, EG p fails, EX p holds (s0 -> s1 has p).
        assert!(check(&Ctl::atom("q").exists_finally()).holds);
        assert!(!check(&Ctl::Eg(Box::new(Ctl::atom("p")))).holds);
        assert!(check(&Ctl::Ex(Box::new(Ctl::atom("p")))).holds);
        // AX p holds at s0 (only successor s1 has p).
        assert!(check(&Ctl::atom("p").all_next()).holds);
        // A [p U q] holds on the single path.
        assert!(check(&Ctl::Au(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q")))).holds);
        // E [p U q] holds as well.
        assert!(check(&Ctl::Eu(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q")))).holds);
        // AG (p | q) holds everywhere.
        assert!(check(&Ctl::atom("p").or(Ctl::atom("q")).always_globally()).holds);
        // Implication and negation.
        assert!(check(&Ctl::atom("q").implies(Ctl::atom("q")).always_globally()).holds);
        assert!(check(&Ctl::False.not()).holds);
    }

    #[test]
    fn counterexample_path_for_ag() {
        let kripke = line_kripke();
        let checker = ModelChecker::new(&kripke);
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
        let checker = ModelChecker::new(&kripke);
        let legacy = LegacyModelChecker::new(&kripke);
        for f in formulas {
            let a = checker.sat(&f);
            let b = legacy.sat(&f);
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
        let batch = ModelChecker::new(&kripke);
        let batched = batch.check_all(&formulas);
        for (f, b) in formulas.iter().zip(&batched) {
            let fresh = ModelChecker::new(&kripke).check(f);
            assert_eq!(&fresh, b, "batched result differs on {f}");
        }
        assert_eq!(batched[0], batched[3]);
    }

    /// A 100-state ring (more than one bitset word): p on even states, q only on
    /// state 99.
    fn ring_kripke() -> Kripke {
        let n = 100;
        let succs: Vec<Vec<usize>> = (0..n).map(|s| vec![(s + 1) % n]).collect();
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
    fn frontier_fixpoints_agree_with_legacy_on_a_ring() {
        let kripke = ring_kripke();
        let checker = ModelChecker::new(&kripke);
        let legacy = LegacyModelChecker::new(&kripke);
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
                checker.sat(f).iter().collect::<Vec<_>>(),
                legacy.sat(f).iter().collect::<Vec<_>>(),
                "legacy disagrees on {f}"
            );
            assert_eq!(checker.check(f), legacy.check(f), "legacy verdict on {f}");
        }
    }

    #[test]
    fn sat_cache_is_consistent_across_repeated_queries() {
        let kripke = ring_kripke();
        let checker = ModelChecker::new(&kripke);
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
    fn unknown_atom_is_false_everywhere() {
        let kripke = line_kripke();
        let checker = ModelChecker::new(&kripke);
        assert!(checker.sat(&Ctl::atom("missing")).is_empty());
        let result = checker.check(&Ctl::atom("missing").always_globally());
        assert!(!result.holds);
    }
}
