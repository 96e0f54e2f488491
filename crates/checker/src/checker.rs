//! Model checking over Kripke structures, with counter-example extraction.
//!
//! Two checkers, one for production and one as its oracle:
//!
//! * [`check_invariants`] is the production check. Every checkable P.1–P.30
//!   formula is `AG body` with a propositional body. Like NuSMV's
//!   `INVARSPEC`, such a formula is decided by a reachability search rather
//!   than a CTL fixpoint: it fails exactly when a state reachable from the
//!   initial state falsifies the body. One breadth-first search serves a
//!   whole batch, so each failing formula's counterexample is the shortest
//!   path, in successor order, to the first state the search dequeues that
//!   falsifies its body.
//! * [`ModelChecker`] is the one general CTL engine, the search's oracle,
//!   written to be obviously right rather than fast. It rebuilds predecessors
//!   per checker into `Vec<Vec<usize>>` adjacency from the [`Kripke`]
//!   successor CSR, scans the whole state universe bit by bit for each
//!   pre-image, and runs `E [a U b]` and `EG f` as round-based fixpoints that
//!   recompute the pre-image of the **entire** accumulated set every round —
//!   O(rounds × E). Nothing is memoized. Tests and the benchmark's replay,
//!   which checks `soteria::default_initial_kripke`, are its only users.

use crate::bitset::BitSet;
use crate::ctl::Ctl;
use crate::kripke::Kripke;
use std::collections::VecDeque;
use std::sync::Arc;

/// The one checking engine. Kept only because the benchmark harness's replay
/// still passes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The round-based evaluator of [`ModelChecker`].
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

/// Queue pops between abort polls: coarse enough that the relaxed atomic load
/// vanishes against the per-pop work, fine enough that a search over a large
/// structure still observes an abort within a few thousand states.
const ABORT_POLL_STRIDE: usize = 4096;

/// Checks a batch of invariants, `AG body` with `body` built only from `True`,
/// `False`, atoms, `Not`, `And`, `Or` and `Implies`, on a structure with one
/// initial state. Returns one result per formula, in order.
///
/// When a stage abort handle is installed (`soteria_exec::current_abort`),
/// it is polled before each body's state set is built and every
/// `ABORT_POLL_STRIDE` queue pops, and an abort unwinds with its sentinel.
///
/// # Panics
///
/// Panics on any other formula shape and on a structure without exactly one
/// initial state.
pub fn check_invariants(kripke: &Kripke, formulas: &[Ctl]) -> Vec<CheckResult> {
    let abort = soteria_exec::current_abort();
    let poll = || {
        if let Some(abort) = &abort {
            abort.bail_if_aborted();
        }
    };
    let [initial] = kripke.initial[..] else {
        panic!("an invariant search needs exactly one initial state");
    };
    let bad: Vec<BitSet> = formulas
        .iter()
        .map(|formula| {
            poll();
            let Ctl::Ag(body) = formula else { panic!("not an invariant: {formula}") };
            let mut bad = propositional_sat(kripke, body);
            bad.complement();
            bad
        })
        .collect();

    // One search for every body: the first state dequeued in a body's bad set
    // ends that body's search.
    let n = kripke.state_count();
    let mut violation: Vec<Option<usize>> = vec![None; formulas.len()];
    let mut open: Vec<usize> = (0..formulas.len()).collect();
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    let mut visited = BitSet::empty(n);
    let mut queue = VecDeque::from([initial]);
    visited.insert(initial);
    let mut pops = 0usize;
    while !open.is_empty() {
        let Some(s) = queue.pop_front() else { break };
        pops += 1;
        if pops.is_multiple_of(ABORT_POLL_STRIDE) {
            poll();
        }
        open.retain(|&i| {
            let fails = bad[i].contains(s);
            if fails {
                violation[i] = Some(s);
            }
            !fails
        });
        for &succ in kripke.successors(s) {
            let succ = succ as usize;
            if !visited.contains(succ) {
                visited.insert(succ);
                parent[succ] = s as u32;
                queue.push_back(succ);
            }
        }
    }

    violation
        .into_iter()
        .map(|found| match found {
            None => CheckResult { holds: true, violating_initial_states: 0, counterexample: None },
            Some(mut s) => {
                let mut path = vec![s];
                while s != initial {
                    s = parent[s] as usize;
                    path.push(s);
                }
                path.reverse();
                CheckResult {
                    holds: false,
                    violating_initial_states: 1,
                    counterexample: Some(path.into_iter().map(|s| kripke.state_name(s)).collect()),
                }
            }
        })
        .collect()
}

/// The states satisfying a propositional formula, from the atom rows. An
/// atom the structure does not know holds nowhere.
fn propositional_sat(kripke: &Kripke, formula: &Ctl) -> BitSet {
    let n = kripke.state_count();
    match formula {
        Ctl::True => BitSet::full(n),
        Ctl::False => BitSet::empty(n),
        Ctl::Atom(a) => match kripke.atom_index(a) {
            Some(row) => kripke.atom_row(row).clone(),
            None => BitSet::empty(n),
        },
        Ctl::Not(f) => {
            let mut set = propositional_sat(kripke, f);
            set.complement();
            set
        }
        Ctl::And(a, b) => {
            let mut set = propositional_sat(kripke, a);
            set.intersect_with(&propositional_sat(kripke, b));
            set
        }
        Ctl::Or(a, b) => {
            let mut set = propositional_sat(kripke, a);
            set.union_with(&propositional_sat(kripke, b));
            set
        }
        Ctl::Implies(a, b) => {
            let mut set = propositional_sat(kripke, a);
            set.complement();
            set.union_with(&propositional_sat(kripke, b));
            set
        }
        temporal => panic!("not a propositional invariant body: {temporal}"),
    }
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
    predecessors: Vec<Vec<usize>>,
}

impl<'a> ModelChecker<'a> {
    /// Creates a checker, rebuilding the reverse relation from the structure's
    /// successor lists.
    pub fn new(kripke: &'a Kripke) -> Self {
        let mut predecessors = vec![Vec::new(); kripke.state_count()];
        for from in 0..kripke.state_count() {
            for &to in kripke.successors(from) {
                predecessors[to as usize].push(from);
            }
        }
        ModelChecker { kripke, predecessors }
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

    /// The set of states satisfying a formula.
    pub fn sat(&self, formula: &Ctl) -> BitSet {
        let n = self.kripke.state_count();
        match formula {
            Ctl::True => BitSet::full(n),
            Ctl::False => BitSet::empty(n),
            Ctl::Atom(a) => match self.kripke.atom_index(a) {
                Some(idx) => self.kripke.atom_row(idx).clone(),
                None => BitSet::empty(n),
            },
            Ctl::Not(f) => {
                let mut set = self.sat(f);
                set.complement();
                set
            }
            Ctl::And(a, b) => {
                let mut set = self.sat(a);
                set.intersect_with(&self.sat(b));
                set
            }
            Ctl::Or(a, b) => {
                let mut set = self.sat(a);
                set.union_with(&self.sat(b));
                set
            }
            Ctl::Implies(a, b) => {
                // a -> b  ≡  !a | b
                let mut not_a = self.sat(a);
                not_a.complement();
                not_a.union_with(&self.sat(b));
                not_a
            }
            Ctl::Ex(f) => self.pre_exists(&self.sat(f)),
            // EF f = E [true U f]
            Ctl::Ef(f) => self.least_fixpoint_eu(&BitSet::full(n), &self.sat(f)),
            Ctl::Eu(a, b) => self.least_fixpoint_eu(&self.sat(a), &self.sat(b)),
            Ctl::Eg(f) => self.greatest_fixpoint_eg(&self.sat(f)),
            Ctl::Ax(f) => {
                // AX f = !EX !f
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.pre_exists(&not_f);
                result.complement();
                result
            }
            Ctl::Af(f) => {
                // AF f = !EG !f
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.greatest_fixpoint_eg(&not_f);
                result.complement();
                result
            }
            Ctl::Ag(f) => {
                // AG f = !EF !f
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.least_fixpoint_eu(&BitSet::full(n), &not_f);
                result.complement();
                result
            }
            Ctl::Au(a, b) => {
                // A [a U b] = !(E [!b U (!a & !b)] | EG !b)
                let mut not_a = self.sat(a);
                not_a.complement();
                let mut not_b = self.sat(b);
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

    /// Bit-by-bit pre-image: states with at least one successor in `target`.
    fn pre_exists(&self, target: &BitSet) -> BitSet {
        let n = self.kripke.state_count();
        let mut result = BitSet::empty(n);
        for to in 0..n {
            if target.contains(to) {
                for &from in &self.predecessors[to] {
                    result.insert(from);
                }
            }
        }
        result
    }

    /// Round-based least fixpoint for `E [a U b]`: re-derives the pre-image of
    /// the whole accumulated set each round.
    fn least_fixpoint_eu(&self, sat_a: &BitSet, sat_b: &BitSet) -> BitSet {
        let mut result = sat_b.clone();
        loop {
            let mut pre = self.pre_exists(&result);
            pre.intersect_with(sat_a);
            pre.union_with(&result);
            if pre == result {
                return result;
            }
            result = pre;
        }
    }

    /// Round-based greatest fixpoint for `EG f`.
    fn greatest_fixpoint_eg(&self, sat_f: &BitSet) -> BitSet {
        let mut result = sat_f.clone();
        loop {
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

    /// Checks a batch of properties against the same structure, each from
    /// scratch.
    pub fn check_all(&self, formulas: &[Ctl]) -> Vec<CheckResult> {
        formulas.iter().map(|f| self.check(f)).collect()
    }

    /// Builds a counter-example trace starting at `from`. For `AG f` the trace is the
    /// shortest path from `from` to a state violating `f`; for other shapes the trace
    /// is the violating initial state alone.
    fn counterexample(&self, formula: &Ctl, from: usize) -> Vec<String> {
        if let Ctl::Ag(body) = formula {
            let mut bad = self.sat(body);
            bad.complement();
            if let Some(path) = self.shortest_path(from, &bad) {
                return path.into_iter().map(|s| self.kripke.state_name(s)).collect();
            }
        }
        vec![self.kripke.state_name(from)]
    }

    /// Breadth-first shortest path from `from` to any state in `targets`, over
    /// the CSR successor order.
    fn shortest_path(&self, from: usize, targets: &BitSet) -> Option<Vec<usize>> {
        let n = self.kripke.state_count();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
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
    use soteria_exec::{is_abort_payload, with_abort, AbortHandle};

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

    fn check(formula: &Ctl) -> CheckResult {
        ModelChecker::new(&line_kripke()).check(formula)
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
        let formula = Ctl::atom("p").always_globally();
        let result = ModelChecker::new(&kripke).check(&formula);
        assert_eq!(check_invariants(&kripke, std::slice::from_ref(&formula)), vec![result.clone()]);
        let trace = result.counterexample.unwrap();
        assert_eq!(trace, vec!["s0".to_string(), "s1".to_string(), "s2".to_string()]);
    }

    #[test]
    fn engines_agree_on_random_like_formulas() {
        let kripke = line_kripke();
        let formulas = vec![
            Ctl::atom("p").and(Ctl::atom("q").not()).always_globally(),
            Ctl::atom("p").implies(Ctl::atom("q").not()).always_globally(),
            Ctl::atom("q").or(Ctl::atom("p").not().not()).always_globally(),
            Ctl::False.implies(Ctl::atom("q")).always_globally(),
            Ctl::True.and(Ctl::atom("q")).always_globally(),
        ];
        let checker = ModelChecker::new(&kripke);
        let searched = check_invariants(&kripke, &formulas);
        for (f, got) in formulas.iter().zip(&searched) {
            assert_eq!(got, &checker.check(f), "formula {f}");
        }
    }

    #[test]
    fn check_all_matches_individual_checks() {
        let kripke = line_kripke();
        let formulas = vec![
            Ctl::atom("p").always_globally(),
            Ctl::atom("q").always_finally(),
            Ctl::atom("p").or(Ctl::atom("q")).always_globally(),
            Ctl::atom("p").always_globally(),
        ];
        let batched = ModelChecker::new(&kripke).check_all(&formulas);
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
    fn the_search_agrees_with_the_fixpoints_on_a_ring() {
        let kripke = ring_kripke();
        let checker = ModelChecker::new(&kripke);
        assert!(checker.check(&Ctl::atom("q").exists_finally()).holds);
        assert!(checker.check(&Ctl::atom("q").always_finally()).holds);
        assert!(!checker.check(&Ctl::Eg(Box::new(Ctl::atom("q").not()))).holds);
        let formulas = vec![
            Ctl::atom("q").not().always_globally(),
            Ctl::atom("p").or(Ctl::atom("q").not()).always_globally(),
            Ctl::atom("p").implies(Ctl::atom("q").not()).always_globally(),
            Ctl::atom("p").and(Ctl::atom("q")).not().always_globally(),
        ];
        let searched = check_invariants(&kripke, &formulas);
        for (f, got) in formulas.iter().zip(&searched) {
            assert_eq!(got, &checker.check(f), "search disagrees on {f}");
        }
        // The 100-state path to r99 is the counterexample of the first.
        assert_eq!(searched[0].counterexample.as_ref().map(Vec::len), Some(100));
    }

    #[test]
    fn unknown_atom_is_false_everywhere() {
        let kripke = line_kripke();
        let checker = ModelChecker::new(&kripke);
        assert!(checker.sat(&Ctl::atom("missing")).is_empty());
        let formula = Ctl::atom("missing").always_globally();
        let result = checker.check(&formula);
        assert!(!result.holds);
        assert_eq!(check_invariants(&kripke, &[formula]), vec![result]);
    }

    /// s0 --> {s1, s2}, s1 --> s3, s2 --> s3, s3 loops; p on s1, q on s3.
    fn diamond_kripke() -> Kripke {
        let mut kripke = Kripke::from_lists(
            vec!["p".into(), "q".into()],
            vec!["s0".into(), "s1".into(), "s2".into(), "s3".into()],
            &[vec![1, 2], vec![3], vec![3], vec![3]],
            vec![0],
        );
        kripke.set_labels(&[vec![], vec![0], vec![], vec![1]]);
        kripke
    }

    #[test]
    fn one_search_answers_every_body() {
        let kripke = diamond_kripke();
        let formulas = [
            Ctl::atom("p").not().always_globally(),
            Ctl::atom("q").not().always_globally(),
            Ctl::atom("p").and(Ctl::atom("q")).not().always_globally(),
            Ctl::atom("missing").implies(Ctl::False).always_globally(),
        ];
        let results = check_invariants(&kripke, &formulas);
        assert_eq!(results, ModelChecker::new(&kripke).check_all(&formulas));
        let trace = |names: &[&str]| Some(names.iter().map(|s| s.to_string()).collect());
        assert_eq!(results[0].counterexample, trace(&["s0", "s1"]));
        assert_eq!(results[1].counterexample, trace(&["s0", "s1", "s3"]));
        assert!(results[2].holds && results[3].holds);
        assert_eq!(results[0].violating_initial_states, 1);
    }

    #[test]
    #[should_panic(expected = "not an invariant")]
    fn rejects_a_formula_that_is_not_ag() {
        check_invariants(&diamond_kripke(), &[Ctl::atom("p").exists_finally()]);
    }

    #[test]
    #[should_panic(expected = "not a propositional invariant body")]
    fn rejects_a_temporal_body() {
        check_invariants(&diamond_kripke(), &[Ctl::atom("p").all_next().always_globally()]);
    }

    #[test]
    fn an_aborted_stage_unwinds_with_the_sentinel() {
        let handle = AbortHandle::new();
        handle.abort();
        let kripke = diamond_kripke();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_abort(Some(handle), || {
                check_invariants(&kripke, &[Ctl::atom("p").not().always_globally()])
            })
        }));
        let payload = unwound.expect_err("an aborted search must unwind");
        assert!(is_abort_payload(payload.as_ref()), "unwound with a foreign payload");
    }
}
