//! The pre-CSR model checker, preserved verbatim in behaviour as the one
//! independent checker oracle of the differential tests in
//! `tests/engine_differential.rs`.
//!
//! This is the checker the analyzer used before the frontier rewrite:
//!
//! * predecessors are rebuilt per checker into `Vec<Vec<usize>>` adjacency (the CSR
//!   arrays in [`Kripke`] are read once at construction, exactly like the seed read
//!   the per-state successor lists);
//! * the pre-image scans the whole state universe bit-by-bit;
//! * `E [a U b]` and `EG f` are round-based fixpoints that recompute the pre-image
//!   of the **entire** accumulated set every round — O(rounds × E).
//!
//! Semantics are identical to [`crate::checker::ModelChecker`]; only the cost model
//! differs. Keep this module in sync with nothing — it is a frozen baseline.

use crate::bitset::BitSet;
use crate::ctl::Ctl;
use crate::checker::CheckResult;
use crate::kripke::Kripke;

/// The pre-PR round-based symbolic checker (frozen baseline).
pub struct LegacyModelChecker<'a> {
    kripke: &'a Kripke,
    predecessors: Vec<Vec<usize>>,
}

impl<'a> LegacyModelChecker<'a> {
    /// Creates a checker, rebuilding the reverse relation per instance as the seed
    /// did.
    pub fn new(kripke: &'a Kripke) -> Self {
        let mut predecessors = vec![Vec::new(); kripke.state_count()];
        for from in 0..kripke.state_count() {
            for &to in kripke.successors(from) {
                predecessors[to as usize].push(from);
            }
        }
        LegacyModelChecker { kripke, predecessors }
    }

    /// The set of states satisfying a formula (no memoization).
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
                let mut not_a = self.sat(a);
                not_a.complement();
                not_a.union_with(&self.sat(b));
                not_a
            }
            Ctl::Ex(f) => self.pre_exists(&self.sat(f)),
            Ctl::Ef(f) => self.least_fixpoint_eu(&BitSet::full(n), &self.sat(f)),
            Ctl::Eu(a, b) => self.least_fixpoint_eu(&self.sat(a), &self.sat(b)),
            Ctl::Eg(f) => self.greatest_fixpoint_eg(&self.sat(f)),
            Ctl::Ax(f) => {
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.pre_exists(&not_f);
                result.complement();
                result
            }
            Ctl::Af(f) => {
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.greatest_fixpoint_eg(&not_f);
                result.complement();
                result
            }
            Ctl::Ag(f) => {
                let mut not_f = self.sat(f);
                not_f.complement();
                let mut result = self.least_fixpoint_eu(&BitSet::full(n), &not_f);
                result.complement();
                result
            }
            Ctl::Au(a, b) => {
                let sat_a = self.sat(a);
                let sat_b = self.sat(b);
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

    /// Bit-by-bit pre-image: tests membership of every state in the universe.
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

    /// Round-based least fixpoint: re-derives the pre-image of the whole accumulated
    /// set each round.
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

    /// Round-based greatest fixpoint.
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

    /// Checks a formula and extracts a counter-example on failure, exactly as the
    /// seed checker did (the AG body set is recomputed from scratch for the trace).
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

    /// Checks a batch of properties with no cross-property sharing (each formula is
    /// recomputed from scratch), mirroring the pre-PR per-property loop.
    pub fn check_all(&self, formulas: &[Ctl]) -> Vec<CheckResult> {
        formulas.iter().map(|f| self.check(f)).collect()
    }

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
    use crate::checker::ModelChecker;

    fn diamond_kripke() -> Kripke {
        // s0 -> {s1, s2}; s1 -> s3; s2 -> s3; s3 loops. p on s1, q on s3.
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
    fn legacy_agrees_with_current_engines() {
        let kripke = diamond_kripke();
        let legacy = LegacyModelChecker::new(&kripke);
        let checker = ModelChecker::new(&kripke);
        let formulas = vec![
            Ctl::atom("q").always_finally(),
            Ctl::atom("p").exists_finally(),
            Ctl::atom("p").not().always_globally(),
            Ctl::Eg(Box::new(Ctl::atom("q"))),
            Ctl::Au(Box::new(Ctl::True), Box::new(Ctl::atom("q"))),
            Ctl::Eu(Box::new(Ctl::atom("p").not()), Box::new(Ctl::atom("q"))),
            Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally(),
        ];
        for f in &formulas {
            let l = legacy.check(f);
            assert_eq!(l, checker.check(f), "legacy vs checker on {f}");
            assert_eq!(
                legacy.sat(f).iter().collect::<Vec<_>>(),
                checker.sat(f).iter().collect::<Vec<_>>(),
                "sat sets differ on {f}"
            );
        }
    }
}
