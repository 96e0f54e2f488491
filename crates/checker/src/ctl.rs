//! Computation Tree Logic (CTL) formulas.
//!
//! The paper expresses properties with temporal-logic formulas and verifies them with
//! NuSMV; its example `water.wet → AX valve.on` is a CTL formula. This module provides
//! the CTL syntax; the checking algorithms live in [`crate::checker`].

use std::fmt;

/// A CTL state formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ctl {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atomic proposition (matched against the Kripke labelling).
    Atom(String),
    /// Negation.
    Not(Box<Ctl>),
    /// Conjunction.
    And(Box<Ctl>, Box<Ctl>),
    /// Disjunction.
    Or(Box<Ctl>, Box<Ctl>),
    /// Implication.
    Implies(Box<Ctl>, Box<Ctl>),
    /// There exists a successor satisfying the formula.
    Ex(Box<Ctl>),
    /// There exists a path eventually satisfying the formula.
    Ef(Box<Ctl>),
    /// There exists a path globally satisfying the formula.
    Eg(Box<Ctl>),
    /// There exists a path where the first formula holds until the second does.
    Eu(Box<Ctl>, Box<Ctl>),
    /// Every successor satisfies the formula.
    Ax(Box<Ctl>),
    /// Every path eventually satisfies the formula.
    Af(Box<Ctl>),
    /// Every path globally satisfies the formula.
    Ag(Box<Ctl>),
    /// On every path the first formula holds until the second does.
    Au(Box<Ctl>, Box<Ctl>),
}

impl Ctl {
    /// An atomic proposition.
    pub fn atom(name: impl Into<String>) -> Ctl {
        Ctl::Atom(name.into())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ctl {
        Ctl::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: Ctl) -> Ctl {
        Ctl::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Ctl) -> Ctl {
        Ctl::Or(Box::new(self), Box::new(other))
    }

    /// Implication.
    pub fn implies(self, other: Ctl) -> Ctl {
        Ctl::Implies(Box::new(self), Box::new(other))
    }

    /// `AG self`.
    pub fn always_globally(self) -> Ctl {
        Ctl::Ag(Box::new(self))
    }

    /// `AF self`.
    pub fn always_finally(self) -> Ctl {
        Ctl::Af(Box::new(self))
    }

    /// `AX self`.
    pub fn all_next(self) -> Ctl {
        Ctl::Ax(Box::new(self))
    }

    /// `EF self`.
    pub fn exists_finally(self) -> Ctl {
        Ctl::Ef(Box::new(self))
    }

    /// Disjunction of several formulas (false when empty).
    pub fn any_of(mut formulas: Vec<Ctl>) -> Ctl {
        match formulas.len() {
            0 => Ctl::False,
            1 => formulas.pop().expect("length checked"),
            _ => {
                let first = formulas.remove(0);
                formulas.into_iter().fold(first, |acc, f| acc.or(f))
            }
        }
    }

    /// Conjunction of several formulas (true when empty).
    pub fn all_of(mut formulas: Vec<Ctl>) -> Ctl {
        match formulas.len() {
            0 => Ctl::True,
            1 => formulas.pop().expect("length checked"),
            _ => {
                let first = formulas.remove(0);
                formulas.into_iter().fold(first, |acc, f| acc.and(f))
            }
        }
    }

    /// The atoms mentioned in the formula.
    pub fn atoms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Ctl::Atom(a) => out.push(a),
            Ctl::True | Ctl::False => {}
            Ctl::Not(f) | Ctl::Ex(f) | Ctl::Ef(f) | Ctl::Eg(f) | Ctl::Ax(f) | Ctl::Af(f)
            | Ctl::Ag(f) => f.collect_atoms(out),
            Ctl::And(a, b)
            | Ctl::Or(a, b)
            | Ctl::Implies(a, b)
            | Ctl::Eu(a, b)
            | Ctl::Au(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
        }
    }
}

impl fmt::Display for Ctl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ctl::True => write!(f, "TRUE"),
            Ctl::False => write!(f, "FALSE"),
            Ctl::Atom(a) => write!(f, "{a}"),
            Ctl::Not(x) => write!(f, "!({x})"),
            Ctl::And(a, b) => write!(f, "({a} & {b})"),
            Ctl::Or(a, b) => write!(f, "({a} | {b})"),
            Ctl::Implies(a, b) => write!(f, "({a} -> {b})"),
            Ctl::Ex(x) => write!(f, "EX ({x})"),
            Ctl::Ef(x) => write!(f, "EF ({x})"),
            Ctl::Eg(x) => write!(f, "EG ({x})"),
            Ctl::Eu(a, b) => write!(f, "E [{a} U {b}]"),
            Ctl::Ax(x) => write!(f, "AX ({x})"),
            Ctl::Af(x) => write!(f, "AF ({x})"),
            Ctl::Ag(x) => write!(f, "AG ({x})"),
            Ctl::Au(a, b) => write!(f, "A [{a} U {b}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_display() {
        // The paper's Fig. 9 property: water.wet -> AX valve.on (here written over the
        // reproduction's atom names).
        let f = Ctl::atom("event:water.wet")
            .implies(Ctl::atom("attr:valve.valve=closed"))
            .always_globally();
        assert_eq!(
            f.to_string(),
            "AG ((event:water.wet -> attr:valve.valve=closed))"
        );
        assert_eq!(f.atoms(), vec!["attr:valve.valve=closed", "event:water.wet"]);
    }

    #[test]
    fn any_and_all_of() {
        assert_eq!(Ctl::any_of(vec![]), Ctl::False);
        assert_eq!(Ctl::all_of(vec![]), Ctl::True);
        assert_eq!(Ctl::any_of(vec![Ctl::atom("a")]), Ctl::atom("a"));
        let f = Ctl::any_of(vec![Ctl::atom("a"), Ctl::atom("b"), Ctl::atom("c")]);
        assert_eq!(f.to_string(), "((a | b) | c)");
        let g = Ctl::all_of(vec![Ctl::atom("a"), Ctl::atom("b")]);
        assert_eq!(g.to_string(), "(a & b)");
    }

    #[test]
    fn temporal_builders() {
        assert_eq!(Ctl::atom("x").all_next().to_string(), "AX (x)");
        assert_eq!(Ctl::atom("x").always_finally().to_string(), "AF (x)");
        assert_eq!(Ctl::atom("x").exists_finally().to_string(), "EF (x)");
        assert_eq!(Ctl::atom("x").not().to_string(), "!(x)");
    }
}
