//! A from-scratch model checker standing in for NuSMV (Sec. 5 of the paper).
//!
//! Soteria translates each extracted state model into a Kripke structure and verifies
//! temporal-logic properties with NuSMV. This crate provides the equivalent substrate:
//!
//! * [`Kripke`] — Kripke structures derived from state models, with event labels
//!   exposed as atomic propositions, the transition relation stored once as a
//!   successor CSR array, and state names formatted lazily on demand; built in
//!   time linear in the model's transitions from interned label classes;
//! * [`Ctl`] — CTL formula syntax with convenience builders;
//! * [`check_invariants`] — the production check: every checkable P.1–P.30
//!   formula is `AG` of a propositional body, so one breadth-first search from
//!   the initial state decides a whole batch and yields each failure's shortest
//!   counterexample, as NuSMV's `INVARSPEC` does;
//! * [`ModelChecker`] — the one general CTL engine, round-based fixpoints over
//!   packed bitsets, kept off production paths as the search's oracle;
//! * [`render_smv`] — SMV-format output of models and specs for external inspection.

pub mod bitset;
pub mod checker;
pub mod ctl;
// `kripke::reference` is the Kripke builder's reference oracle, kept off
// production paths (a child of `kripke` so it can set the private CSR fields).
pub mod kripke;
pub mod smv;

pub use bitset::BitSet;
pub use checker::{
    check_all_parallel_with, check_invariants, CheckResult, Engine, ModelChecker, SatSnapshot,
};
pub use ctl::Ctl;
pub use kripke::Kripke;
pub use smv::{render_smv, smv_formula};
