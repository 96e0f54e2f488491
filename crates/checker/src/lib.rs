//! A from-scratch symbolic model checker standing in for NuSMV (Sec. 5 of the paper).
//!
//! Soteria translates each extracted state model into a Kripke structure and verifies
//! temporal-logic properties with NuSMV. This crate provides the equivalent substrate:
//!
//! * [`Kripke`] — Kripke structures derived from state models, with event labels
//!   exposed as atomic propositions, the transition relation stored once as forward
//!   and reverse CSR arrays, and state names formatted lazily on demand; built in
//!   time linear in the model's transitions from interned label classes;
//! * [`Ctl`] — CTL formula syntax with convenience builders and structural hashing;
//! * [`ModelChecker`] — exact CTL model checking with one engine: a memoized
//!   evaluator over hash-consed formula nodes with O(V+E) frontier/elimination
//!   fixpoints over packed bitsets, cross-property satisfaction-set sharing through
//!   the batch [`ModelChecker::check_all`] entry point, and counter-example
//!   extraction;
//! * [`LegacyModelChecker`] — the frozen pre-CSR round-based checker, the one
//!   independent checker oracle of the differential tests
//!   (`tests/engine_differential.rs`);
//! * [`render_smv`] — SMV-format output of models and specs for external inspection.

pub mod bitset;
pub mod checker;
pub mod ctl;
pub mod kripke;
// Reference oracles, kept off production paths: `legacy` for the checker and
// `kripke::reference` for the Kripke builder (a child of `kripke` so it can
// set the private CSR fields).
pub mod legacy;
pub mod smv;

pub use bitset::BitSet;
pub use checker::{check_all_parallel_with, CheckResult, Engine, ModelChecker, SatSnapshot};
pub use ctl::Ctl;
pub use kripke::Kripke;
pub use legacy::LegacyModelChecker;
pub use smv::{render_smv, smv_formula};
