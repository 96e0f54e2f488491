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
//! * [`ModelChecker`] — exact CTL model checking with two engines (O(V+E)
//!   frontier/elimination fixpoints over packed bitsets, and an explicit per-state
//!   baseline), cross-property satisfaction-set memoization with a batch
//!   [`ModelChecker::check_all`] entry point, and counter-example extraction;
//! * [`check_all_parallel`] — property-level fan-out: shards a batch of
//!   independent root formulas across per-thread checkers (one sat-set memo per
//!   shard) on large universes, byte-identical to the sequential batch
//!   ([`check_all_parallel_with`] exposes both sharding thresholds);
//! * [`SatSnapshot`] — a frozen export of one checker's memoized satisfaction
//!   sets for incremental re-verification: a later checker over the same (or a
//!   single-member-edited) structure seeds its memo from the snapshot via
//!   [`ModelChecker::reuse_from`] instead of recomputing, byte-identically;
//! * [`LegacyModelChecker`] — the frozen pre-CSR round-based checker, kept as the
//!   "old" side of the engine-equivalence tests (`tests/engine_differential.rs`);
//! * [`render_smv`] — SMV-format output of models and specs for external inspection.

pub mod bitset;
pub mod checker;
pub mod ctl;
pub mod kripke;
// Reference oracles, kept off production paths: `legacy` for the checker and
// `kripke::reference` for the Kripke builder (a child of `kripke` so it can
// set the private CSR fields).
pub mod legacy;
pub mod parallel;
pub mod smv;

pub use bitset::BitSet;
pub use checker::{CheckResult, Engine, ModelChecker, SatSnapshot, FIXPOINT_SHARD_STATES};
pub use ctl::Ctl;
pub use kripke::Kripke;
pub use legacy::LegacyModelChecker;
pub use parallel::{check_all_parallel, check_all_parallel_with, PARALLEL_UNIVERSE};
pub use smv::{render_smv, smv_formula};
