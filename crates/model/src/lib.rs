//! State models extracted from IoT apps (Sec. 4.2 and 4.4 of the paper).
//!
//! A state model is a triple `(Q, Σ, δ)`: states are valuations of the app's
//! (abstracted) device attributes, transition labels carry the triggering event and
//! the guarding path condition, and the transition function is represented explicitly.
//! The crate provides:
//!
//! * [`State`] / [`StateModel`] — the model representation, reachability, alphabet,
//!   and the nondeterminism check the paper reports as a safety violation;
//! * [`StateSchema`] / [`PackedState`] — the interned schema: `(handle, attribute)`
//!   keys become dense `u16` attribute ids, domain values become `u8` value ids, and
//!   a state is a flat digit vector interconvertible with its state id by mixed-radix
//!   index arithmetic;
//! * [`build_state_model`] — construction from the analysis crate's transition
//!   specifications and property abstraction;
//! * [`union_models`] — Algorithm 2, the multi-app union model;
//! * [`render_dot`] — GraphViz output equivalent to the paper's Fig. 9 visualisation.
//!
//! # The packed fast path
//!
//! The seed represented every state as a `BTreeMap<(String, String), AttributeValue>`
//! and resolved successor states through a `HashMap<State, StateId>`: every transition
//! cloned a tree map and re-hashed its string keys, and the union algorithm scanned
//! every union state per lifted edge. The hot paths now run end-to-end on the schema:
//!
//! * **Construction** ([`build_state_model`]): each transition spec is compiled once
//!   into `(attribute id, value digit)` updates; the Cartesian product is walked with
//!   an odometer over the digit buffer, and the successor id is
//!   `from_id + Σ (new_digit − old_digit) · stride` — no state maps, no hashing.
//! * **Union** ([`union_models`]): a lifted edge fixes the digits of the contributing
//!   app's attributes and enumerates only the free attributes' sub-product; the
//!   destination offset is a constant per edge. Each member's free offsets are
//!   computed once, and transitions that compile to the same
//!   `(base, offset, class)` edge lift once. Complexity drops from
//!   `O(edges × union states)` to `O(edges × free sub-product)`.
//! * **Checking** (`soteria-checker`): atom labels are bitset rows over the state
//!   universe with a hashed atom index, so `Ctl::Atom` satisfaction is a row clone.
//!
//! The legacy map view stays available: `StateModel::states()` materialises the
//! Cartesian product lazily in one odometer pass on first use, and the public
//! `State` API is unchanged. The seed implementations are preserved in [`legacy`]
//! for differential testing (`tests/packed_vs_legacy.rs`); the before/after
//! numbers they gave are recorded in `BENCH_pr1.json`.

pub mod builder;
pub mod dot;
pub mod legacy;
pub mod model;
pub mod schema;
pub mod state;
pub mod union;

pub use builder::{build_state_model, touched_keys, BuildOptions};
pub use dot::render_dot;
pub use model::{Nondeterminism, StateId, StateModel, Transition, TransitionLabel};
pub use schema::{AttrId, PackedState, StateSchema, ValueId};
pub use state::{label_fragment, AttrKey, State};
#[doc(hidden)]
pub use union::union_models_delta;
pub use union::{union_models, UnionOptions};
