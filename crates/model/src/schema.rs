//! Interned state schema and packed state valuations.
//!
//! The seed represented every state as a `BTreeMap<(String, String), AttributeValue>`;
//! on market-scale union models (tens of thousands of states) the heap-allocated
//! string keys and tree-map walks dominated model construction, union, and checking.
//! [`StateSchema`] interns the `(handle, attribute)` keys into dense `u16` attribute
//! ids and each domain value into a `u8` value id, so a state becomes a flat
//! [`PackedState`] byte vector (one digit per attribute) with O(1) get/set and
//! array-compare equality.
//!
//! Because the Cartesian-product state space is enumerated in mixed-radix order —
//! the first attribute key is the most significant digit — a state id and its digit
//! vector are interconvertible by pure index arithmetic ([`StateSchema::index_of`],
//! [`StateSchema::digits_of`]): the hot paths in [`crate::builder`] and
//! [`crate::union`] never materialise a state map at all.

use crate::state::{AttrKey, State};
use soteria_capability::AttributeValue;
use std::collections::{BTreeMap, HashMap};

/// Dense identifier of one `(handle, attribute)` key within a schema.
pub type AttrId = u16;

/// Dense identifier of one domain value within its attribute's domain.
pub type ValueId = u8;

/// An interned schema: the attribute keys and value domains of one state space, with
/// dense ids and the mixed-radix strides for state-id arithmetic.
///
/// Attributes whose domain is empty contribute no digit (the seed likewise never
/// stored them in state maps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSchema {
    /// Attribute keys in state-space order (sorted, as in the seed's `BTreeMap`).
    keys: Vec<AttrKey>,
    /// Key -> dense attribute id.
    key_index: HashMap<AttrKey, AttrId>,
    /// Per-attribute value domain, indexed by [`AttrId`].
    domains: Vec<Vec<AttributeValue>>,
    /// Per-attribute value -> [`ValueId`] lookup.
    value_index: Vec<HashMap<AttributeValue, ValueId>>,
    /// Mixed-radix stride of each attribute: the product of the domain sizes of all
    /// later attributes. The last attribute has stride 1.
    strides: Vec<usize>,
    /// Total number of states (the product of all domain sizes).
    state_count: usize,
}

impl Default for StateSchema {
    /// The empty schema: no attributes, a single (empty) state — the same as
    /// `StateSchema::new(&BTreeMap::new())`.
    fn default() -> Self {
        StateSchema {
            keys: Vec::new(),
            key_index: HashMap::new(),
            domains: Vec::new(),
            value_index: Vec::new(),
            strides: Vec::new(),
            state_count: 1,
        }
    }
}

impl StateSchema {
    /// Interns the given attribute domains. Keys with empty domains are skipped.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` attributes or a domain with more than
    /// `u8::MAX + 1` values is supplied, or if the product of the domain sizes
    /// does not fit a `usize` state id; property abstraction keeps real
    /// domains far below all three bounds.
    pub fn new(attributes: &BTreeMap<AttrKey, Vec<AttributeValue>>) -> Self {
        let mut schema = StateSchema::default();
        for (key, domain) in attributes {
            if domain.is_empty() {
                continue;
            }
            assert!(
                schema.keys.len() <= AttrId::MAX as usize,
                "schema exceeds {} attributes",
                AttrId::MAX
            );
            // Capped at 255 (not 256) so a domain size always fits the `u8` radix
            // the odometer in `advance` computes.
            assert!(
                domain.len() <= ValueId::MAX as usize,
                "domain of {key:?} exceeds {} values",
                ValueId::MAX
            );
            let id = schema.keys.len() as AttrId;
            schema.key_index.insert(key.clone(), id);
            schema.keys.push(key.clone());
            schema
                .value_index
                .push(domain.iter().enumerate().map(|(i, v)| (v.clone(), i as ValueId)).collect());
            schema.domains.push(domain.clone());
        }
        // Strides: product of the domain sizes of all later attributes.
        schema.strides = vec![1; schema.keys.len()];
        let mut acc = 1usize;
        for i in (0..schema.keys.len()).rev() {
            schema.strides[i] = acc;
            acc = acc.checked_mul(schema.domains[i].len()).unwrap_or_else(|| {
                let sizes: Vec<String> =
                    schema.domains.iter().map(|d| d.len().to_string()).collect();
                panic!("state product {} exceeds usize state ids", sizes.join(" × "))
            });
        }
        schema.state_count = acc.max(1);
        schema
    }

    /// Number of interned attributes (digits per state).
    pub fn attr_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of states in the Cartesian product.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// The attribute keys in digit order.
    pub fn keys(&self) -> &[AttrKey] {
        &self.keys
    }

    /// The dense id of an attribute key.
    pub fn attr_id(&self, key: &AttrKey) -> Option<AttrId> {
        self.key_index.get(key).copied()
    }

    /// The domain of an attribute.
    pub fn domain(&self, attr: AttrId) -> &[AttributeValue] {
        &self.domains[attr as usize]
    }

    /// The mixed-radix stride of an attribute.
    pub fn stride(&self, attr: AttrId) -> usize {
        self.strides[attr as usize]
    }

    /// The value id of `value` within the domain of `attr`.
    pub fn value_id(&self, attr: AttrId, value: &AttributeValue) -> Option<ValueId> {
        self.value_index[attr as usize].get(value).copied()
    }

    /// The concrete value behind a `(attribute, value-id)` pair.
    pub fn value(&self, attr: AttrId, digit: ValueId) -> &AttributeValue {
        &self.domains[attr as usize][digit as usize]
    }

    /// Decodes a state id into its digit vector.
    pub fn unpack(&self, id: usize) -> PackedState {
        let mut digits = vec![0u8; self.keys.len()];
        self.digits_of(id, &mut digits);
        PackedState { digits }
    }

    /// Decodes a state id into a caller-provided digit buffer (no allocation).
    pub fn digits_of(&self, id: usize, digits: &mut [u8]) {
        debug_assert!(id < self.state_count);
        debug_assert_eq!(digits.len(), self.keys.len());
        let mut rest = id;
        for (i, d) in digits.iter_mut().enumerate() {
            *d = (rest / self.strides[i]) as u8;
            rest %= self.strides[i];
        }
    }

    /// The digit of one attribute of a state, by pure index arithmetic.
    pub fn digit_of(&self, id: usize, attr: AttrId) -> ValueId {
        let i = attr as usize;
        ((id / self.strides[i]) % self.domains[i].len()) as ValueId
    }

    /// Encodes a digit vector back into its state id (the mixed-radix dot product).
    pub fn index_of(&self, state: &PackedState) -> usize {
        self.index_of_digits(&state.digits)
    }

    /// Encodes a raw digit slice back into its state id.
    pub fn index_of_digits(&self, digits: &[u8]) -> usize {
        debug_assert_eq!(digits.len(), self.keys.len());
        digits.iter().zip(&self.strides).map(|(d, s)| *d as usize * s).sum()
    }

    /// Advances a digit buffer to the next state in id order (odometer increment).
    /// Returns false after the last state.
    pub fn advance(&self, digits: &mut [u8]) -> bool {
        for i in (0..digits.len()).rev() {
            let radix = self.domains[i].len() as u8;
            if digits[i] + 1 < radix {
                digits[i] += 1;
                return true;
            }
            digits[i] = 0;
        }
        false
    }

    /// Packs a legacy [`State`] if it is a total valuation over exactly this schema's
    /// attributes with in-domain values; `None` otherwise (mirroring how the seed's
    /// linear `state_id` scan only matched total states).
    pub fn pack(&self, state: &State) -> Option<PackedState> {
        if state.values.len() != self.keys.len() {
            return None;
        }
        let mut digits = vec![0u8; self.keys.len()];
        for (key, value) in &state.values {
            let attr = self.attr_id(key)?;
            digits[attr as usize] = self.value_id(attr, value)?;
        }
        Some(PackedState { digits })
    }

    /// Materialises the legacy map view of one state id.
    pub fn materialize(&self, id: usize) -> State {
        let mut values = BTreeMap::new();
        let mut rest = id;
        for (i, key) in self.keys.iter().enumerate() {
            let digit = rest / self.strides[i];
            rest %= self.strides[i];
            values.insert(key.clone(), self.domains[i][digit].clone());
        }
        State { values }
    }

    /// Materialises the full state-space view in id order.
    ///
    /// Unlike the seed's progressive-cloning `cartesian_states`, this is a single
    /// odometer pass: each state map is built exactly once.
    pub fn materialize_all(&self) -> Vec<State> {
        let mut states = Vec::with_capacity(self.state_count);
        let mut digits = vec![0u8; self.keys.len()];
        loop {
            let mut values = BTreeMap::new();
            for (i, key) in self.keys.iter().enumerate() {
                values.insert(key.clone(), self.domains[i][digits[i] as usize].clone());
            }
            states.push(State { values });
            if !self.advance(&mut digits) {
                break;
            }
        }
        states
    }
}

/// A packed state: one domain digit per schema attribute. Equality is a flat byte
/// compare; hashing hashes the byte array — no string traffic at all.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedState {
    digits: Vec<u8>,
}

impl PackedState {
    /// The digit of one attribute.
    pub fn get(&self, attr: AttrId) -> ValueId {
        self.digits[attr as usize]
    }

    /// Sets the digit of one attribute.
    pub fn set(&mut self, attr: AttrId, digit: ValueId) {
        self.digits[attr as usize] = digit;
    }

    /// The raw digit slice.
    pub fn digits(&self) -> &[u8] {
        &self.digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2x3() -> (StateSchema, BTreeMap<AttrKey, Vec<AttributeValue>>) {
        let mut attrs = BTreeMap::new();
        attrs.insert(
            ("a".to_string(), "x".to_string()),
            vec![AttributeValue::symbol("p"), AttributeValue::symbol("q")],
        );
        attrs.insert(
            ("b".to_string(), "y".to_string()),
            vec![
                AttributeValue::symbol("u"),
                AttributeValue::symbol("v"),
                AttributeValue::symbol("w"),
            ],
        );
        (StateSchema::new(&attrs), attrs)
    }

    #[test]
    fn id_digit_roundtrip() {
        let (schema, _) = schema2x3();
        assert_eq!(schema.state_count(), 6);
        assert_eq!(schema.attr_count(), 2);
        for id in 0..schema.state_count() {
            let packed = schema.unpack(id);
            assert_eq!(schema.index_of(&packed), id);
            for attr in 0..schema.attr_count() as AttrId {
                assert_eq!(schema.digit_of(id, attr), packed.get(attr));
            }
        }
    }

    #[test]
    fn mixed_radix_order_matches_seed_enumeration() {
        let (schema, attrs) = schema2x3();
        let legacy = crate::legacy::cartesian_states_legacy(&attrs);
        let packed: Vec<State> = schema.materialize_all();
        assert_eq!(legacy, packed);
        // Spot-check: first key is the most significant digit.
        assert_eq!(packed[0].get("a", "x"), Some(&AttributeValue::symbol("p")));
        assert_eq!(packed[3].get("a", "x"), Some(&AttributeValue::symbol("q")));
        assert_eq!(packed[3].get("b", "y"), Some(&AttributeValue::symbol("u")));
    }

    #[test]
    fn pack_rejects_partial_and_foreign_states() {
        let (schema, _) = schema2x3();
        let total = State::from_triples([
            ("a", "x", AttributeValue::symbol("q")),
            ("b", "y", AttributeValue::symbol("w")),
        ]);
        let packed = schema.pack(&total).unwrap();
        assert_eq!(schema.index_of(&packed), 5);
        let partial = State::from_triples([("a", "x", AttributeValue::symbol("q"))]);
        assert!(schema.pack(&partial).is_none());
        let foreign = State::from_triples([
            ("a", "x", AttributeValue::symbol("q")),
            ("c", "z", AttributeValue::symbol("w")),
        ]);
        assert!(schema.pack(&foreign).is_none());
        let out_of_domain = State::from_triples([
            ("a", "x", AttributeValue::symbol("q")),
            ("b", "y", AttributeValue::symbol("nope")),
        ]);
        assert!(schema.pack(&out_of_domain).is_none());
    }

    #[test]
    fn empty_domains_are_skipped() {
        let mut attrs = BTreeMap::new();
        attrs.insert(("a".to_string(), "x".to_string()), vec![AttributeValue::symbol("p")]);
        attrs.insert(("b".to_string(), "y".to_string()), Vec::new());
        let schema = StateSchema::new(&attrs);
        assert_eq!(schema.attr_count(), 1);
        assert_eq!(schema.state_count(), 1);
        assert!(schema.attr_id(&("b".to_string(), "y".to_string())).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds usize state ids")]
    fn a_product_past_usize_is_refused() {
        let attrs: BTreeMap<AttrKey, Vec<AttributeValue>> = (0..64)
            .map(|i| {
                let domain = vec![AttributeValue::symbol("off"), AttributeValue::symbol("on")];
                ((format!("d{i}"), "switch".to_string()), domain)
            })
            .collect();
        StateSchema::new(&attrs);
    }

    #[test]
    fn empty_schema_has_one_state() {
        let schema = StateSchema::new(&BTreeMap::new());
        assert_eq!(schema.state_count(), 1);
        assert_eq!(schema.materialize_all().len(), 1);
    }

    #[test]
    fn odometer_advance_covers_every_state() {
        let (schema, _) = schema2x3();
        let mut digits = vec![0u8; schema.attr_count()];
        let mut seen = vec![schema.index_of_digits(&digits)];
        while schema.advance(&mut digits) {
            seen.push(schema.index_of_digits(&digits));
        }
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }
}
