//! Content-addressed result cache: FNV-1a 128-bit keys over `(source,
//! configuration)` and a bounded LRU with hit/miss/eviction counters.
//!
//! Soteria analyses are pure functions of the app source and the analysis
//! configuration — the determinism gates prove thread counts never change a
//! result — so a result computed once is valid forever. Keys hash the *content*
//! (name, source bytes, [`AnalysisConfig::fingerprint`]), never
//! identities or timestamps: resubmitting the same app is a guaranteed hit
//! returning the frozen original, and any single-byte change to the source or
//! any result-relevant configuration flag produces a different key.
//!
//! Environment keys are derived from the *member app keys* plus the group name,
//! so an environment hit implies every member's source and the configuration are
//! unchanged — without rehashing the member sources.
//!
//! [`AnalysisConfig::fingerprint`]: soteria_analysis::AnalysisConfig::fingerprint

use std::collections::HashMap;
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// FNV-1a 128 over a sequence of length-prefixed chunks. The 8-byte length
/// prefix keeps chunk boundaries unambiguous (`("ab", "c")` and `("a", "bc")`
/// hash differently).
pub(crate) fn fnv128(chunks: &[&[u8]]) -> u128 {
    let mut hash = FNV128_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= byte as u128;
            hash = hash.wrapping_mul(FNV128_PRIME);
        }
    };
    for chunk in chunks {
        eat(&(chunk.len() as u64).to_le_bytes());
        eat(chunk);
    }
    hash
}

/// A 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u128);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A constant chunk folded into every key. Keys once carried the name of the
/// checking engine; there is one engine now, and hashing its old name keeps
/// the key bytes, and so every existing store, unchanged.
const ENGINE_TAG: &[u8] = b"Symbolic";

/// The content address of one app analysis: submitted name, source bytes and
/// the configuration fingerprint.
pub fn app_cache_key(name: &str, source: &str, config_fingerprint: u64) -> CacheKey {
    let fingerprint = config_fingerprint.to_le_bytes();
    CacheKey(fnv128(&[b"app", name.as_bytes(), source.as_bytes(), &fingerprint, ENGINE_TAG]))
}

/// The fault-layer address of app *source bytes*: like [`app_cache_key`] but
/// name-independent, so quarantine strikes follow the offending content no
/// matter what name it is resubmitted under.
pub fn source_fingerprint(source: &str, config_fingerprint: u64) -> CacheKey {
    let fingerprint = config_fingerprint.to_le_bytes();
    CacheKey(fnv128(&[b"src", source.as_bytes(), &fingerprint, ENGINE_TAG]))
}

/// The content address of an environment analysis: group name plus the member
/// *app keys* in submission order (member content changes propagate through
/// their keys) and the configuration fingerprint.
pub fn env_cache_key(group: &str, member_keys: &[CacheKey], config_fingerprint: u64) -> CacheKey {
    let member_bytes: Vec<[u8; 16]> =
        member_keys.iter().map(|k| k.0.to_le_bytes()).collect();
    let fingerprint = config_fingerprint.to_le_bytes();
    let mut chunks: Vec<&[u8]> = vec![b"env", group.as_bytes(), &fingerprint, ENGINE_TAG];
    chunks.extend(member_bytes.iter().map(|b| b.as_slice()));
    CacheKey(fnv128(&chunks))
}

/// Counter snapshot of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or an evicted entry).
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry<V> {
    value: V,
    /// Monotonic use tick; the smallest tick is the least recently used entry.
    last_used: u64,
}

/// A bounded least-recently-used map from [`CacheKey`] to frozen results.
///
/// Both lookups and inserts refresh recency; when an insert would exceed the
/// capacity, the entry with the oldest tick is evicted. Ticks are unique, so
/// eviction order is a deterministic function of the operation sequence — the
/// cache tests replay a sequence and assert exactly which keys survive.
pub struct ResultCache<V> {
    capacity: usize,
    entries: HashMap<u128, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> ResultCache<V> {
    /// A cache holding at most `capacity.max(1)` entries.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<V> {
        self.tick += 1;
        match self.entries.get_mut(&key.0) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry if
    /// the bound would be exceeded. Returns the evicted entry, if any, so
    /// callers keeping per-key side tables (the service's name registry) can
    /// drop their entries alongside the cache's instead of pinning them
    /// forever — and so a persistent tier can demote the evicted value to disk
    /// instead of losing it.
    pub fn insert(&mut self, key: CacheKey, value: V) -> Option<(CacheKey, V)> {
        self.tick += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key.0) {
            if let Some(&oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k)
            {
                if let Some(old) = self.entries.remove(&oldest) {
                    self.evictions += 1;
                    evicted = Some((CacheKey(oldest), old.value));
                }
            }
        }
        self.entries.insert(key.0, Entry { value, last_used: self.tick });
        evicted
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_content_addressed() {
        let base = app_cache_key("a", "def installed() {}", 7);
        assert_eq!(base, app_cache_key("a", "def installed() {}", 7));
        // Any single differing byte anywhere changes the key.
        assert_ne!(base, app_cache_key("a", "def installed() { }", 7));
        assert_ne!(base, app_cache_key("b", "def installed() {}", 7));
        assert_ne!(base, app_cache_key("a", "def installed() {}", 8));
        // Chunk boundaries are unambiguous.
        assert_ne!(app_cache_key("ab", "c", 0), app_cache_key("a", "bc", 0));
    }

    #[test]
    fn source_fingerprints_ignore_the_submitted_name() {
        let base = source_fingerprint("def installed() {}", 7);
        assert_eq!(base, source_fingerprint("def installed() {}", 7));
        assert_ne!(base, source_fingerprint("def installed() { }", 7));
        assert_ne!(base, source_fingerprint("def installed() {}", 8));
        // Distinct address space from the name-sensitive cache keys.
        assert_ne!(base, app_cache_key("a", "def installed() {}", 7));
    }

    #[test]
    fn env_keys_depend_on_members_and_order() {
        let a = app_cache_key("a", "x", 0);
        let b = app_cache_key("b", "y", 0);
        let ab = env_cache_key("G", &[a, b], 0);
        assert_eq!(ab, env_cache_key("G", &[a, b], 0));
        assert_ne!(ab, env_cache_key("G", &[b, a], 0));
        assert_ne!(ab, env_cache_key("H", &[a, b], 0));
        assert_ne!(ab, env_cache_key("G", &[a], 0));
    }

    #[test]
    fn lru_evicts_the_oldest_tick_deterministically() {
        let k = |n: u128| CacheKey(n);
        let mut cache: ResultCache<u32> = ResultCache::new(2);
        assert_eq!(cache.insert(k(1), 10), None);
        assert_eq!(cache.insert(k(2), 20), None);
        assert_eq!(cache.get(k(1)), Some(10)); // refresh 1: 2 is now oldest
        assert_eq!(cache.insert(k(3), 30), Some((k(2), 20))); // evicts 2, and says so
        assert_eq!(cache.get(k(2)), None);
        assert_eq!(cache.get(k(1)), Some(10));
        assert_eq!(cache.get(k(3)), Some(30));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.entries), (3, 1, 1, 2));
    }
}
