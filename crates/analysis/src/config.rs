//! Analysis configuration (and ablation switches).

/// Configuration of the path-sensitive analysis.
///
/// The defaults correspond to the paper's system; the flags exist so the benches can
/// ablate individual design choices (path sensitivity, ESP merging, infeasible-path
/// pruning, the reflection over-approximation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Explore paths separately and label transitions with path predicates
    /// (Sec. 4.2.2). When false, one flow-insensitive path collecting every effect is
    /// produced (the "earlier version of Soteria" with coarse labels).
    pub path_sensitive: bool,
    /// Merge paths whose end states agree, following the ESP algorithm.
    pub esp_merge: bool,
    /// Discard paths whose path condition is unsatisfiable according to the simple
    /// custom checker.
    pub prune_infeasible: bool,
    /// Over-approximate calls by reflection to every method of the app (Sec. 4.2.3).
    /// When false, reflective calls are treated as no-ops.
    pub reflection_over_approx: bool,
    /// Maximum method-inlining depth (the paper uses depth-one call-site sensitivity
    /// for matching calls and returns; inlining two levels covers the corpus's
    /// handler → helper → getter chains).
    pub inline_depth: usize,
    /// Hard cap on the number of concurrently tracked paths per handler.
    pub max_paths: usize,
    /// Worker threads for the analysis fan-out sites (batch app analysis and
    /// batch environment analysis). `0` means auto: the `SOTERIA_THREADS`
    /// environment variable if set, otherwise the machine's available
    /// parallelism. Results are byte-identical at every value.
    pub threads: usize,
    /// Unused: each property batch is checked on one thread. Kept only because
    /// the benchmark harness's replay still reads it.
    #[doc(hidden)]
    pub property_shard_states: usize,
    /// Unused: the fixpoints are sequential. Kept only because the benchmark
    /// harness's replay still reads it.
    #[doc(hidden)]
    pub fixpoint_shard_states: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            path_sensitive: true,
            esp_merge: true,
            prune_infeasible: true,
            reflection_over_approx: true,
            inline_depth: 3,
            max_paths: 256,
            threads: 0,
            property_shard_states: 0,
            fixpoint_shard_states: 0,
        }
    }
}

impl AnalysisConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation: path-insensitive analysis.
    pub fn without_path_sensitivity() -> Self {
        AnalysisConfig { path_sensitive: false, ..Self::default() }
    }

    /// Ablation: no ESP merging.
    pub fn without_esp_merge() -> Self {
        AnalysisConfig { esp_merge: false, ..Self::default() }
    }

    /// Ablation: no infeasible-path pruning.
    pub fn without_pruning() -> Self {
        AnalysisConfig { prune_infeasible: false, ..Self::default() }
    }

    /// A stable 64-bit fingerprint of every configuration field that can change
    /// an analysis *result* (FNV-1a over a fixed field encoding).
    ///
    /// `threads` and the two unused sharding fields are deliberately excluded:
    /// worker counts only change scheduling, never output (the determinism
    /// gates enforce this), so a result computed at one setting is valid for
    /// all of them. The service's content-addressed cache
    /// keys on this fingerprint plus the app source.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let fields: [u64; 6] = [
            self.path_sensitive as u64,
            self.esp_merge as u64,
            self.prune_infeasible as u64,
            self.reflection_over_approx as u64,
            self.inline_depth as u64,
            self.max_paths as u64,
        ];
        let mut hash = FNV_OFFSET;
        for field in fields {
            for byte in field.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnalysisConfig::paper();
        assert!(c.path_sensitive);
        assert!(c.esp_merge);
        assert!(c.prune_infeasible);
        assert!(c.reflection_over_approx);
        assert!(c.max_paths >= 64);
    }

    #[test]
    fn ablations_flip_one_flag() {
        assert!(!AnalysisConfig::without_path_sensitivity().path_sensitive);
        assert!(!AnalysisConfig::without_esp_merge().esp_merge);
        assert!(!AnalysisConfig::without_pruning().prune_infeasible);
    }

    #[test]
    fn fingerprint_ignores_threads_but_tracks_result_fields() {
        let base = AnalysisConfig::paper();
        let threaded = AnalysisConfig { threads: 8, ..base.clone() };
        assert_eq!(base.fingerprint(), threaded.fingerprint());
        let sharded = AnalysisConfig {
            property_shard_states: 1,
            fixpoint_shard_states: 1,
            ..base.clone()
        };
        assert_eq!(base.fingerprint(), sharded.fingerprint());
        assert_ne!(base.fingerprint(), AnalysisConfig::without_esp_merge().fingerprint());
        assert_ne!(
            base.fingerprint(),
            AnalysisConfig { inline_depth: base.inline_depth + 1, ..base.clone() }.fingerprint()
        );
    }
}
