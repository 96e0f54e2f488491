//! Property-level fan-out: sharding a batch of independent root formulas across
//! per-thread [`ModelChecker`]s.
//!
//! The P.1–P.30 property sweep checks ~30 root formulas against one immutable
//! [`Kripke`] structure. Each check is a pure function of `(structure, formula)`
//! — the only mutable state is the checker's sat-set memo, which is a cache, not
//! an input — so the formulas can be partitioned across threads with one checker
//! (and therefore one memo) per shard. Shards lose some cross-shard subformula
//! sharing, but on large universes (the market G.3 union has 46,944 states) the
//! per-formula fixpoints dwarf the duplicated atom rows.

use crate::checker::{CheckResult, Engine, ModelChecker};
use crate::ctl::Ctl;
use crate::kripke::Kripke;

/// Universes at or below this state count always check sequentially: a full sweep
/// finishes in microseconds there, under the cost of spawning a scoped thread.
pub const PARALLEL_UNIVERSE: usize = 2_048;

/// Checks `formulas` against `kripke` on up to `threads` workers, returning the
/// same `Vec<CheckResult>` (order included) as
/// `ModelChecker::new(kripke).check_all(formulas)`.
///
/// The formulas are split into contiguous shards, one per worker; every shard
/// runs on its own [`ModelChecker`] so each thread has a private sat-set memo
/// over the shared immutable structure — no locking on the checking path. Each
/// `CheckResult` (verdict, violating-state count, counter-example trace) is
/// deterministic per formula, so the output is byte-identical at every thread
/// count. `threads <= 1`, a single formula, or a universe at or below the
/// `property_shard_states` threshold (0 = auto: `SOTERIA_SHARD_STATES` when
/// set, else [`PARALLEL_UNIVERSE`]) fall back to the sequential batch.
pub fn check_all_parallel(
    kripke: &Kripke,
    formulas: &[Ctl],
    threads: usize,
    property_shard_states: usize,
) -> Vec<CheckResult> {
    let threshold = soteria_exec::resolve_shard_states(property_shard_states, PARALLEL_UNIVERSE);
    if threads <= 1 || formulas.len() <= 1 || kripke.state_count() <= threshold {
        return ModelChecker::new(kripke).check_all(formulas);
    }
    let shard_len = formulas.len().div_ceil(threads);
    let shards: Vec<&[Ctl]> = formulas.chunks(shard_len).collect();
    let results = soteria_exec::par_map(&shards, threads, |shard| {
        ModelChecker::new(kripke).check_all(shard)
    });
    results.concat()
}

/// [`check_all_parallel`]; the engine and fixpoint-threshold arguments are
/// ignored. Kept only because the benchmark harness's replay still calls it.
#[doc(hidden)]
pub fn check_all_parallel_with(
    kripke: &Kripke,
    _: Engine,
    formulas: &[Ctl],
    threads: usize,
    property_shard_states: usize,
    _: usize,
) -> Vec<CheckResult> {
    check_all_parallel(kripke, formulas, threads, property_shard_states)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A structure above `PARALLEL_UNIVERSE`: a 3000-state ring with p on evens
    /// and q on the last state.
    fn big_ring() -> Kripke {
        let n = 3_000;
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
                if s == n - 1 {
                    l.push(1);
                }
                l
            })
            .collect();
        kripke.set_labels(&labels);
        kripke
    }

    fn sweep_formulas() -> Vec<Ctl> {
        vec![
            Ctl::atom("q").exists_finally(),
            Ctl::atom("p").always_globally(),
            Ctl::atom("q").always_finally(),
            Ctl::Eg(Box::new(Ctl::atom("p").or(Ctl::atom("q").not()))),
            Ctl::atom("p").implies(Ctl::atom("q").exists_finally()).always_globally(),
            Ctl::Au(Box::new(Ctl::True), Box::new(Ctl::atom("q"))),
            Ctl::Eu(Box::new(Ctl::atom("p")), Box::new(Ctl::atom("q"))),
        ]
    }

    #[test]
    fn sharded_sweep_matches_sequential_batch() {
        let kripke = big_ring();
        let formulas = sweep_formulas();
        let sequential = ModelChecker::new(&kripke).check_all(&formulas);
        for threads in [1, 2, 3, 4, 8, 32] {
            let parallel = check_all_parallel(&kripke, &formulas, threads, 0);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn small_universes_stay_sequential_and_agree() {
        let mut kripke = Kripke::from_lists(
            vec!["p".into()],
            vec!["s0".into(), "s1".into()],
            &[vec![1], vec![1]],
            vec![0],
        );
        kripke.set_labels(&[vec![0], vec![]]);
        let formulas = vec![Ctl::atom("p").always_globally(), Ctl::atom("p").exists_finally()];
        let sequential = ModelChecker::new(&kripke).check_all(&formulas);
        assert_eq!(check_all_parallel(&kripke, &formulas, 8, 0), sequential);
    }
}
