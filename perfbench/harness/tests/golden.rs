//! The checked-in golden verdicts: well formed, consistent with the paper's
//! verdicts, and equal to a fresh recording from the current code.

use soteria_perfbench::golden::{record, Golden, GOLDEN};

#[test]
fn golden_file_parses_and_contains_the_papers_verdicts() {
    Golden::load().expect("golden file is consistent with the paper");
}

#[test]
fn golden_file_matches_a_fresh_recording() {
    let fresh = record(&soteria::Soteria::new());
    assert!(
        fresh == GOLDEN,
        "verdicts changed; compare with `soteria-perfbench record-golden`"
    );
}
