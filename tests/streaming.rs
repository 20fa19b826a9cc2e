//! Streaming-pipeline geometry and store identity: shard ranges tile the
//! corpus, and a footprint store refuses a run it was not written by.
//! Bit identity across shard sizes, caches and store replay is the
//! conformance matrix's job (`tests/conformance.rs`).

use std::path::PathBuf;

use apistudy::analysis::AnalysisOptions;
use apistudy::core::{study_sharded_stored, JournalError};
use apistudy::corpus::{CalibrationSpec, Scale, SynthRepo};

fn tmp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "apistudy-streaming-{}-{tag}.apsf",
        std::process::id()
    ))
}

#[test]
fn store_from_a_different_run_is_refused() {
    let path = tmp_store("fingerprint");
    std::fs::remove_file(&path).ok();
    let scale = Scale { packages: 150, installations: 30_000 };
    let repo = |seed| SynthRepo::new(scale, CalibrationSpec::default(), seed);
    let stored = |seed, shard_size, resume| {
        let options = AnalysisOptions::default();
        study_sharded_stored(&repo(seed), options, shard_size, None, &path, resume)
    };
    stored(2016, 32, false).expect("fresh stored run");
    // Different seed → different corpus fingerprint.
    match stored(2017, 32, true) {
        Err(JournalError::FingerprintMismatch { .. }) => {}
        other => panic!("expected fingerprint mismatch, got {:?}", other.err()),
    }
    // Different shard geometry → different plan fingerprint (stored
    // shard boundaries would not line up with the resuming run's).
    match stored(2016, 64, true) {
        Err(JournalError::FingerprintMismatch { .. }) => {}
        other => panic!("expected fingerprint mismatch, got {:?}", other.err()),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn shard_ranges_partition_the_corpus() {
    use apistudy::core::shard_ranges;
    for (n, size) in [(150usize, 32usize), (600, 256), (5, 512), (7, 7), (9, 1)]
    {
        let ranges = shard_ranges(n, size);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous");
            assert_eq!(w[0].len(), size, "only the last shard may be short");
        }
    }
    assert_eq!(shard_ranges(10, 0).len(), 1, "0 means one whole-corpus shard");
    assert!(shard_ranges(0, 16).is_empty());
}
