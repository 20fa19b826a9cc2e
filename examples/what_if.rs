//! What-if analysis: simulating API adoption changes.
//!
//! The paper's §5 closes with "our dataset provides more opportunity for
//! system developers to actively communicate with application developers,
//! in order to speed up the process of retiring problematic APIs." This
//! example plays that forward: what would the measurements look like if
//! outreach succeeded and the TOCTTOU-safe `faccessat` reached 50%
//! adoption while the race-prone `access` fell to 25%?
//!
//! ```text
//! cargo run --example what_if
//! ```

use std::collections::HashSet;

use apistudy::catalog::ApiKind;
use apistudy::core::{diff::StudyDiff, CompletenessEngine, RunOptions, Study};
use apistudy::corpus::{CalibrationSpec, Scale, SynthRepo};

/// Measures the corpus a calibration generates at `scale`.
fn measure(scale: Scale, spec: CalibrationSpec) -> Study {
    let repo = SynthRepo::new(scale, spec, 7);
    let (study, _) = Study::run_on(repo, &RunOptions::default(), None)
        .expect("a run without a store does no I/O");
    study
}

fn main() {
    let scale = Scale::test();

    println!("measuring baseline (today's adoption)...");
    let baseline = measure(scale, CalibrationSpec::default());

    println!("measuring the what-if world (faccessat outreach succeeded)...");
    let scenario = CalibrationSpec {
        adoption_overrides: vec![
            ("faccessat".into(), 0.50),
            ("access".into(), 0.25),
            ("waitid".into(), 0.35),
            ("wait4".into(), 0.25),
        ],
        ..CalibrationSpec::default()
    };
    let future = measure(scale, scenario);

    let mb = baseline.metrics();
    let mf = future.metrics();
    let diff = StudyDiff::compare(&mb, &mf, ApiKind::Syscall);

    println!("\nlargest adoption movers (fraction of packages):");
    for s in diff.top_adoption_movers(8) {
        println!(
            "  {:<12} {:6.2}% -> {:6.2}%  ({:+.2} pts)",
            s.name,
            100.0 * s.unweighted.0,
            100.0 * s.unweighted.1,
            100.0 * s.unweighted_delta(),
        );
    }

    // The deprecation question: can `access` be removed in the what-if
    // world? Weighted importance answers "who would notice".
    for name in ["access", "faccessat", "wait4", "waitid"] {
        let s = diff.shift(name).expect("tracked");
        println!(
            "\n{name}: importance {:.1}% -> {:.1}%, adoption {:.2}% -> {:.2}%",
            100.0 * s.importance.0,
            100.0 * s.importance.1,
            100.0 * s.unweighted.0,
            100.0 * s.unweighted.1,
        );
    }
    println!(
        "\neven at 25% adoption, access keeps ~100% weighted importance —\n\
         deprecation needs the *installed base* to move, not just new code,\n\
         which is exactly the paper's point about slow API retirement."
    );

    // The other direction of the same question: if the kernel *dropped*
    // one of these calls today, how much of an installation breaks? One
    // incremental engine answers all four — `remove_api` returns the
    // exact completeness delta and `add_api` restores it for the next
    // candidate, with no from-scratch recomputation in the loop.
    println!("\nweighted completeness cost of dropping a call outright:");
    let all_supported: HashSet<u32> = baseline
        .data()
        .catalog
        .syscalls
        .iter()
        .map(|d| d.number)
        .collect();
    let mut engine = CompletenessEngine::for_syscalls(&mb, &all_supported);
    for name in ["access", "faccessat", "wait4", "waitid"] {
        let Some(api) = baseline.syscall(name) else { continue };
        let drop = engine.remove_api(api);
        engine.add_api(api);
        println!("  drop {name:<12} completeness {:+.2} pts", 100.0 * drop);
    }
    println!(
        "\nin the baseline world every one of them is load-bearing: the\n\
         drop cost is the failing packages' installed mass, not a vote."
    );
}
