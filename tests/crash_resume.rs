//! Crash–resume contract, end to end through the real binary: a
//! `faults --journal` run killed mid-sweep by the
//! `APISTUDY_JOURNAL_CRASH_AFTER` fail-point must resume to a journal
//! byte-identical — and a printed table character-identical — to an
//! uninterrupted run, with the footer accounting for every replayed and
//! appended record.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const FAULT_SEED: &str = "77";

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-crash-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_faults(
    dir: &Path,
    journal: &str,
    resume: bool,
    crash_after: Option<u32>,
) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_apistudy"));
    cmd.args(["--scale", "150", "--seed", "2016", "--cache", "mem"]);
    cmd.args(["faults", FAULT_SEED, "--journal"]);
    cmd.arg(dir.join(journal));
    if resume {
        cmd.arg("--resume");
    }
    // Isolate from any ambient fail-point, watchdog or cache
    // configuration.
    cmd.env_remove("APISTUDY_JOURNAL_CRASH_AFTER");
    cmd.env_remove("APISTUDY_ITEM_DEADLINE_MS");
    cmd.env_remove("APISTUDY_CACHE");
    if let Some(n) = crash_after {
        cmd.env("APISTUDY_JOURNAL_CRASH_AFTER", n.to_string());
    }
    cmd.output().expect("spawn apistudy")
}

#[test]
fn aborted_sweep_resumes_byte_identical_to_an_uninterrupted_run() {
    let dir = scratch();

    // Kill the run after four successful journal appends: the baseline
    // support set plus three sweep points are committed, the rest of the
    // sweep is lost with the process.
    let crashed = run_faults(&dir, "sweep.journal", false, Some(4));
    assert!(
        !crashed.status.success(),
        "the fail-point must abort the process: {:?}",
        crashed.status
    );
    let torn = std::fs::read(dir.join("sweep.journal"))
        .expect("the journal must survive the crash");
    assert!(!torn.is_empty());

    // Resume finishes the sweep against the same journal, on the fresh
    // in-memory cache of a new process.
    let resumed = run_faults(&dir, "sweep.journal", true, None);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed_stderr.contains("4 replayed, 8 appended"),
        "footer must account for the ledger, got:\n{resumed_stderr}"
    );

    // The control: the same sweep, never interrupted, on fresh state.
    let control = run_faults(&dir, "control.journal", false, None);
    assert!(
        control.status.success(),
        "control run failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );

    // Bit-identical resume, proven at both layers: the journal files
    // (checksummed f64 bit patterns included) and the rendered table.
    assert_eq!(
        std::fs::read(dir.join("sweep.journal")).unwrap(),
        std::fs::read(dir.join("control.journal")).unwrap(),
        "resumed journal must be byte-identical to the uninterrupted one"
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&control.stdout),
        "resumed table must match the uninterrupted run exactly"
    );
    let control_stderr = String::from_utf8_lossy(&control.stderr);
    assert!(
        control_stderr.contains("0 replayed, 12 appended"),
        "control footer must show a fresh journal, got:\n{control_stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
