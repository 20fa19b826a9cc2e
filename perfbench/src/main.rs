//! `perfbench`: the repository's benchmark.
//!
//! Runs one workload over a seeded synthetic corpus, prints every
//! end-to-end metric by name and unit, checks every output bit for bit,
//! and ends with one JSON line. `--trace 1` runs the traced layer sweep
//! instead. `perfbench/README.md` describes the workloads and metrics.

mod check;
mod keys;
mod load;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use apistudy_corpus::Scale;

/// Packages in the corpus: six shards at the production shard size (the
/// last one short), so the shared system base, the cross-shard fold and
/// the per-shard store commit all run.
pub const PACKAGES: usize = 3_000;

/// Survey installations per package, the density of every recorded
/// scaling point.
const INSTALLS_PER_PACKAGE: u64 = 100;

/// Scratch stores and span files live here, inside the checkout.
const OUT_DIR: &str = ".bench_build/perfbench";

/// Knobs that would steer the library away from production defaults.
const CLEARED_ENV: [&str; 5] = [
    "APISTUDY_THREADS",
    "APISTUDY_CACHE",
    "APISTUDY_ITEM_DEADLINE_MS",
    "APISTUDY_SYS_FAULTS",
    "APISTUDY_JOURNAL_CRASH_AFTER",
];

const USAGE: &str = "usage: perfbench --workload <study|fleet|serve-hot|serve-cold> \
                     --seed N --seconds N --trace <0|1>";

/// The corpus scale every workload uses.
pub fn scale() -> Scale {
    Scale { packages: PACKAGES, installations: PACKAGES as u64 * INSTALLS_PER_PACKAGE }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    Fleet,
    ServeHot,
    ServeCold,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::Study, Workload::Fleet, Workload::ServeHot, Workload::ServeCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Fleet => "fleet",
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
        }
    }
}

/// What a run is given.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed section runs.
    pub window: Duration,
    /// Available parallelism: the serve client count and verifier threads.
    pub nproc: usize,
    /// Scratch directory, removed when the run ends.
    pub work: PathBuf,
    /// Where span files go.
    pub out: PathBuf,
}

/// Why a run stopped without a result.
pub enum Stop {
    /// A workload guard tripped: the workload is not what it claims.
    Guard(String),
    /// Anything else that went wrong.
    Error(String),
}

impl From<String> for Stop {
    fn from(why: String) -> Self {
        Stop::Error(why)
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reference: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out =
        Args { workload: None, seed: 1, seconds: 10, trace: false, reference: false };
    while let Some(flag) = args.next() {
        if flag == "--reference" {
            out.reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                out.workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => {
                out.seed = value.parse().map_err(|_| format!("--seed {value}: not an integer"))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive integer"))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

/// Removes the [`CLEARED_ENV`] knobs; returns the ones that were set.
fn clear_env() -> Vec<String> {
    CLEARED_ENV
        .iter()
        .filter_map(|&key| {
            let value = std::env::var_os(key)?;
            std::env::remove_var(key);
            Some(format!("{key}={}", value.to_string_lossy()))
        })
        .collect()
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    // The library reads these on every call, so clear them before any.
    let cleared = clear_env();
    if args.reference {
        check::print_reference(args.seed);
        return;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        exit(2)
    };
    let out = PathBuf::from(OUT_DIR);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: out.join(format!("work-{}", std::process::id())),
        out,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: {}: {e}", ctx.work.display());
        exit(1);
    }
    println!(
        "perfbench {}{}: seed {}, {PACKAGES} packages x {INSTALLS_PER_PACKAGE} installations \
         in {} shards of {}, nproc {}, window {} s",
        workload.name(),
        if args.trace { " (traced)" } else { "" },
        ctx.seed,
        workloads::shard_count(),
        workloads::SHARD,
        ctx.nproc,
        args.seconds
    );
    if cleared.is_empty() {
        println!("environment: no APISTUDY_* knob was set");
    } else {
        println!("environment: cleared {}", cleared.join(", "));
    }
    let result = if args.trace {
        traced::run(&ctx)
    } else {
        match workload {
            Workload::Study => workloads::study(&ctx),
            Workload::Fleet => workloads::fleet(&ctx),
            Workload::ServeHot => workloads::serve(&ctx, true),
            Workload::ServeCold => workloads::serve(&ctx, false),
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(mut outcome) => {
            outcome.correct &= outcome.failed == 0
                && outcome.metrics.iter().all(|m| m.value.is_finite());
            for m in &outcome.metrics {
                println!("{:<28} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            if !outcome.correct {
                exit(1);
            }
        }
        Err(Stop::Guard(why)) => {
            eprintln!("perfbench: guard failed: {why}");
            exit(3);
        }
        Err(Stop::Error(why)) => {
            eprintln!("perfbench: {why}");
            exit(1);
        }
    }
}
