//! Output checks: the study's headline outputs, a digest that pins them
//! bit for bit, and the library's direct answers to serve requests.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use apistudy_analysis::content_hash;
use apistudy_catalog::{Api, ApiKind};
use apistudy_core::{
    greedy_suggestions, ApiFootprint, ErrorCode, Metrics, PackageRecord, Request, Response,
    Snapshot, StudyData,
};

use crate::load::Load;
use crate::workloads::corpus;

/// Cuts of the importance ranking at which weighted completeness is read.
const TOP_N: [usize; 6] = [50, 100, 150, 200, 250, 300];

/// Syscalls by importance, most important first.
pub fn ranking(m: &Metrics<'_>) -> Vec<(u32, f64)> {
    m.importance_ranking(ApiKind::Syscall)
        .into_iter()
        .filter_map(|(api, imp)| match api {
            Api::Syscall(nr) => Some((nr, imp)),
            _ => None,
        })
        .collect()
}

/// Weighted completeness of a system supporting the top N of `ranking`,
/// for each N of [`TOP_N`].
pub fn completeness(m: &Metrics<'_>, ranking: &[(u32, f64)]) -> Vec<(usize, f64)> {
    TOP_N
        .iter()
        .map(|&n| {
            let top: HashSet<u32> = ranking.iter().take(n).map(|&(nr, _)| nr).collect();
            (n, m.syscall_completeness(&top))
        })
        .collect()
}

/// The paper's headline outputs from one study: every syscall's
/// importance, ranked, and weighted completeness at top-N.
pub struct Headline {
    pub ranking: Vec<(u32, f64)>,
    pub completeness: Vec<(usize, f64)>,
}

impl Headline {
    pub fn of(m: &Metrics<'_>) -> Self {
        let ranking = ranking(m);
        let completeness = completeness(m, &ranking);
        Self { ranking, completeness }
    }
}

/// Content hash of what `fill` writes.
fn hash_of(fill: impl FnOnce(&mut String)) -> u64 {
    let mut text = String::new();
    fill(&mut text);
    content_hash(text.as_bytes())
}

/// Content hashes of a study's outputs, one per part, so a mismatch names
/// the part that differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyDigest {
    records: u64,
    attribution: u64,
    importance: u64,
    completeness: u64,
}

impl StudyDigest {
    pub fn of(data: &StudyData, m: &Metrics<'_>, headline: &Headline) -> Self {
        let records = hash_of(|s| {
            for rec in &data.packages {
                // Destructured so a new field cannot escape the digest.
                let PackageRecord {
                    name,
                    prob,
                    install_count,
                    depends,
                    footprint: ApiFootprint { apis, unresolved },
                    script_interpreters,
                    file_counts,
                    unresolved_syscall_sites,
                    skipped_binaries,
                    partial_footprint,
                } = rec;
                let _ = write!(
                    s,
                    "{name}|{:016x}|{install_count}|{depends:?}|{unresolved}|\
                     {script_interpreters:?}|{file_counts:?}|{unresolved_syscall_sites}|\
                     {skipped_binaries}|{partial_footprint}|",
                    prob.to_bits()
                );
                for id in apis.ids() {
                    let _ = write!(s, "{id},");
                }
                s.push('\n');
            }
        });
        let attribution = hash_of(|s| {
            let mut users: Vec<_> = data.attribution.direct_users.iter().collect();
            users.sort_by_key(|&(nr, _)| *nr);
            for (nr, files) in users {
                let _ = writeln!(s, "{nr} {files:?}");
            }
            let mut owners: Vec<_> = data.attribution.binary_package.iter().collect();
            owners.sort();
            for (file, package) in owners {
                let _ = writeln!(s, "{file} {package}");
            }
        });
        let importance = hash_of(|s| {
            for def in data.catalog.syscalls.iter() {
                let api = Api::Syscall(def.number);
                let _ = writeln!(
                    s,
                    "{} {:016x} {:016x}",
                    def.number,
                    m.importance(api).to_bits(),
                    m.unweighted_importance(api).to_bits()
                );
            }
            for (nr, imp) in &headline.ranking {
                let _ = writeln!(s, "{nr} {:016x}", imp.to_bits());
            }
        });
        let completeness = hash_of(|s| {
            for (n, c) in &headline.completeness {
                let _ = writeln!(s, "{n} {:016x}", c.to_bits());
            }
        });
        Self { records, attribution, importance, completeness }
    }

    /// The digest of `data` with its own metrics.
    pub fn of_data(data: &StudyData) -> Self {
        let m = Metrics::new(data);
        Self::of(data, &m, &Headline::of(&m))
    }

    /// The parts that differ from `other`.
    pub fn differing(&self, other: &Self) -> Vec<&'static str> {
        [
            ("records", self.records != other.records),
            ("attribution", self.attribution != other.attribution),
            ("importance bits", self.importance != other.importance),
            ("completeness bits", self.completeness != other.completeness),
        ]
        .into_iter()
        .filter(|&(_, differs)| differs)
        .map(|(part, _)| part)
        .collect()
    }

    fn encode(&self) -> String {
        format!(
            "{:016x} {:016x} {:016x} {:016x}",
            self.records, self.attribution, self.importance, self.completeness
        )
    }

    fn decode(line: &str) -> Option<Self> {
        let words: Vec<u64> = line
            .split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).ok())
            .collect::<Option<_>>()?;
        match words[..] {
            [records, attribution, importance, completeness] => {
                Some(Self { records, attribution, importance, completeness })
            }
            _ => None,
        }
    }
}

/// `--reference`: prints the digest of the in-memory
/// `StudyData::from_synth` path over the seed's corpus.
pub fn print_reference(seed: u64) {
    let data = StudyData::from_synth(&corpus(seed));
    println!("reference {}", StudyDigest::of_data(&data).encode());
}

/// Runs `--reference` in a child process, so the in-memory path's peak
/// memory stays out of this process's.
pub fn reference_digest(seed: u64) -> Result<StudyDigest, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--reference", "--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("reference run: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference run failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("reference ").and_then(StudyDigest::decode))
        .ok_or_else(|| "reference run printed no digest".to_owned())
}

/// The library's answer to `req` on `snap`, with the start and end of the
/// library call itself (building the supported set excluded).
pub fn direct(snap: &Snapshot, m: &Metrics<'_>, req: &Request) -> (Response, Instant, Instant) {
    let set = |s: &[u32]| s.iter().copied().collect::<HashSet<u32>>();
    let start = Instant::now();
    match req {
        Request::Ping => {
            let packages = snap.study.data().packages.len() as u32;
            let pong = Response::Pong {
                fingerprint: snap.fingerprint,
                generation: snap.generation,
                packages,
            };
            (pong, start, Instant::now())
        }
        Request::Importance { nr } => {
            let api = Api::Syscall(*nr);
            let reply = Response::Importance {
                importance_bits: m.importance(api).to_bits(),
                unweighted_bits: m.unweighted_importance(api).to_bits(),
            };
            (reply, start, Instant::now())
        }
        Request::Completeness { supported } => {
            let supported = set(supported);
            let start = Instant::now();
            let bits = m.syscall_completeness(&supported).to_bits();
            (Response::Completeness { bits }, start, Instant::now())
        }
        Request::Suggest { supported, limit } => {
            let supported = set(supported);
            let start = Instant::now();
            let picks = greedy_suggestions(m, &supported, *limit as usize);
            let end = Instant::now();
            let picks = picks.into_iter().map(|(nr, gain)| (nr, gain.to_bits())).collect();
            (Response::Suggest { picks }, start, end)
        }
        other => {
            let why = format!("{other:?} is not in the benchmark's mix");
            (Response::err(ErrorCode::Internal, why), start, start)
        }
    }
}

/// Checks every reply of `load` against the library's direct answer on
/// `snap`, computing each key once, across `threads` threads. Returns how
/// many replies differ, and each key's direct library call (start, end).
pub fn verify(
    snap: &Snapshot,
    load: &Load<'_>,
    threads: usize,
) -> (u64, HashMap<u32, (Instant, Instant)>) {
    let replies: Vec<_> = load.replies().into_iter().collect();
    let mix = load.mix();
    let chunk = replies.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let m = snap.metrics();
                    part.iter()
                        .map(|(key, seen)| {
                            let (want, a, b) = direct(snap, &m, &mix.request(*key));
                            let bad: u64 =
                                seen.iter().filter(|(r, _)| *r != want).map(|(_, n)| n).sum();
                            (*key, bad, (a, b))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let (mut bad, mut calls) = (0, HashMap::with_capacity(replies.len()));
        for w in workers {
            for (key, wrong, call) in w.join().expect("verifier thread panicked") {
                bad += wrong;
                calls.insert(key, call);
            }
        }
        (bad, calls)
    })
}
