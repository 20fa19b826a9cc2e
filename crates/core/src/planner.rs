//! The implementation planner: "From Hello World to qemu" (paper §3.2).
//!
//! Given the measured importance ranking of system calls, computes the
//! accumulated weighted completeness of supporting the N most important
//! calls (Figure 3) and partitions the ranking into the five development
//! stages of Table 4. [`CompletenessCurve::compute_greedy`] and
//! [`greedy_suggestions`] replace the static importance order with a
//! lazy-greedy marginal-gain order driven by the incremental
//! [`CompletenessEngine`].

use std::collections::{HashMap, HashSet};
use std::path::Path;

use apistudy_catalog::{Api, ApiKind};

use crate::cache::fold_hash;
use crate::engine::CompletenessEngine;
use crate::journal::{
    catalog_fingerprint, Journal, JournalError, JournalRecord, JournalStats,
    RunFingerprint, RunKind,
};
use crate::metrics::Metrics;

/// The measured syscall importance ranking and the completeness curve over
/// its prefixes.
#[derive(Debug, Clone)]
pub struct CompletenessCurve {
    /// Syscall numbers, most important first.
    pub ranking: Vec<u32>,
    /// `points[n]` = weighted completeness when the first `n` calls of
    /// `ranking` are supported (`points[0]` = 0 support).
    pub points: Vec<f64>,
}

impl CompletenessCurve {
    /// Computes the curve. Efficient: packages are bucketed by the maximum
    /// rank in their (dependency-closed) syscall footprint, so the sweep is
    /// one pass rather than one completeness evaluation per N.
    pub fn compute(metrics: &Metrics<'_>) -> Self {
        let data = metrics.data();
        let ranking: Vec<u32> = metrics
            .importance_ranking(ApiKind::Syscall)
            .into_iter()
            .map(|(api, _)| match api {
                Api::Syscall(n) => n,
                _ => unreachable!("syscall ranking"),
            })
            .collect();
        let rank_of: HashMap<u32, usize> = ranking
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i + 1)) // 1-based: supported once N ≥ rank
            .collect();

        // Max rank per package footprint.
        let own_rank: Vec<usize> = data
            .packages
            .iter()
            .map(|p| {
                p.footprint
                    .syscalls()
                    .map(|nr| rank_of.get(&nr).copied().unwrap_or(usize::MAX))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        // Dependency closure: a package needs its dependencies to work, so
        // its effective rank is the max over the dependency closure. Max is
        // monotone, so one bottom-up pass over the condensation suffices —
        // a component's dependencies carry smaller ids and are final by the
        // time it is visited, and cycle members share one value.
        let cond = metrics.condensation();
        let ncomp = cond.len();
        let mut comp_rank = vec![0usize; ncomp];
        for c in 0..ncomp {
            let own = cond
                .members(c as u32)
                .iter()
                .map(|&i| own_rank[i])
                .max()
                .unwrap_or(0);
            let dep = cond
                .deps(c as u32)
                .iter()
                .map(|&d| comp_rank[d as usize])
                .max()
                .unwrap_or(0);
            comp_rank[c] = own.max(dep);
        }
        let max_rank: Vec<usize> = (0..data.packages.len())
            .map(|i| comp_rank[cond.comp_of(i) as usize])
            .collect();

        // Mass histogram by effective rank.
        let total_mass: f64 = data.packages.iter().map(|p| p.prob).sum();
        let mut mass_at = vec![0.0f64; ranking.len() + 1];
        for (i, p) in data.packages.iter().enumerate() {
            if max_rank[i] <= ranking.len() {
                mass_at[max_rank[i]] += p.prob;
            }
            // Packages needing an API outside the ranking never become
            // supported (cannot happen for syscalls, kept for safety).
        }
        let mut points = Vec::with_capacity(ranking.len() + 1);
        let mut acc = 0.0;
        for m in mass_at {
            acc += m;
            points.push(if total_mass > 0.0 { acc / total_mass } else { 0.0 });
        }
        Self { ranking, points }
    }

    /// Computes the curve in **greedy marginal-gain order** instead of
    /// static importance order: each position of `ranking` is the syscall
    /// whose addition buys the largest completeness gain at that point,
    /// evaluated lazily through the incremental [`CompletenessEngine`].
    /// Every point is bit-identical to a from-scratch
    /// [`Metrics::syscall_completeness`] over the same prefix.
    pub fn compute_greedy(metrics: &Metrics<'_>) -> Self {
        let greedy = run_greedy(metrics, &HashSet::new(), usize::MAX);
        let mut points = Vec::with_capacity(greedy.picks.len() + 1);
        points.push(greedy.baseline);
        points.extend(greedy.after.iter().copied());
        Self {
            ranking: greedy.picks.iter().map(|&(nr, _)| nr).collect(),
            points,
        }
    }

    /// Completeness with the top `n` calls supported.
    pub fn at(&self, n: usize) -> f64 {
        self.points[n.min(self.points.len() - 1)]
    }

    /// Smallest N reaching at least the given completeness.
    pub fn calls_needed(&self, completeness: f64) -> usize {
        self.points
            .iter()
            .position(|&c| c >= completeness)
            .unwrap_or(self.points.len() - 1)
    }
}

/// The next `n` syscalls a compat layer should implement, in greedy
/// marginal-gain order, with each pick's exact completeness gain.
///
/// Starts from `supported` and repeatedly commits the syscall whose
/// addition buys the largest weighted-completeness gain (ties broken by
/// the paper's importance order). Gains are evaluated lazily: most
/// candidates are dismissed by a non-increasing upper bound and never
/// probed.
pub fn greedy_suggestions(
    metrics: &Metrics<'_>,
    supported: &HashSet<u32>,
    n: usize,
) -> Vec<(u32, f64)> {
    run_greedy(metrics, supported, n).picks
}

/// [`greedy_suggestions`] under a write-ahead journal: every committed
/// pick is appended (syscall number plus the gain and after-completeness
/// f64 bit patterns) as it is decided, and with `resume` the journaled
/// pick prefix is *replayed* — committed into the engine without any
/// probing — before live greedy selection continues. Each replayed pick's
/// gain and cumulative completeness are re-derived by the engine and
/// verified bit-for-bit against the journal; a mismatch is a
/// [`JournalError::Diverged`], never a silently different plan.
///
/// `corpus` and `options` identify the measured dataset (the caller's
/// corpus fingerprint and [`AnalysisOptions::fingerprint`](apistudy_analysis::AnalysisOptions::fingerprint));
/// they, the catalog, the starting `supported` set, and `n` are bound
/// into the journal header's [`RunFingerprint`].
pub fn greedy_suggestions_journaled(
    metrics: &Metrics<'_>,
    supported: &HashSet<u32>,
    n: usize,
    corpus: u64,
    options: u64,
    journal_path: &Path,
    resume: bool,
) -> Result<(Vec<(u32, f64)>, JournalStats), JournalError> {
    let fp = RunFingerprint {
        kind: RunKind::GreedyPlan,
        corpus,
        options,
        catalog: catalog_fingerprint(&metrics.data().catalog),
        plan: {
            let mut nrs: Vec<u32> = supported.iter().copied().collect();
            nrs.sort_unstable();
            let mut h = fold_hash(0, n as u64);
            for nr in nrs {
                h = fold_hash(h, u64::from(nr));
            }
            h
        },
    };
    let (mut journal, records) = Journal::open(journal_path, &fp, resume)?;
    let mut replay = Vec::with_capacity(records.len());
    for rec in records {
        match rec {
            JournalRecord::GreedyPick { nr, gain_bits, after_bits } => {
                replay.push((nr, gain_bits, after_bits))
            }
            other => {
                return Err(JournalError::Diverged(format!(
                    "unexpected record in a greedy journal: {other:?}"
                )))
            }
        }
    }
    if replay.len() > n {
        return Err(JournalError::Diverged(format!(
            "journal holds {} picks, run asked for {n}",
            replay.len()
        )));
    }
    let run = run_greedy_replayed(metrics, supported, n, &replay, |pick| {
        journal.append(&pick)
    })?;
    Ok((run.picks, journal.stats()))
}

/// Result of a greedy planning run.
struct GreedyRun {
    /// `(syscall number, exact completeness gain)` in pick order.
    picks: Vec<(u32, f64)>,
    /// Completeness after each pick (`after[k]` follows `picks[k]`).
    after: Vec<f64>,
    /// Completeness before the first pick.
    baseline: f64,
}

/// Slack for the lazy-evaluation cutoff: upper bounds are maintained by
/// subtracting flipped-component masses, so they can drift a few ulps
/// below the true bound. The slack keeps the cutoff sound (worst case: a
/// handful of extra probes).
const UB_SLACK: f64 = 1e-12;

/// Lazy-greedy (CELF-style) syscall selection over the incremental
/// engine.
///
/// Weighted completeness is **supermodular** in the supported set (a
/// package flips only once its *last* missing API arrives, so marginal
/// gains grow as the set grows). The classic CELF trick of reusing stale
/// *gains* as upper bounds is therefore invalid here. What is valid is a
/// structural bound: the gain of adding syscall `a` can never exceed the
/// mass of the currently-failing components whose dependency-closed
/// footprint contains `a` — and since greedy only ever adds support,
/// failing components only disappear, so that bound is non-increasing
/// across rounds. Candidates are scanned in descending bound order and
/// probing stops as soon as the best exact gain beats every remaining
/// bound.
fn run_greedy(
    metrics: &Metrics<'_>,
    supported: &HashSet<u32>,
    limit: usize,
) -> GreedyRun {
    run_greedy_replayed(metrics, supported, limit, &[], |_| {
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|e| match e {
        GreedyRunError::Sink(never) => match never {},
        GreedyRunError::Diverged(why) => {
            unreachable!("empty replay cannot diverge: {why}")
        }
    })
}

/// [`run_greedy`] failures: replay divergence, or an error from the
/// per-pick sink (journal appends). Generic over the sink's error so the
/// un-journaled path statically cannot fail.
enum GreedyRunError<E> {
    Diverged(String),
    Sink(E),
}

impl From<GreedyRunError<JournalError>> for JournalError {
    fn from(e: GreedyRunError<JournalError>) -> Self {
        match e {
            GreedyRunError::Diverged(why) => JournalError::Diverged(why),
            GreedyRunError::Sink(e) => e,
        }
    }
}

/// The lazy-greedy loop with a replay prefix and a per-pick sink.
///
/// The first `replay.len()` rounds skip sorting and probing entirely:
/// each `(nr, gain_bits, after_bits)` tuple is committed straight into
/// the engine (upper bounds still updated from the flipped components, so
/// later live rounds stay sound) and the engine's exact delta and
/// cumulative completeness are verified bit-for-bit against the recorded
/// values. Every *live* pick is handed to `on_pick` before it is returned
/// — the journaled path appends it there, write-ahead of any use.
fn run_greedy_replayed<E>(
    metrics: &Metrics<'_>,
    supported: &HashSet<u32>,
    limit: usize,
    replay: &[(u32, u64, u64)],
    mut on_pick: impl FnMut(JournalRecord) -> Result<(), E>,
) -> Result<GreedyRun, GreedyRunError<E>> {
    let data = metrics.data();
    let cond = metrics.condensation();
    let ncomp = cond.len();
    let total_mass = metrics.total_mass;
    let mut engine = CompletenessEngine::for_syscalls(metrics, supported);
    let baseline = engine.completeness();

    // Upper bounds live in completeness units (mass / total mass).
    let comp_mass: Vec<f64> = (0..ncomp)
        .map(|c| {
            if total_mass == 0.0 {
                return 0.0;
            }
            cond.members(c as u32)
                .iter()
                .map(|&i| data.packages[i].prob)
                .sum::<f64>()
                / total_mass
        })
        .collect();

    struct Cand {
        nr: u32,
        api: Api,
        /// Position in the importance ranking (tie-break order).
        rank: usize,
        /// Non-increasing upper bound on this candidate's gain.
        ub: f64,
    }
    let mut cands: Vec<Cand> = metrics
        .importance_ranking(ApiKind::Syscall)
        .into_iter()
        .enumerate()
        .filter_map(|(rank, (api, _))| match api {
            Api::Syscall(nr) if !supported.contains(&nr) => {
                Some(Cand { nr, api, rank, ub: 0.0 })
            }
            _ => None,
        })
        .collect();
    for (c, &mass) in comp_mass.iter().enumerate().take(ncomp) {
        if engine.comp_ok(c as u32) || mass == 0.0 {
            continue;
        }
        for cand in cands.iter_mut() {
            if metrics.comp_closure[c].contains(cand.api) {
                cand.ub += mass;
            }
        }
    }

    let total = cands.len().min(limit);
    let mut picks = Vec::with_capacity(total);
    let mut after = Vec::with_capacity(total);
    while picks.len() < total {
        let round = picks.len();
        let mut probed_gain: Option<f64> = None;
        let (bi, recorded) = if let Some(&(nr, gain_bits, after_bits)) =
            replay.get(round)
        {
            // Replay: the journal already decided this round — commit it
            // without sorting or probing a single candidate.
            let Some(bi) = cands.iter().position(|c| c.nr == nr) else {
                return Err(GreedyRunError::Diverged(format!(
                    "replayed pick {round} (syscall {nr}) is not an \
                     available candidate"
                )));
            };
            (bi, Some((gain_bits, after_bits)))
        } else {
            cands.sort_by(|x, y| {
                y.ub.total_cmp(&x.ub).then(x.rank.cmp(&y.rank))
            });
            // Probe in descending-bound order until no remaining bound
            // can beat the best exact gain seen.
            let mut best: Option<(usize, f64)> = None;
            for (i, cand) in cands.iter().enumerate() {
                if let Some((_, bg)) = best {
                    if bg > cand.ub + UB_SLACK {
                        break;
                    }
                }
                let g = engine.probe_gain(cand.api);
                let replace = match best {
                    None => true,
                    Some((bi, bg)) => {
                        g > bg || (g == bg && cand.rank < cands[bi].rank)
                    }
                };
                if replace {
                    best = Some((i, g));
                }
            }
            // Internal invariant, not input-reachable: the enclosing loop
            // runs only while cands is non-empty, so the probe above
            // always selects at least one candidate.
            let (bi, bg) = best.expect("non-empty candidate list");
            probed_gain = Some(bg);
            (bi, None)
        };
        let nr = cands[bi].nr;
        let delta = engine.add_api(cands[bi].api);
        let cum = engine.completeness();
        if let Some(bg) = probed_gain {
            debug_assert_eq!(delta.to_bits(), bg.to_bits());
        }
        match recorded {
            Some((gain_bits, after_bits)) => {
                // The engine re-derives the replayed pick's effect; any
                // bit of drift means the journal and this run disagree.
                if delta.to_bits() != gain_bits || cum.to_bits() != after_bits
                {
                    return Err(GreedyRunError::Diverged(format!(
                        "replayed pick {round} (syscall {nr}) does not \
                         reproduce: gain bits {:#018x} vs journaled \
                         {gain_bits:#018x}, completeness bits {:#018x} vs \
                         journaled {after_bits:#018x}",
                        delta.to_bits(),
                        cum.to_bits(),
                    )));
                }
            }
            None => on_pick(JournalRecord::GreedyPick {
                nr,
                gain_bits: delta.to_bits(),
                after_bits: cum.to_bits(),
            })
            .map_err(GreedyRunError::Sink)?,
        }
        picks.push((nr, delta));
        after.push(cum);
        let flipped: Vec<u32> = engine.last_flipped().to_vec();
        cands.swap_remove(bi);
        for &c in &flipped {
            let mass = comp_mass[c as usize];
            if mass == 0.0 {
                continue;
            }
            for cand in cands.iter_mut() {
                if metrics.comp_closure[c as usize].contains(cand.api) {
                    cand.ub -= mass;
                }
            }
        }
    }
    Ok(GreedyRun { picks, after, baseline })
}

/// One development stage (Table 4).
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage label (I–V).
    pub label: &'static str,
    /// Number of calls added in this stage.
    pub added: usize,
    /// Cumulative number of calls after this stage.
    pub cumulative: usize,
    /// Sample syscall names from this stage.
    pub samples: Vec<String>,
    /// Weighted completeness reached.
    pub completeness: f64,
}

/// Partitions the curve into the paper's five stages (40 / 81 / 145 / 202 /
/// everything used).
pub fn stages(metrics: &Metrics<'_>, curve: &CompletenessCurve) -> Vec<Stage> {
    let data = metrics.data();
    // The last stage ends where importance hits zero (all used calls).
    let used = curve
        .ranking
        .iter()
        .take_while(|&&nr| metrics.importance(Api::Syscall(nr)) > 0.0)
        .count();
    let bounds = [40usize, 81, 145, 202, used.max(202)];
    let labels = ["I", "II", "III", "IV", "V"];
    let mut out = Vec::with_capacity(5);
    let mut prev = 0usize;
    for (i, &b) in bounds.iter().enumerate() {
        let b = b.min(curve.ranking.len());
        let samples: Vec<String> = curve.ranking[prev..b]
            .iter()
            .take(10)
            .filter_map(|&nr| {
                data.catalog.syscalls.by_number(nr).map(|d| d.name.to_owned())
            })
            .collect();
        out.push(Stage {
            label: labels[i],
            added: b - prev,
            cumulative: b,
            samples,
            completeness: curve.at(b),
        });
        prev = b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyData;
    use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

    fn data() -> StudyData {
        let repo = SynthRepo::new(
            Scale { packages: 200, installations: 50_000 },
            CalibrationSpec::default(),
            11,
        );
        StudyData::from_synth(&repo)
    }

    #[test]
    fn curve_is_monotone_and_reaches_one() {
        let data = data();
        let metrics = Metrics::new(&data);
        let curve = CompletenessCurve::compute(&metrics);
        // One entry per catalog syscall — derived, not hard-coded, so a
        // catalog revision cannot silently invalidate the test.
        assert_eq!(curve.ranking.len(), data.catalog.syscalls.len());
        for w in curve.points.windows(2) {
            assert!(w[1] >= w[0], "curve must be monotone");
        }
        assert!((curve.at(323) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_curve_is_monotone_reaches_one_and_matches_scratch() {
        let data = data();
        let metrics = Metrics::new(&data);
        let curve = CompletenessCurve::compute_greedy(&metrics);
        assert_eq!(curve.ranking.len(), data.catalog.syscalls.len());
        for w in curve.points.windows(2) {
            assert!(w[1] >= w[0], "greedy curve must be monotone");
        }
        assert!((curve.points.last().unwrap() - 1.0).abs() < 1e-9);
        // Every point is bit-identical to a from-scratch evaluation of the
        // same support prefix.
        for k in [0usize, 1, 40, 120, curve.ranking.len()] {
            let prefix: HashSet<u32> =
                curve.ranking[..k].iter().copied().collect();
            assert_eq!(
                curve.points[k].to_bits(),
                metrics.syscall_completeness(&prefix).to_bits(),
                "prefix {k}"
            );
        }
    }

    #[test]
    fn greedy_dominates_importance_order() {
        // Greedy optimizes the curve directly, so its prefix completeness
        // can never trail the static importance order by construction of
        // the first pick, and in practice dominates everywhere. Check a
        // sample of prefixes (greedy ≥ static, small tolerance for the
        // tail where both saturate).
        let data = data();
        let metrics = Metrics::new(&data);
        let static_curve = CompletenessCurve::compute(&metrics);
        let greedy_curve = CompletenessCurve::compute_greedy(&metrics);
        for k in [50usize, 100, 150, 200, 250, 323] {
            assert!(
                greedy_curve.at(k) >= static_curve.at(k) - 1e-12,
                "greedy must not trail at {k}: {} vs {}",
                greedy_curve.at(k),
                static_curve.at(k)
            );
        }
    }

    #[test]
    fn greedy_matches_exhaustive_oracle() {
        // The lazy bound-pruned greedy must pick exactly what a brute
        // force greedy — every candidate re-evaluated from scratch every
        // round — picks, gains bit-identical.
        let data = StudyData::from_synth(&SynthRepo::new(
            Scale { packages: 150, installations: 40_000 },
            CalibrationSpec::default(),
            7,
        ));
        let metrics = Metrics::new(&data);
        let rounds = 25;
        let lazy = greedy_suggestions(&metrics, &HashSet::new(), rounds);
        assert_eq!(lazy.len(), rounds);

        let ranking: Vec<u32> = metrics
            .importance_ranking(ApiKind::Syscall)
            .into_iter()
            .map(|(api, _)| match api {
                Api::Syscall(nr) => nr,
                _ => unreachable!(),
            })
            .collect();
        let mut supported: HashSet<u32> = HashSet::new();
        let mut current = metrics.syscall_completeness(&supported);
        for (round, &(picked, gain)) in lazy.iter().enumerate() {
            let mut best: Option<(u32, f64, usize)> = None;
            for (rank, &nr) in ranking.iter().enumerate() {
                if supported.contains(&nr) {
                    continue;
                }
                let mut trial = supported.clone();
                trial.insert(nr);
                let g = metrics.syscall_completeness(&trial) - current;
                let replace = match best {
                    None => true,
                    Some((_, bg, br)) => g > bg || (g == bg && rank < br),
                };
                if replace {
                    best = Some((nr, g, rank));
                }
            }
            let (oracle_nr, oracle_gain, _) = best.unwrap();
            assert_eq!(picked, oracle_nr, "round {round}");
            assert_eq!(
                gain.to_bits(),
                oracle_gain.to_bits(),
                "round {round} gain"
            );
            supported.insert(picked);
            current = metrics.syscall_completeness(&supported);
        }
    }

    #[test]
    fn greedy_suggestions_resume_from_partial_support() {
        let data = data();
        let metrics = Metrics::new(&data);
        let base: HashSet<u32> = CompletenessCurve::compute(&metrics)
            .ranking
            .iter()
            .take(60)
            .copied()
            .collect();
        let picks = greedy_suggestions(&metrics, &base, 10);
        assert_eq!(picks.len(), 10);
        for &(nr, gain) in &picks {
            assert!(!base.contains(&nr), "must not re-suggest {nr}");
            assert!(gain >= 0.0);
        }
        // Committing the picks reproduces the reported cumulative gain.
        let mut grown = base.clone();
        grown.extend(picks.iter().map(|&(nr, _)| nr));
        let before = metrics.syscall_completeness(&base);
        let after = metrics.syscall_completeness(&grown);
        let reported: f64 = picks.iter().map(|&(_, g)| g).sum();
        assert!(
            (after - before - reported).abs() < 1e-9,
            "gains must account for the completeness growth"
        );
    }

    #[test]
    fn journaled_greedy_is_bitwise_stable_across_resume() {
        let data = data();
        let metrics = Metrics::new(&data);
        let path = std::env::temp_dir().join(format!(
            "apistudy-greedy-{}.apsj",
            std::process::id()
        ));
        let none = HashSet::new();
        let plain = greedy_suggestions(&metrics, &none, 12);

        // A fresh journaled run picks bit-for-bit what the plain one does.
        let (full, stats) = greedy_suggestions_journaled(
            &metrics, &none, 12, 0xC0FFEE, 0xD0, &path, false,
        )
        .expect("fresh journaled run");
        assert_eq!(stats, JournalStats { replayed: 0, appended: 12 });
        let bits = |picks: &[(u32, f64)]| -> Vec<(u32, u64)> {
            picks.iter().map(|&(nr, g)| (nr, g.to_bits())).collect()
        };
        assert_eq!(bits(&plain), bits(&full));

        // Resuming the complete journal replays every pick (no engine
        // probing, every gain re-verified) and appends nothing.
        let (replayed, stats) = greedy_suggestions_journaled(
            &metrics, &none, 12, 0xC0FFEE, 0xD0, &path, true,
        )
        .expect("full replay");
        assert_eq!(stats, JournalStats { replayed: 12, appended: 0 });
        assert_eq!(bits(&plain), bits(&replayed));

        // Tear the journal's tail mid-record (a crash during the last
        // append): resume replays the surviving prefix and recomputes the
        // rest, still bit-identical.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let (resumed, stats) = greedy_suggestions_journaled(
            &metrics, &none, 12, 0xC0FFEE, 0xD0, &path, true,
        )
        .expect("partial resume");
        assert_eq!(stats, JournalStats { replayed: 11, appended: 1 });
        assert_eq!(bits(&plain), bits(&resumed));

        // A different starting set is a different plan: refused.
        let other: HashSet<u32> = [7u32].into_iter().collect();
        match greedy_suggestions_journaled(
            &metrics, &other, 12, 0xC0FFEE, 0xD0, &path, true,
        ) {
            Err(JournalError::FingerprintMismatch { .. }) => {}
            r => panic!("expected fingerprint mismatch, got {r:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hello_world_needs_about_40_calls() {
        let data = data();
        let metrics = Metrics::new(&data);
        let curve = CompletenessCurve::compute(&metrics);
        // Nothing runs with fewer than ~40 calls...
        assert!(curve.at(30) < 0.005, "at 30: {}", curve.at(30));
        // ...but the first packages appear by 40.
        assert!(curve.at(45) > 0.0, "at 45: {}", curve.at(45));
    }

    #[test]
    fn knees_match_figure_3_shape() {
        let data = data();
        let metrics = Metrics::new(&data);
        let curve = CompletenessCurve::compute(&metrics);
        let at81 = curve.at(81);
        let at145 = curve.at(145);
        let at202 = curve.at(202);
        assert!(at81 > 0.01 && at81 < 0.40, "at 81: {at81}");
        assert!(at145 > 0.25 && at145 < 0.75, "at 145: {at145}");
        assert!(at202 > 0.70, "at 202: {at202}");
        assert!(at81 < at145 && at145 < at202);
    }

    #[test]
    fn stage_partition_covers_ranking() {
        let data = data();
        let metrics = Metrics::new(&data);
        let curve = CompletenessCurve::compute(&metrics);
        let st = stages(&metrics, &curve);
        assert_eq!(st.len(), 5);
        assert_eq!(st[0].cumulative, 40);
        assert_eq!(st[1].cumulative, 81);
        assert_eq!(st[2].cumulative, 145);
        assert_eq!(st[3].cumulative, 202);
        assert!(st[4].cumulative >= 202);
        for w in st.windows(2) {
            assert!(w[1].completeness >= w[0].completeness);
        }
    }
}
