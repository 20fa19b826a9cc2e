//! Request keys for the two serve workloads.
//!
//! `serve-hot` cycles a fixed eight-request mix over five pure keys, so
//! after warm-up every pure query is a snapshot-cache hit. `serve-cold`
//! gives every request a supported set that no other request of the run
//! carries, so every query misses the cache and computes on a worker.

use apistudy_core::{stages, CompletenessCurve, Metrics, Request};

/// Pick budget of every `Suggest` request.
pub const SUGGEST_LIMIT: u32 = 3;

/// Syscall numbers the hot importance probes cycle through.
const HOT_NRS: [u32; 4] = [0, 1, 9, 60];

/// The hot mix's supported set.
const HOT_SET: [u32; 7] = [0, 1, 2, 3, 9, 60, 231];

/// Request `i` of the hot cycle (serve_smoke's probe mix): per eight, one
/// ping, four importance probes, two completeness queries and one
/// suggest.
pub fn hot(i: u32) -> Request {
    match i % 8 {
        0 => Request::Ping,
        7 => Request::Suggest { supported: HOT_SET.to_vec(), limit: SUGGEST_LIMIT },
        3 | 5 => Request::Completeness { supported: HOT_SET.to_vec() },
        k => Request::Importance { nr: HOT_NRS[k as usize % HOT_NRS.len()] },
    }
}

/// Syscalls past a stage cut-off whose subset a cold key selects (one
/// mask bit each).
const WINDOW: usize = 24;

/// Cold keys a run may draw: every 24-bit mask exactly once.
pub const KEY_SPACE: u32 = 1 << WINDOW;

/// Stages of the paper's plan (Table 4) a cold key may start from: I to
/// IV. Stage V runs to the last used syscall, so nothing is left to plan
/// after it.
const PLAN_STAGES: usize = 4;

/// One cold key in this many is a `Suggest`; the rest are `Completeness`.
pub const SUGGEST_EVERY: u32 = 4;

/// Generator of never-repeating cold keys.
///
/// A cold key stands for a planning caller part-way through the paper's
/// plan: it supports every syscall up to the cut-off of a stage, as
/// `planner::stages` places them on the run's own ranking (40, 81, 145
/// and 202 calls), plus the subset of the next [`WINDOW`] that a 24-bit
/// mask selects. Keys take the stages in turn, one block of
/// [`SUGGEST_EVERY`] keys each, so every stage gets its share of
/// `Suggest` requests. The mask is a seeded bijection of the key index,
/// so distinct keys select distinct subsets; keys of different stages
/// differ anyway, since the later stage's set holds the whole window of
/// the earlier one and one syscall past it.
pub struct ColdKeys {
    /// Syscall numbers, most important first, up to the last window.
    ranking: Vec<u32>,
    /// Stage cut-offs, ascending: how many of `ranking` a key's set
    /// starts from.
    cuts: Vec<usize>,
    seed: u32,
}

impl ColdKeys {
    /// Keys over `ranking`, syscall numbers most important first, starting
    /// from the stage cut-offs `cuts`.
    pub fn new(ranking: &[u32], cuts: &[usize], seed: u64) -> Self {
        assert!(!cuts.is_empty(), "no stage to plan from");
        for pair in cuts.windows(2) {
            assert!(pair[0] + WINDOW < pair[1], "stage windows overlap: {cuts:?}");
        }
        let end = cuts[cuts.len() - 1] + WINDOW;
        assert!(ranking.len() >= end, "ranking too short for cold keys");
        Self {
            ranking: ranking[..end].to_vec(),
            cuts: cuts.to_vec(),
            seed: splitmix64(seed) as u32 & (KEY_SPACE - 1),
        }
    }

    /// Keys over the study behind `m`: its ranking and the cut-offs of
    /// stages I to IV.
    pub fn of(m: &Metrics<'_>, seed: u64) -> Self {
        let curve = CompletenessCurve::compute(m);
        let cuts: Vec<usize> =
            stages(m, &curve).iter().take(PLAN_STAGES).map(|s| s.cumulative).collect();
        Self::new(&curve.ranking, &cuts, seed)
    }

    /// The stage cut-offs keys start from.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// The stage cut-off key `i` starts from.
    pub fn cut(&self, i: u32) -> usize {
        self.cuts[(i / SUGGEST_EVERY) as usize % self.cuts.len()]
    }

    /// Key `i`'s window mask: xor with the seed, then odd multiplies and
    /// xor-shifts modulo 2^24, each a bijection on 24-bit integers.
    pub fn mask(&self, i: u32) -> u32 {
        assert!(i < KEY_SPACE, "cold key space exhausted");
        let m = KEY_SPACE - 1;
        let mut x = i ^ self.seed;
        x = x.wrapping_mul(0x9E_3779) & m;
        x ^= x >> 12;
        x = x.wrapping_mul(0x5B_D1E9) & m;
        x ^ (x >> 11)
    }

    /// Key `i`'s supported set, ascending.
    pub fn set(&self, i: u32) -> Vec<u32> {
        let (mask, cut) = (self.mask(i), self.cut(i));
        let mut set = self.ranking[..cut].to_vec();
        set.extend(
            self.ranking[cut..cut + WINDOW]
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, &nr)| nr),
        );
        set.sort_unstable();
        set
    }

    /// Whether key `i` is a `Suggest`.
    pub fn is_suggest(i: u32) -> bool {
        i % SUGGEST_EVERY == SUGGEST_EVERY - 1
    }

    /// Key `i`'s request.
    pub fn request(&self, i: u32) -> Request {
        let supported = self.set(i);
        if Self::is_suggest(i) {
            Request::Suggest { supported, limit: SUGGEST_LIMIT }
        } else {
            Request::Completeness { supported }
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ranking() -> Vec<u32> {
        (0..323u32).rev().collect()
    }

    /// The paper's stage cut-offs, as `planner::stages` places them.
    const CUTS: [usize; 4] = [40, 81, 145, 202];

    fn keys(seed: u64) -> ColdKeys {
        ColdKeys::new(&ranking(), &CUTS, seed)
    }

    #[test]
    fn mask_is_a_bijection_on_the_whole_key_space() {
        let keys = keys(7);
        let mut seen = vec![0u64; (KEY_SPACE / 64) as usize];
        for i in 0..KEY_SPACE {
            let m = keys.mask(i);
            assert!(m < KEY_SPACE);
            let (word, bit) = ((m / 64) as usize, m % 64);
            assert_eq!(seen[word] >> bit & 1, 0, "key {i} repeats mask {m:#x}");
            seen[word] |= 1 << bit;
        }
    }

    #[test]
    fn cold_sets_never_repeat_and_stay_in_their_stage() {
        let rank = ranking();
        let keys = keys(2016);
        let mut seen = HashSet::new();
        for i in 0..20_000 {
            let (set, cut) = (keys.set(i), keys.cut(i));
            assert!(set.windows(2).all(|w| w[0] < w[1]), "ascending, no duplicates");
            assert!(rank[..cut].iter().all(|nr| set.binary_search(nr).is_ok()));
            assert!(rank[cut + WINDOW..].iter().all(|nr| set.binary_search(nr).is_err()));
            assert!(seen.insert(set), "key {i} repeated a set");
        }
    }

    #[test]
    fn cold_keys_are_deterministic_per_seed() {
        let (a, b, c) = (keys(11), keys(11), keys(12));
        for i in 0..1000 {
            assert_eq!(a.request(i), b.request(i));
        }
        assert!((0..1000).any(|i| a.set(i) != c.set(i)), "another seed draws other keys");
    }

    #[test]
    fn every_stage_gets_an_even_share_of_both_kinds() {
        let keys = keys(1);
        let mut per_stage = std::collections::HashMap::new();
        for i in 0..4000 {
            let suggest = matches!(keys.request(i), Request::Suggest { .. });
            *per_stage.entry((keys.cut(i), suggest)).or_insert(0) += 1;
        }
        for cut in CUTS {
            assert_eq!(per_stage[&(cut, true)], 250, "stage cut {cut}");
            assert_eq!(per_stage[&(cut, false)], 750, "stage cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "stage windows overlap")]
    fn overlapping_stage_windows_are_refused() {
        ColdKeys::new(&ranking(), &[40, 60], 1);
    }

    #[test]
    fn hot_mix_cycles_five_pure_keys() {
        let pure: HashSet<Vec<u8>> = (0..64)
            .map(hot)
            .filter(|r| !matches!(r, Request::Ping))
            .map(|r| r.encode())
            .collect();
        assert_eq!(pure.len(), 5);
    }
}
