//! Dense interning of [`Api`] identifiers and the word-packed [`ApiSet`].
//!
//! Every API in the Linux 3.19 catalog maps to a dense `u32` bit index:
//! per-kind base offsets (in `Api` ordering — syscalls, ioctls, fcntls,
//! prctls, pseudo-files, libc symbols) plus the variant's own dense
//! payload. The whole universe is ~2.5k bits, so a footprint is a few
//! dozen `u64` words: union is a word-wise OR, membership a single bit
//! test, and cardinality a popcount. This is what lets the metrics
//! engine's dependency-closure fixed point run at memory bandwidth
//! instead of `BTreeSet` node-chasing.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::api::{Api, ApiKind, Catalog};

/// Number of `Api` kinds (and interner segments).
const KINDS: usize = 6;

/// The `Api → u32` interning table for one catalog universe.
///
/// Bit indices are assigned in `Api`'s `Ord` order, so iterating an
/// [`ApiSet`] in ascending bit order yields exactly the sequence a
/// `BTreeSet<Api>` over the same elements would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiInterner {
    /// Per-kind starting bit, in `Api` variant order.
    bases: [u32; KINDS],
    /// Per-kind payload domain size, in `Api` variant order.
    domains: [u32; KINDS],
    /// Total number of bits.
    universe: u32,
}

fn kind_slot(kind: ApiKind) -> usize {
    match kind {
        ApiKind::Syscall => 0,
        ApiKind::Ioctl => 1,
        ApiKind::Fcntl => 2,
        ApiKind::Prctl => 3,
        ApiKind::PseudoFile => 4,
        ApiKind::LibcSymbol => 5,
    }
}

fn payload(api: Api) -> u32 {
    match api {
        Api::Syscall(n)
        | Api::Ioctl(n)
        | Api::Fcntl(n)
        | Api::Prctl(n)
        | Api::PseudoFile(n)
        | Api::LibcSymbol(n) => n,
    }
}

impl ApiInterner {
    /// Builds the interner for a catalog's API universe.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        // Syscall payloads are kernel numbers; the table is dense on
        // x86-64 Linux 3.19, but derive the bound from the data anyway.
        let syscall_domain = catalog
            .syscalls
            .iter()
            .map(|d| d.number + 1)
            .max()
            .unwrap_or(0);
        let domains = [
            syscall_domain,
            catalog.ioctl_ops.len() as u32,
            crate::vectored::FCNTL_OPS.len() as u32,
            crate::vectored::PRCTL_OPS.len() as u32,
            catalog.pseudo_files.len() as u32,
            catalog.libc.len() as u32,
        ];
        let mut bases = [0u32; KINDS];
        let mut next = 0u32;
        for (base, domain) in bases.iter_mut().zip(domains) {
            *base = next;
            next += domain;
        }
        Self { bases, domains, universe: next }
    }

    /// The shared interner for the study's fixed Linux 3.19 universe.
    ///
    /// All [`ApiSet`]s (including `Default` ones) draw from this table,
    /// so any two sets can be OR-ed word-for-word.
    pub fn global() -> &'static Arc<ApiInterner> {
        static GLOBAL: OnceLock<Arc<ApiInterner>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Self::from_catalog(&Catalog::linux_3_19())))
    }

    /// Dense bit index for an API, or `None` if its payload lies outside
    /// this universe (e.g. `Api::Syscall(9999)`).
    pub fn intern(&self, api: Api) -> Option<u32> {
        let slot = kind_slot(api.kind());
        let p = payload(api);
        (p < self.domains[slot]).then(|| self.bases[slot] + p)
    }

    /// The bit indices of `kind`'s APIs: one contiguous segment of the
    /// universe, whose `i`-th bit is the API with payload `i` (so a
    /// syscall's bit is its number).
    pub fn kind_bits(&self, kind: ApiKind) -> Range<u32> {
        let slot = kind_slot(kind);
        self.bases[slot]..self.bases[slot] + self.domains[slot]
    }

    /// The API whose bit index is `id`.
    ///
    /// # Panics
    /// If `id` is outside the universe.
    pub fn resolve(&self, id: u32) -> Api {
        assert!(id < self.universe, "api id {id} outside universe");
        // Six segments: a linear scan beats a binary search.
        let slot = (1..KINDS)
            .take_while(|&k| self.bases[k] <= id)
            .last()
            .unwrap_or(0);
        let p = id - self.bases[slot];
        match slot {
            0 => Api::Syscall(p),
            1 => Api::Ioctl(p),
            2 => Api::Fcntl(p),
            3 => Api::Prctl(p),
            4 => Api::PseudoFile(p),
            _ => Api::LibcSymbol(p),
        }
    }

    /// Total number of bit indices.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Number of `u64` words an [`ApiSet`] over this universe needs.
    pub fn words(&self) -> usize {
        (self.universe as usize).div_ceil(64)
    }
}

/// A set of APIs over the global interned universe, packed one bit per
/// API into `u64` words.
#[derive(Clone, PartialEq, Eq)]
pub struct ApiSet {
    words: Vec<u64>,
}

impl Default for ApiSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ApiSet {
    /// The empty set.
    pub fn new() -> Self {
        Self { words: vec![0; ApiInterner::global().words()] }
    }

    /// The set whose words are `words`: bit `id` of the word-packed
    /// universe is the API [`ApiInterner::resolve`] maps `id` to (the
    /// linker folds closed footprints as raw words and hands them over
    /// here).
    ///
    /// # Panics
    /// If `words` is not exactly [`ApiInterner::words`] long, or sets a
    /// bit past the universe.
    pub fn from_words(words: Vec<u64>) -> Self {
        let interner = ApiInterner::global();
        assert_eq!(words.len(), interner.words(), "one word per 64 APIs");
        let spare = words.len() * 64 - interner.universe();
        assert!(
            spare == 0 || words[words.len() - 1] >> (64 - spare) == 0,
            "bit past the interned universe"
        );
        Self { words }
    }

    /// Adds an API; returns whether it was newly inserted.
    ///
    /// # Panics
    /// If the API is outside the interned universe — resolved footprints
    /// only ever contain catalog APIs, so this indicates a bug upstream.
    pub fn insert(&mut self, api: Api) -> bool {
        let id = ApiInterner::global()
            .intern(api)
            .unwrap_or_else(|| panic!("{api:?} outside the interned catalog universe"));
        let (w, b) = (id as usize / 64, id % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes an API; returns whether it was present. Out-of-universe
    /// APIs were never present, so removing them is a no-op.
    pub fn remove(&mut self, api: Api) -> bool {
        match ApiInterner::global().intern(api) {
            Some(id) => {
                let (w, b) = (id as usize / 64, id % 64);
                let had = self.words[w] & (1 << b) != 0;
                self.words[w] &= !(1 << b);
                had
            }
            None => false,
        }
    }

    /// Membership test; out-of-universe APIs are simply absent.
    pub fn contains(&self, api: Api) -> bool {
        match ApiInterner::global().intern(api) {
            Some(id) => self.words[id as usize / 64] & (1 << (id % 64)) != 0,
            None => false,
        }
    }

    /// Word-wise OR of `other` into `self`; returns whether `self` grew
    /// (the signal the closure fixed point iterates on).
    pub fn union_with(&mut self, other: &ApiSet) -> bool {
        let mut grew = false;
        for (dst, &src) in self.words.iter_mut().zip(&other.words) {
            let merged = *dst | src;
            grew |= merged != *dst;
            *dst = merged;
        }
        grew
    }

    /// Whether the two sets share any element (no allocation).
    pub fn intersects(&self, other: &ApiSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Number of elements shared with `other` (popcount over the word-wise
    /// AND — no allocation).
    pub fn intersection_len(&self, other: &ApiSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Number of elements (popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates in ascending bit order — identical to the iteration order
    /// of a `BTreeSet<Api>` holding the same elements.
    pub fn iter(&self) -> impl Iterator<Item = Api> + '_ {
        let interner = ApiInterner::global();
        self.ids().map(move |id| interner.resolve(id))
    }

    /// Iterates the raw dense bit indices in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(w as u32 * 64, word))
    }

    /// Iterates the raw bit indices inside `bits` in ascending order,
    /// reading only the words that range spans (one kind's segment,
    /// [`ApiInterner::kind_bits`], is a few words of the whole set).
    pub fn ids_in(&self, bits: Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let Range { start, end } = bits;
        let last = (end as usize).div_ceil(64).min(self.words.len());
        let first = (start as usize / 64).min(last);
        let spanned = self.words[first..last].iter().zip(first..);
        spanned.flat_map(move |(&word, w)| {
            // Every spanned word starts below `end` and ends past `start`,
            // so both shifts stay under 64.
            let base = w as u32 * 64;
            let below = start.saturating_sub(base);
            let above = 64 - (end - base).min(64);
            set_bits(base, word & (!0u64 << below) & (!0u64 >> above))
        })
    }
}

/// The indices of `word`'s set bits, ascending, offset by `base`.
fn set_bits(base: u32, mut rest: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let bit = rest.trailing_zeros();
        rest &= rest - 1;
        Some(base + bit)
    })
}

impl Extend<Api> for ApiSet {
    fn extend<I: IntoIterator<Item = Api>>(&mut self, iter: I) {
        for api in iter {
            self.insert(api);
        }
    }
}

impl FromIterator<Api> for ApiSet {
    fn from_iter<I: IntoIterator<Item = Api>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl<'a> IntoIterator for &'a ApiSet {
    type Item = Api;
    type IntoIter = Box<dyn Iterator<Item = Api> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::fmt::Debug for ApiSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn universe_covers_every_catalog_api() {
        let interner = ApiInterner::global();
        // 323 syscalls + 635 ioctls + fcntl + prctl + pseudo-files + 1274
        // libc symbols.
        assert!(interner.universe() > 2300, "universe {}", interner.universe());
        assert!(interner.words() < 64);
    }

    #[test]
    fn intern_resolve_roundtrip() {
        let interner = ApiInterner::global();
        let c = Catalog::linux_3_19();
        let samples = [
            c.syscall("read").unwrap(),
            c.syscall("kexec_load").unwrap(),
            c.ioctl("TCGETS").unwrap(),
            Api::Fcntl(0),
            Api::Prctl(3),
            c.pseudo_file("/dev/null").unwrap(),
            c.libc_symbol("printf").unwrap(),
        ];
        for api in samples {
            let id = interner.intern(api).unwrap();
            assert_eq!(interner.resolve(id), api, "roundtrip for {api:?}");
        }
    }

    #[test]
    fn interning_preserves_api_order() {
        let interner = ApiInterner::global();
        let apis = [
            Api::Syscall(0),
            Api::Syscall(322),
            Api::Ioctl(0),
            Api::Ioctl(1),
            Api::Fcntl(0),
            Api::Prctl(0),
            Api::PseudoFile(0),
            Api::LibcSymbol(0),
            Api::LibcSymbol(1273),
        ];
        let ids: Vec<u32> = apis.iter().map(|&a| interner.intern(a).unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids {ids:?}");
    }

    #[test]
    fn out_of_universe_is_absent_not_fatal() {
        assert!(ApiInterner::global().intern(Api::Syscall(9999)).is_none());
        let set = ApiSet::new();
        assert!(!set.contains(Api::Syscall(9999)));
        assert!(!set.contains(Api::LibcSymbol(1_000_000)));
    }

    #[test]
    fn set_semantics_match_btreeset() {
        let apis = [
            Api::Syscall(1),
            Api::LibcSymbol(10),
            Api::Ioctl(5),
            Api::Syscall(1),
            Api::PseudoFile(3),
        ];
        let set: ApiSet = apis.iter().copied().collect();
        let reference: BTreeSet<Api> = apis.iter().copied().collect();
        assert_eq!(set.len(), reference.len());
        let iterated: Vec<Api> = set.iter().collect();
        let expected: Vec<Api> = reference.iter().copied().collect();
        assert_eq!(iterated, expected, "iteration order matches BTreeSet");
        for &api in &apis {
            assert!(set.contains(api));
        }
        assert!(!set.contains(Api::Syscall(2)));
    }

    #[test]
    fn remove_and_intersection_len() {
        let mut a: ApiSet =
            [Api::Syscall(1), Api::Ioctl(2), Api::LibcSymbol(7)].into_iter().collect();
        let b: ApiSet =
            [Api::Syscall(1), Api::LibcSymbol(7), Api::Prctl(0)].into_iter().collect();
        assert_eq!(a.intersection_len(&b), 2);
        assert!(a.remove(Api::Syscall(1)), "present element removed");
        assert!(!a.remove(Api::Syscall(1)), "second removal is a no-op");
        assert!(!a.remove(Api::Syscall(9999)), "out-of-universe is absent");
        assert_eq!(a.len(), 2);
        assert_eq!(a.intersection_len(&b), 1);
        assert!(a.insert(Api::Syscall(1)), "removal really cleared the bit");
    }

    #[test]
    fn from_words_is_the_set_of_its_bits() {
        let interner = ApiInterner::global();
        let read = Api::Syscall(0);
        let printf = Api::LibcSymbol(7);
        let mut words = vec![0u64; interner.words()];
        for api in [read, printf] {
            let id = interner.intern(api).unwrap() as usize;
            words[id / 64] |= 1 << (id % 64);
        }
        let set = ApiSet::from_words(words);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![read, printf]);
        assert_eq!(set, [printf, read].into_iter().collect());
    }

    #[test]
    #[should_panic(expected = "one word per 64 APIs")]
    fn from_words_refuses_a_short_row() {
        ApiSet::from_words(vec![0; 1]);
    }

    #[test]
    fn kind_bits_are_consecutive_segments_in_api_order() {
        let interner = ApiInterner::global();
        let kinds = [
            ApiKind::Syscall,
            ApiKind::Ioctl,
            ApiKind::Fcntl,
            ApiKind::Prctl,
            ApiKind::PseudoFile,
            ApiKind::LibcSymbol,
        ];
        let mut next = 0;
        for kind in kinds {
            let bits = interner.kind_bits(kind);
            assert_eq!(bits.start, next, "{kind:?} follows the previous kind");
            for id in [bits.start, bits.end - 1] {
                assert_eq!(interner.resolve(id).kind(), kind);
            }
            next = bits.end;
        }
        assert_eq!(next as usize, interner.universe());
        assert_eq!(interner.kind_bits(ApiKind::Syscall), 0..323);
    }

    proptest::proptest! {
        #[test]
        fn ids_in_is_ids_filtered_to_the_range(
            ids in proptest::collection::btree_set(0u32..2600, 0..80),
            start in 0u32..2700,
            end in 0u32..2700,
        ) {
            let interner = ApiInterner::global();
            let set: ApiSet = ids
                .iter()
                .filter(|&&id| (id as usize) < interner.universe())
                .map(|&id| interner.resolve(id))
                .collect();
            let want: Vec<u32> =
                set.ids().filter(|id| (start..end).contains(id)).collect();
            proptest::prop_assert_eq!(
                set.ids_in(start..end).collect::<Vec<_>>(),
                want
            );
        }
    }

    #[test]
    fn union_reports_growth() {
        let mut a: ApiSet = [Api::Syscall(1)].into_iter().collect();
        let b: ApiSet = [Api::Syscall(1), Api::Ioctl(2)].into_iter().collect();
        assert!(a.union_with(&b), "gains ioctl 2");
        assert!(!a.union_with(&b), "second OR is a no-op");
        assert_eq!(a.len(), 2);
        assert!(a.intersects(&b));
        assert!(!ApiSet::new().intersects(&b));
    }
}
