//! Catalog-resolved API footprints.
//!
//! The analyzer produces raw facts (syscall numbers, opcode values, import
//! names, path strings); the study's metrics operate on catalog-resolved
//! [`Api`] identifiers. [`ApiFootprint`] is that resolved set, with
//! bookkeeping for values that did not resolve (unknown ioctl codes,
//! imports outside the libc inventory). The [`Linker`](crate::Linker)
//! produces it directly: it interns every raw value once and closes
//! footprints as word-ORs.
//!
//! The API set is a word-packed [`ApiSet`] over the catalog's interned
//! universe: merging footprints is a word-wise OR and membership a single
//! bit test, which is what makes the corpus-scale aggregation passes and
//! the metrics closure cheap. Iteration order is identical to the
//! `BTreeSet<Api>` representation this replaced.

use apistudy_catalog::{Api, ApiInterner, ApiKind, ApiSet};

/// A catalog-resolved API footprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApiFootprint {
    /// The resolved APIs, bit-packed over the interned catalog universe.
    pub apis: ApiSet,
    /// Raw values that did not match any catalog entry (ioctl codes
    /// outside the inventory, imports that are not libc symbols, paths
    /// outside the tracked inventory), each distinct value counted once.
    pub unresolved: u32,
}

impl ApiFootprint {
    /// Whether the footprint contains an API (one bit test).
    pub fn contains(&self, api: Api) -> bool {
        self.apis.contains(api)
    }

    /// Unions another footprint into this one (word-wise OR).
    pub fn merge(&mut self, other: &ApiFootprint) {
        self.apis.union_with(&other.apis);
        self.unresolved += other.unresolved;
    }

    /// Like [`merge`](Self::merge), but reports whether any new API
    /// appeared — the signal inheritance/closure passes iterate on.
    pub fn merge_apis(&mut self, other: &ApiFootprint) -> bool {
        self.apis.union_with(&other.apis)
    }

    /// Iterates the APIs of one kind, in order, reading only that kind's
    /// segment of the set.
    pub fn of_kind(&self, kind: ApiKind) -> impl Iterator<Item = Api> + '_ {
        let interner = ApiInterner::global();
        self.apis
            .ids_in(interner.kind_bits(kind))
            .map(move |id| interner.resolve(id))
    }

    /// The syscall numbers in the footprint, ascending, read off the
    /// syscall segment of the set (a syscall's bit is its number's offset
    /// into that segment).
    pub fn syscalls(&self) -> impl Iterator<Item = u32> + '_ {
        let bits = ApiInterner::global().kind_bits(ApiKind::Syscall);
        let base = bits.start;
        self.apis.ids_in(bits).map(move |id| id - base)
    }

    /// Number of APIs.
    pub fn len(&self) -> usize {
        self.apis.len()
    }

    /// Whether the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.apis.is_empty()
    }
}

/// The string-set resolution the linker's interning replaced, kept as the
/// reference its differential tests compare against.
#[cfg(test)]
impl ApiFootprint {
    /// Resolves an analysis-level footprint against the catalog.
    pub(crate) fn resolve(
        catalog: &apistudy_catalog::Catalog,
        raw: &crate::Footprint,
    ) -> Self {
        let mut apis = ApiSet::new();
        let mut unresolved = 0u32;
        for &nr in &raw.syscalls {
            if catalog.syscalls.by_number(nr).is_some() {
                apis.insert(Api::Syscall(nr));
            } else {
                unresolved += 1;
            }
        }
        for &code in &raw.ioctl_codes {
            match catalog.ioctl_by_code(code) {
                Some(api) => {
                    apis.insert(api);
                }
                None => unresolved += 1,
            }
        }
        for &code in &raw.fcntl_codes {
            match catalog.fcntl_by_code(code) {
                Some(api) => {
                    apis.insert(api);
                }
                None => unresolved += 1,
            }
        }
        for &code in &raw.prctl_codes {
            match catalog.prctl_by_code(code) {
                Some(api) => {
                    apis.insert(api);
                }
                None => unresolved += 1,
            }
        }
        for import in &raw.imports {
            match catalog.libc_symbol(import) {
                Some(api) => {
                    apis.insert(api);
                }
                None => unresolved += 1,
            }
        }
        for path in &raw.paths {
            match catalog.pseudo_file(path) {
                Some(api) => {
                    apis.insert(api);
                }
                None => unresolved += 1,
            }
        }
        Self { apis, unresolved }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Footprint;
    use apistudy_catalog::Catalog;

    fn raw() -> Footprint {
        let mut f = Footprint::new();
        f.syscalls.insert(0);
        f.syscalls.insert(16);
        f.ioctl_codes.insert(0x5401); // TCGETS
        f.ioctl_codes.insert(0xDEAD_BEEF); // unknown
        f.fcntl_codes.insert(1);
        f.prctl_codes.insert(22);
        f.imports.insert("printf".into());
        f.imports.insert("not_a_libc_symbol".into());
        f.paths.insert("/dev/null".into());
        f.paths.insert("/nonexistent/path".into());
        f
    }

    #[test]
    fn resolves_known_and_counts_unknown() {
        let catalog = Catalog::linux_3_19();
        let fp = ApiFootprint::resolve(&catalog, &raw());
        assert!(fp.contains(Api::Syscall(0)));
        assert!(fp.contains(catalog.ioctl("TCGETS").unwrap()));
        assert!(fp.contains(catalog.libc_symbol("printf").unwrap()));
        assert!(fp.contains(catalog.pseudo_file("/dev/null").unwrap()));
        // Unknown ioctl code + unknown import + untracked path = 3.
        assert_eq!(fp.unresolved, 3);
    }

    #[test]
    fn kind_filter_and_syscall_iter() {
        let catalog = Catalog::linux_3_19();
        let fp = ApiFootprint::resolve(&catalog, &raw());
        let syscalls: Vec<u32> = fp.syscalls().collect();
        assert_eq!(syscalls, vec![0, 16]);
        assert_eq!(fp.of_kind(ApiKind::Ioctl).count(), 1);
        assert_eq!(fp.of_kind(ApiKind::LibcSymbol).count(), 1);
        let empty = ApiFootprint::default();
        assert_eq!(empty.syscalls().count(), 0);
        assert_eq!(empty.of_kind(ApiKind::Syscall).count(), 0);
    }

    proptest::proptest! {
        #[test]
        fn kind_reads_match_the_filter_over_every_api(
            ids in proptest::collection::btree_set(0u32..2600, 0..120),
            keep_syscalls in proptest::prelude::any::<bool>(),
        ) {
            let interner = ApiInterner::global();
            let fp = ApiFootprint {
                apis: ids
                    .iter()
                    .filter(|&&id| (id as usize) < interner.universe())
                    .map(|&id| interner.resolve(id))
                    .filter(|a| keep_syscalls || a.kind() != ApiKind::Syscall)
                    .collect(),
                unresolved: 0,
            };
            let syscalls: Vec<u32> = fp
                .apis
                .iter()
                .filter_map(|a| match a {
                    Api::Syscall(n) => Some(n),
                    _ => None,
                })
                .collect();
            proptest::prop_assert_eq!(
                fp.syscalls().collect::<Vec<_>>(),
                syscalls
            );
            for kind in [
                ApiKind::Syscall,
                ApiKind::Ioctl,
                ApiKind::Fcntl,
                ApiKind::Prctl,
                ApiKind::PseudoFile,
                ApiKind::LibcSymbol,
            ] {
                let want: Vec<Api> =
                    fp.apis.iter().filter(|a| a.kind() == kind).collect();
                proptest::prop_assert_eq!(
                    fp.of_kind(kind).collect::<Vec<_>>(),
                    want
                );
            }
        }
    }

    #[test]
    fn merge_accumulates() {
        let catalog = Catalog::linux_3_19();
        let mut a = ApiFootprint::resolve(&catalog, &raw());
        let before = a.len();
        let mut other_raw = Footprint::new();
        other_raw.syscalls.insert(1);
        let b = ApiFootprint::resolve(&catalog, &other_raw);
        a.merge(&b);
        assert_eq!(a.len(), before + 1);
        assert!(!a.clone().merge_apis(&b), "b is now a subset");
    }
}
