//! Interning raw facts against the catalog.
//!
//! The analyzer reports raw values: syscall numbers, vectored opcodes,
//! import names and path strings. The study measures catalog APIs. A value
//! that names a catalog API interns to that API's dense bit in
//! [`ApiInterner::global`]; any other value is [`Uncataloged`], and an
//! [`ApiFootprint`](crate::ApiFootprint) counts each distinct one in its
//! `unresolved` field. Which API a raw value names is the catalog's rule
//! ([`Catalog::ioctl_by_code`], [`Catalog::libc_symbol`] and the rest);
//! this module only turns that API into its bit.
//!
//! A [`LinkUnit`] is a shared library with every function's facts interned
//! this way and its imports numbered by distinct name. A unit is interned
//! once, when a linker first condenses its library: a run whose
//! footprints all come from a cache never pays for it, and libraries
//! shared by many linkers (the system base) pay once. Its table of
//! imported names, like the analysis's export table the linker searches,
//! uses the standard library's randomly keyed hasher: names come from
//! untrusted binaries, and with a fixed hash a crafted symbol table could
//! make interning quadratic.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use apistudy_catalog::{Api, ApiInterner, Catalog};

use crate::binary::BinaryAnalysis;
use crate::facts::Footprint;

/// A raw value that names no catalog API, generic over how it holds its
/// string (borrowed while scanning facts, boxed in the tables that
/// outlive them). Kinds never compare equal: an import and a path with
/// the same text are two values, as they were two sets before interning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Uncataloged<S> {
    /// A system call number outside the table.
    Syscall(u32),
    /// An `ioctl` request code outside the inventory.
    Ioctl(u64),
    /// An `fcntl` command code outside the inventory.
    Fcntl(u64),
    /// A `prctl` option code outside the inventory.
    Prctl(u64),
    /// An imported symbol that is not a libc export.
    Import(S),
    /// A path string outside the tracked pseudo-files.
    Path(S),
}

impl Uncataloged<&str> {
    /// The value with its string boxed.
    pub(crate) fn to_boxed(&self) -> Uncataloged<Box<str>> {
        match *self {
            Self::Syscall(nr) => Uncataloged::Syscall(nr),
            Self::Ioctl(c) => Uncataloged::Ioctl(c),
            Self::Fcntl(c) => Uncataloged::Fcntl(c),
            Self::Prctl(c) => Uncataloged::Prctl(c),
            Self::Import(s) => Uncataloged::Import(s.into()),
            Self::Path(s) => Uncataloged::Path(s.into()),
        }
    }
}

/// What one raw value interns to.
pub(crate) enum Interned<'a> {
    /// The bit of a catalog API.
    Api(u32),
    /// A value the catalog does not name.
    Other(Uncataloged<&'a str>),
}

/// The process-wide catalog the linker interns against.
fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(Catalog::linux_3_19)
}

/// What a value interns to: `api`'s bit, or `other` when the catalog names
/// no API for it.
fn intern(api: Option<Api>, other: Uncataloged<&str>) -> Interned<'_> {
    match api.map(|api| ApiInterner::global().intern(api)) {
        Some(bit) => {
            Interned::Api(bit.expect("the interner covers the catalog"))
        }
        None => Interned::Other(other),
    }
}

/// The catalog bit of an imported name: `Some` for a libc export.
pub(crate) fn libc_bit(name: &str) -> Option<u32> {
    let api = catalog().libc_symbol(name)?;
    let bit = ApiInterner::global().intern(api);
    Some(bit.expect("the interner covers the catalog"))
}

/// Interns every raw value of `facts` but its imports (which the linker
/// also resolves, see [`libc_bit`]), in kind order: syscalls, `ioctl`,
/// `fcntl` and `prctl` codes, paths.
pub(crate) fn intern_values<'a>(
    facts: &'a Footprint,
    mut visit: impl FnMut(Interned<'a>),
) {
    let c = catalog();
    for &nr in &facts.syscalls {
        let api = c.syscalls.by_number(nr).map(|_| Api::Syscall(nr));
        visit(intern(api, Uncataloged::Syscall(nr)));
    }
    for &code in &facts.ioctl_codes {
        visit(intern(c.ioctl_by_code(code), Uncataloged::Ioctl(code)));
    }
    for &code in &facts.fcntl_codes {
        visit(intern(c.fcntl_by_code(code), Uncataloged::Fcntl(code)));
    }
    for &code in &facts.prctl_codes {
        visit(intern(c.prctl_by_code(code), Uncataloged::Prctl(code)));
    }
    for path in &facts.paths {
        let other = Uncataloged::Path(path.as_str());
        visit(intern(c.pseudo_file(path), other));
    }
}

/// One interned fact of a library function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fact {
    /// A catalog API's bit (a libc import's included).
    Api(u32),
    /// An uncataloged value, as an index into [`UnitFacts::values`].
    Value(u32),
    /// An imported name, numbered by first use in the library. A function
    /// has one per name of its `imports` set, in the set's order, so the
    /// linker reads each number's name off the analysis.
    Import(u32),
}

/// A library's interned facts.
#[derive(Debug)]
pub(crate) struct UnitFacts {
    /// Every function's facts, function after function: function `f` owns
    /// `facts[fact_start[f]..fact_start[f + 1]]`.
    fact_start: Vec<u32>,
    facts: Vec<Fact>,
    /// How many distinct names the library imports.
    pub(crate) imports: u32,
    /// The distinct uncataloged values its functions use, in first-use
    /// order.
    pub(crate) values: Vec<Uncataloged<Box<str>>>,
}

impl UnitFacts {
    /// Interns a library: every function's facts, its distinct imports and
    /// its uncataloged values.
    fn intern(analysis: &BinaryAnalysis) -> Self {
        // Distinct import name → its number and what it interns to.
        let mut import_ids: HashMap<&str, (u32, Interned<'_>)> =
            HashMap::new();
        let mut values = ValueTable::default();
        let mut fact_start = Vec::with_capacity(analysis.funcs.len() + 1);
        let mut facts = Vec::new();
        for f in &analysis.funcs {
            fact_start.push(facts.len() as u32);
            intern_values(&f.facts, |v| {
                facts.push(match v {
                    Interned::Api(bit) => Fact::Api(bit),
                    Interned::Other(u) => Fact::Value(values.index(u)),
                })
            });
            for name in &f.facts.imports {
                let next = import_ids.len() as u32;
                let (number, value) =
                    import_ids.entry(name.as_str()).or_insert_with(|| {
                        let value = match libc_bit(name) {
                            Some(bit) => Interned::Api(bit),
                            None => Interned::Other(Uncataloged::Import(name)),
                        };
                        (next, value)
                    });
                facts.push(Fact::Import(*number));
                facts.push(match value {
                    Interned::Api(bit) => Fact::Api(*bit),
                    Interned::Other(u) => Fact::Value(values.index(u.clone())),
                });
            }
        }
        fact_start.push(facts.len() as u32);
        Self {
            fact_start,
            facts,
            imports: import_ids.len() as u32,
            values: values.values,
        }
    }

    /// The facts of function `func`.
    pub(crate) fn of(&self, func: usize) -> &[Fact] {
        let span =
            self.fact_start[func] as usize..self.fact_start[func + 1] as usize;
        &self.facts[span]
    }
}

/// The distinct uncataloged values of one library, numbered in first-use
/// order.
#[derive(Default)]
struct ValueTable<'a> {
    ids: HashMap<Uncataloged<&'a str>, u32>,
    values: Vec<Uncataloged<Box<str>>>,
}

impl<'a> ValueTable<'a> {
    fn index(&mut self, value: Uncataloged<&'a str>) -> u32 {
        let values = &mut self.values;
        *self.ids.entry(value).or_insert_with_key(|value| {
            values.push(value.to_boxed());
            values.len() as u32 - 1
        })
    }
}

/// A shared library registered with a [`Linker`](crate::Linker): its
/// analysis and, once interned, every function's facts as catalog bits
/// and numbered values. Cheap to clone (one `Arc`), so a library shared by
/// many linkers is interned once.
#[derive(Debug, Clone)]
pub(crate) struct LinkUnit(Arc<UnitData>);

#[derive(Debug)]
struct UnitData {
    analysis: Arc<BinaryAnalysis>,
    facts: OnceLock<UnitFacts>,
}

impl LinkUnit {
    /// A unit whose facts are interned on first use.
    pub(crate) fn new(analysis: Arc<BinaryAnalysis>) -> Self {
        Self(Arc::new(UnitData {
            analysis,
            facts: OnceLock::new(),
        }))
    }

    /// The library's analysis.
    pub(crate) fn analysis(&self) -> &Arc<BinaryAnalysis> {
        &self.0.analysis
    }

    /// The interned facts, interning them on first use.
    pub(crate) fn facts(&self) -> &UnitFacts {
        self.0
            .facts
            .get_or_init(|| UnitFacts::intern(&self.0.analysis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_values_intern_to_their_bits_and_the_rest_stay_raw() {
        let catalog = Catalog::linux_3_19();
        let interner = ApiInterner::global();
        let mut f = Footprint::new();
        f.syscalls.extend([0, 448]);
        f.ioctl_codes.extend([0x5401, 0xDEAD_BEEF]);
        f.paths
            .extend(["/dev/null".to_owned(), "/untracked".to_owned()]);
        let (mut apis, mut other) = (Vec::new(), Vec::new());
        intern_values(&f, |v| match v {
            Interned::Api(id) => apis.push(interner.resolve(id)),
            Interned::Other(u) => other.push(u.to_boxed()),
        });
        assert_eq!(
            apis,
            [
                Api::Syscall(0),
                catalog.ioctl("TCGETS").unwrap(),
                catalog.pseudo_file("/dev/null").unwrap(),
            ]
        );
        assert_eq!(
            other,
            [
                Uncataloged::Syscall(448),
                Uncataloged::Ioctl(0xDEAD_BEEF),
                Uncataloged::Path("/untracked".into()),
            ]
        );
        let printf = catalog.libc_symbol("printf").unwrap();
        assert_eq!(
            libc_bit("printf").map(|b| interner.resolve(b)),
            Some(printf)
        );
        assert_eq!(libc_bit("helper"), None);
    }

    #[test]
    fn a_unit_numbers_its_imports_and_values_once() {
        let mut ba = BinaryAnalysis {
            class: apistudy_elf::BinaryClass::SharedLib,
            soname: Some("libx.so".into()),
            needed: Vec::new(),
            funcs: Vec::new(),
            exports: HashMap::from([
                ("printf".to_owned(), 1),
                ("x".to_owned(), 0),
            ]),
            entry: None,
            instructions: 0,
        };
        for _ in 0..2 {
            let mut facts = Footprint::new();
            facts
                .imports
                .extend(["printf".to_owned(), "helper".to_owned()]);
            facts.syscalls.insert(448);
            ba.funcs.push(crate::FuncInfo {
                name: String::new(),
                addr: 0,
                size: 0,
                facts,
                calls: Default::default(),
            });
        }
        let unit = LinkUnit::new(Arc::new(ba));
        assert!(unit.0.facts.get().is_none(), "nothing interned yet");
        let facts = unit.facts();
        assert_eq!(facts.imports, 2);
        assert_eq!(facts.values.len(), 2, "syscall 448 and the helper import");
        assert_eq!(facts.of(0), facts.of(1), "the same names, numbered once");
        let printf = Fact::Api(libc_bit("printf").unwrap());
        // Syscall 448, then each import in name order with its value.
        assert_eq!(
            facts.of(0),
            [
                Fact::Value(0),
                Fact::Import(0),
                Fact::Value(1),
                Fact::Import(1),
                printf
            ]
        );
    }
}
