//! The unified [`Api`] identifier and the [`Catalog`] bundle.
//!
//! The study ranges over several kinds of system APIs — system calls,
//! vectored opcodes, pseudo-files, libc symbols. Metrics treat them
//! uniformly; [`Api`] is the compact, copyable identifier used throughout
//! footprints and the metrics engine.

use std::collections::HashMap;
use std::fmt;

use crate::{
    libc_symbols::LibcInventory,
    pseudofiles::PseudoFileSet,
    syscalls::SyscallTable,
    vectored::{ioctl_table, VectoredOp, FCNTL_OPS, PRCTL_OPS},
};

/// A single system API, in the study's broad sense.
///
/// Payloads are *indices into the catalog tables* (not raw kernel values),
/// keeping the identifier dense, ordered, and cheap to hash. Use
/// [`Catalog`] to translate to names and kernel values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Api {
    /// A system call, by x86-64 syscall number.
    Syscall(u32),
    /// An `ioctl` operation, by index into [`Catalog::ioctl_ops`].
    Ioctl(u32),
    /// An `fcntl` command, by index into [`crate::vectored::FCNTL_OPS`].
    Fcntl(u32),
    /// A `prctl` option, by index into [`crate::vectored::PRCTL_OPS`].
    Prctl(u32),
    /// A pseudo-file, by id in the catalog's [`PseudoFileSet`].
    PseudoFile(u32),
    /// A libc exported function, by id in the catalog's [`LibcInventory`].
    LibcSymbol(u32),
}

impl Api {
    /// The broad kind of this API, for per-kind reporting.
    pub fn kind(self) -> ApiKind {
        match self {
            Api::Syscall(_) => ApiKind::Syscall,
            Api::Ioctl(_) => ApiKind::Ioctl,
            Api::Fcntl(_) => ApiKind::Fcntl,
            Api::Prctl(_) => ApiKind::Prctl,
            Api::PseudoFile(_) => ApiKind::PseudoFile,
            Api::LibcSymbol(_) => ApiKind::LibcSymbol,
        }
    }
}

/// The broad kinds of APIs the study considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiKind {
    /// System calls proper.
    Syscall,
    /// `ioctl` operation codes.
    Ioctl,
    /// `fcntl` commands.
    Fcntl,
    /// `prctl` options.
    Prctl,
    /// Pseudo-files under `/proc`, `/dev`, `/sys`.
    PseudoFile,
    /// libc exported functions.
    LibcSymbol,
}

/// The complete API catalog for x86-64 Ubuntu 15.04 / Linux 3.19.
///
/// Bundles every inventory the study ranges over and provides name
/// resolution in both directions.
pub struct Catalog {
    /// The system call table.
    pub syscalls: SyscallTable,
    /// All 635 ioctl operations.
    pub ioctl_ops: Vec<VectoredOp>,
    /// The pseudo-file inventory (named entries plus any synthetic tail).
    pub pseudo_files: PseudoFileSet,
    /// The glibc 2.21 exported-symbol inventory.
    pub libc: LibcInventory,
    /// `ioctl` request code → index into `ioctl_ops` (its first operation
    /// with that code).
    ioctl_codes: HashMap<u64, u32>,
}

impl Catalog {
    /// Builds the full Linux 3.19 catalog with the named pseudo-file
    /// inventory (no synthetic tail).
    pub fn linux_3_19() -> Self {
        let ioctl_ops = ioctl_table();
        let mut ioctl_codes = HashMap::with_capacity(ioctl_ops.len());
        for (i, op) in ioctl_ops.iter().enumerate() {
            ioctl_codes.entry(op.code).or_insert(i as u32);
        }
        Self {
            syscalls: SyscallTable::new(),
            ioctl_ops,
            pseudo_files: PseudoFileSet::new(),
            libc: LibcInventory::glibc_2_21(),
            ioctl_codes,
        }
    }

    /// Builds the catalog with `tail` synthetic `/sys` attribute families
    /// appended to the pseudo-file inventory (used by the corpus generator).
    pub fn linux_3_19_with_pseudo_tail(tail: usize) -> Self {
        Self {
            pseudo_files: PseudoFileSet::new().with_synthetic_tail(tail),
            ..Self::linux_3_19()
        }
    }

    /// The dense `Api → u32` interning table over this catalog's fixed
    /// universe (shared process-wide; see [`crate::interner::ApiInterner`]).
    pub fn interner(&self) -> &'static std::sync::Arc<crate::interner::ApiInterner> {
        crate::interner::ApiInterner::global()
    }

    /// Human-readable name of an API (e.g. `read`, `ioctl:TCGETS`,
    /// `/proc/cpuinfo`, `libc:printf`).
    pub fn name(&self, api: Api) -> String {
        match api {
            Api::Syscall(n) => self
                .syscalls
                .by_number(n)
                .map(|d| d.name.to_owned())
                .unwrap_or_else(|| format!("syscall#{n}")),
            Api::Ioctl(i) => self
                .ioctl_ops
                .get(i as usize)
                .map(|o| format!("ioctl:{}", o.name))
                .unwrap_or_else(|| format!("ioctl#{i}")),
            Api::Fcntl(i) => FCNTL_OPS
                .get(i as usize)
                .map(|&(_, n)| format!("fcntl:{n}"))
                .unwrap_or_else(|| format!("fcntl#{i}")),
            Api::Prctl(i) => PRCTL_OPS
                .get(i as usize)
                .map(|&(_, n)| format!("prctl:{n}"))
                .unwrap_or_else(|| format!("prctl#{i}")),
            Api::PseudoFile(id) => self
                .pseudo_files
                .pattern(id)
                .map(str::to_owned)
                .unwrap_or_else(|| format!("pseudofile#{id}")),
            Api::LibcSymbol(id) => self
                .libc
                .get(id)
                .map(|s| format!("libc:{}", s.name))
                .unwrap_or_else(|| format!("libcsym#{id}")),
        }
    }

    /// The [`Api`] for a kernel syscall name, if defined.
    pub fn syscall(&self, name: &str) -> Option<Api> {
        self.syscalls.number_of(name).map(Api::Syscall)
    }

    /// The [`Api`] for an ioctl operation name, if defined.
    pub fn ioctl(&self, name: &str) -> Option<Api> {
        self.ioctl_ops
            .iter()
            .position(|o| o.name == name)
            .map(|i| Api::Ioctl(i as u32))
    }

    /// The [`Api`] for an ioctl operation *code*, if defined.
    pub fn ioctl_by_code(&self, code: u64) -> Option<Api> {
        self.ioctl_codes.get(&code).map(|&i| Api::Ioctl(i))
    }

    /// The [`Api`] for an fcntl command code, if defined.
    pub fn fcntl_by_code(&self, code: u64) -> Option<Api> {
        FCNTL_OPS
            .iter()
            .position(|&(c, _)| c == code)
            .map(|i| Api::Fcntl(i as u32))
    }

    /// The [`Api`] for a prctl option code, if defined.
    pub fn prctl_by_code(&self, code: u64) -> Option<Api> {
        PRCTL_OPS
            .iter()
            .position(|&(c, _)| c == code)
            .map(|i| Api::Prctl(i as u32))
    }

    /// The [`Api`] for a libc exported function name, if in the inventory.
    pub fn libc_symbol(&self, name: &str) -> Option<Api> {
        self.libc.id_of(name).map(Api::LibcSymbol)
    }

    /// The [`Api`] for a pseudo-file string (literal, format pattern, or
    /// instantiated pattern), if tracked.
    pub fn pseudo_file(&self, s: &str) -> Option<Api> {
        self.pseudo_files.match_string(s).map(Api::PseudoFile)
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Catalog")
            .field("syscalls", &self.syscalls.len())
            .field("ioctl_ops", &self.ioctl_ops.len())
            .field("pseudo_files", &self.pseudo_files.len())
            .field("libc", &self.libc.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_scales() {
        let c = Catalog::linux_3_19();
        assert_eq!(c.syscalls.len(), 323);
        assert_eq!(c.ioctl_ops.len(), 635);
        assert_eq!(c.libc.len(), 1274);
        assert!(c.pseudo_files.len() > 100);
    }

    #[test]
    fn name_roundtrips() {
        let c = Catalog::linux_3_19();
        assert_eq!(c.name(c.syscall("read").unwrap()), "read");
        assert_eq!(c.name(c.ioctl("TCGETS").unwrap()), "ioctl:TCGETS");
        assert_eq!(c.name(c.libc_symbol("printf").unwrap()), "libc:printf");
        assert_eq!(
            c.name(c.pseudo_file("/dev/null").unwrap()),
            "/dev/null"
        );
    }

    #[test]
    fn code_lookups() {
        let c = Catalog::linux_3_19();
        assert_eq!(c.ioctl_by_code(0x5401), c.ioctl("TCGETS"));
        for (i, op) in c.ioctl_ops.iter().enumerate() {
            assert_eq!(c.ioctl_by_code(op.code), Some(Api::Ioctl(i as u32)));
        }
        assert_eq!(c.ioctl_by_code(0xDEAD_BEEF), None);
        assert!(c.fcntl_by_code(0).is_some());
        assert!(c.fcntl_by_code(9999).is_none());
        assert!(c.prctl_by_code(22).is_some());
    }

    #[test]
    fn api_ordering_is_stable() {
        let a = Api::Syscall(1);
        let b = Api::Syscall(2);
        let c = Api::Ioctl(0);
        assert!(a < b);
        assert!(b < c, "syscalls order before ioctls");
    }

    #[test]
    fn unknown_ids_render_placeholders() {
        let c = Catalog::linux_3_19();
        assert_eq!(c.name(Api::Syscall(9999)), "syscall#9999");
        assert_eq!(c.name(Api::LibcSymbol(99_999)), "libcsym#99999");
    }
}
