//! Generation of the core system libraries: `libc.so.6`, the dynamic
//! linker, `libpthread.so.0`, and `librt.so.1`.
//!
//! The synthetic libc exports exactly the glibc 2.21 inventory from
//! `apistudy-catalog` (1,274 function symbols). Each export's body contains
//! `mov eax, <nr>; syscall` sequences for the system calls that function
//! wraps (per [`apistudy_catalog::wrappers::wrapped_syscalls`]) and is
//! padded to the symbol's nominal size, so the §3.5 size accounting holds
//! on the actual binary. A small internal-call map gives the library a
//! non-trivial call graph (e.g. `printf` → `vfprintf`), exercising the
//! linker's SCC machinery exactly as glibc's real structure would.
//!
//! The dynamic linker carries the Table 5 `ld.so` footprint (`access`,
//! `arch_prctl`, `mprotect`, ...); it is merged into every dynamically
//! linked executable by the pipeline, not through imports — which is why
//! `access` keeps a sub-100% *unweighted* importance (Table 8) while its
//! weighted importance stays 100%.

use apistudy_catalog::{wrappers::wrapped_syscalls, Catalog};

use crate::codegen::{generate_library, ExportSpec, LibSpec};

/// Soname of the synthetic libc.
pub const LIBC_SONAME: &str = "libc.so.6";
/// Soname of the synthetic dynamic linker.
pub const LDSO_SONAME: &str = "ld-linux-x86-64.so.2";
/// Soname of the synthetic libpthread.
pub const LIBPTHREAD_SONAME: &str = "libpthread.so.0";
/// Soname of the synthetic librt.
pub const LIBRT_SONAME: &str = "librt.so.1";

/// Internal call edges inside libc (caller → callee), modelling the real
/// library's layering. Public so ground-truth validation can model the
/// same transitive closure the analyzer recovers.
pub const INTERNAL_CALLS: &[(&str, &str)] = &[
    ("printf", "vfprintf"),
    ("fprintf", "vfprintf"),
    ("sprintf", "vsprintf"),
    ("snprintf", "vsnprintf"),
    ("dprintf", "vdprintf"),
    ("scanf", "vfscanf"),
    ("fscanf", "vfscanf"),
    ("sscanf", "vsscanf"),
    ("puts", "fputs"),
    ("perror", "fprintf"),
    ("fopen", "malloc"),
    ("fclose", "free"),
    ("calloc", "malloc"),
    ("realloc", "malloc"),
    ("opendir", "malloc"),
    ("closedir", "free"),
    ("getline", "realloc"),
    ("asprintf", "malloc"),
    ("strdup", "malloc"),
    ("strndup", "malloc"),
    ("system", "vfork"),
    ("popen", "pipe2"),
    ("getaddrinfo", "gethostbyname_r"),
    ("localtime", "localtime_r"),
    ("gmtime", "gmtime_r"),
    ("ctime", "localtime"),
    ("exit", "__cxa_finalize"),
    ("abort", "raise"),
    ("err", "vwarn"),
    ("errx", "vwarnx"),
    // A mutual-recursion pair, as found in real parsing code.
    ("glob", "fnmatch"),
    ("fnmatch", "glob"),
];

/// Builds the libc [`LibSpec`] from the catalog inventory.
pub fn libc_spec(catalog: &Catalog) -> LibSpec {
    let number_of = |name: &str| catalog.syscalls.number_of(name);
    let exports = catalog
        .libc
        .iter()
        .map(|(_, sym)| {
            let direct_syscalls = wrapped_syscalls(&sym.name)
                .iter()
                .filter_map(|n| number_of(n))
                .collect();
            let calls_exports = INTERNAL_CALLS
                .iter()
                .filter(|&&(from, _)| from == sym.name)
                .map(|&(_, to)| to.to_owned())
                .collect();
            ExportSpec {
                name: sym.name.clone(),
                direct_syscalls,
                calls_exports,
                imports: Vec::new(),
                pad_to: sym.size,
            }
        })
        .collect();
    LibSpec {
        soname: LIBC_SONAME.to_owned(),
        needed: vec![LDSO_SONAME.to_owned()],
        exports,
    }
}

/// Builds the dynamic-linker [`LibSpec`] (Table 5's `ld.so` rows).
pub fn ldso_spec(catalog: &Catalog) -> LibSpec {
    let nr = |name: &str| {
        catalog
            .syscalls
            .number_of(name)
            .expect("ld.so footprint uses defined syscalls")
    };
    LibSpec {
        soname: LDSO_SONAME.to_owned(),
        needed: vec![],
        exports: vec![
            ExportSpec {
                name: "_dl_start".to_owned(),
                direct_syscalls: vec![
                    nr("access"),
                    nr("arch_prctl"),
                    nr("mprotect"),
                    nr("mmap"),
                    nr("munmap"),
                    nr("openat"),
                    nr("read"),
                    nr("close"),
                    nr("fstat"),
                    nr("lstat"),
                    nr("getcwd"),
                    nr("getdents"),
                    nr("mremap"),
                    nr("madvise"),
                    nr("brk"),
                    nr("exit_group"),
                ],
                pad_to: 4096,
                ..Default::default()
            },
            ExportSpec {
                name: "_dl_runtime_resolve".to_owned(),
                direct_syscalls: vec![nr("mprotect")],
                pad_to: 512,
                ..Default::default()
            },
            ExportSpec {
                name: "_dl_open".to_owned(),
                direct_syscalls: vec![
                    nr("openat"),
                    nr("read"),
                    nr("fstat"),
                    nr("mmap"),
                    nr("close"),
                ],
                pad_to: 1024,
                ..Default::default()
            },
        ],
    }
}

/// Builds the libpthread [`LibSpec`] (Table 5's `libpthread` rows).
pub fn libpthread_spec(catalog: &Catalog) -> LibSpec {
    let nr = |name: &str| catalog.syscalls.number_of(name).expect("defined");
    let thread_fns = [
        ("pthread_create", vec![
            nr("clone"), nr("mmap"), nr("mprotect"),
            nr("set_robust_list"), nr("rt_sigprocmask"),
        ]),
        ("pthread_join", vec![nr("futex"), nr("munmap")]),
        ("pthread_detach", vec![nr("futex")]),
        ("pthread_cancel", vec![nr("tgkill"), nr("rt_sigreturn")]),
        ("pthread_mutex_lock", vec![nr("futex")]),
        ("pthread_mutex_unlock", vec![nr("futex")]),
        ("pthread_cond_wait", vec![nr("futex")]),
        ("pthread_cond_signal", vec![nr("futex")]),
        ("pthread_cond_broadcast", vec![nr("futex")]),
        ("pthread_barrier_wait", vec![nr("futex")]),
        ("pthread_rwlock_rdlock", vec![nr("futex")]),
        ("pthread_rwlock_wrlock", vec![nr("futex")]),
        ("pthread_rwlock_unlock", vec![nr("futex")]),
        ("pthread_setname_np", vec![nr("prctl")]),
        ("pthread_setaffinity_np", vec![nr("sched_setaffinity")]),
        ("pthread_getaffinity_np", vec![nr("sched_getaffinity")]),
        ("pthread_sigqueue", vec![nr("rt_tgsigqueueinfo")]),
        ("pthread_exit_impl", vec![
            nr("set_tid_address"), nr("exit"), nr("rt_sigreturn"),
        ]),
    ];
    LibSpec {
        soname: LIBPTHREAD_SONAME.to_owned(),
        needed: vec![LIBC_SONAME.to_owned()],
        exports: thread_fns
            .into_iter()
            .map(|(name, direct_syscalls)| ExportSpec {
                name: name.to_owned(),
                direct_syscalls,
                pad_to: 512,
                ..Default::default()
            })
            .collect(),
    }
}

/// Builds the librt [`LibSpec`] (Table 5's `librt` row).
pub fn librt_spec(catalog: &Catalog) -> LibSpec {
    let nr = |name: &str| catalog.syscalls.number_of(name).expect("defined");
    let rt_fns = [
        ("timer_create_rt", vec![nr("timer_create"), nr("rt_sigprocmask")]),
        ("timer_settime_rt", vec![nr("timer_settime")]),
        ("timer_delete_rt", vec![nr("timer_delete")]),
        ("mq_open_rt", vec![nr("mq_open"), nr("rt_sigprocmask")]),
        ("mq_timedsend_rt", vec![nr("mq_timedsend")]),
        ("mq_timedreceive_rt", vec![nr("mq_timedreceive")]),
        ("aio_read_rt", vec![nr("io_setup"), nr("io_submit")]),
        ("aio_suspend_rt", vec![nr("io_getevents"), nr("rt_sigprocmask")]),
    ];
    LibSpec {
        soname: LIBRT_SONAME.to_owned(),
        needed: vec![LIBC_SONAME.to_owned()],
        exports: rt_fns
            .into_iter()
            .map(|(name, direct_syscalls)| ExportSpec {
                name: name.to_owned(),
                direct_syscalls,
                pad_to: 384,
                ..Default::default()
            })
            .collect(),
    }
}

/// Generates the four system-library binaries. Returns `(file name, bytes)`
/// pairs.
pub fn generate_system_libraries(catalog: &Catalog) -> Vec<(String, Vec<u8>)> {
    [
        libc_spec(catalog),
        ldso_spec(catalog),
        libpthread_spec(catalog),
        librt_spec(catalog),
    ]
    .into_iter()
    .map(|spec| {
        let name = spec.soname.clone();
        (name, generate_library(&spec))
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_analysis::{ApiFootprint, BinaryAnalysis, Linker};
    use apistudy_catalog::Api;
    use apistudy_elf::ElfFile;

    #[test]
    fn libc_exports_full_inventory() {
        let catalog = Catalog::linux_3_19();
        let spec = libc_spec(&catalog);
        assert_eq!(spec.exports.len(), 1274);
        let bytes = generate_library(&spec);
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        assert_eq!(ba.exports.len(), 1274);
    }

    #[test]
    fn libc_wrappers_carry_their_syscalls() {
        let catalog = Catalog::linux_3_19();
        let bytes = generate_library(&libc_spec(&catalog));
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let mut linker = Linker::new();
        linker.add_library(LIBC_SONAME, ba);
        linker.seal();

        let open_fp = linker.resolve_export(LIBC_SONAME, "open").unwrap();
        assert!(open_fp.contains(Api::Syscall(2))); // open
        assert!(open_fp.contains(Api::Syscall(257))); // openat

        let printf_fp = linker.resolve_export(LIBC_SONAME, "printf").unwrap();
        assert!(printf_fp.contains(Api::Syscall(1)), "printf reaches write");

        let strlen_fp = linker.resolve_export(LIBC_SONAME, "strlen").unwrap();
        assert_eq!(strlen_fp, ApiFootprint::default(), "strlen is pure");

        let start = linker
            .resolve_export(LIBC_SONAME, "__libc_start_main")
            .unwrap();
        assert!(start.contains(Api::Syscall(231)), "exit_group at startup");
        assert!(start.contains(Api::Syscall(56)), "clone at startup");
        assert!(!start.contains(Api::Syscall(21)), "access is ld.so-only");
    }

    #[test]
    fn mutual_recursion_in_libc_is_handled() {
        let catalog = Catalog::linux_3_19();
        let bytes = generate_library(&libc_spec(&catalog));
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let mut linker = Linker::new();
        linker.add_library(LIBC_SONAME, ba);
        linker.seal();
        let glob_fp = linker.resolve_export(LIBC_SONAME, "glob").unwrap();
        let fnmatch_fp = linker.resolve_export(LIBC_SONAME, "fnmatch").unwrap();
        assert_eq!(glob_fp, fnmatch_fp);
    }

    #[test]
    fn ldso_contains_table_5_footprint() {
        let catalog = Catalog::linux_3_19();
        let bytes = generate_library(&ldso_spec(&catalog));
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let direct = ba.direct_syscalls();
        assert!(direct.contains(&21), "access");
        assert!(direct.contains(&158), "arch_prctl");
        assert!(direct.contains(&10), "mprotect");
    }

    #[test]
    fn system_libraries_generate_and_parse() {
        let catalog = Catalog::linux_3_19();
        let libs = generate_system_libraries(&catalog);
        assert_eq!(libs.len(), 4);
        for (name, bytes) in &libs {
            let elf = ElfFile::parse(bytes).unwrap_or_else(|e| {
                panic!("{name} failed to parse: {e}")
            });
            assert_eq!(elf.soname().unwrap().as_deref(), Some(name.as_str()));
        }
    }

    #[test]
    fn libc_function_sizes_respect_nominal_sizes() {
        let catalog = Catalog::linux_3_19();
        let bytes = generate_library(&libc_spec(&catalog));
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        for (_, sym) in catalog.libc.iter().take(50) {
            let idx = ba.export(&sym.name).expect("exported");
            assert!(
                ba.funcs[idx].size >= u64::from(sym.size),
                "{} smaller than nominal",
                sym.name
            );
        }
    }
}
