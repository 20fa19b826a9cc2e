//! The GNU libc 2.21 exported-function inventory.
//!
//! The study analyzes the 1,274 global function symbols exported by
//! `libc-2.21.so` (paper §3.5): their per-application usage drives the
//! Figure 7 importance distribution, the libc-restructuring experiment, and
//! the Table 7 libc-variant comparison.
//!
//! We reconstruct the inventory from three parts (DESIGN.md §3):
//!
//! 1. a curated list of real exported names across every glibc family
//!    (stdio, string, stdlib, POSIX I/O, sockets, time, signals, wide
//!    characters, locales, IPC, fortify `__*_chk` variants, LFS `*64`
//!    variants, ISO-C99 scanf shims, C++ runtime hooks, ...);
//! 2. deterministic per-symbol *nominal code sizes* (used by the
//!    restructuring experiment's size accounting);
//! 3. a documented synthetic `__glibc_internal_NNN` tail standing in for the
//!    remaining internal exports (`_IO_*` vtable machinery, NSS and resolver
//!    internals), bringing the total to exactly
//!    [`GLIBC_2_21_SYMBOL_COUNT`].

use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

/// Number of global function symbols exported by glibc 2.21 (paper §3.5).
pub const GLIBC_2_21_SYMBOL_COUNT: usize = 1274;

/// Functional family of a libc symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolFamily {
    /// Buffered I/O (`stdio.h`).
    Stdio,
    /// Memory and string routines (`string.h`).
    Str,
    /// Allocation, conversion, environment (`stdlib.h`).
    Stdlib,
    /// POSIX file and process calls (`unistd.h`, `fcntl.h`, ...).
    Posix,
    /// Sockets and name resolution.
    Socket,
    /// Clocks, timers, and calendar time.
    Time,
    /// Signal handling.
    Signal,
    /// Wide-character and multibyte routines.
    Wide,
    /// Character classification.
    Ctype,
    /// Locale machinery.
    Locale,
    /// Users, groups, shadow entries.
    Pwd,
    /// System V / POSIX IPC and semaphores.
    Ipc,
    /// Scheduling and affinity.
    Sched,
    /// Directory traversal and globbing.
    Dirent,
    /// Memory mapping.
    Mman,
    /// Extended attributes.
    Xattr,
    /// Event APIs (poll, epoll, inotify, ...).
    Event,
    /// Fortified `__*_chk` hardening variants.
    Fortify,
    /// Large-file-support `*64` variants.
    Lfs,
    /// Threading stubs exported by libc proper.
    Thread,
    /// Runtime/internal exports (`__libc_start_main`, `__cxa_*`, `_IO_*`).
    Internal,
    /// Synthetic stand-ins for unnamed internal exports.
    Generated,
}

/// One exported libc function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibcSymbol {
    /// Exported symbol name.
    pub name: String,
    /// Nominal machine-code size in bytes (deterministic; used for the
    /// restructuring experiment's size accounting).
    pub size: u32,
    /// Functional family.
    pub family: SymbolFamily,
}

macro_rules! family_list {
    ($fam:ident : $($name:expr),+ $(,)?) => {
        &[$(($name, SymbolFamily::$fam)),+]
    };
}

const STDIO: &[(&str, SymbolFamily)] = family_list![Stdio:
    "printf", "fprintf", "sprintf", "snprintf", "vprintf", "vfprintf",
    "vsprintf", "vsnprintf", "asprintf", "vasprintf", "dprintf", "vdprintf",
    "scanf", "fscanf", "sscanf", "vscanf", "vfscanf", "vsscanf",
    "fopen", "freopen", "fclose", "fflush", "fcloseall",
    "fread", "fwrite", "fgets", "fputs", "fgetc", "fputc",
    "getc", "putc", "getchar", "putchar", "ungetc", "gets", "puts",
    "fseek", "ftell", "rewind", "fgetpos", "fsetpos", "fseeko", "ftello",
    "clearerr", "feof", "ferror", "fileno", "fdopen",
    "setbuf", "setvbuf", "setbuffer", "setlinebuf",
    "tmpfile", "tmpnam", "tmpnam_r", "tempnam", "perror", "remove",
    "popen", "pclose", "fmemopen", "open_memstream", "open_wmemstream",
    "getline", "getdelim", "fopencookie", "cuserid", "ctermid",
    "flockfile", "ftrylockfile", "funlockfile",
    "getc_unlocked", "putc_unlocked", "getchar_unlocked", "putchar_unlocked",
    "fgetc_unlocked", "fputc_unlocked", "fread_unlocked", "fwrite_unlocked",
    "fgets_unlocked", "fputs_unlocked", "feof_unlocked", "ferror_unlocked",
    "clearerr_unlocked", "fileno_unlocked", "fflush_unlocked",
    "putw", "getw", "setbuffer_unlocked",
];

const STR: &[(&str, SymbolFamily)] = family_list![Str:
    "memcpy", "memmove", "memset", "memcmp", "memchr", "memrchr",
    "rawmemchr", "mempcpy", "memccpy", "memmem", "memfrob",
    "strcpy", "strncpy", "strcat", "strncat", "strcmp", "strncmp",
    "strcoll", "strxfrm", "strchr", "strrchr", "strchrnul",
    "strcspn", "strspn", "strpbrk", "strstr", "strcasestr",
    "strtok", "strtok_r", "strlen", "strnlen",
    "strerror", "strerror_r", "strsignal",
    "strcasecmp", "strncasecmp", "strdup", "strndup", "strsep",
    "stpcpy", "stpncpy", "strverscmp", "strfry",
    "bcopy", "bzero", "bcmp", "index", "rindex", "ffs", "ffsl", "ffsll",
    "basename", "dirname", "swab",
    "strcoll_l", "strxfrm_l", "strcasecmp_l", "strncasecmp_l",
    "strerror_l", "strtol_l", "strtoul_l", "strtod_l",
];

const STDLIB: &[(&str, SymbolFamily)] = family_list![Stdlib:
    "malloc", "free", "calloc", "realloc", "cfree",
    "posix_memalign", "memalign", "valloc", "pvalloc", "aligned_alloc",
    "malloc_usable_size", "malloc_trim", "malloc_stats", "mallopt", "mallinfo",
    "atoi", "atol", "atoll", "atof",
    "strtol", "strtoul", "strtoll", "strtoull", "strtoq", "strtouq",
    "strtof", "strtod", "strtold", "strtoimax", "strtoumax",
    "rand", "srand", "rand_r", "random", "srandom", "initstate", "setstate",
    "random_r", "srandom_r", "initstate_r", "setstate_r",
    "drand48", "erand48", "lrand48", "nrand48", "mrand48", "jrand48",
    "srand48", "seed48", "lcong48", "drand48_r", "lrand48_r", "mrand48_r",
    "abort", "atexit", "on_exit", "exit", "_exit", "_Exit",
    "quick_exit", "at_quick_exit",
    "getenv", "setenv", "unsetenv", "putenv", "clearenv", "secure_getenv",
    "mktemp", "mkstemp", "mkstemps", "mkdtemp", "mkostemp", "mkostemps",
    "system", "realpath", "canonicalize_file_name",
    "abs", "labs", "llabs", "imaxabs", "div", "ldiv", "lldiv", "imaxdiv",
    "mblen", "mbtowc", "wctomb", "mbstowcs", "wcstombs",
    "qsort", "qsort_r", "bsearch", "lsearch", "lfind",
    "ecvt", "fcvt", "gcvt", "getsubopt", "rpmatch", "getloadavg", "ptsname", "ptsname_r",
    "grantpt", "unlockpt", "posix_openpt", "a64l", "l64a",
];

const POSIX: &[(&str, SymbolFamily)] = family_list![Posix:
    "open", "openat", "creat", "close", "read", "write",
    "pread", "pwrite", "readv", "writev", "preadv", "pwritev",
    "lseek", "access", "faccessat", "euidaccess", "eaccess",
    "alarm", "brk", "sbrk", "chdir", "fchdir",
    "chown", "fchown", "lchown", "fchownat",
    "chmod", "fchmod", "fchmodat", "umask",
    "dup", "dup2", "dup3", "fcntl", "flock", "lockf",
    "fsync", "fdatasync", "syncfs", "sync", "sync_file_range",
    "ftruncate", "truncate", "fallocate", "posix_fallocate", "posix_fadvise",
    "getcwd", "getwd", "get_current_dir_name",
    "getdomainname", "setdomainname", "gethostname", "sethostname",
    "gethostid", "sethostid", "getdtablesize", "getpagesize",
    "getegid", "geteuid", "getgid", "getuid", "getgroups",
    "getlogin", "getlogin_r", "getpass",
    "getopt", "getopt_long", "getopt_long_only",
    "getpgid", "getpgrp", "getpid", "getppid", "getsid", "gettid",
    "isatty", "ttyname", "ttyname_r", "tcgetpgrp", "tcsetpgrp",
    "tcgetattr", "tcsetattr", "tcsendbreak", "tcdrain", "tcflush", "tcflow",
    "tcgetsid", "cfgetispeed", "cfgetospeed", "cfsetispeed", "cfsetospeed",
    "cfsetspeed", "cfmakeraw",
    "link", "linkat", "symlink", "symlinkat", "readlink", "readlinkat",
    "unlink", "unlinkat", "rmdir", "rename", "renameat",
    "mkdir", "mkdirat", "mknod", "mknodat", "mkfifo", "mkfifoat",
    "stat", "fstat", "lstat", "fstatat",
    "statfs", "fstatfs", "statvfs", "fstatvfs",
    "utime", "utimes", "futimes", "lutimes", "futimens", "utimensat",
    "futimesat",
    "nice", "pause", "pipe", "pipe2",
    "fork", "vfork", "execl", "execlp", "execle", "execv", "execvp",
    "execve", "execvpe", "fexecve",
    "wait", "waitpid", "wait3", "wait4", "waitid",
    "posix_spawn", "posix_spawnp",
    "setegid", "seteuid", "setgid", "setuid", "setpgid", "setpgrp",
    "setregid", "setreuid", "setresgid", "setresuid",
    "getresuid", "getresgid", "setsid", "setfsuid", "setfsgid",
    "sleep", "usleep", "ualarm", "daemon", "chroot", "ctermid_r",
    "sysconf", "fpathconf", "pathconf", "confstr",
    "ioctl", "uname", "syscall",
    "getrlimit", "setrlimit", "prlimit", "getrusage",
    "getpriority", "setpriority",
    "clone", "unshare", "setns", "personality",
    "capget", "capset", "prctl", "ptrace", "reboot",
    "swapon", "swapoff", "mount", "umount", "umount2", "pivot_root",
    "syslog", "klogctl", "vsyslog", "openlog", "closelog", "setlogmask",
    "sysinfo", "acct", "iopl", "ioperm",
    "sendfile", "splice", "tee", "vmsplice",
    "readahead", "getauxval", "sethostent", "endhostent",
    "name_to_handle_at", "open_by_handle_at",
    "process_vm_readv", "process_vm_writev", "kcmp",
    "getentropy",
];

const SOCKET: &[(&str, SymbolFamily)] = family_list![Socket:
    "socket", "socketpair", "bind", "listen", "accept", "accept4",
    "connect", "getsockname", "getpeername",
    "send", "recv", "sendto", "recvfrom", "sendmsg", "recvmsg",
    "sendmmsg", "recvmmsg", "getsockopt", "setsockopt", "shutdown",
    "sockatmark", "isfdtype",
    "gethostbyname", "gethostbyaddr", "gethostbyname_r", "gethostbyaddr_r",
    "gethostbyname2", "gethostbyname2_r", "gethostent", "gethostent_r",
    "getaddrinfo", "freeaddrinfo", "getnameinfo", "gai_strerror",
    "getservbyname", "getservbyport", "getservbyname_r", "getservbyport_r",
    "getservent", "setservent", "endservent",
    "getprotobyname", "getprotobynumber", "getprotoent",
    "setprotoent", "endprotoent",
    "getnetent", "getnetbyname", "getnetbyaddr", "setnetent", "endnetent",
    "inet_addr", "inet_ntoa", "inet_aton", "inet_ntop", "inet_pton",
    "inet_network", "inet_makeaddr", "inet_lnaof", "inet_netof",
    "htons", "htonl", "ntohs", "ntohl",
    "if_nametoindex", "if_indextoname", "if_nameindex", "if_freenameindex",
    "getifaddrs", "freeifaddrs",
    "res_init", "res_query", "res_search", "res_querydomain", "res_mkquery",
    "res_send", "dn_comp", "dn_expand", "herror", "hstrerror",
    ];

const TIME: &[(&str, SymbolFamily)] = family_list![Time:
    "time", "clock", "gettimeofday", "settimeofday",
    "clock_gettime", "clock_settime", "clock_getres", "clock_nanosleep",
    "clock_getcpuclockid", "clock_adjtime",
    "mktime", "localtime", "localtime_r", "gmtime", "gmtime_r",
    "asctime", "asctime_r", "ctime", "ctime_r",
    "strftime", "strftime_l", "strptime", "strptime_l",
    "difftime", "timegm", "timelocal", "tzset", "dysize",
    "nanosleep", "adjtime", "adjtimex", "ntp_gettime", "ntp_gettimex",
    "ntp_adjtime", "getdate", "getdate_r",
    "getitimer", "setitimer",
    "timer_create", "timer_delete", "timer_settime", "timer_gettime",
    "timer_getoverrun", "timespec_get", "ftime",
    "timerfd_create", "timerfd_settime", "timerfd_gettime",
    "stime", ];

const SIGNAL: &[(&str, SymbolFamily)] = family_list![Signal:
    "signal", "sigaction", "sigprocmask", "sigpending", "sigsuspend",
    "sigwait", "sigwaitinfo", "sigtimedwait", "sigqueue",
    "raise", "kill", "killpg", "tgkill",
    "sigemptyset", "sigfillset", "sigaddset", "sigdelset", "sigismember",
    "sigisemptyset", "sigandset", "sigorset",
    "sigaltstack", "siginterrupt", "sigsetmask", "siggetmask", "sigblock",
    "sigpause", "sigstack", "sigreturn",
    "psignal", "psiginfo", "bsd_signal", "sysv_signal", "ssignal", "gsignal",
    "sigvec", "sighold", "sigrelse", "sigignore", "sigset",
    "setjmp", "_setjmp", "longjmp", "_longjmp", "siglongjmp", "__sigsetjmp",
    "abort_handler_s",
];

const WIDE: &[(&str, SymbolFamily)] = family_list![Wide:
    "wcscpy", "wcsncpy", "wcscat", "wcsncat", "wcscmp", "wcsncmp",
    "wcslen", "wcsnlen", "wcschr", "wcsrchr", "wcsstr",
    "wcstok", "wcscspn", "wcsspn", "wcspbrk", "wmemcpy", "wmemmove", "wmemset", "wmemcmp", "wmemchr", "mbrtowc", "wcrtomb", "mbsrtowcs", "wcsrtombs", "mbsnrtowcs",
    "wcsnrtombs", "mbrlen", "mbsinit", "btowc", "wctob",
    "fwide", "fgetwc", "fputwc", "getwc", "putwc", "getwchar", "putwchar",
    "fgetws", "fputws", "ungetwc",
    "fgetwc_unlocked", "fputwc_unlocked", "getwc_unlocked", "putwc_unlocked",
    "getwchar_unlocked", "putwchar_unlocked", "fgetws_unlocked",
    "fputws_unlocked",
    "wprintf", "fwprintf", "swprintf", "vwprintf", "vfwprintf", "vswprintf",
    "wscanf", "fwscanf", "swscanf", "vwscanf", "vfwscanf", "vswscanf",
    "wcstol", "wcstoul", "wcstoll", "wcstoull", "wcstod", "wcstof",
    "wcstold", "wcstoimax", "wcstoumax",
    "wcscoll", "wcsxfrm", "wcscoll_l", "wcsxfrm_l", "wcsdup",
    "wcscasecmp", "wcsncasecmp", "wcscasecmp_l", "wcsncasecmp_l",
    "wcwidth", "wcswidth", "wcpcpy", "wcpncpy", "wcsftime",
];

const CTYPE: &[(&str, SymbolFamily)] = family_list![Ctype:
    "isalnum", "isalpha", "iscntrl", "isdigit", "isgraph", "islower",
    "isprint", "ispunct", "isspace", "isupper", "isxdigit", "isblank",
    "isascii", "toascii", "tolower", "toupper", "_tolower", "_toupper",
    "isalnum_l", "isalpha_l", "isdigit_l", "islower_l", "isupper_l",
    "isspace_l", "tolower_l", "toupper_l",
    "iswalnum", "iswalpha", "iswcntrl", "iswdigit", "iswgraph", "iswlower",
    "iswprint", "iswpunct", "iswspace", "iswupper", "iswxdigit", "iswblank",
    "towlower", "towupper", "wctype", "iswctype", "wctrans", "towctrans",
    "iswalnum_l", "iswalpha_l", "towlower_l", "towupper_l", "wctype_l",
    "iswctype_l",
];

const LOCALE: &[(&str, SymbolFamily)] = family_list![Locale:
    "setlocale", "localeconv", "newlocale", "duplocale", "freelocale",
    "uselocale", "nl_langinfo", "nl_langinfo_l",
    "iconv_open", "iconv", "iconv_close",
    "catopen", "catgets", "catclose",
    "gettext", "dgettext", "dcgettext", "ngettext", "dngettext",
    "dcngettext", "textdomain", "bindtextdomain", "bind_textdomain_codeset",
];

const PWD: &[(&str, SymbolFamily)] = family_list![Pwd:
    "getpwnam", "getpwuid", "getpwnam_r", "getpwuid_r",
    "getpwent", "getpwent_r", "setpwent", "endpwent", "fgetpwent", "putpwent",
    "getgrnam", "getgrgid", "getgrnam_r", "getgrgid_r",
    "getgrent", "getgrent_r", "setgrent", "endgrent", "fgetgrent", "putgrent",
    "getgrouplist", "initgroups", "setgroups",
    "getspnam", "getspnam_r", "getspent", "setspent", "endspent", "sgetspent",
    "fgetspent", "putspent", "lckpwdf", "ulckpwdf",
];

const IPC: &[(&str, SymbolFamily)] = family_list![Ipc:
    "ftok", "semget", "semop", "semctl", "semtimedop",
    "msgget", "msgsnd", "msgrcv", "msgctl",
    "shmget", "shmat", "shmdt", "shmctl",
    "mq_open", "mq_close", "mq_unlink", "mq_send", "mq_receive",
    "mq_timedsend", "mq_timedreceive", "mq_notify", "mq_getattr",
    "mq_setattr",
    "sem_open", "sem_close", "sem_unlink", "sem_init", "sem_destroy",
    "sem_wait", "sem_trywait", "sem_timedwait", "sem_post", "sem_getvalue",
    "aio_read", "aio_write", "aio_error", "aio_return", "aio_suspend",
    "aio_cancel", "aio_fsync", "lio_listio",
];

const SCHED: &[(&str, SymbolFamily)] = family_list![Sched:
    "sched_yield", "sched_setscheduler", "sched_getscheduler",
    "sched_setparam", "sched_getparam",
    "sched_get_priority_max", "sched_get_priority_min",
    "sched_rr_get_interval", "sched_setaffinity", "sched_getaffinity",
    "sched_getcpu",
];

const DIRENT: &[(&str, SymbolFamily)] = family_list![Dirent:
    "opendir", "fdopendir", "closedir", "readdir", "readdir_r",
    "rewinddir", "seekdir", "telldir", "dirfd",
    "scandir", "scandirat", "alphasort", "versionsort",
    "ftw", "nftw", "fts_open", "fts_read", "fts_children", "fts_set",
    "fts_close",
    "glob", "globfree", "fnmatch", "wordexp", "wordfree",
    "nftw64",
];

const MMAN: &[(&str, SymbolFamily)] = family_list![Mman:
    "mmap", "munmap", "mprotect", "msync", "madvise", "posix_madvise",
    "mincore", "mlock", "munlock", "mlockall", "munlockall", "mremap",
    "remap_file_pages", "shm_open", "shm_unlink", ];

const XATTR: &[(&str, SymbolFamily)] = family_list![Xattr:
    "setxattr", "lsetxattr", "fsetxattr", "getxattr", "lgetxattr",
    "fgetxattr", "listxattr", "llistxattr", "flistxattr",
    "removexattr", "lremovexattr", "fremovexattr",
];

const EVENT: &[(&str, SymbolFamily)] = family_list![Event:
    "poll", "ppoll", "select", "pselect",
    "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait", "epoll_pwait",
    "inotify_init", "inotify_init1", "inotify_add_watch", "inotify_rm_watch",
    "eventfd", "eventfd_read", "eventfd_write",
    "signalfd", "fanotify_init", "fanotify_mark",
];

const FORTIFY: &[(&str, SymbolFamily)] = family_list![Fortify:
    "__printf_chk", "__fprintf_chk", "__sprintf_chk", "__snprintf_chk",
    "__vprintf_chk", "__vfprintf_chk", "__vsprintf_chk", "__vsnprintf_chk",
    "__asprintf_chk", "__vasprintf_chk", "__dprintf_chk", "__vdprintf_chk",
    "__memcpy_chk", "__memmove_chk", "__memset_chk", "__mempcpy_chk",
    "__strcpy_chk", "__strncpy_chk", "__strcat_chk", "__strncat_chk",
    "__stpcpy_chk", "__stpncpy_chk",
    "__gets_chk", "__fgets_chk", "__fgets_unlocked_chk",
    "__read_chk", "__pread_chk", "__pread64_chk",
    "__readlink_chk", "__readlinkat_chk",
    "__getcwd_chk", "__getwd_chk", "__recv_chk", "__recvfrom_chk",
    "__realpath_chk", "__ptsname_r_chk", "__ttyname_r_chk",
    "__gethostname_chk", "__getdomainname_chk", "__getlogin_r_chk",
    "__getgroups_chk", "__confstr_chk",
    "__wcscpy_chk", "__wcsncpy_chk", "__wcscat_chk", "__wcsncat_chk",
    "__wmemcpy_chk", "__wmemmove_chk", "__wmemset_chk",
    "__swprintf_chk", "__vswprintf_chk", "__wprintf_chk", "__fwprintf_chk",
    "__vwprintf_chk", "__vfwprintf_chk", "__fgetws_chk",
    "__fgetws_unlocked_chk",
    "__mbstowcs_chk", "__wcstombs_chk", "__mbsrtowcs_chk", "__wcsrtombs_chk",
    "__mbsnrtowcs_chk", "__wcsnrtombs_chk", "__wcrtomb_chk",
    "__syslog_chk", "__vsyslog_chk", "__fread_chk", "__fread_unlocked_chk",
    "__fdelt_chk", "__poll_chk", "__ppoll_chk", "__longjmp_chk",
    "__stack_chk_fail", "__fortify_fail", "__chk_fail", ];

const LFS: &[(&str, SymbolFamily)] = family_list![Lfs:
    "open64", "openat64", "creat64", "fopen64", "freopen64", "tmpfile64",
    "fseeko64", "ftello64", "fgetpos64", "fsetpos64",
    "mmap64", "lseek64", "pread64", "pwrite64", "preadv64", "pwritev64",
    "truncate64", "ftruncate64", "lockf64", "fallocate64",
    "posix_fadvise64", "posix_fallocate64",
    "stat64", "fstat64", "lstat64", "fstatat64",
    "statfs64", "fstatfs64", "statvfs64", "fstatvfs64",
    "readdir64", "readdir64_r", "scandir64", "alphasort64", "versionsort64",
    "glob64", "globfree64", "getrlimit64", "setrlimit64",
    "mkstemp64", "mkostemp64", "mkstemps64", "mkostemps64",
    "sendfile64", "getdirentries64",
];

const THREAD: &[(&str, SymbolFamily)] = family_list![Thread:
    "pthread_self", "pthread_equal", "pthread_attr_init",
    "pthread_attr_destroy", "pthread_attr_setdetachstate",
    "pthread_attr_getdetachstate",
    "pthread_mutex_init", "pthread_mutex_destroy", "pthread_mutex_lock",
    "pthread_mutex_trylock", "pthread_mutex_unlock",
    "pthread_cond_init", "pthread_cond_destroy", "pthread_cond_wait",
    "pthread_cond_signal", "pthread_cond_broadcast", "pthread_cond_timedwait",
    "pthread_once", "pthread_getspecific", "pthread_setspecific",
    "pthread_key_create", "pthread_key_delete",
    "pthread_setcancelstate", "pthread_setcanceltype", "pthread_exit",
    "pthread_atfork", "pthread_sigmask", "pthread_kill",
    "__errno_location", "__h_errno_location",
];

const INTERNAL: &[(&str, SymbolFamily)] = family_list![Internal:
    "__libc_start_main", "__libc_init_first", "__libc_current_sigrtmin",
    "__libc_current_sigrtmax", "__libc_allocate_rtsig",
    "__libc_malloc", "__libc_free", "__libc_calloc", "__libc_realloc",
    "__libc_memalign", "__libc_valloc", "__libc_pvalloc",
    "__cxa_atexit", "__cxa_finalize", "__cxa_thread_atexit_impl",
    "__register_atfork", "__libc_fork", "__libc_pread", "__libc_pwrite",
    "__assert_fail", "__assert_perror_fail", "__assert",
    "__overflow", "__uflow", "__underflow", "_IO_getc", "_IO_putc", "_IO_puts", "_IO_feof", "_IO_ferror",
    "_IO_ungetc", "_IO_flockfile", "_IO_funlockfile",
    "_IO_ftrylockfile", "_IO_vfprintf", "_IO_vfscanf", "_IO_vsprintf",
    "_IO_fgets", "_IO_fputs", "_IO_fread", "_IO_fwrite", "_IO_fopen",
    "_IO_fclose", "_IO_fflush", "_IO_fgetpos", "_IO_fsetpos", "_IO_seekoff",
    "_IO_seekpos", "_IO_file_overflow",
    "_IO_file_underflow", "_IO_file_sync", "_IO_file_xsputn",
    "_IO_file_xsgetn", "_IO_file_seekoff", "_IO_file_close",
    "_IO_file_attach", "_IO_file_open", "__xstat", "__fxstat", "__lxstat", "__fxstatat",
    "__xstat64", "__fxstat64", "__lxstat64", "__fxstatat64",
    "__xmknod", "__xmknodat",
    "__isoc99_scanf", "__isoc99_fscanf", "__isoc99_sscanf",
    "__isoc99_vscanf", "__isoc99_vfscanf", "__isoc99_vsscanf",
    "__isoc99_wscanf", "__isoc99_fwscanf", "__isoc99_swscanf",
    "__isoc99_vwscanf", "__isoc99_vfwscanf", "__isoc99_vswscanf",
    "__strtol_internal", "__strtoul_internal", "__strtoll_internal",
    "__strtoull_internal", "__strtod_internal", "__strtof_internal",
    "__strtold_internal", "__wcstol_internal", "__wcstoul_internal",
    "__wcstod_internal",
    "__sched_cpucount", "__sched_cpualloc", "__sched_cpufree",
    "__getpagesize", "__strdup", "__sbrk", "__select", "__poll",
    "__dup2", "__close", "__open", "__open64", "__read", "__write",
    "__fcntl", "__connect", "__send", "__recv", "__wait", "__waitpid",
    "__fork", "__vfork", "__getpid", "__gettimeofday", "__setpgid",
    "__sigaction", "__sigaddset", "__sigdelset", "__sigismember",
    "__sigpause", "__sigsuspend", "__statfs", "__lseek", "__pipe",
    "__backtrace", "backtrace", "backtrace_symbols", "backtrace_symbols_fd",
    "__res_init", "__res_query", "__res_search", "__res_state",
    "__nss_configure_lookup", "__nss_hostname_digits_dots",
    "__nss_database_lookup", "__nss_next", "__nss_passwd_lookup",
    "__nss_group_lookup", "__nss_hosts_lookup",
    "error", "error_at_line", "err", "errx", "warn", "warnx",
    "verr", "verrx", "vwarn", "vwarnx",
    "regcomp", "regexec", "regerror", "regfree",
    "getmntent", "getmntent_r", "setmntent", "addmntent", "endmntent",
    "hasmntopt", ];

/// Every curated family list in declaration order.
const FAMILIES: &[&[(&str, SymbolFamily)]] = &[
    STDIO, STR, STDLIB, POSIX, SOCKET, TIME, SIGNAL, WIDE, CTYPE, LOCALE,
    PWD, IPC, SCHED, DIRENT, MMAN, XATTR, EVENT, FORTIFY, LFS, THREAD,
    INTERNAL,
];

/// Deterministic nominal code size for a symbol name: FNV-1a folded into a
/// plausible per-function size range (32–2080 bytes).
fn nominal_size(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    32 + (h % 2048) as u32
}

/// The reconstructed glibc 2.21 exported-function inventory. Immutable,
/// so copies share one table.
#[derive(Debug, Clone)]
pub struct LibcInventory {
    symbols: Arc<[LibcSymbol]>,
    by_name: Arc<HashMap<String, u32>>,
}

impl LibcInventory {
    /// The glibc 2.21 inventory: all curated names plus the synthetic
    /// internal tail, totalling exactly [`GLIBC_2_21_SYMBOL_COUNT`]. Built
    /// once per process; every call shares it.
    pub fn glibc_2_21() -> Self {
        static GLIBC_2_21: LazyLock<LibcInventory> = LazyLock::new(LibcInventory::build);
        GLIBC_2_21.clone()
    }

    fn build() -> Self {
        let mut symbols = Vec::with_capacity(GLIBC_2_21_SYMBOL_COUNT);
        let mut by_name = HashMap::with_capacity(GLIBC_2_21_SYMBOL_COUNT);
        for fam in FAMILIES {
            for &(name, family) in *fam {
                debug_assert!(
                    !by_name.contains_key(name),
                    "duplicate curated symbol {name}"
                );
                by_name.insert(name.to_owned(), symbols.len() as u32);
                symbols.push(LibcSymbol {
                    name: name.to_owned(),
                    size: nominal_size(name),
                    family,
                });
            }
        }
        assert!(
            symbols.len() <= GLIBC_2_21_SYMBOL_COUNT,
            "curated list exceeds target count: {}",
            symbols.len()
        );
        let mut i = 0;
        while symbols.len() < GLIBC_2_21_SYMBOL_COUNT {
            let name = format!("__glibc_internal_{i:03}");
            by_name.insert(name.clone(), symbols.len() as u32);
            symbols.push(LibcSymbol {
                size: nominal_size(&name),
                name,
                family: SymbolFamily::Generated,
            });
            i += 1;
        }
        Self { symbols: symbols.into(), by_name: Arc::new(by_name) }
    }

    /// Number of symbols (always [`GLIBC_2_21_SYMBOL_COUNT`] for
    /// [`Self::glibc_2_21`]).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Symbol definition by id.
    pub fn get(&self, id: u32) -> Option<&LibcSymbol> {
        self.symbols.get(id as usize)
    }

    /// Symbol id by exported name.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// Iterates `(id, symbol)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &LibcSymbol)> {
        self.symbols.iter().enumerate().map(|(i, s)| (i as u32, s))
    }

    /// Total nominal code size of the listed symbol ids, in bytes.
    pub fn total_size(&self, ids: impl IntoIterator<Item = u32>) -> u64 {
        ids.into_iter()
            .filter_map(|id| self.get(id))
            .map(|s| u64::from(s.size))
            .sum()
    }
}

/// Reverses GNU fortify compile-time replacement: maps a `__*_chk` symbol to
/// the plain API it hardens (`__printf_chk` → `printf`).
///
/// This is the Table 7 "normalization" step: uClibc and musl do not export
/// the `_chk` names, so matching raw symbols makes them look far less
/// compatible than they are.
pub fn normalize_fortified(name: &str) -> Option<String> {
    let body = name.strip_prefix("__")?.strip_suffix("_chk")?;
    if body.is_empty() {
        return None;
    }
    Some(body.to_owned())
}

/// Reverses *any* compile-time API replacement glibc headers perform: the
/// fortify `__*_chk` wrapping and the ISO-C99 scanf redirection
/// (`__isoc99_scanf` → `scanf`). Returns the plain API the program's
/// source actually named, or `None` when the symbol is not a compile-time
/// alias.
pub fn normalize_compile_time_alias(name: &str) -> Option<String> {
    if let Some(base) = normalize_fortified(name) {
        return Some(base);
    }
    name.strip_prefix("__isoc99_").map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_has_exact_symbol_count() {
        let inv = LibcInventory::glibc_2_21();
        assert_eq!(inv.len(), GLIBC_2_21_SYMBOL_COUNT);
    }

    #[test]
    fn names_are_unique() {
        let inv = LibcInventory::glibc_2_21();
        assert_eq!(inv.by_name.len(), inv.len());
    }

    #[test]
    fn curated_names_resolve() {
        let inv = LibcInventory::glibc_2_21();
        for name in ["printf", "memcpy", "memalign", "__cxa_finalize",
                     "__printf_chk", "open64", "pthread_mutex_lock"] {
            let id = inv.id_of(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(inv.get(id).map(|s| s.name.as_str()), Some(name));
        }
    }

    #[test]
    fn sizes_are_deterministic_and_plausible() {
        let inv = LibcInventory::glibc_2_21();
        let inv2 = LibcInventory::glibc_2_21();
        for (id, sym) in inv.iter() {
            assert!(sym.size >= 32 && sym.size < 2080 + 32);
            assert_eq!(inv2.get(id).map(|s| s.size), Some(sym.size));
        }
    }

    #[test]
    fn fortify_normalization() {
        assert_eq!(normalize_fortified("__printf_chk").as_deref(), Some("printf"));
        assert_eq!(
            normalize_fortified("__memcpy_chk").as_deref(),
            Some("memcpy")
        );
        assert_eq!(normalize_fortified("printf"), None);
        assert_eq!(normalize_fortified("__chk"), None);
        // The normalized target of every curated fortify symbol that hardens
        // a real API must exist in the inventory.
        let inv = LibcInventory::glibc_2_21();
        let has = |n: &str| inv.id_of(n).is_some();
        for &(name, _) in FORTIFY {
            if let Some(base) = normalize_fortified(name) {
                // Runtime-support symbols (__chk_fail, __stack_chk_fail,
                // __fortify_fail, __fdelt_chk, __longjmp_chk) have no plain
                // counterpart; every other one should.
                let support = ["chk_fail", "stack", "fortify", "fdelt",
                               "longjmp", "explicit_bzero", "wcrtomb",
                               "realpath", "ptsname_r", "ttyname_r"];
                if support.iter().any(|s| base.contains(s)) {
                    continue;
                }
                assert!(has(&base), "no plain counterpart for {name} ({base})");
            }
        }
    }

    #[test]
    fn generated_tail_fills_remainder() {
        let inv = LibcInventory::glibc_2_21();
        let generated = inv
            .iter()
            .filter(|(_, s)| s.family == SymbolFamily::Generated)
            .count();
        assert!(generated > 0, "curated list should not exceed the target");
        let curated: usize = FAMILIES.iter().map(|f| f.len()).sum();
        assert_eq!(curated + generated, GLIBC_2_21_SYMBOL_COUNT);
    }

    #[test]
    fn total_size_sums_selected_ids() {
        let inv = LibcInventory::glibc_2_21();
        let a = inv.id_of("printf").unwrap();
        let b = inv.id_of("memcpy").unwrap();
        let expect =
            u64::from(inv.get(a).unwrap().size) + u64::from(inv.get(b).unwrap().size);
        assert_eq!(inv.total_size([a, b]), expect);
        assert_eq!(inv.total_size([]), 0);
    }
}
