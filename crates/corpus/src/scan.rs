//! Repository scanning: the Figure 1 executable-type census.
//!
//! Classifies every file in a set of packages the way the study does:
//! ELF binaries by parsing their headers (static executable / dynamic
//! executable / shared library), scripts by their shebang interpreter.

use std::collections::HashMap;

use apistudy_elf::{BinaryClass, ElfFile};

use crate::model::{Interpreter, Package, PackageFile};

/// Census of executable types across a repository (Figure 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MixCensus {
    /// ELF files by class.
    pub elf: HashMap<BinaryClass, usize>,
    /// Scripts by interpreter.
    pub scripts: HashMap<Interpreter, usize>,
    /// ELF files that failed to parse.
    pub unparsable: usize,
}

impl MixCensus {
    /// Scans a set of packages.
    pub fn scan<'a>(packages: impl IntoIterator<Item = &'a Package>) -> Self {
        let mut census = Self::default();
        for pkg in packages {
            for file in &pkg.files {
                match file {
                    PackageFile::Elf { bytes, .. } => census.count_elf(bytes),
                    PackageFile::Script { shebang, .. } => {
                        census.count_script(Interpreter::classify(shebang))
                    }
                }
            }
        }
        census
    }

    /// Counts one ELF file by parsing its headers.
    pub fn count_elf(&mut self, bytes: &[u8]) {
        match ElfFile::parse(bytes) {
            Ok(elf) => self.count_class(elf.classify()),
            Err(_) => self.unparsable += 1,
        }
    }

    /// Counts one ELF file whose class is already known: what
    /// [`Self::count_elf`] counts for bytes that parse to `class`, for a
    /// caller (the analyzer) that has parsed them already.
    pub fn count_class(&mut self, class: BinaryClass) {
        *self.elf.entry(class).or_insert(0) += 1;
    }

    /// Counts one script by its shebang interpreter.
    pub fn count_script(&mut self, interp: Interpreter) {
        *self.scripts.entry(interp).or_insert(0) += 1;
    }

    /// Adds another census's counts to this one.
    pub fn merge(&mut self, other: &MixCensus) {
        for (&class, &n) in &other.elf {
            *self.elf.entry(class).or_insert(0) += n;
        }
        for (&interp, &n) in &other.scripts {
            *self.scripts.entry(interp).or_insert(0) += n;
        }
        self.unparsable += other.unparsable;
    }

    /// Total ELF files.
    pub fn elf_total(&self) -> usize {
        self.elf.values().sum()
    }

    /// Total scripts.
    pub fn script_total(&self) -> usize {
        self.scripts.values().sum()
    }

    /// Total executables (ELF + scripts).
    pub fn total(&self) -> usize {
        self.elf_total() + self.script_total()
    }

    /// Fraction of all executables that are ELF.
    pub fn elf_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.elf_total() as f64 / self.total() as f64
    }

    /// Fraction of scripts for one interpreter, over all executables.
    pub fn script_fraction(&self, interp: Interpreter) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.scripts.get(&interp).copied().unwrap_or(0) as f64
            / self.total() as f64
    }

    /// Among ELF files, the fraction in a given class.
    pub fn elf_class_fraction(&self, class: BinaryClass) -> f64 {
        let total = self.elf_total();
        if total == 0 {
            return 0.0;
        }
        self.elf.get(&class).copied().unwrap_or(0) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{CalibrationSpec, Scale};
    use crate::generate::SynthRepo;

    #[test]
    fn census_shape_matches_figure_1() {
        let repo = SynthRepo::new(
            Scale { packages: 300, installations: 10_000 },
            CalibrationSpec::default(),
            7,
        );
        let packages = repo.materialize_all();
        let census = MixCensus::scan(&packages);
        assert_eq!(census.unparsable, 0);
        // ELF share near 60%.
        let elf = census.elf_fraction();
        assert!((0.45..0.75).contains(&elf), "elf fraction {elf}");
        // dash is the largest script bucket.
        let dash = census.script_fraction(Interpreter::Dash);
        let ruby = census.script_fraction(Interpreter::Ruby);
        assert!(dash > ruby, "dash {dash} vs ruby {ruby}");
        // Shared libraries are roughly half of ELF files.
        let libs = census.elf_class_fraction(BinaryClass::SharedLib);
        assert!((0.2..0.8).contains(&libs), "lib fraction {libs}");
        // Static executables are rare.
        let stat = census.elf_class_fraction(BinaryClass::StaticExec);
        assert!(stat < 0.05, "static fraction {stat}");
    }
}
