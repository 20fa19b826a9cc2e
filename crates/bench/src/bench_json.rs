//! The one patcher for `BENCH_pipeline.json`, the hand-maintained
//! baseline file the smoke gates record their medians into, and the one
//! check that a smoke's `--check` mode runs against it.
//!
//! The file is edited line by line, never re-serialized. A measured key
//! is rewritten in place, keeping its indent and trailing comma; a key
//! the file does not have yet is inserted right after
//! `"results_ns": {`. Every other byte — notes, other sections, key
//! order — stays as committed.

/// The baseline file, relative to the workspace root the smokes run
/// from.
const BENCH_JSON: &str = "BENCH_pipeline.json";

/// Writes each `(key, value)` into `BENCH_pipeline.json` (see the module
/// docs for how the file is patched).
pub fn record(results: &[(&str, u128)]) -> std::io::Result<()> {
    let text = std::fs::read_to_string(BENCH_JSON)?;
    std::fs::write(BENCH_JSON, patch(&text, results))
}

/// Reads one integer key back out of `BENCH_pipeline.json`: `None` when
/// the file or the key is missing, or its value is not an integer.
pub fn recorded(key: &str) -> Option<u128> {
    lookup(&std::fs::read_to_string(BENCH_JSON).ok()?, key)
}

/// Which side of its recorded value a measurement must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A time or a latency: at most `slack` times the recorded value.
    Ceiling,
    /// A throughput: at least the recorded value divided by `slack`.
    Floor,
}

/// Checks `measured` against `key`'s committed value in
/// `BENCH_pipeline.json`, `slack` (a factor of at least 1) away on the
/// side `bound` names. Prints one `check:` line, and a `FAIL:` line on a
/// regression; returns whether the measurement passed. A key the file
/// lacks fails: with no baseline there is nothing to hold the run to.
pub fn check_against_recorded(
    key: &str,
    measured: f64,
    bound: Bound,
    slack: f64,
) -> bool {
    let Some(base) = recorded(key) else {
        eprintln!("FAIL: BENCH_pipeline.json records no {key}");
        return false;
    };
    let (word, limit, ok) = limit(measured, base, bound, slack);
    println!(
        "check: {key} {measured:.0} vs recorded {base} ({word} {limit:.0})"
    );
    if !ok {
        eprintln!("FAIL: {key} regressed past {slack}x its recorded value");
    }
    ok
}

/// The arithmetic behind [`check_against_recorded`]: the limit's name,
/// the limit, and whether `measured` stays within it.
fn limit(
    measured: f64,
    base: u128,
    bound: Bound,
    slack: f64,
) -> (&'static str, f64, bool) {
    match bound {
        Bound::Ceiling => {
            let cap = base as f64 * slack;
            ("cap", cap, measured <= cap)
        }
        Bound::Floor => {
            let floor = base as f64 / slack;
            ("floor", floor, measured >= floor)
        }
    }
}

/// Whether `line` holds `key`'s entry.
fn holds(line: &str, key: &str) -> bool {
    line.trim_start().starts_with(&format!("\"{key}\":"))
}

/// The text transform behind [`record`].
fn patch(text: &str, results: &[(&str, u128)]) -> String {
    let mut missing: Vec<&(&str, u128)> = results
        .iter()
        .filter(|(key, _)| !text.lines().any(|line| holds(line, key)))
        .collect();
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        let indent = &body[..body.len() - body.trim_start().len()];
        let hit = results.iter().find(|(key, _)| holds(body, key));
        if let Some((key, value)) = hit {
            let comma = if body.trim_end().ends_with(',') { "," } else { "" };
            out.push_str(&format!("{indent}\"{key}\": {value}{comma}"));
            out.push_str(&line[body.len()..]);
            continue;
        }
        out.push_str(line);
        if body.trim_start().starts_with("\"results_ns\"") {
            for (key, value) in missing.drain(..) {
                out.push_str(&format!("{indent}  \"{key}\": {value},\n"));
            }
        }
    }
    out
}

/// The text lookup behind [`recorded`].
fn lookup(text: &str, key: &str) -> Option<u128> {
    let prefix = format!("\"{key}\":");
    let rest = text
        .lines()
        .find_map(|line| line.trim().strip_prefix(prefix.as_str()))?;
    rest.trim().trim_end_matches(',').parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pipeline.json"
    ));

    /// Every `"key": <integer>` entry of the committed file.
    fn committed_values() -> Vec<(&'static str, u128)> {
        COMMITTED
            .lines()
            .filter_map(|line| {
                let (key, value) = line.trim().split_once("\": ")?;
                let value = value.trim_end_matches(',').parse().ok()?;
                Some((key.strip_prefix('"')?, value))
            })
            .collect()
    }

    #[test]
    fn re_recording_the_committed_values_is_byte_identical() {
        let values = committed_values();
        assert!(values.len() > 40, "found {} integer keys", values.len());
        assert_eq!(patch(COMMITTED, &values), COMMITTED);
        for (key, value) in &values {
            assert_eq!(lookup(COMMITTED, key), Some(*value), "{key}");
        }
    }

    #[test]
    fn a_changed_value_rewrites_only_its_own_line() {
        let out = patch(COMMITTED, &[("serve_p99_us", 1234)]);
        assert_eq!(out.lines().count(), COMMITTED.lines().count());
        let moved: Vec<(&str, &str)> = COMMITTED
            .lines()
            .zip(out.lines())
            .filter(|(old, new)| old != new)
            .collect();
        assert_eq!(moved.len(), 1, "exactly one line moves: {moved:?}");
        assert!(holds(moved[0].0, "serve_p99_us"));
        assert_eq!(moved[0].1, "    \"serve_p99_us\": 1234,");
        assert_eq!(lookup(&out, "serve_p99_us"), Some(1234));
    }

    #[test]
    fn limits_admit_exactly_the_slack() {
        let cap = limit(400.0, 200, Bound::Ceiling, 2.0);
        assert_eq!(cap, ("cap", 400.0, true));
        assert!(!limit(400.5, 200, Bound::Ceiling, 2.0).2);
        assert_eq!(limit(50.0, 100, Bound::Floor, 2.0), ("floor", 50.0, true));
        assert!(!limit(49.5, 100, Bound::Floor, 2.0).2);
        // A faster run always passes, however far it moved.
        assert!(limit(1.0, 200, Bound::Ceiling, 1.5).2);
        assert!(limit(1e9, 100, Bound::Floor, 1.5).2);
    }

    #[test]
    fn a_new_key_lands_in_results_ns() {
        let out = patch(COMMITTED, &[("brand_new_key", 7)]);
        let mut lines: Vec<&str> = out.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.trim_start().starts_with("\"results_ns\": {"))
            .expect("results_ns");
        assert_eq!(lines.remove(at + 1), "    \"brand_new_key\": 7,");
        assert_eq!(lines, COMMITTED.lines().collect::<Vec<_>>());
        assert_eq!(lookup(&out, "brand_new_key"), Some(7));
        // Recording it again rewrites in place instead of inserting twice.
        assert_eq!(patch(&out, &[("brand_new_key", 7)]), out);
    }
}
