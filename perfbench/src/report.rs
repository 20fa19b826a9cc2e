//! The run's result: report lines while it runs, one JSON line at the
//! end of standard output.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// A run's result.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; main marks such a run
                // incorrect.
                let value =
                    if m.value.is_finite() { m.value.to_string() } else { "null".to_owned() };
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The process's peak resident memory so far (`VmHWM`). Workloads read
/// it as their timed section ends, before the report's own sample arrays
/// are built, so those do not count.
pub fn peak_rss_mb() -> f64 {
    apistudy_core::diagnostics::peak_rss_kb() as f64 / 1024.0
}

/// Lowers the process's `VmHWM` to its current resident memory, so that
/// a set-up the workload does not measure (the store a fleet replays, the
/// pipelines behind a server) does not set `peak_rss_mb`.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// The end-to-end metrics every workload reports (`--trace 0`).
pub fn end_to_end(setup_s: f64, ops_per_s: f64, p50_us: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("ops_per_s", ops_per_s, "1/s"),
        Metric::new("p50_us", p50_us, "us"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// One aligned report line.
pub fn line(what: &str, value: impl std::fmt::Display, note: impl std::fmt::Display) {
    println!("  {what:<28} {:<26} {note}", value.to_string());
}
