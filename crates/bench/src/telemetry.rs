//! Telemetry wiring for the figure/table binaries.
//!
//! Every binary calls [`init_telemetry`] first thing in `main` and keeps
//! the returned guard alive for the whole run:
//!
//! ```text
//! ALSS_TELEMETRY=spans cargo run --features telemetry --bin fig4 -- --telemetry out.jsonl
//! ```
//!
//! `--telemetry <path>` (or `--telemetry=<path>`) is handed to
//! [`alss_telemetry::setup`], which documents the sinks and masks, and
//! `--threads <n>` sizes the global worker pool.

use alss_telemetry::TelemetryGuard;

/// Extract the `--telemetry <path>` / `--telemetry=<path>` flag from the
/// raw argument list, returning the path when present.
pub fn telemetry_path(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--telemetry" {
            return it.next().cloned();
        }
        if let Some(p) = a.strip_prefix("--telemetry=") {
            return Some(p.to_string());
        }
    }
    None
}

/// Extract the `--threads <n>` / `--threads=<n>` flag from the raw
/// argument list. `Some(0)` (or any unparsable value) is treated as
/// absent by [`init_telemetry`], falling back to auto-detection.
pub fn threads_flag(args: &[String]) -> Option<usize> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            return it.next().and_then(|v| v.trim().parse().ok());
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.trim().parse().ok();
        }
    }
    None
}

/// Drop the harness-level flags (`--telemetry <path>`, `--threads <n>`)
/// from an argument list, so dataset selection sees only dataset names.
pub fn strip_run_flags(args: Vec<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--telemetry" || a == "--threads" {
            it.next(); // its value
            continue;
        }
        if a.starts_with("--telemetry=") || a.starts_with("--threads=") {
            continue;
        }
        out.push(a);
    }
    out
}

/// Set up telemetry for a binary named `topic` from its own command line.
/// Must be called before any instrumented work; keep the returned guard
/// alive until exit.
pub fn init_telemetry(topic: &str) -> TelemetryGuard {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(n) = threads_flag(&args).filter(|&n| n > 0) {
        alss_core::set_global_threads(n);
        alss_telemetry::progress(topic, &format!("threads: {n}"));
    }
    alss_telemetry::setup(topic, telemetry_path(&args).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn path_extraction() {
        assert_eq!(
            telemetry_path(&strs(&["aids", "--telemetry", "out.jsonl"])),
            Some("out.jsonl".to_string())
        );
        assert_eq!(
            telemetry_path(&strs(&["--telemetry=t.jsonl", "yeast"])),
            Some("t.jsonl".to_string())
        );
        assert_eq!(telemetry_path(&strs(&["aids", "yeast"])), None);
        assert_eq!(telemetry_path(&strs(&["--telemetry"])), None);
    }

    #[test]
    fn flag_stripping() {
        assert_eq!(
            strip_run_flags(strs(&["aids", "--telemetry", "out.jsonl", "yeast"])),
            strs(&["aids", "yeast"])
        );
        assert_eq!(
            strip_run_flags(strs(&["--telemetry=x", "aids"])),
            strs(&["aids"])
        );
        assert_eq!(strip_run_flags(strs(&["aids"])), strs(&["aids"]));
        assert_eq!(
            strip_run_flags(strs(&["--threads", "4", "aids", "--telemetry=x"])),
            strs(&["aids"])
        );
        assert_eq!(
            strip_run_flags(strs(&["--threads=8", "yeast"])),
            strs(&["yeast"])
        );
    }

    #[test]
    fn threads_extraction() {
        assert_eq!(threads_flag(&strs(&["--threads", "4", "aids"])), Some(4));
        assert_eq!(threads_flag(&strs(&["aids", "--threads=16"])), Some(16));
        assert_eq!(threads_flag(&strs(&["aids"])), None);
        assert_eq!(threads_flag(&strs(&["--threads", "bogus"])), None);
        assert_eq!(threads_flag(&strs(&["--threads"])), None);
    }
}
