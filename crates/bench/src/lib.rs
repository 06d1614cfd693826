//! Shared harness support for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! and prints the measured values next to the paper's reported values so
//! the *shape* comparison (who wins, by roughly what factor, where the
//! crossovers fall) is visible at a glance. Absolute numbers are not
//! expected to match — the substrate is a reimplementation, not the
//! authors' Sparc cluster — and several literal parameters were lost in
//! the source text (see DESIGN.md §2).
//!
//! All binaries accept `--quick` for a fast smoke run (shorter simulated
//! time, fewer seeds) and `--seed N` to change the base seed.

#![forbid(unsafe_code)]

use infosleuth_sim::SimParams;

/// The paper's Table 3 values: `(experiment, stream label, ratio)`.
pub const PAPER_TABLE3: &[(usize, &str, f64)] = &[
    (1, "4A", 1.00),
    (2, "4A", 1.04),
    (2, "DA", 1.05),
    (2, "SA", 1.01),
    (3, "4A", 1.12),
    (3, "DA", 1.01),
    (3, "SA", 1.05),
    (3, "VF", 0.85),
    (4, "4A", 0.98),
    (4, "DA", 0.95),
    (4, "SA", 0.91),
    (4, "VF", 0.77),
    (4, "FH", 0.86),
    (5, "4A", 0.30),
    (5, "DA", 0.31),
    (5, "SA", 0.47),
    (5, "VF", 0.76),
    (5, "FH", 0.63),
    (5, "CH", 0.67),
];

/// The paper's Table 4 values (experiment 6): `(stream label, ratio)`.
pub const PAPER_TABLE4: &[(&str, f64)] =
    &[("4A", 0.86), ("DA", 0.86), ("SA", 0.87), ("VF", 0.74), ("FH", 0.60), ("CH", 0.29)];

/// The paper's Table 5: reply percentage by (failure mean, redundancy 1–5).
pub const PAPER_TABLE5: &[(f64, [f64; 5])] = &[
    (1_000_000.0, [99.56, 97.37, 100.00, 99.14, 100.00]),
    (3600.0, [77.64, 70.71, 69.87, 61.26, 63.45]),
    (1800.0, [37.50, 44.40, 46.69, 44.64, 59.41]),
    (900.0, [34.05, 26.47, 17.87, 22.90, 16.79]),
];

/// The paper's Table 6: located percentage by (failure mean, redundancy).
pub const PAPER_TABLE6: &[(f64, [f64; 5])] = &[
    (1_000_000.0, [100.00, 100.00, 100.00, 100.00, 100.00]),
    (3600.0, [75.00, 92.90, 92.22, 97.42, 100.00]),
    (1800.0, [75.86, 85.44, 95.58, 100.00, 100.00]),
    (900.0, [20.25, 76.19, 69.05, 86.67, 100.00]),
];

/// Paper value for one Table 3 cell, if reported.
pub fn paper_table3(expt: usize, stream: &str) -> Option<f64> {
    PAPER_TABLE3.iter().find(|(e, s, _)| *e == expt && *s == stream).map(|(_, _, v)| *v)
}

/// Paper value for one Table 4 cell.
pub fn paper_table4(stream: &str) -> Option<f64> {
    PAPER_TABLE4.iter().find(|(s, _)| *s == stream).map(|(_, v)| *v)
}

/// Parsed command-line options shared by all binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    pub params: SimParams,
    pub seed: u64,
    pub quick: bool,
}

/// Parses `--quick` and `--seed N` from `std::env::args`.
pub fn parse_args() -> HarnessOptions {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let params = if quick {
        let mut p = SimParams::quick();
        p.runs = 2;
        p
    } else {
        SimParams::default()
    };
    HarnessOptions { params, seed, quick }
}

/// Number of timed passes per measurement in the bench binaries.
pub const MEASURE_PASSES: usize = 5;

/// Sorts `(value, meta)` samples by value and returns the middle sample
/// (lower-middle for even counts, so the result is always a real
/// measurement, never an interpolation).
///
/// Bench binaries report median-of-N rather than best-of-N: best-of-N
/// systematically favours whichever variant happened to catch less
/// scheduler noise on its luckiest pass, which is how an earlier
/// `BENCH_churn.json` reported a physically impossible *negative*
/// observability overhead at 1k agents. The median is robust to
/// one-sided outliers and compares variants on equal footing.
pub fn median_sample<M: Copy>(mut samples: Vec<(f64, M)>) -> (f64, M) {
    assert!(!samples.is_empty(), "median of an empty sample set");
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    samples[(samples.len() - 1) / 2]
}

/// Median of plain values; see [`median_sample`].
pub fn median(samples: Vec<f64>) -> f64 {
    median_sample(samples.into_iter().map(|v| (v, ())).collect()).0
}

/// Formats a ratio/number column entry.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "  --".to_string()
    } else {
        format!("{v:5.2}")
    }
}

/// Formats a percentage entry.
pub fn fmt_pct(v: f64) -> String {
    if v.is_nan() {
        "   --".to_string()
    } else {
        format!("{:6.2}%", v * 100.0)
    }
}

/// Renders the machine-context block every `BENCH_*.json` writer embeds
/// as its `"meta"` value: CPU core count and the git commit the numbers
/// were taken at. Results files are only comparable across runs when
/// this context matches, so CI's bench-smoke job rejects files missing
/// either field.
pub fn run_meta() -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"cpu_cores\": {cores}, \"git_commit\": \"{commit}\"}}")
}

/// Prints a standard harness header.
pub fn header(what: &str, opts: &HarnessOptions) {
    println!("=== {what} ===");
    println!(
        "simulated {:.1} h per run, {} seeded runs averaged{} (base seed {})",
        opts.params.sim_duration_s / 3600.0,
        opts.params.runs,
        if opts.quick { " [--quick]" } else { "" },
        opts.seed,
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_meta_carries_both_fields() {
        let meta = run_meta();
        for key in ["\"cpu_cores\": ", "\"git_commit\": \""] {
            assert!(meta.contains(key), "missing {key} in {meta}");
        }
        // A zero-core stamp would mean the fallback is broken.
        assert!(!meta.contains("\"cpu_cores\": 0,"), "{meta}");
    }

    #[test]
    fn paper_lookup_tables() {
        assert_eq!(paper_table3(1, "4A"), Some(1.00));
        assert_eq!(paper_table3(5, "CH"), Some(0.67));
        assert_eq!(paper_table3(1, "CH"), None); // not run in experiment 1
        assert_eq!(paper_table4("CH"), Some(0.29));
        assert_eq!(paper_table4("XX"), None);
        assert_eq!(PAPER_TABLE5.len(), 4);
        assert_eq!(PAPER_TABLE6[0].1[4], 100.0);
    }

    #[test]
    fn median_is_a_real_sample_and_robust_to_outliers() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        // Even count: lower-middle, still a real sample.
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.0);
        // One wild outlier does not move the median (it would set best-of-N).
        assert_eq!(median(vec![10.0, 11.0, 0.1, 12.0, 10.5]), 10.5);
        let (v, meta) = median_sample(vec![(2.0, "b"), (1.0, "a"), (3.0, "c")]);
        assert_eq!((v, meta), (2.0, "b"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt(1.0), " 1.00");
        assert_eq!(fmt(f64::NAN), "  --");
        assert_eq!(fmt_pct(0.5), " 50.00%");
    }
}
