//! Table-formatted reporting for the figure binaries.

use crate::perf::PerfEntry;

/// Prints the header of a Fig. 5-style comparison table.
pub fn fig5_header() {
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>10} {:>8}",
        "op", "index", "thpt (op/s)", "B/elem", "latency", "rounds"
    );
    println!("{}", "-".repeat(72));
}

/// Prints one measured row.
pub fn row(m: &PerfEntry) {
    println!(
        "{:<10} {:<14} {:>12.3e} {:>12.1} {:>9.2}ms {:>8}",
        m.op,
        m.index,
        m.throughput,
        m.traffic,
        m.total_s * 1e3,
        m.rounds
    );
}

/// Prints a blank separator.
pub fn sep() {
    println!();
}

/// Geometric mean of a ratio series.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 1.0);
    }
}
