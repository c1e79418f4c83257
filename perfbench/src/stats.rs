//! Order statistics behind the end-to-end metrics.

use msp_analysis::stats::Summary;

/// Candidate percentiles for `op_tail_ms`, highest first.
const TAIL_LADDER: [u32; 8] = [99, 98, 95, 90, 85, 80, 75, 50];

/// The highest ladder percentile that leaves at least ten of `ops`
/// samples beyond it. The harness calls it with the length of the
/// workload's op list, so two builds of the same workload always report
/// the same percentile.
pub fn tail_percentile(ops: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| ops * (100 - p as usize) >= 1000)
        .unwrap_or(50)
}

/// Throughput of the median pass: each `(work, seconds)` pass is turned
/// into a rate and the median rate is reported, so one pass hit by a host
/// stall moves the result far less than a mean over ops would.
pub fn median_pass_rate(passes: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = passes.iter().map(|&(work, secs)| work / secs).collect();
    Summary::quantile(&rates, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_ops_beyond_the_percentile() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(240), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(80), 85);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(3), 50);
        for ops in 20..5000 {
            let p = tail_percentile(ops) as usize;
            assert!(ops * (100 - p) >= 1000, "{ops} ops at p{p}");
            // The next ladder rung up would leave fewer than ten.
            if let Some(&up) = TAIL_LADDER.iter().rev().find(|&&q| q as usize > p) {
                assert!(
                    ops * (100 - up as usize) < 1000,
                    "{ops} ops could use p{up}"
                );
            }
        }
    }

    #[test]
    fn median_pass_rate_ignores_one_stalled_pass() {
        let steady = [(100.0, 1.0), (100.0, 1.01), (100.0, 0.99)];
        let stalled = [(100.0, 1.0), (100.0, 1.01), (100.0, 0.99), (100.0, 5.0)];
        assert_eq!(median_pass_rate(&steady), 100.0);
        let with_stall = median_pass_rate(&stalled);
        assert!((with_stall - 99.5).abs() < 0.1, "{with_stall}");
        // A mean rate over the same passes drops by a fifth.
        let mean: f64 = stalled.iter().map(|(w, s)| w / s).sum::<f64>() / 4.0;
        assert!(mean < 81.0, "{mean}");
    }
}
