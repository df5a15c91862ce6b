//! Sample summaries: medians, the tail-percentile rule and the layer-sum
//! check.

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: u64 = 10;

/// Percentiles the tail rule climbs, in basis points (`9900` = p99).
pub const LADDER_BP: [u32; 5] = [5000, 9000, 9900, 9990, 9999];

/// The highest ladder percentile (basis points) with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median is unsupported.
pub fn supported_bp(n: usize) -> Option<u32> {
    LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n as u64 * u64::from(10_000 - bp) >= MIN_BEYOND * 10_000)
}

/// The percentile a metric asking for `wanted_bp` reports from `n`
/// samples: `wanted_bp` itself when the sample supports it, otherwise the
/// highest supported ladder step below it.
pub fn tail_bp(n: usize, wanted_bp: u32) -> u32 {
    supported_bp(n).map_or(LADDER_BP[0], |bp| bp.min(wanted_bp))
}

/// Formats basis points as a percentile label (`9900` → `p99`).
pub fn bp_label(bp: u32) -> String {
    if bp.is_multiple_of(100) {
        format!("p{}", bp / 100)
    } else {
        format!("p{}", f64::from(bp) / 100.0)
    }
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile_sorted(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as u64 * u64::from(bp)).div_ceil(10_000).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank); NaN when it is empty, which
/// makes the run incorrect rather than report a made-up number.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        f64::NAN
    } else {
        percentile_sorted(&v, 5000)
    }
}

/// A sorted latency (or other) sample with its summary statistics.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts `values`; an empty sample is allowed and summarises as 0.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Median, or 0 for an empty sample.
    pub fn p50(&self) -> f64 {
        self.at(5000)
    }

    /// The value at `bp`, or 0 for an empty sample.
    pub fn at(&self, bp: u32) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile_sorted(&self.sorted, bp)
        }
    }

    /// The tail value a metric asking for `wanted_bp` reports, with the
    /// percentile actually used (see [`tail_bp`]).
    pub fn tail(&self, wanted_bp: u32) -> (u32, f64) {
        let bp = tail_bp(self.n(), wanted_bp);
        (bp, self.at(bp))
    }

    /// Largest value, or 0 for an empty sample.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// One report line: `n`, then every ladder percentile the sample
    /// supports, then the maximum.
    pub fn describe(&self, unit: &str) -> String {
        let top = supported_bp(self.n()).unwrap_or(LADDER_BP[0]);
        let steps: Vec<String> = LADDER_BP
            .iter()
            .filter(|&&bp| bp <= top)
            .map(|&bp| format!("{}={:.2}{unit}", bp_label(bp), self.at(bp)))
            .collect();
        format!("n={} {} max={:.2}{unit}", self.n(), steps.join(" "), self.max())
    }
}

/// How much of an end-to-end median the named layers explain. The layers
/// plus [`LayerSum::remainder`] add up to the total by construction; the
/// check is that the remainder stays a small share of it.
#[derive(Clone, Debug)]
pub struct LayerSum {
    /// The end-to-end median being explained.
    pub total: f64,
    /// `(layer name, median self time)` in the total's unit.
    pub layers: Vec<(&'static str, f64)>,
}

impl LayerSum {
    /// Largest share of the total the remainder may take, either sign.
    pub const MAX_UNEXPLAINED: f64 = 0.25;

    /// Sum of the named layers.
    pub fn explained(&self) -> f64 {
        self.layers.iter().map(|(_, v)| v).sum()
    }

    /// Total minus the named layers (negative when they overshoot).
    pub fn remainder(&self) -> f64 {
        self.total - self.explained()
    }

    /// Whether the named layers explain the total up to
    /// [`Self::MAX_UNEXPLAINED`] of it.
    pub fn holds(&self) -> bool {
        self.total > 0.0 && self.remainder().abs() <= Self::MAX_UNEXPLAINED * self.total
    }

    /// One report line listing every layer's share of the total.
    pub fn describe(&self, remainder_name: &str) -> String {
        let share = |v: f64| if self.total > 0.0 { 100.0 * v / self.total } else { 0.0 };
        let mut parts: Vec<String> = self
            .layers
            .iter()
            .map(|(name, v)| format!("{name} {v:.2} ({:.1}%)", share(*v)))
            .collect();
        parts.push(format!(
            "{remainder_name} {:.2} ({:.1}%)",
            self.remainder(),
            share(self.remainder())
        ));
        format!(
            "total {:.2} = {} [{}]",
            self.total,
            parts.join(" + "),
            if self.holds() { "layers explain the total" } else { "LAYER SUM OFF" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_bp(0), None);
        assert_eq!(supported_bp(19), None);
        assert_eq!(supported_bp(20), Some(5000));
        assert_eq!(supported_bp(99), Some(5000));
        assert_eq!(supported_bp(100), Some(9000));
        assert_eq!(supported_bp(999), Some(9000));
        assert_eq!(supported_bp(1000), Some(9900));
        assert_eq!(supported_bp(9999), Some(9900));
        assert_eq!(supported_bp(10_000), Some(9990));
        assert_eq!(supported_bp(100_000), Some(9999));
        // A metric named p99 never reports beyond p99, and falls back when
        // the sample is too small.
        assert_eq!(tail_bp(50_000, 9900), 9900);
        assert_eq!(tail_bp(850, 9900), 9000);
        assert_eq!(tail_bp(5, 9900), 5000);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Summary::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.n(), 1000);
        assert_eq!(s.p50(), 500.0);
        assert_eq!(s.tail(9900), (9900, 990.0));
        assert_eq!(s.max(), 1000.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(bp_label(9900), "p99");
        assert_eq!(bp_label(9990), "p99.9");
        assert_eq!(Summary::new(Vec::new()).p50(), 0.0);
    }

    #[test]
    fn layer_sum_check() {
        let fits = LayerSum { total: 100.0, layers: vec![("a", 60.0), ("b", 30.0)] };
        assert_eq!(fits.remainder(), 10.0);
        assert!(fits.holds());
        let short = LayerSum { total: 100.0, layers: vec![("a", 60.0)] };
        assert!(!short.holds(), "40% unexplained must fail");
        let over = LayerSum { total: 100.0, layers: vec![("a", 90.0), ("b", 40.0)] };
        assert_eq!(over.remainder(), -30.0);
        assert!(!over.holds(), "layers exceeding the total by 30% must fail");
        assert!(!LayerSum { total: 0.0, layers: vec![] }.holds());
        assert!(fits.describe("rest").contains("rest 10.00 (10.0%)"));
    }
}
