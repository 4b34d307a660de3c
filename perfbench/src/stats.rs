//! Order statistics and a fine-grained latency histogram.

/// The `q`-quantile of `values` by nearest rank (sorts in place).
/// Returns NaN for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; NaN for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Log-bucketed histogram of nanosecond durations with 1% bucket growth:
/// quantiles are exact to within 1%, and memory stays fixed however long
/// the run, so the peak-RSS metric does not grow with run length.
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: u64,
}

const GROWTH: f64 = 1.01;
const BUCKETS: usize = 2600; // 1.01^2600 ns ≈ 1.7e11 ns: beyond any run.

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        let index = if ns <= 1 {
            0
        } else {
            ((ns as f64).ln() / GROWTH.ln()) as usize
        };
        self.buckets[index.min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += ns as f64;
        self.max = self.max.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        self.sum / self.count as f64
    }

    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Upper edge of the bucket holding the `q`-quantile (NaN when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return GROWTH.powi(i as i32 + 1).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Samples strictly above the `q`-quantile — the count a tail
    /// percentile rests on.
    pub fn beyond(&self, q: f64) -> u64 {
        self.count - ((q * self.count as f64).ceil() as u64).min(self.count)
    }
}
