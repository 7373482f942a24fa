//! Seeded input generation, order statistics and the result envelope.

/// SplitMix64: a tiny, seedable generator. Every op derives its own
/// stream from `(seed, op index)`, so an op's inputs do not depend on
/// how many ops or set-ups ran before it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for op `index` of a run seeded with `seed`.
    pub fn for_op(seed: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// Quartiles of `values` as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them: `(q1, median, q3)`.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |j: usize| {
                let m = (n + 1) as f64;
                let pos = j as f64 * m / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - lo as f64;
                v[lo - 1] + (v[lo] - v[lo - 1]) * frac
            };
            (at(1), median_sorted(&v), at(3))
        }
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One reported metric: its value, unit, and the samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value (for the envelope's quartiles).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is a single measured number.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: vec![value],
        }
    }

    /// A metric reported as the median of `samples`.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        let (_, med, _) = quartiles(&samples);
        Metric {
            name: name.into(),
            unit,
            value: med,
            samples,
        }
    }

    /// A metric reported as the best of `samples` (the lowest when
    /// `lower_is_better`, else the highest). Host interference only ever
    /// adds time, so the best round is the one closest to the program's
    /// own cost.
    pub fn best_of(
        name: impl Into<String>,
        unit: &'static str,
        samples: Vec<f64>,
        lower_is_better: bool,
    ) -> Self {
        let pick = if lower_is_better { f64::min } else { f64::max };
        let start = if lower_is_better {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        Metric {
            name: name.into(),
            unit,
            value: samples.iter().copied().fold(start, pick),
            samples,
        }
    }
}

/// Renders a finite `f64` as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn op_streams_are_reproducible() {
        assert_eq!(Rng::for_op(7, 3).bytes(40), Rng::for_op(7, 3).bytes(40));
        assert_ne!(Rng::for_op(7, 3).bytes(40), Rng::for_op(7, 4).bytes(40));
    }
}
