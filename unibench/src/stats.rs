//! Sample summaries: median and quartiles, computed exactly as Python's
//! `statistics.quantiles(values, n=4)` (the default `exclusive` method)
//! so the figures here match any external spread check.

use crate::json::Json;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the `exclusive` method; both equal the
/// single value for one sample, `NaN` when empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// The highest percentile (whole percent) with at least ten samples
/// beyond it, and the value there, for samples sorted from best to worst;
/// `None` with fewer than eleven samples.
pub fn tail(worse_last: &[f64]) -> Option<(u32, f64)> {
    let n = worse_last.len();
    if n < 11 {
        return None;
    }
    let pct = ((n - 10) * 100 / n) as u32;
    let index = (pct as usize * n).div_ceil(100).saturating_sub(1);
    Some((pct, worse_last[index.min(n - 1)]))
}

/// A summary of one metric's samples within a run.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The headline value.
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Median headline over `samples`.
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Render with the unit.
    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(unit.to_string())),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 samples is the 30th; ten lie beyond it.
        assert_eq!(tail(&v), Some((75, 30.0)));
        assert_eq!(tail(&v[..10]), None);
    }
}
