//! Order statistics over timing samples.

/// The `p`-th percentile (`0..=100`) by linear interpolation between
/// closest ranks, as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")` compute it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// The median, or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The tail percentile a sample set supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (50, 90, 99 or 99.9).
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond
/// it, with the sample count; `None` below 20 samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len() as f64;
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| Tail {
            p,
            value: percentile(samples, p).expect("non-empty"),
            samples: samples.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&s, 25.0), Some(1.75));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&s, 101.0), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.p, t.samples), (50.0, 20));
        let t = tail(&ramp(99)).unwrap();
        assert_eq!(t.p, 50.0);
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.p, t.samples), (90.0, 100));
        assert!((t.value - 90.1).abs() < 1e-9);
        assert_eq!(tail(&ramp(1000)).unwrap().p, 99.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().p, 99.9);
    }
}
