//! Order statistics over the few samples a run produces.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so the harness and `aa.sh` agree with the driver.
/// One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = i * (n + 1) / 4;
        let j = j.clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, and the sample at that percentile. With fewer
/// than twenty samples nothing qualifies and the median is returned.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    for q in [0.9999, 0.999, 0.99, 0.95, 0.9, 0.75] {
        let beyond = (n as f64 * (1.0 - q)).floor() as usize;
        if beyond >= 10 {
            return (q, v[n - 1 - beyond]);
        }
    }
    (0.5, v[n / 2])
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
