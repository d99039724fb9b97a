//! Metrics, statistics, operation accounting and the result line.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; NaN
/// when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Attempted and failed operations, by kind.
#[derive(Debug, Default)]
pub struct Ops {
    kinds: BTreeMap<String, (u64, u64)>,
}

impl Ops {
    /// Count one operation of `kind`.
    pub fn record(&mut self, kind: &str, ok: bool) {
        self.add(kind, 1, u64::from(!ok));
    }

    /// Count `attempted` operations of `kind`, `failed` of which failed.
    pub fn add(&mut self, kind: &str, attempted: u64, failed: u64) {
        let e = self.kinds.entry(kind.to_string()).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    /// Totals over every kind.
    pub fn totals(&self) -> (u64, u64) {
        self.kinds
            .values()
            .fold((0, 0), |(a, f), (ka, kf)| (a + ka, f + kf))
    }

    /// One `ops:` line per kind.
    pub fn lines(&self) -> Vec<String> {
        self.kinds
            .iter()
            .map(|(k, (a, f))| format!("ops: {k:<16} attempted={a:<8} failed={f}"))
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let (attempted, failed) = ops.totals();
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let v = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("result renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ops_total_every_kind() {
        let mut ops = Ops::default();
        ops.record("train", true);
        ops.add("best_oc", 10, 1);
        assert_eq!(ops.totals(), (11, 1));
        assert_eq!(ops.lines().len(), 2);
    }
}
