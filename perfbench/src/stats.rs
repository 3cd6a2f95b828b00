//! Order statistics, output checksums and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// FNV-1a over a request id and its logits' bit patterns — the same
/// per-reply hash `mime loadgen` XOR-folds into its logits checksum, so
/// the fold is independent of reply order.
pub fn reply_hash(id: u64, logits: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for b in id.to_le_bytes() {
        eat(b);
    }
    for v in logits {
        for b in v.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// Bit-exact equality of two logit vectors.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Outcome tally of one run: what was attempted, what failed (an error
/// reply, a lost request, or an output that differs from the reference),
/// and the XOR-folded checksums of served and reference outputs.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub served_sum: u64,
    pub reference_sum: u64,
}

impl Tally {
    /// Records one output against its reference.
    pub fn check(&mut self, id: u64, got: Option<&[f32]>, want: &[f32]) {
        self.attempted += 1;
        self.reference_sum ^= reply_hash(id, want);
        match got {
            Some(g) => {
                self.served_sum ^= reply_hash(id, g);
                if !same_bits(g, want) {
                    self.failed += 1;
                }
            }
            None => self.failed += 1,
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.served_sum ^= other.served_sum;
        self.reference_sum ^= other.reference_sum;
    }

    /// The correctness gate: every output arrived and matched its
    /// reference bit for bit, and the checksums agree.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.served_sum == self.reference_sum
    }

    /// Share of attempted requests that succeeded with the right output.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// Metric names in insertion order.
    pub fn names(&self) -> Vec<String> {
        self.0.iter().map(|(n, _, _)| n.clone()).collect()
    }

    /// Renders the JSON object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ =
                write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tally_gates_on_bits_and_checksums() {
        let mut t = Tally::default();
        t.check(1, Some(&[1.0, 2.0]), &[1.0, 2.0]);
        assert!(t.correct());
        t.check(2, Some(&[1.0, -0.0]), &[1.0, 0.0]);
        assert!(!t.correct());
        assert_eq!(t.failed, 1);
        let mut lost = Tally::default();
        lost.check(3, None, &[0.5]);
        assert!(!lost.correct());
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("a", 2.0, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 2.0, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}"
        );
    }
}
