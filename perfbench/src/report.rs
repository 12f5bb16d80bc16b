//! Named metrics and the one-line JSON result.

use std::fmt::Write as _;

/// Metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`; a later value for the same name
    /// replaces the earlier one.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| *n == name) {
            *slot = (name, value, unit);
        } else {
            self.0.push((name, value, unit));
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Names whose values are not finite numbers.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.1.is_finite())
            .map(|m| m.0.as_str())
            .collect()
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            );
        }
        s.push('}');
        s
    }
}

/// What one run of a workload reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end or per-layer metrics, by trace mode.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives (a whole number keeps a trailing `.0`).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
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
    fn result_line_has_exactly_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.8127, "s");
        metrics.put("kbps", 5000.0, "kbit/s");
        metrics.put("setup_s", 0.9, "s");
        let line = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics,
        }
        .json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.9, \"unit\": \"s\"}, \
             \"kbps\": {\"value\": 5000.0, \"unit\": \"kbit/s\"}}}"
        );
        assert_eq!(quote("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
