//! Run results: failure tallies and named metrics, printed as a table
//! and as the one-line JSON result.

use std::collections::BTreeMap;

/// Attempted and failed operations, the cache labels of answers, and the
/// first few failure reasons.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub labels: BTreeMap<String, u64>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, label: &str) {
        self.attempted += 1;
        *self.labels.entry(label.to_owned()).or_default() += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.labels {
            *self.labels.entry(k).or_default() += v;
        }
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Lines printed before the metric table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable part: notes, tallies and one line per metric.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out.push_str(&format!(
            "  attempted {}  failed {}  labels {:?}\n",
            self.tally.attempted, self.tally.failed, self.tally.labels
        ));
        for e in &self.tally.errors {
            out.push_str(&format!("  failure: {e}\n"));
        }
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<28} {:>14.6} {:<6} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
