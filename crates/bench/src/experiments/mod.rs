//! One module per figure family of the paper's evaluation.
//!
//! Every experiment is a pure function of a seed, returning an
//! [`ExperimentResult`] with the tables the paper's figure reports plus
//! paper-vs-measured notes. Ablation functions live next to the figures
//! they extend.

pub mod baselines;
pub mod degradation;
pub mod distributed;
pub mod lss;
pub mod metro;
pub mod multilateration;
pub mod ranging;
pub mod signal;
pub mod sync;
pub mod tracking;

use crate::Table;

/// Which side of its bound a [`Claim`]'s measured value must lie on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The measured value must not exceed the bound.
    AtMost,
    /// The measured value must reach the bound.
    AtLeast,
}

/// One of the paper's claims, checked on a run: the measured value
/// against a bound taken from the paper's number or direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is measured, e.g. `"F12 average error (m)"`.
    pub name: &'static str,
    /// The value this run measured.
    pub measured: f64,
    /// The paper's bound.
    pub bound: f64,
    /// Which side of `bound` the measured value must lie on.
    pub direction: Direction,
}

impl Claim {
    /// Whether the measured value lies on the bound's side; `NaN` fails.
    pub fn holds(&self) -> bool {
        match self.direction {
            Direction::AtMost => self.measured <= self.bound,
            Direction::AtLeast => self.measured >= self.bound,
        }
    }
}

impl core::fmt::Display for Claim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let verdict = if self.holds() { "pass" } else { "FAIL" };
        let op = match self.direction {
            Direction::AtMost => "<=",
            Direction::AtLeast => ">=",
        };
        write!(
            f,
            "{verdict} {}: {:.3} (paper: {op} {:.3})",
            self.name, self.measured, self.bound
        )
    }
}

/// The output of one experiment: identifier, result tables,
/// paper-vs-measured notes and the paper claims it checks.
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"F18"`.
    pub id: &'static str,
    /// Human-readable description of the workload.
    pub description: &'static str,
    /// Result tables (first one is the headline).
    pub tables: Vec<Table>,
    /// Notes comparing against the paper's reported numbers.
    pub notes: Vec<String>,
    /// The paper's claims, checked on this run.
    pub claims: Vec<Claim>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &'static str, description: &'static str) -> Self {
        ExperimentResult {
            id,
            description,
            tables: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Adds a table (builder style).
    pub fn with_table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Adds a note (builder style).
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Adds a claim (builder style).
    pub fn with_claim(
        mut self,
        name: &'static str,
        measured: f64,
        direction: Direction,
        bound: f64,
    ) -> Self {
        self.claims.push(Claim {
            name,
            measured,
            bound,
            direction,
        });
        self
    }

    /// Saves every table as CSV under `dir`, slugged by experiment id and
    /// table index.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_csvs(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut out = Vec::new();
        for (k, table) in self.tables.iter().enumerate() {
            let slug = format!("{}_{}", self.id.to_lowercase(), k);
            out.push(table.save_csv(dir, &slug)?);
        }
        Ok(out)
    }
}

impl core::fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "### [{}] {}", self.id, self.description)?;
        for table in &self.tables {
            writeln!(f, "{table}")?;
        }
        for note in &self.notes {
            writeln!(f, "  * {note}")?;
        }
        for claim in &self.claims {
            writeln!(f, "  claim {claim}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_builder_and_display() {
        let mut t = Table::new("t", &["a"]);
        t.push(&["1".into()]);
        let r = ExperimentResult::new("F0", "demo")
            .with_table(t)
            .with_note("paper: 1, measured: 1");
        let s = r.to_string();
        assert!(s.contains("[F0] demo"));
        assert!(s.contains("paper: 1"));
        assert_eq!(r.tables.len(), 1);
    }

    #[test]
    fn claims_print_their_verdict_and_nan_fails() {
        let r = ExperimentResult::new("F0", "demo")
            .with_claim("error (m)", 0.5, Direction::AtMost, 0.868)
            .with_claim("localized", 13.0, Direction::AtLeast, 14.0)
            .with_claim("no fix", f64::NAN, Direction::AtMost, 1.0);
        let held: Vec<bool> = r.claims.iter().map(Claim::holds).collect();
        assert_eq!(held, [true, false, false]);
        let s = r.to_string();
        assert!(
            s.contains("claim pass error (m): 0.500 (paper: <= 0.868)"),
            "{s}"
        );
        assert!(
            s.contains("claim FAIL localized: 13.000 (paper: >= 14.000)"),
            "{s}"
        );
    }
}
