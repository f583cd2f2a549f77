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

use crate::gate::Gate;
use crate::Table;

/// The output of one experiment: identifier, result tables,
/// paper-vs-measured notes and the gates it checks (the paper's claims,
/// plus the budgets of the experiments beyond the paper).
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
    /// The gates this run checked; the `figures` binary records them.
    pub gates: Vec<Gate>,
}

impl ExperimentResult {
    /// Creates an empty result.
    pub fn new(id: &'static str, description: &'static str) -> Self {
        ExperimentResult {
            id,
            description,
            tables: Vec::new(),
            notes: Vec::new(),
            gates: Vec::new(),
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

    /// Adds a gate (builder style).
    pub fn with_gate(mut self, gate: Gate) -> Self {
        self.gates.push(gate);
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
}
