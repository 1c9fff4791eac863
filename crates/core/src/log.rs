//! The session query log — itself a data source (layer ⓓ).
//!
//! The paper: "the system will access documents and text, which may include
//! past conversations between the user and the system, and query logs." The
//! [`QueryLog`] records every turn (utterance, intent, executed code,
//! outcome, confidence), can be **queried with SQL like any other dataset**
//! (it renders itself as a table registered in a catalog), and feeds the
//! bias screen of [`cda_nlmodel::bias`].

use cda_dataframe::{Column, DataType, Field, Schema, Table};

/// Outcome class of a logged turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOutcome {
    /// The system answered.
    Answered,
    /// The system asked a clarification question.
    Clarified,
    /// The system abstained.
    Abstained,
}

impl LoggedOutcome {
    /// Stable label used in the log table.
    pub fn label(self) -> &'static str {
        match self {
            LoggedOutcome::Answered => "answered",
            LoggedOutcome::Clarified => "clarified",
            LoggedOutcome::Abstained => "abstained",
        }
    }
}

/// One logged turn.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Turn index.
    pub turn: usize,
    /// The user utterance.
    pub utterance: String,
    /// Classified intent label.
    pub intent: String,
    /// Executed SQL/code, when any ran.
    pub code: Option<String>,
    /// Outcome class.
    pub outcome: LoggedOutcome,
    /// Confidence attached to the answer, when any.
    pub confidence: Option<f64>,
}

/// The append-only session query log.
#[derive(Debug, Clone, Default)]
pub struct QueryLog {
    entries: Vec<LogEntry>,
}

impl QueryLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one entry.
    pub fn record(&mut self, entry: LogEntry) {
        self.entries.push(entry);
    }

    /// The entries, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of logged turns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fraction of answered turns (1.0 for the empty log).
    pub fn answer_rate(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        self.entries.iter().filter(|e| e.outcome == LoggedOutcome::Answered).count() as f64
            / self.entries.len() as f64
    }

    /// The utterance texts (the corpus handed to the bias screen).
    pub fn utterances(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.utterance.as_str()).collect()
    }

    /// Render the log as a queryable table: `(turn, utterance, intent,
    /// outcome, confidence)` — registerable in a catalog like any dataset.
    #[expect(clippy::expect_used, reason = "schema and columns are built together here")]
    pub fn to_table(&self) -> Table {
        let turns: Vec<i64> = self.entries.iter().map(|e| e.turn as i64).collect();
        let utterances: Vec<String> =
            self.entries.iter().map(|e| e.utterance.clone()).collect();
        let intents: Vec<String> = self.entries.iter().map(|e| e.intent.clone()).collect();
        let outcomes: Vec<String> =
            self.entries.iter().map(|e| e.outcome.label().to_owned()).collect();
        let confidences: Vec<Option<f64>> =
            self.entries.iter().map(|e| e.confidence).collect();
        Table::from_columns(
            Schema::new(vec![
                Field::new("turn", DataType::Int),
                Field::new("utterance", DataType::Str),
                Field::new("intent", DataType::Str),
                Field::new("outcome", DataType::Str),
                Field::new("confidence", DataType::Float),
            ]),
            vec![
                Column::from_ints(&turns),
                Column::from_strings(utterances),
                Column::from_strings(intents),
                Column::from_strings(outcomes),
                Column::from_opt_floats(&confidences),
            ],
        )
        .expect("schema matches columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_sql::{execute, Catalog};

    fn sample() -> QueryLog {
        let mut log = QueryLog::new();
        log.record(LogEntry {
            turn: 0,
            utterance: "overview of the workforce".into(),
            intent: "dataset-discovery".into(),
            code: None,
            outcome: LoggedOutcome::Clarified,
            confidence: Some(0.88),
        });
        log.record(LogEntry {
            turn: 1,
            utterance: "total employees per canton".into(),
            intent: "analysis".into(),
            code: Some("SELECT ...".into()),
            outcome: LoggedOutcome::Answered,
            confidence: Some(0.86),
        });
        log.record(LogEntry {
            turn: 2,
            utterance: "something impossible".into(),
            intent: "analysis".into(),
            code: None,
            outcome: LoggedOutcome::Abstained,
            confidence: None,
        });
        log
    }

    #[test]
    fn recording_and_rates() {
        let log = sample();
        assert_eq!(log.len(), 3);
        assert!((log.answer_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(QueryLog::new().answer_rate(), 1.0);
        assert_eq!(log.utterances().len(), 3);
    }

    #[test]
    fn log_is_sql_queryable() {
        let log = sample();
        let mut catalog = Catalog::new();
        catalog.register("query_log", log.to_table()).unwrap();
        let r = execute(
            &catalog,
            "SELECT outcome, COUNT(*) AS n FROM query_log GROUP BY outcome ORDER BY outcome",
        )
        .unwrap();
        assert_eq!(r.table.num_rows(), 3);
        // NULL confidence survives the round trip
        let r = execute(&catalog, "SELECT COUNT(confidence) FROM query_log").unwrap();
        assert_eq!(r.table.value(0, 0).unwrap(), cda_dataframe::Value::Int(2));
    }

    #[test]
    fn outcome_labels() {
        assert_eq!(LoggedOutcome::Answered.label(), "answered");
        assert_eq!(LoggedOutcome::Abstained.label(), "abstained");
    }
}
