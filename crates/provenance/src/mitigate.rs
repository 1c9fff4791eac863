//! Error mitigation: re-calibrating explanations.
//!
//! The paper (Sec. 2.2, Explainability): "Error mitigation is the ability to
//! re-calibrate provided explanations." When an explanation fails its
//! losslessness check — its citations no longer reproduce the answer, e.g.
//! because the annotation was corrupted in transit or produced by a
//! hallucinating generator — the mitigator **re-derives** the explanation
//! from a fresh, trusted execution of the same query and reports what was
//! wrong with the original.

use crate::checks::check_plan_losslessness;
use crate::explain::Explanation;
use crate::{ProvenanceError, Result};
use cda_sql::{execute, Catalog, ExecOptions};

/// The outcome of one mitigation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Mitigation {
    /// The re-derived, verified explanation.
    pub explanation: Explanation,
    /// Whether the original explanation was already sound (no repair needed).
    pub original_sound: bool,
    /// Citations present in the original but not supported by the replay.
    pub spurious_citations: usize,
    /// Citations missing from the original that the replay requires.
    pub missing_citations: usize,
}

/// Re-derive the explanation of result row `row` of `sql` and compare it
/// with `original`. The returned explanation is built from the trusted
/// replay: fresh lineage, fresh plan, and a passing losslessness report.
pub fn recalibrate(
    catalog: &Catalog,
    sql: &str,
    row: usize,
    original: &Explanation,
) -> Result<Mitigation> {
    let replay = execute(catalog, sql).map_err(|e| ProvenanceError::Replay(e.to_string()))?;
    if row >= replay.table.num_rows() {
        return Err(ProvenanceError::RowOutOfRange { row, len: replay.table.num_rows() });
    }
    let true_rows: std::collections::BTreeSet<_> = replay
        .table
        .lineage(row)
        .map_err(|e| ProvenanceError::Replay(e.to_string()))?
        .iter()
        .copied()
        .collect();
    let cited: std::collections::BTreeSet<_> = original.cited_rows.iter().copied().collect();
    let spurious_citations = cited.difference(&true_rows).count();
    let missing_citations = true_rows.difference(&cited).count();
    let lossless =
        check_plan_losslessness(catalog, &replay.plan, ExecOptions::default(), &replay.table, row)?;
    let original_sound =
        spurious_citations == 0 && missing_citations == 0 && original.code == sql;
    let explanation = Explanation::new(format!(
        "{} (re-derived{})",
        original.summary,
        if original_sound { "" } else { ", original explanation repaired" }
    ))
    .with_sources(original.sources.clone())
    .with_rows(true_rows.into_iter().collect())
    .with_plan(replay.plan.explain())
    .with_code(sql.to_owned())
    .with_verification(Some(lossless), None);
    Ok(Mitigation { explanation, original_sound, spurious_citations, missing_citations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, RowId, Schema, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("g", DataType::Str),
                Field::new("x", DataType::Int),
            ]),
            vec![Column::from_strs(&["a", "a", "b"]), Column::from_ints(&[1, 2, 3])],
        )
        .unwrap();
        c.register("t", t).unwrap();
        c
    }

    const SQL: &str = "SELECT g, SUM(x) AS s FROM t GROUP BY g ORDER BY g";

    fn honest_explanation(c: &Catalog) -> Explanation {
        let r = execute(c, SQL).unwrap();
        Explanation::new("sum per group")
            .with_sources(vec!["t".into()])
            .with_rows(r.table.lineage(0).unwrap().to_vec())
            .with_code(SQL)
    }

    #[test]
    fn sound_explanation_passes_unchanged() {
        let c = catalog();
        let original = honest_explanation(&c);
        let m = recalibrate(&c, SQL, 0, &original).unwrap();
        assert!(m.original_sound);
        assert_eq!(m.spurious_citations, 0);
        assert_eq!(m.missing_citations, 0);
        assert!(m.explanation.verified());
        assert!(!m.explanation.summary.contains("repaired"));
    }

    #[test]
    fn corrupted_citations_are_repaired() {
        let c = catalog();
        let tag = c.get("t").unwrap().tag;
        // cite a wrong row (row 2 belongs to group b) and miss row 1
        let original = Explanation::new("sum per group")
            .with_rows(vec![RowId::new(tag, 0), RowId::new(tag, 2)])
            .with_code(SQL);
        let m = recalibrate(&c, SQL, 0, &original).unwrap();
        assert!(!m.original_sound);
        assert_eq!(m.spurious_citations, 1); // row 2
        assert_eq!(m.missing_citations, 1); // row 1
        // the repaired explanation cites exactly the group-a rows
        assert_eq!(
            m.explanation.cited_rows,
            vec![RowId::new(tag, 0), RowId::new(tag, 1)]
        );
        assert!(m.explanation.summary.contains("repaired"));
        assert!(m.explanation.verified());
    }

    #[test]
    fn wrong_code_is_detected() {
        let c = catalog();
        let mut original = honest_explanation(&c);
        original.code = "SELECT COUNT(*) FROM t".into();
        let m = recalibrate(&c, SQL, 0, &original).unwrap();
        assert!(!m.original_sound);
        assert_eq!(m.explanation.code, SQL);
    }

    #[test]
    fn bad_row_rejected() {
        let c = catalog();
        let original = honest_explanation(&c);
        assert!(recalibrate(&c, SQL, 99, &original).is_err());
        assert!(recalibrate(&c, "SELECT nope FROM t", 0, &original).is_err());
    }
}
