//! Execution-based verification.
//!
//! The paper: soundness is achieved when "the system should be able to
//! verify how answers are generated". For NL2SQL, the executable check is
//! *execution accuracy*: run candidate and gold against the same catalog and
//! compare result tables as multisets of rows (order-insensitive, since two
//! equivalent programs may order output differently).

use cda_dataframe::{Table, Value};
use cda_sql::{execute, Catalog};
use std::collections::HashMap;

/// Compare two tables as multisets of rows (schema arity must match; column
/// names are ignored, as aliases differ between equivalent programs).
pub fn tables_equal_unordered(a: &Table, b: &Table) -> bool {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return false;
    }
    let mut counts: HashMap<Vec<Value>, i64> = HashMap::new();
    for i in 0..a.num_rows() {
        let Ok(row) = a.row(i) else { return false };
        *counts.entry(row).or_insert(0) += 1;
    }
    for i in 0..b.num_rows() {
        let Ok(row) = b.row(i) else { return false };
        match counts.get_mut(&row) {
            Some(c) => *c -= 1,
            None => return false,
        }
    }
    counts.values().all(|&c| c == 0)
}

/// Whether `candidate_sql` is execution-accurate against `gold_sql`: both
/// execute, and their results agree as unordered multisets. A candidate that
/// fails to execute is *incorrect* (not an error — that is the signal).
pub fn execution_accuracy(catalog: &Catalog, candidate_sql: &str, gold_sql: &str) -> bool {
    let Ok(gold) = execute(catalog, gold_sql) else {
        return false;
    };
    let Ok(cand) = execute(catalog, candidate_sql) else {
        return false;
    };
    tables_equal_unordered(&cand.table, &gold.table)
}

/// The canonical signature of a result table: a deterministic fingerprint
/// of its row multiset. Two executions with the same signature are
/// execution-equivalent — the clustering key of consistency-based UQ. It is
/// independent of the engine that produced the table (both engine paths are
/// differentially certified byte-identical).
pub fn result_signature(t: &Table) -> String {
    let mut rows: Vec<String> = (0..t.num_rows())
        .map(|i| {
            let cells: Vec<String> =
                t.row(i).unwrap_or_default().iter().map(Value::to_string).collect();
            cells.join("\u{1}")
        })
        .collect();
    rows.sort_unstable();
    format!("{}cols\u{2}{}", t.num_columns(), rows.join("\u{2}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new("canton", DataType::Str),
                Field::new("jobs", DataType::Int),
            ]),
            vec![Column::from_strs(&["ZH", "GE", "VD"]), Column::from_ints(&[100, 50, 30])],
        )
        .unwrap();
        c.register("emp", t).unwrap();
        c
    }

    #[test]
    fn order_insensitive_equality() {
        let c = catalog();
        let asc = execute(&c, "SELECT canton FROM emp ORDER BY jobs").unwrap();
        let desc = execute(&c, "SELECT canton FROM emp ORDER BY jobs DESC").unwrap();
        assert!(tables_equal_unordered(&asc.table, &desc.table));
    }

    #[test]
    fn multiset_semantics_detect_duplicates() {
        let c = catalog();
        let all = execute(&c, "SELECT 1 FROM emp").unwrap(); // three 1s
        let one = execute(&c, "SELECT 1 FROM emp LIMIT 1").unwrap();
        assert!(!tables_equal_unordered(&all.table, &one.table));
    }

    #[test]
    fn execution_accuracy_against_gold() {
        let c = catalog();
        assert!(execution_accuracy(
            &c,
            "SELECT SUM(jobs) AS s FROM emp",
            "SELECT SUM(jobs) AS result FROM emp"
        ));
        assert!(!execution_accuracy(&c, "SELECT MAX(jobs) FROM emp", "SELECT SUM(jobs) FROM emp"));
        // non-executing candidate is incorrect
        assert!(!execution_accuracy(&c, "SELECT nope FROM emp", "SELECT SUM(jobs) FROM emp"));
        // non-executing gold makes everything incorrect
        assert!(!execution_accuracy(&c, "SELECT SUM(jobs) FROM emp", "SELECT x FROM missing"));
    }

    #[test]
    fn signatures_cluster_equivalent_programs() {
        let c = catalog();
        let sig = |sql: &str| result_signature(&execute(&c, sql).unwrap().table);
        let a = sig("SELECT canton, jobs FROM emp ORDER BY jobs");
        assert_eq!(a, sig("SELECT canton, jobs FROM emp ORDER BY canton DESC"));
        assert_ne!(a, sig("SELECT canton, jobs FROM emp WHERE jobs > 40"));
    }

    #[test]
    fn arity_mismatch_is_unequal() {
        let c = catalog();
        let two = execute(&c, "SELECT canton, jobs FROM emp").unwrap();
        let one = execute(&c, "SELECT canton FROM emp").unwrap();
        assert!(!tables_equal_unordered(&two.table, &one.table));
    }
}
