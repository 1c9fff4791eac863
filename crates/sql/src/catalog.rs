//! Table catalog: name → table registry with stable provenance tags.
//!
//! Registering a table assigns it a unique `u32` tag and re-tags its row
//! lineage so that every row in the session is globally identified by
//! `(tag, row_index)` — the foundation of cross-component provenance (P3).

use crate::error::SqlError;
use crate::Result;
use cda_dataframe::Table;
use std::collections::HashMap;

/// A registered table: tag + data.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Provenance tag assigned at registration.
    pub tag: u32,
    /// The table data.
    pub table: Table,
    /// Optional human-readable description (for grounding / discovery).
    pub description: String,
}

/// In-memory table catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    entries: HashMap<String, CatalogEntry>,
    next_tag: u32,
}

impl Catalog {
    /// Create an empty catalog. Tags start at 1 (0 is the anonymous tag).
    pub fn new() -> Self {
        Self { entries: HashMap::new(), next_tag: 1 }
    }

    /// Register a table under a (case-insensitive) name. Returns its tag.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> Result<u32> {
        self.register_with_description(name, table, String::new())
    }

    /// Register a table with a description used by dataset discovery.
    pub fn register_with_description(
        &mut self,
        name: impl Into<String>,
        table: Table,
        description: impl Into<String>,
    ) -> Result<u32> {
        let name = name.into().to_ascii_lowercase();
        if self.entries.contains_key(&name) {
            return Err(SqlError::Binding(format!("table {name:?} already registered")));
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        let table = table.with_table_tag(tag);
        self.entries.insert(name, CatalogEntry { tag, table, description: description.into() });
        Ok(tag)
    }

    /// Replace a registered table's data in place, preserving its tag and
    /// description; the new table is re-tagged so row lineage stays identity.
    ///
    /// The replacement must have the exact same schema — DML never changes
    /// table shape; schema changes go through a fresh registration (and an
    /// epoch-wide cache purge) instead. Returns the preserved tag.
    ///
    /// Product-path callers must route through the effects gate
    /// (`cda_core::mutation`); `clippy.toml` lists this method under
    /// `disallowed-methods`, so clippy enforces it.
    pub fn replace_table(&mut self, name: &str, table: Table) -> Result<u32> {
        let key = name.to_ascii_lowercase();
        let entry = self
            .entries
            .get_mut(&key)
            .ok_or_else(|| SqlError::Binding(format!("unknown table {name:?}")))?;
        if entry.table.schema() != table.schema() {
            return Err(SqlError::Binding(format!(
                "replacement for table {name:?} changes its schema ({} vs {})",
                entry.table.schema(),
                table.schema()
            )));
        }
        entry.table = table.with_table_tag(entry.tag);
        Ok(entry.tag)
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<&CatalogEntry> {
        self.entries
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| SqlError::Binding(format!("unknown table {name:?}")))
    }

    /// Iterate `(name, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CatalogEntry)> {
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cda_dataframe::{Column, DataType, Field, RowId, Schema};

    fn t() -> Table {
        Table::from_columns(
            Schema::new(vec![Field::new("x", DataType::Int)]),
            vec![Column::from_ints(&[1, 2])],
        )
        .unwrap()
    }

    #[test]
    fn register_assigns_increasing_tags_and_retags_lineage() {
        let mut c = Catalog::new();
        let t1 = c.register("a", t()).unwrap();
        let t2 = c.register("b", t()).unwrap();
        assert_eq!(t1, 1);
        assert_eq!(t2, 2);
        assert_eq!(c.get("b").unwrap().table.lineage(1).unwrap(), &[RowId::new(2, 1)]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = Catalog::new();
        c.register("Employment", t()).unwrap();
        assert!(c.get("EMPLOYMENT").is_ok());
        assert!(c.get("employment").is_ok());
        assert!(c.get("nope").is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = Catalog::new();
        c.register("a", t()).unwrap();
        assert!(c.register("A", t()).is_err());
    }

    #[test]
    fn names_sorted_and_len() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register("zeta", t()).unwrap();
        c.register("alpha", t()).unwrap();
        assert_eq!(c.table_names(), vec!["alpha".to_owned(), "zeta".to_owned()]);
        assert_eq!(c.len(), 2);
    }
}
