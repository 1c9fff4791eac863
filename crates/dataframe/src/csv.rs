//! Minimal CSV reader with header handling, quoting, and type inference.
//!
//! The demo catalog ships its Swiss-labour-market-style datasets as embedded
//! CSV; this module turns such text into typed [`Table`]s. It supports RFC
//! 4180-style double-quote escaping, a configurable delimiter, and infers the
//! narrowest type per column in the order BOOL → INT → FLOAT → STR. Empty
//! cells become NULL.

use crate::column::ColumnBuilder;
use crate::error::DataFrameError;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::Result;

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first record is a header (default true).
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self { delimiter: ',', has_header: true }
    }
}

/// Parse CSV text into a table with inferred column types.
pub fn parse_csv(text: &str, options: &CsvOptions) -> Result<Table> {
    let records = split_records(text, options.delimiter)?;
    let mut iter = records.into_iter();
    let header: Vec<String> = match (options.has_header, iter.next()) {
        (true, Some((_, cells))) => cells,
        (true, None) => return Ok(Table::empty(Schema::empty())),
        (false, first) => {
            // Synthesize c0..cN names; put the first record back by chaining.
            let Some((line, cells)) = first else {
                return Ok(Table::empty(Schema::empty()));
            };
            let names = (0..cells.len()).map(|i| format!("c{i}")).collect();
            let rest: Vec<(usize, Vec<String>)> =
                std::iter::once((line, cells)).chain(iter).collect();
            return build_table(names, rest);
        }
    };
    let rows: Vec<(usize, Vec<String>)> = iter.collect();
    build_table(header, rows)
}

fn build_table(names: Vec<String>, rows: Vec<(usize, Vec<String>)>) -> Result<Table> {
    let ncols = names.len();
    for (line, cells) in &rows {
        if cells.len() != ncols {
            return Err(DataFrameError::CsvParse {
                line: *line,
                message: format!("expected {ncols} fields, found {}", cells.len()),
            });
        }
    }
    let mut types = vec![None::<DataType>; ncols];
    for (_, cells) in &rows {
        for (c, cell) in cells.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            let t = infer_type(cell);
            types[c] = Some(match types[c] {
                None => t,
                Some(prev) => widen(prev, t),
            });
        }
    }
    let fields: Vec<Field> = names
        .iter()
        .zip(&types)
        .map(|(n, t)| Field::new(n.clone(), t.unwrap_or(DataType::Str)))
        .collect();
    let schema = Schema::new(fields);
    let mut columns: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.data_type(), rows.len()))
        .collect();
    for (line, cells) in &rows {
        for (c, cell) in cells.iter().enumerate() {
            let ty = types[c].unwrap_or(DataType::Str);
            let v = parse_cell(cell, ty).map_err(|m| DataFrameError::CsvParse {
                line: *line,
                message: m,
            })?;
            columns[c].push(v)?;
        }
    }
    Table::from_columns(schema, columns.into_iter().map(ColumnBuilder::finish).collect())
}

fn infer_type(cell: &str) -> DataType {
    let lower = cell.to_ascii_lowercase();
    if lower == "true" || lower == "false" {
        return DataType::Bool;
    }
    if cell.parse::<i64>().is_ok() {
        return DataType::Int;
    }
    if cell.parse::<f64>().is_ok() {
        return DataType::Float;
    }
    DataType::Str
}

fn widen(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    if a == b {
        return a;
    }
    match (a, b) {
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

fn parse_cell(cell: &str, ty: DataType) -> std::result::Result<Value, String> {
    if cell.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match ty {
        DataType::Int => Value::Int(cell.parse::<i64>().map_err(|e| e.to_string())?),
        DataType::Float => Value::Float(cell.parse::<f64>().map_err(|e| e.to_string())?),
        DataType::Bool => Value::Bool(cell.eq_ignore_ascii_case("true")),
        DataType::Timestamp => Value::Timestamp(cell.parse::<i64>().map_err(|e| e.to_string())?),
        DataType::Str => Value::Str(cell.to_owned()),
    })
}

/// Split text into records of unquoted cells, tracking 1-based line numbers.
fn split_records(text: &str, delim: char) -> Result<Vec<(usize, Vec<String>)>> {
    let mut records = Vec::new();
    let mut cells: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut record_line = 1usize;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(ch) = chars.next() {
        any = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    cell.push('\n');
                }
                c => cell.push(c),
            }
        } else {
            match ch {
                '"' => {
                    if !cell.is_empty() {
                        return Err(DataFrameError::CsvParse {
                            line,
                            message: "quote in the middle of an unquoted field".into(),
                        });
                    }
                    in_quotes = true;
                }
                c if c == delim => {
                    cells.push(std::mem::take(&mut cell));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    cells.push(std::mem::take(&mut cell));
                    if !(cells.len() == 1 && cells[0].is_empty()) {
                        records.push((record_line, std::mem::take(&mut cells)));
                    } else {
                        cells.clear();
                    }
                    record_line = line;
                }
                c => cell.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataFrameError::CsvParse { line, message: "unterminated quoted field".into() });
    }
    if any && (!cell.is_empty() || !cells.is_empty()) {
        cells.push(cell);
        records.push((record_line, cells));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse_with_inference() {
        let t = parse_csv("name,age,score\nalice,30,1.5\nbob,25,2\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
        let s = t.schema();
        assert_eq!(s.field("name").unwrap().data_type(), DataType::Str);
        assert_eq!(s.field("age").unwrap().data_type(), DataType::Int);
        // score column has 1.5 and 2 → widened to FLOAT
        assert_eq!(s.field("score").unwrap().data_type(), DataType::Float);
        assert_eq!(t.value(1, 2).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn empty_cells_become_null() {
        let t = parse_csv("a,b\n1,\n,2\n", &CsvOptions::default()).unwrap();
        assert!(t.value(0, 1).unwrap().is_null());
        assert!(t.value(1, 0).unwrap().is_null());
        assert_eq!(t.value(1, 1).unwrap(), Value::Int(2));
    }

    #[test]
    fn quoted_fields_with_delimiters_and_newlines() {
        let t = parse_csv("a,b\n\"x,y\",\"line1\nline2\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 0).unwrap(), Value::from("x,y"));
        assert_eq!(t.value(0, 1).unwrap(), Value::from("line1\nline2"));
    }

    #[test]
    fn escaped_quotes() {
        let t = parse_csv("a\n\"say \"\"hi\"\"\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, 0).unwrap(), Value::from("say \"hi\""));
    }

    #[test]
    fn bool_inference() {
        let t = parse_csv("flag\ntrue\nFALSE\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.schema().field("flag").unwrap().data_type(), DataType::Bool);
        assert_eq!(t.value(1, 0).unwrap(), Value::Bool(false));
    }

    #[test]
    fn mixed_types_widen_to_str() {
        let t = parse_csv("x\n1\nhello\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.schema().field("x").unwrap().data_type(), DataType::Str);
        assert_eq!(t.value(0, 0).unwrap(), Value::from("1"));
    }

    #[test]
    fn ragged_rows_error_with_line_number() {
        let err = parse_csv("a,b\n1,2\n3\n", &CsvOptions::default()).unwrap_err();
        match err {
            DataFrameError::CsvParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(parse_csv("a\n\"oops\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn custom_delimiter_and_no_header() {
        let opts = CsvOptions { delimiter: ';', has_header: false };
        let t = parse_csv("1;2\n3;4\n", &opts).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().field("c0").unwrap().data_type(), DataType::Int);
        assert_eq!(t.value(1, 1).unwrap(), Value::Int(4));
    }

    #[test]
    fn crlf_and_trailing_newline_tolerated() {
        let t = parse_csv("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, 1).unwrap(), Value::Int(2));
    }

    #[test]
    fn missing_final_newline_ok() {
        let t = parse_csv("a\n5", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, 0).unwrap(), Value::Int(5));
    }

    #[test]
    fn empty_input() {
        let t = parse_csv("", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn blank_lines_skipped() {
        let t = parse_csv("a\n1\n\n2\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
    }
}
