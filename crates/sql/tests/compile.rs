//! `cda_sql::compile` against the primitives it sequences.

use cda_dataframe::{Column, DataType, Field, Schema, Table};
use cda_sql::ast::Statement;
use cda_sql::optimizer::optimize;
use cda_sql::parser::{parse, parse_statement};
use cda_sql::planner::plan_select;
use cda_sql::{compile, Catalog, OptimizerRules};

fn catalog() -> Catalog {
    let emp = Table::from_columns(
        Schema::new(vec![Field::new("canton", DataType::Str), Field::new("jobs", DataType::Int)]),
        vec![Column::from_strs(&["ZH", "GE"]), Column::from_ints(&[10, 20])],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register("emp", emp).unwrap();
    c
}

#[test]
fn a_query_carries_its_logical_and_optimized_plans() {
    let c = catalog();
    let sql = "SELECT canton FROM emp WHERE jobs > 10";
    let compiled = compile(&c, sql).unwrap();
    let (logical, optimized) = compiled.query().unwrap();
    let by_hand = plan_select(&c, &parse(sql).unwrap()).unwrap();
    assert_eq!(logical, &by_hand);
    assert_eq!(optimized, &optimize(by_hand, OptimizerRules::all()));
    assert!(compiled.write().is_none());
    assert!(matches!(compiled.statement, Statement::Select(_)));
}

#[test]
fn a_write_carries_its_dml_plan() {
    let c = catalog();
    let compiled = compile(&c, "UPDATE emp SET jobs = jobs + 1 WHERE canton = 'ZH'").unwrap();
    assert!(compiled.query().is_none());
    let dml = compiled.write().unwrap();
    assert_eq!(dml.table, "emp");
    assert_eq!(dml.written_columns(), vec!["jobs".to_owned()]);
}

#[test]
fn parse_and_bind_errors_are_the_primitives_errors() {
    let c = catalog();
    assert_eq!(compile(&c, "SELECT FROM").unwrap_err(), parse_statement("SELECT FROM").unwrap_err());
    let unbound = "SELECT nope FROM emp";
    assert_eq!(
        compile(&c, unbound).unwrap_err(),
        plan_select(&c, &parse(unbound).unwrap()).unwrap_err()
    );
    assert!(compile(&c, "DELETE FROM missing").is_err());
}
