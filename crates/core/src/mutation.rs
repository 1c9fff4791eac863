//! The mutation gate — the only product path through which DML reaches the
//! world.
//!
//! Reads flow through swap-on-read snapshots and never need coordination;
//! writes are where reliability is won or lost, so every write funnels
//! through [`Session::apply_sql`], which stages the full pipeline:
//!
//! 1. **Static gate** (P4): the analyzer's DML pass (codes `A019`–`A023`)
//!    runs before anything executes, with the same analyzer-guided repair
//!    loop the query path uses
//!    ([`Analyzer::gate_with_repair`](cda_analyzer::Analyzer::gate_with_repair)).
//!    A statement that still dooms execution after repair is
//!    [`WriteDecision::Rejected`] — nothing was modified. The gate hands
//!    back the statement compiled; the steps below reuse that one parse
//!    and bind.
//! 2. **Effect analysis**: [`cda_analyzer::dml_effects`] derives the
//!    statement's static read/write sets, sharpened by the abstract
//!    interpreter (a provably-empty row match is reported as a no-op).
//! 3. **Guarded execution**: when [`crate::CdaConfig::effect_check`] is on, the
//!    write executes under a [`cda_sql::WriteGuard`] built from the static
//!    write set, so execution escaping the analysis aborts loudly instead
//!    of silently corrupting state the invalidation logic believes
//!    untouched.
//! 4. **Commit**: the session's world advances to a successor snapshot
//!    carrying [`WorldDelta::Data`] with the statement's effects — the
//!    durable layer then drops exactly the cached answers whose read sets
//!    intersect the write set (and keeps, re-stamped, everything else),
//!    table statistics are re-collected for the written table only, and
//!    the in-memory semantic cache is invalidated with the same precision.
//!    A write that matched zero rows commits nothing: no epoch bump, no
//!    invalidation, caches stay warm.
//!
//! Sessions holding the old snapshot keep a consistent view; the server's
//! write lane re-points them with
//! [`Session::adopt_world`](crate::session::Session::adopt_world).

use crate::session::{CacheStore, Session, SessionCache};
use crate::world::WorldDelta;
use cda_analyzer::EffectSet;

/// What the mutation gate decided about one DML statement.
#[derive(Debug, Clone)]
pub enum WriteDecision {
    /// The statement passed the gate and executed; the outcome says whether
    /// it committed (matched rows) or was a no-op.
    Applied(WriteOutcome),
    /// The static gate rejected the statement — nothing executed, nothing
    /// was modified.
    Rejected {
        /// NL renderings of the gate's findings (`A019`–`A023` et al.).
        annotations: Vec<String>,
        /// One-line summary of why the write was rejected.
        summary: String,
    },
}

/// The result of an applied (gate-approved, executed) write.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// The SQL that executed — post-repair, so it may differ from the input.
    pub sql: String,
    /// Target table (lowercased catalog key).
    pub table: String,
    /// Rows inserted, updated, or deleted.
    pub affected: u64,
    /// The statement's static effect set — what the invalidation used.
    pub effects: EffectSet,
    /// World epoch after the write (unchanged when nothing committed).
    pub epoch: u64,
    /// Whether the world advanced. False exactly when `affected == 0`:
    /// the commit decides, not the proof, so a write that matched nothing
    /// leaves the epoch and every cached answer untouched.
    pub committed: bool,
    /// Cached answers dropped by precise invalidation — in-memory entries
    /// whose read sets intersect the write set, plus durable records the
    /// storage-side reconciliation removed.
    pub cache_invalidated: usize,
    /// NL renderings of repair hints applied before the gate passed.
    pub repairs: Vec<String>,
}

impl Session {
    /// Apply one DML statement through the mutation gate. See the module
    /// docs for the staged pipeline; in short: static gate (with repair) →
    /// effect analysis → guarded execution → precise-invalidation commit.
    ///
    /// `Err` means the pipeline itself failed — a non-write statement, an
    /// execution error, or an effect-sanitizer violation (an analyzer
    /// soundness bug, by construction, surfaced loudly). Gate rejections
    /// are the `Ok(`[`WriteDecision::Rejected`]`)` value, not errors: they
    /// are the soundness mechanism working as designed.
    pub fn apply_sql(&mut self, sql: &str) -> crate::Result<WriteDecision> {
        let (effects, result, executed_sql, repairs) = {
            let catalog = self.world.catalog();
            let analyzer = cda_analyzer::Analyzer::new(catalog.sql())
                .with_stats(catalog.stats())
                .with_row_budget(self.config.row_budget);
            // Diagnosis→generation feedback, same loop as the query path.
            // The DML pass stops at an unknown table, so a misspelled table
            // *and* column takes two rounds to converge.
            let gated = analyzer.gate_with_repair(sql, self.config.repair_rounds);
            if gated.report.dooms_execution() {
                return Ok(WriteDecision::Rejected {
                    annotations: gated.report.annotations(),
                    summary: gated.report.summary(),
                });
            }
            let Some(plan) = gated.compiled.as_ref().and_then(cda_sql::Compiled::write) else {
                return Err(crate::CdaError::Substrate(
                    "apply_sql takes DML (INSERT/UPDATE/DELETE); route SELECT through \
                     the query path"
                        .into(),
                ));
            };
            let effects = cda_analyzer::dml_effects(plan, Some(catalog.stats()));
            // The sanitizer cross-checks execution against the static write
            // set — a cross-check on the analyzer (CdaConfig::effect_check),
            // not a user-facing property.
            let guard = if self.config.effect_check { effects.write_guard() } else { None };
            let result =
                cda_sql::execute_dml_checked(catalog.sql(), plan, self.exec_options(), guard.as_ref())
                    .map_err(|e| crate::CdaError::Substrate(e.to_string()))?;
            let repairs = gated.hints.iter().map(|h| format!("[repair] {h}")).collect();
            (effects, result, gated.sql, repairs)
        };

        if result.affected == 0 {
            // The commit decides, not the proof: a write that matched no
            // rows changes nothing, so the epoch and every cached answer —
            // in memory and on disk — stay exactly as they were.
            return Ok(WriteDecision::Applied(WriteOutcome {
                sql: executed_sql,
                table: result.table,
                affected: 0,
                effects,
                epoch: self.world.epoch(),
                committed: false,
                cache_invalidated: 0,
                repairs,
            }));
        }

        let mut catalog = self.world.catalog().clone();
        catalog.replace_table(&result.table, result.new_table)?;
        let world = self
            .world
            .successor()
            .catalog(catalog)
            .delta(WorldDelta::Data(effects.clone()))
            .open()?
            .into_shared();
        let mem_dropped = match &mut self.semantic_cache {
            SessionCache::Mem(c) => c.invalidate(&effects),
            SessionCache::Durable(c) => {
                c.set_world(std::sync::Arc::clone(&world));
                0
            }
        };
        let outcome = WriteOutcome {
            sql: executed_sql,
            table: result.table,
            affected: result.affected,
            effects,
            epoch: world.epoch(),
            committed: true,
            cache_invalidated: mem_dropped + world.stale_cache_dropped(),
            repairs,
        };
        self.world = world;
        Ok(WriteDecision::Applied(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::demo_session;

    fn count(s: &Session, sql: &str) -> i64 {
        let r = cda_sql::execute(s.catalog().sql(), sql).unwrap();
        match r.table.value(0, 0).unwrap() {
            cda_dataframe::Value::Int(v) => v,
            other => panic!("expected an integer count, got {other:?}"),
        }
    }

    #[test]
    fn applied_write_advances_epoch_and_mutates_data() {
        let mut s = demo_session(11);
        let epoch0 = s.epoch();
        let before = count(&s, "SELECT COUNT(*) FROM employment_by_type");
        let d = s
            .apply_sql(
                "INSERT INTO employment_by_type (canton, type, employees) \
                 VALUES ('Uri', 'full_time', 1234)",
            )
            .unwrap();
        let WriteDecision::Applied(o) = d else { panic!("gate rejected a valid insert: {d:?}") };
        assert_eq!(o.affected, 1);
        assert!(o.committed);
        assert_eq!(o.epoch, epoch0 + 1);
        assert_eq!(s.epoch(), epoch0 + 1);
        let after = count(&s, "SELECT COUNT(*) FROM employment_by_type");
        assert_eq!(after, before + 1);
    }

    #[test]
    fn doomed_write_is_rejected_without_mutating() {
        let mut s = demo_session(11);
        // With repair off, an unknown table (A019) dooms the statement
        // outright. (With repair on, nearest-name substitution can save it.)
        s.config.repair_rounds = 0;
        let epoch0 = s.epoch();
        let d = s.apply_sql("DELETE FROM no_such_table_at_all").unwrap();
        let WriteDecision::Rejected { annotations, summary } = d else {
            panic!("gate passed a doomed delete: {d:?}")
        };
        assert!(!annotations.is_empty());
        assert!(!summary.is_empty());
        assert_eq!(s.epoch(), epoch0, "rejected writes must not advance the world");
    }

    #[test]
    fn repair_fixes_a_misspelled_table_then_applies() {
        let mut s = demo_session(11);
        let d = s
            .apply_sql(
                "UPDATE employment_by_typ SET employees = 0 WHERE canton = 'ZH'",
            )
            .unwrap();
        let WriteDecision::Applied(o) = d else { panic!("repair failed: {d:?}") };
        assert!(o.sql.contains("employment_by_type"));
        assert!(!o.repairs.is_empty());
        assert!(o.affected > 0);
    }

    #[test]
    fn noop_write_commits_nothing() {
        let mut s = demo_session(11);
        let epoch0 = s.epoch();
        let d = s
            .apply_sql("DELETE FROM employment_by_type WHERE year = 1900")
            .unwrap();
        let WriteDecision::Applied(o) = d else { panic!("{d:?}") };
        assert_eq!(o.affected, 0);
        assert!(!o.committed);
        assert_eq!(o.epoch, epoch0);
        assert_eq!(s.epoch(), epoch0, "a zero-row write must not bump the epoch");
        assert_eq!(o.cache_invalidated, 0);
    }

    #[test]
    fn select_is_refused_by_the_write_path() {
        let mut s = demo_session(11);
        let err = s.apply_sql("SELECT canton FROM employment_by_type");
        assert!(err.is_err() || matches!(err, Ok(WriteDecision::Rejected { .. })));
        // Either way nothing changed.
        assert_eq!(s.epoch(), 0);
    }

    #[test]
    fn precise_invalidation_drops_only_intersecting_cached_answers() {
        let mut s = demo_session(11);
        // Warm the cache with an answer over employment_by_type.
        let a1 = s.process("What is the total employees in employment_by_type per canton?");
        assert!(a1.executed_sql.is_some(), "{}", a1.text);
        let entries_before = s.stats().cache.entries;
        assert!(entries_before > 0, "the analysis turn should cache its answer");
        // Write to a table none of the cached plans read.
        let d = s
            .apply_sql(
                "INSERT INTO wage_stats (canton, sector, median_wage) \
                 VALUES ('ZH', 'services', 5000.0)",
            )
            .unwrap();
        let WriteDecision::Applied(o) = d else { panic!("{d:?}") };
        assert!(o.committed);
        assert_eq!(
            o.cache_invalidated, 0,
            "a write to an unread table must not drop cached answers"
        );
        assert_eq!(s.stats().cache.entries, entries_before);
        // Now write to the table the cached answer reads: it must drop.
        let d = s
            .apply_sql(
                "UPDATE employment_by_type SET employees = employees WHERE canton = 'ZH'",
            )
            .unwrap();
        let WriteDecision::Applied(o) = d else { panic!("{d:?}") };
        assert!(o.cache_invalidated >= 1, "intersecting cached answers must drop");
        assert!(s.stats().cache.entries < entries_before + 1);
    }

    #[test]
    fn effect_check_is_answer_neutral() {
        let sqls = [
            "INSERT INTO employment_by_type (canton, type, employees) \
             VALUES ('Uri', 'part_time', 77)",
            "UPDATE employment_by_type SET employees = 1 WHERE canton = 'BE'",
            "DELETE FROM employment_by_type WHERE canton = 'GE'",
        ];
        for sql in sqls {
            let mut on = demo_session(5);
            on.config.effect_check = true;
            let mut off = demo_session(5);
            off.config.effect_check = false;
            let (a, b) = (on.apply_sql(sql).unwrap(), off.apply_sql(sql).unwrap());
            match (a, b) {
                (WriteDecision::Applied(x), WriteDecision::Applied(y)) => {
                    assert_eq!(x.affected, y.affected, "{sql}");
                    assert_eq!(x.epoch, y.epoch, "{sql}");
                }
                (x, y) => panic!("decisions diverged under the sanitizer: {x:?} vs {y:?}"),
            }
            let ta = count(&on, "SELECT COUNT(*) FROM employment_by_type");
            let tb = count(&off, "SELECT COUNT(*) FROM employment_by_type");
            assert_eq!(ta, tb, "{sql}");
        }
    }
}
