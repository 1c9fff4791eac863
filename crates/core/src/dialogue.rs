//! Multi-turn dialogue processing — layer ⓐ, the orchestrator.
//!
//! [`Session::process`] routes each utterance through intent
//! classification and the per-intent handlers, each of which exercises the
//! reliability mechanisms its answer needs: grounding before retrieval,
//! consistency-UQ before claiming, provenance before explaining, abstention
//! below threshold, and guidance suggestions after answering. Every step is
//! recorded in the lineage and conversation graphs. The session only
//! *reads* the shared [`WorldSnapshot`](crate::world::WorldSnapshot) and
//! only *writes* its own records, which is what makes concurrent sessions
//! independent (and their transcripts interleaving-invariant, E19).

use crate::answer::{AnswerStatus, AnswerTurn, PropertyTag};
use crate::session::{CacheStore, CachedAnswer, Session};
use cda_analyzer::equiv::EquivEngine;
use cda_analyzer::{Analyzer, Report};
use cda_guidance::graph::{EdgeKind, NodeRole};
use cda_guidance::planner::{Action, SpeculativePlanner};
use cda_kg::linking::LinkerConfig;
use cda_nlmodel::generation;
use cda_nlmodel::intent::{classify_intent, Intent};
use cda_nlmodel::lm::Nl2SqlPrompt;
use cda_nlmodel::nl2sql::{parse_question, refine_task, AnalyticTask};
use cda_provenance::checks::check_plan_losslessness;
use cda_provenance::lineage::NodeKind;
use cda_provenance::Explanation;
use cda_soundness::consistency::{ConsistencyUq, Execution, Known, UqRound};
use cda_sql::Compiled;
use cda_timeseries::seasonality::detect_seasonality;
use cda_timeseries::decompose::decompose;
use std::time::Instant;

/// The window (observations) analyzed when a series is longer — the
/// Figure-1 move of "only reporting data for the last 10 years" (120 monthly
/// observations).
pub const ANALYSIS_WINDOW: usize = 120;

impl Session {
    /// Execution options implied by the config: default rules and lineage,
    /// on the vectorized morsel-parallel engine when `vectorized_exec` is on
    /// (both engines produce byte-identical results — E17 / the vectorized
    /// differential suite — so this only moves wall-clock).
    pub(crate) fn exec_options(&self) -> cda_sql::ExecOptions {
        if self.config.vectorized_exec {
            cda_sql::ExecOptions::vectorized()
        } else {
            cda_sql::ExecOptions::default()
        }
    }

    /// Execute the answering plan of a turn consistency UQ did not run for
    /// (UQ's winner arrives already executed, under the same sanitizer —
    /// `ConsistencyUq::with_sanitizer`). With `CdaConfig::absint_check` on,
    /// the optimized plan's static [`DomainTree`](cda_dataframe::DomainTree)
    /// is computed from the catalog statistics first, and every operator
    /// output is cross-checked against its abstract domain during execution.
    /// A violation (an analyzer soundness bug, by construction) surfaces as
    /// an execution error and the turn abstains rather than answering from
    /// an unsound analysis.
    fn execute_answer(&self, plan: &cda_sql::plan::Plan) -> cda_sql::Result<cda_sql::QueryResult> {
        // The monitor must describe the exact plan that executes, so it is
        // built from the optimized plan.
        let monitor = self
            .config
            .absint_check
            .then(|| cda_analyzer::domain_tree(plan, Some(self.world.catalog.stats())));
        cda_sql::execute_plan_checked(
            self.world.catalog.sql(),
            plan,
            self.exec_options(),
            monitor.as_ref(),
        )
    }

    /// Is the utterance SQL DML typed at the prompt? A parseable write is
    /// unambiguous, so it routes to the mutation gate before the
    /// probabilistic intent classifier gets a say.
    fn is_write(utterance: &str) -> bool {
        cda_sql::parser::parse_statement(utterance).map(|s| s.is_write()).unwrap_or(false)
    }

    /// The analytic task the utterance asks for: a full parse first, else
    /// an iterative refinement of the previous task ("and per sector?",
    /// "only ZH"). Workload tables are precomputed per world snapshot.
    fn analytic_task(&self, utterance: &str) -> Option<AnalyticTask> {
        let tables = self.world.workload_tables();
        parse_question(utterance, tables).or_else(|| {
            self.state.last_task.as_ref().and_then(|prev| refine_task(prev, utterance, tables))
        })
    }

    /// Where [`process`](Self::process) sends an utterance, as far as it can
    /// be told before the turn runs — the admission signal of `cda-server`.
    pub fn route(&self, utterance: &str) -> Route {
        if Self::is_write(utterance) {
            Route::Write
        } else {
            self.analytic_task(utterance).map_or(Route::Dialogue, Route::Analysis)
        }
    }

    /// Process one user utterance and produce the annotated system turn.
    pub fn process(&mut self, utterance: &str) -> AnswerTurn {
        let turn = self.state.turn;
        self.state.turn += 1;
        self.profile.observe(utterance);
        let user_node = self.conversation.add_node(NodeRole::User, utterance, turn);
        let utt_lin = self.lineage_node(NodeKind::Utterance(utterance.to_owned()), &[]);

        let t_nl = Instant::now();
        let (intent_label, answer) = if Self::is_write(utterance) {
            let nl_elapsed = t_nl.elapsed();
            let intent_lin = self.lineage_node(
                NodeKind::ModelCall("intent=mutation confidence=1.00".to_owned()),
                &[utt_lin],
            );
            let mut a = self.handle_mutation(utterance, intent_lin);
            a.timings.nl_model += nl_elapsed;
            ("mutation", a)
        } else {
            let intent = classify_intent(utterance, !self.state.offered.is_empty());
            let nl_elapsed = t_nl.elapsed();
            let intent_lin = self.lineage_node(
                NodeKind::ModelCall(format!(
                    "intent={} confidence={:.2}",
                    intent.intent.label(),
                    intent.confidence
                )),
                &[utt_lin],
            );
            let mut a = match intent.intent {
                Intent::DatasetDiscovery => self.handle_discovery(utterance, intent_lin),
                Intent::DatasetDescription => self.handle_description(utterance, intent_lin),
                Intent::Selection => self.handle_selection(utterance, intent_lin),
                Intent::TimeSeriesInsight => self.handle_timeseries(intent_lin),
                Intent::Analysis => self.handle_analysis(utterance, intent_lin),
                Intent::Unclear => self.handle_unclear(intent_lin),
            };
            a.timings.nl_model += nl_elapsed;
            (intent.intent.label(), a)
        };

        // Conversation graph bookkeeping, including alternatives (P5).
        let sys_node = self.conversation.add_node(
            NodeRole::System,
            answer.text.chars().take(80).collect::<String>(),
            turn,
        );
        let _ = self.conversation.add_edge(
            user_node,
            sys_node,
            EdgeKind::Utterance,
            answer.confidence.unwrap_or(1.0),
        );
        for (i, s) in answer.suggestions.iter().enumerate() {
            let alt = self.conversation.add_node(NodeRole::Answer, s.clone(), turn);
            let conf = 0.9 - 0.1 * i as f64;
            let _ = self.conversation.add_edge(sys_node, alt, EdgeKind::Alternative, conf);
        }
        // Query log (layer ⓓ): the session's own history is a data source.
        self.query_log.record(crate::log::LogEntry {
            turn,
            utterance: utterance.to_owned(),
            intent: intent_label.to_owned(),
            code: answer.executed_sql.clone(),
            outcome: match answer.status {
                AnswerStatus::Answered => crate::log::LoggedOutcome::Answered,
                AnswerStatus::AskedClarification => crate::log::LoggedOutcome::Clarified,
                AnswerStatus::Abstained(_) => crate::log::LoggedOutcome::Abstained,
            },
            confidence: answer.confidence,
        });
        answer
    }

    /// Ground the utterance's terminology (P2): returns (assumption text,
    /// expanded query, grounding confidence).
    fn ground(&self, utterance: &str) -> (Option<String>, String, f64) {
        if !self.config.grounding {
            return (None, utterance.to_owned(), 0.5);
        }
        let tokens = cda_kg::vocab::tokenize(utterance);
        // try multiword spans first, longest match
        let mut best: Option<(cda_kg::vocab::Disambiguation, String)> = None;
        for n in (1..=3usize).rev() {
            for window in tokens.windows(n) {
                let term = window.join(" ");
                if !self.world.vocab.knows(&term) {
                    continue;
                }
                let cands = self.world.vocab.disambiguate(&term, utterance);
                if let Some(top) = cands.into_iter().next() {
                    let better = best
                        .as_ref()
                        .is_none_or(|(b, _)| top.confidence > b.confidence);
                    if better {
                        best = Some((top, term));
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        match best {
            Some((d, term)) => {
                let assumption = format!(
                    "data about {} (reading {:?} as {})",
                    d.concept.domains.join(" / "),
                    term,
                    d.concept.id.replace('_', " ")
                );
                let expanded = format!(
                    "{utterance} {} {}",
                    d.concept.id.replace('_', " "),
                    d.concept.domains.join(" ")
                );
                (Some(assumption), expanded, d.confidence)
            }
            None => (None, utterance.to_owned(), 0.5),
        }
    }

    /// Record a lineage node. Lineage is best-effort bookkeeping: the only
    /// failure mode of [`cda_provenance::lineage::LineageGraph::add`] is an
    /// unknown parent id, which callers here never construct — but rather
    /// than panicking on that invariant, degrade to the graph root.
    fn lineage_node(&mut self, kind: NodeKind, parents: &[usize]) -> usize {
        self.lineage.add(kind, parents).unwrap_or(0)
    }

    /// Graceful fallback when a previously linked/offered dataset is no
    /// longer in the catalog — a user-reachable state, so no panicking.
    fn missing_dataset_answer(name: &str) -> AnswerTurn {
        let mut a = AnswerTurn::answered(format!(
            "The dataset {} is no longer available — ask for an overview of the current \
             data sources.",
            name.replace('_', " ")
        ));
        a.status = AnswerStatus::AskedClarification;
        a.tag(PropertyTag::Guidance);
        a
    }

    /// A DML utterance, routed through the mutation gate
    /// ([`Session::apply_sql`](crate::mutation)). The gate stages static
    /// analysis → repair → effect derivation → guarded execution → precise
    /// invalidation; this handler only renders the decision as a turn.
    fn handle_mutation(&mut self, sql: &str, parent: usize) -> AnswerTurn {
        let t_sound = Instant::now();
        let decision = self.apply_sql(sql);
        let elapsed = t_sound.elapsed();
        let mut answer = match decision {
            Ok(crate::mutation::WriteDecision::Applied(o)) => {
                let text = if o.committed {
                    format!(
                        "Applied: {} row(s) affected in {}. The world advanced to epoch {} \
                         and {} cached answer(s) touching the written data were invalidated; \
                         everything else stays warm.",
                        o.affected,
                        o.table.replace('_', " "),
                        o.epoch,
                        o.cache_invalidated
                    )
                } else {
                    format!(
                        "The statement matched no rows in {} — nothing was modified, so the \
                         world stays at epoch {} and every cached answer remains valid.",
                        o.table.replace('_', " "),
                        o.epoch
                    )
                };
                let query_lin = self.lineage_node(NodeKind::Query(o.sql.clone()), &[parent]);
                let _ = self.lineage_node(
                    NodeKind::Computation(format!(
                        "mutation: {} row(s), epoch {}, effects {}",
                        o.affected, o.epoch, o.effects
                    )),
                    &[query_lin],
                );
                let mut a = AnswerTurn::answered(text).with_confidence(1.0);
                a.executed_sql = Some(o.sql);
                a.analysis.push(format!("[effects] {}", o.effects));
                a.analysis.extend(o.repairs);
                a
            }
            Ok(crate::mutation::WriteDecision::Rejected { annotations, summary }) => {
                let mut a = AnswerTurn::answered(format!(
                    "Static analysis rejected the write before execution: {summary}. \
                     Nothing was modified."
                ));
                a.status = AnswerStatus::Abstained("write rejected by the DML gate".into());
                a.analysis = annotations;
                a.tag(PropertyTag::Soundness);
                a
            }
            Err(e) => {
                // Execution or sanitizer failure: the write did not commit.
                let mut a = AnswerTurn::answered(format!(
                    "The write failed during execution and was not committed: {e}."
                ));
                a.status = AnswerStatus::Abstained(format!("DML execution error: {e}"));
                a.tag(PropertyTag::Soundness);
                a
            }
        };
        answer.timings.soundness += elapsed;
        answer
    }

    fn handle_discovery(&mut self, utterance: &str, parent: usize) -> AnswerTurn {
        let t_nl = Instant::now();
        let (assumption, expanded, ground_conf) = self.ground(utterance);
        let nl_elapsed = t_nl.elapsed();
        let t_infra = Instant::now();
        let hits = self.world.catalog.discover_with_threshold(
            &expanded,
            2,
            self.config.efficiency,
            self.config.discovery_threshold,
        );
        let infra_elapsed = t_infra.elapsed();
        if hits.is_empty() {
            let mut a = AnswerTurn::answered(
                "I could not find any dataset matching your request. Could you rephrase?",
            );
            a.status = AnswerStatus::AskedClarification;
            a.tag(PropertyTag::Guidance);
            a.tag(PropertyTag::Soundness); // an honest empty set, not a guess
            a.timings.nl_model += nl_elapsed;
            a.timings.infrastructure += infra_elapsed;
            return a;
        }
        let options: Vec<(String, String)> = hits
            .iter()
            .filter_map(|h| {
                self.world
                    .catalog
                    .get(&h.name)
                    .ok()
                    .map(|d| (d.name.clone(), d.description.clone()))
            })
            .collect();
        self.state.offered = options.iter().map(|(n, _)| n.clone()).collect();
        self.state.assumption = assumption.clone();
        let text = generation::discovery_answer(
            assumption.as_deref().unwrap_or(""),
            &options,
        );
        let confidence = if self.config.grounding {
            0.5 * ground_conf + 0.5 * hits[0].score
        } else {
            hits[0].score
        };
        // lineage: datasets consulted + answer
        let mut parents = vec![parent];
        for (name, _) in &options {
            if let Ok(id) = self.lineage.add(NodeKind::Dataset(name.clone()), &[]) {
                parents.push(id);
            }
        }
        let _ = self.lineage.add(NodeKind::Answer("dataset options offered".into()), &parents);
        let mut a = AnswerTurn::answered(text).with_confidence(confidence);
        a.timings.nl_model += nl_elapsed;
        a.timings.infrastructure += infra_elapsed;
        a.status = AnswerStatus::AskedClarification;
        a.tag(PropertyTag::Efficiency);
        if self.config.grounding && assumption.is_some() {
            a.tag(PropertyTag::Grounding);
            a.tag(PropertyTag::Explainability); // the assumption is stated
        }
        a.tag(PropertyTag::Guidance); // ends with a follow-up question
        a
    }

    fn handle_description(&mut self, utterance: &str, parent: usize) -> AnswerTurn {
        let t_nl = Instant::now();
        let candidates = if self.config.grounding {
            let mentions = self.world.linker.extract(utterance);
            mentions
                .iter()
                .flat_map(|m| {
                    self.world.linker.link(&m.surface, utterance, LinkerConfig::default())
                })
                .collect::<Vec<_>>()
        } else {
            Vec::new()
        };
        let nl_elapsed = t_nl.elapsed();
        // map the best-linked entity to a dataset; fall back to name matching
        let (target, confidence) = candidates
            .first()
            .and_then(|c| {
                self.world.catalog.get(&c.entity_id).ok().map(|d| (d.name.clone(), c.score))
            })
            .or_else(|| {
                let lower = utterance.to_lowercase();
                self.world
                    .catalog
                    .datasets()
                    .iter()
                    .find(|d| {
                        d.keywords.iter().any(|k| lower.contains(k.as_str()))
                            || lower.contains(&d.name.replace('_', " "))
                    })
                    .map(|d| (d.name.clone(), 0.6))
            })
            .unzip();
        let Some(name) = target else {
            let mut a = AnswerTurn::answered(
                "I do not have a dataset by that name. You can ask for an overview of the \
                 available data sources.",
            );
            a.status = AnswerStatus::AskedClarification;
            a.tag(PropertyTag::Guidance);
            return a;
        };
        let Ok(dataset) = self.world.catalog.get(&name) else {
            return Self::missing_dataset_answer(&name);
        };
        let (rows, cols) = dataset
            .table
            .as_ref()
            .map_or((dataset.series.as_ref().map_or(0, |s| s.len()), 1), |t| {
                (t.num_rows(), t.num_columns())
            });
        let mut text =
            generation::describe_dataset(&dataset.name, &dataset.description, rows, cols);
        if !dataset.source_url.is_empty() {
            text.push_str(&format!("\nSource: {}", dataset.source_url));
        }
        let ds_lin = self.lineage_node(NodeKind::Dataset(name.clone()), &[]);
        let _ = self
            .lineage
            .add(NodeKind::Answer(format!("description of {name}")), &[parent, ds_lin]);
        let suggestions = self.suggest(Some(&name));
        let mut a = AnswerTurn::answered(text)
            .with_confidence(confidence.unwrap_or(0.6))
            .with_suggestions(suggestions);
        a.timings.nl_model += nl_elapsed;
        a.tag(PropertyTag::Soundness); // provenance: source cited
        if self.config.grounding {
            a.tag(PropertyTag::Grounding);
        }
        a
    }

    fn handle_selection(&mut self, utterance: &str, parent: usize) -> AnswerTurn {
        let lower = utterance.to_lowercase();
        let tokens = cda_kg::vocab::tokenize(&lower);
        let chosen = self
            .state
            .offered
            .iter()
            .find(|name| {
                let words: Vec<String> = name.split('_').map(str::to_owned).collect();
                words.iter().any(|w| tokens.contains(w))
                    || self.world.catalog.get(name).is_ok_and(|d| {
                        d.keywords.iter().any(|k| tokens.contains(k))
                    })
            })
            .cloned()
            .or_else(|| self.state.offered.first().cloned());
        let Some(name) = chosen else {
            let mut a = AnswerTurn::answered(
                "I have not offered any options yet — ask for an overview first.",
            );
            a.status = AnswerStatus::AskedClarification;
            a.tag(PropertyTag::Guidance);
            return a;
        };
        self.state.focused = Some(name.clone());
        self.state.offered.clear();
        let Ok(dataset) = self.world.catalog.get(&name) else {
            return Self::missing_dataset_answer(&name);
        };
        let t_infra = Instant::now();
        let mut text = format!("Here is an overview of {}.\n", name.replace('_', " "));
        // data rotting (Sec. 3.1): stale data carries a P4 caveat
        let rot_caveat = dataset.freshness.caveat(self.world.catalog.clock());
        if let Some(table) = &dataset.table {
            text.push_str(&generation::tabular_answer(table, &dataset.source_url, 5));
        } else if let Some(series) = &dataset.series {
            text.push_str(&format!(
                "{} observations, mean {:.2}, standard deviation {:.2}.\n",
                series.len(),
                series.mean(),
                series.std_dev()
            ));
            if !dataset.source_url.is_empty() {
                text.push_str(&format!("Source: {}\n", dataset.source_url));
            }
        }
        if let Some(caveat) = rot_caveat {
            text.push_str(&caveat);
            text.push('\n');
        }
        let infra_elapsed = t_infra.elapsed();
        let ds_lin = self.lineage_node(NodeKind::Dataset(name.clone()), &[]);
        let _ = self
            .lineage
            .add(NodeKind::Answer(format!("overview of {name}")), &[parent, ds_lin]);
        let suggestions = self.suggest(Some(&name));
        let stale = text.contains("overdue");
        let mut a = AnswerTurn::answered(text).with_suggestions(suggestions);
        a.timings.infrastructure += infra_elapsed;
        a.tag(PropertyTag::Explainability); // source cited
        if stale {
            a.tag(PropertyTag::Soundness); // the staleness caveat is a P4 act
        }
        a
    }

    fn handle_timeseries(&mut self, parent: usize) -> AnswerTurn {
        // choose the focused dataset if it has a series, else any series
        let name = self
            .state
            .focused
            .clone()
            .filter(|n| self.world.catalog.get(n).is_ok_and(|d| d.series.is_some()))
            .or_else(|| {
                self.world
                    .catalog
                    .datasets()
                    .iter()
                    .find(|d| d.series.is_some())
                    .map(|d| d.name.clone())
            });
        let Some(name) = name else {
            let mut a = AnswerTurn::answered(
                "I have no time-series dataset in focus. Ask for an overview first.",
            );
            a.status = AnswerStatus::AskedClarification;
            a.tag(PropertyTag::Guidance);
            return a;
        };
        let Ok(dataset) = self.world.catalog.get(&name) else {
            return Self::missing_dataset_answer(&name);
        };
        let Some(series) = dataset.series.clone() else {
            return Self::missing_dataset_answer(&name);
        };
        let source = dataset.source_url.clone();
        let t_infra = Instant::now();
        // sufficiency gate (P4)
        if series.len() < self.config.min_observations {
            let text = generation::insufficient_answer(
                "seasonality insights",
                self.config.min_observations,
                series.len(),
            );
            let mut a = AnswerTurn::answered(text);
            a.status = AnswerStatus::Abstained("insufficient data".into());
            a.tag(PropertyTag::Soundness);
            a.timings.infrastructure += t_infra.elapsed();
            return a;
        }
        // trim to the analysis window (the "last 10 years" move)
        let (analyzed, span_note) = if series.len() > ANALYSIS_WINDOW {
            (
                series.slice(series.len() - ANALYSIS_WINDOW, series.len()),
                Some(format!(
                    "I am only reporting the most recent {ANALYSIS_WINDOW} observations since \
                     there is no sufficient data earlier."
                )),
            )
        } else {
            (series.clone(), None)
        };
        let detection = detect_seasonality(&analyzed, self.config.min_observations);
        let infra_elapsed = t_infra.elapsed();
        match detection {
            Err(e) => {
                let mut a = AnswerTurn::answered(format!(
                    "I could not establish a reliable seasonal pattern ({e}). I would rather \
                     not guess."
                ));
                a.status = AnswerStatus::Abstained(e.to_string());
                a.tag(PropertyTag::Soundness);
                a.timings.infrastructure += infra_elapsed;
                a
            }
            Ok(result) => {
                if self.config.soundness && result.confidence < self.config.answer_threshold {
                    let mut a = AnswerTurn::answered(format!(
                        "The best seasonal-period candidate is {} but my confidence ({:.0}%) is \
                         below my reporting threshold, so I will not state it as a finding.",
                        result.period,
                        result.confidence * 100.0
                    ));
                    a.status = AnswerStatus::Abstained("confidence below threshold".into());
                    a.tag(PropertyTag::Soundness);
                    a.timings.infrastructure += infra_elapsed;
                    return a;
                }
                let code = generation::decomposition_snippet(&name, "value", result.period);
                let mut text = generation::seasonality_answer(
                    result.period,
                    result.confidence,
                    span_note.as_deref(),
                    &code,
                );
                let t_expl = Instant::now();
                let explanation = if self.config.explainability {
                    let trend = decompose(&analyzed, result.period)
                        .map(|d| d.trend_slope())
                        .unwrap_or(0.0);
                    text.push_str(&format!(
                        "\nOverall trend: {} ({:+.3} per observation).",
                        if trend > 0.0 { "increasing" } else { "decreasing" },
                        trend
                    ));
                    let ds_lin = self.lineage_node(NodeKind::Dataset(name.clone()), &[]);
                    let comp_lin = self.lineage_node(
                        NodeKind::Computation(format!(
                            "seasonal decomposition period={}",
                            result.period
                        )),
                        &[parent, ds_lin],
                    );
                    let _ = self.lineage.add(
                        NodeKind::Answer(format!(
                            "seasonality period={} confidence={:.2}",
                            result.period, result.confidence
                        )),
                        &[comp_lin],
                    );
                    Some(
                        Explanation::new(format!(
                            "Seasonality of {name}: period {} detected from {} observations",
                            result.period,
                            analyzed.len()
                        ))
                        .with_sources(vec![source])
                        .with_code(code)
                        .with_confidence(result.confidence),
                    )
                } else {
                    None
                };
                let expl_elapsed = t_expl.elapsed();
                let suggestions = self.suggest(Some(&name));
                let mut a = AnswerTurn::answered(text)
                    .with_confidence(result.confidence)
                    .with_suggestions(suggestions);
                if let Some(e) = explanation {
                    a = a.with_explanation(e);
                }
                a.timings.infrastructure += infra_elapsed;
                a.timings.explainability += expl_elapsed;
                a
            }
        }
    }

    fn handle_analysis(&mut self, utterance: &str, parent: usize) -> AnswerTurn {
        let t_nl = Instant::now();
        let Some(task) = self.analytic_task(utterance) else {
            return self.handle_unclear(parent);
        };
        let schema = self
            .world
            .catalog
            .sql()
            .get(&task.table)
            .map(|e| e.table.schema().clone())
            .unwrap_or_default();
        let other_tables: Vec<String> = self
            .world
            .catalog
            .sql()
            .table_names()
            .into_iter()
            .filter(|n| *n != task.table)
            .collect();
        let prompt = Nl2SqlPrompt { task: task.clone(), schema, other_tables };
        let nl_elapsed = t_nl.elapsed();

        // Soundness: one consistency-UQ round chooses the statement. It
        // gates, fingerprints and — unless the session's semantic cache
        // already holds that fingerprint's result or knows how its execution
        // came out — executes each candidate once, and hands the winner back
        // with all of that attached: the rest of the turn reads the record
        // instead of redoing the work.
        // Equivalence-aware clustering is provably confidence-neutral (equal
        // fingerprints ⇒ identical execution), so it is always on here.
        let analyzer = self.analyzer();
        let use_cache = self.config.semantic_cache;
        let t_sound = Instant::now();
        let chosen = if self.config.soundness {
            let round = ConsistencyUq::new(&self.lm, &analyzer)
                .with_samples(self.config.uq_samples)
                .with_temperature(self.config.temperature)
                .with_repair(self.config.repair_rounds)
                .with_equivalence(true)
                .with_exec_options(self.exec_options())
                .with_sanitizer(self.config.absint_check.then(|| self.world.catalog.stats()))
                .run_with(&prompt, |fp| {
                    if use_cache {
                        self.semantic_cache.known(fp)
                    } else {
                        Known::Unknown
                    }
                });
            match round {
                Ok(UqRound { report, winner, outcomes }) => {
                    // One execution per fingerprint group the cache knew
                    // nothing of, plus a winner it knew only the outcome of.
                    self.executions += outcomes.len();
                    if use_cache {
                        self.semantic_cache.record_outcomes(outcomes);
                    }
                    let Some(winner) = winner else {
                        let mut a = AnswerTurn::answered(
                            "None of my candidate queries executed successfully, so I cannot \
                             answer this reliably.",
                        );
                        a.status = AnswerStatus::Abstained("no executable candidate".into());
                        a.tag(PropertyTag::Soundness);
                        return a;
                    };
                    Chosen {
                        sql: winner.sql,
                        report: winner.report,
                        compiled: Some(winner.compiled),
                        confidence: report.confidence,
                        repairs: report.repair_hints,
                        settled: Some((winner.fingerprint, winner.execution)),
                    }
                }
                Err(_) => self.gate_unsampled(&analyzer, &prompt.task.to_sql(), 0.0),
            }
        } else {
            let g = self.lm.generate_sql(&prompt, self.config.temperature, 0);
            self.gate_unsampled(&analyzer, &g.sql, g.naive_confidence())
        };
        let Chosen { sql, report: static_report, compiled, confidence, repairs, settled } = chosen;
        let repair_notes: Vec<String> = repairs.iter().map(|h| format!("[repair] {h}")).collect();
        // Static soundness gate (P4): dooming findings abstain without paying
        // execution cost; softer findings become annotations and scale
        // confidence. (A UQ winner is never doomed — doomed candidates do not
        // execute — so this fires only for a statement UQ did not pick.)
        if self.config.soundness && static_report.dooms_execution() {
            let mut a = AnswerTurn::answered(format!(
                "Static analysis rejected the generated query before execution: {}. I will \
                 not fabricate a result.",
                static_report.summary()
            ));
            a.status = AnswerStatus::Abstained("statically rejected query".into());
            a.analysis = static_report.annotations();
            a.tag(PropertyTag::Soundness);
            a.timings.soundness += t_sound.elapsed();
            return a;
        }
        // Warnings scale confidence down; quantitative cost findings weigh
        // in by how far the estimate overshoots the row budget. Each repair
        // hint applied folds in a further 0.9: a repaired answer rests on a
        // candidate the model did not produce verbatim.
        let confidence = confidence
            * static_report.confidence_factor()
            * 0.9f64.powi(repair_notes.len().min(8) as i32);
        let sound_elapsed = t_sound.elapsed();
        if self.config.soundness && confidence < self.config.answer_threshold {
            let mut a = AnswerTurn::answered(format!(
                "My candidate queries disagree (consistency {:.0}%), which usually means I am \
                 about to hallucinate. Could you rephrase or confirm the table and columns?",
                confidence * 100.0
            ));
            a.status = AnswerStatus::Abstained("low consistency".into());
            a.tag(PropertyTag::Soundness);
            a.tag(PropertyTag::Guidance);
            a.timings.soundness += sound_elapsed;
            return a;
        }
        // Semantic answer cache (P1 enabling P4): a result stored under the
        // statement's canonical-plan fingerprint by an earlier turn is served
        // instead of executing — equal fingerprints guarantee byte-identical
        // execution, so the served answer is exactly what re-executing would
        // produce (E16 verifies this). UQ's winner arrives with that already
        // settled; only a statement UQ did not pick is fingerprinted, looked
        // up and executed here.
        let t_infra = Instant::now();
        let query = compiled.as_ref().and_then(Compiled::query);
        let (fingerprint, execution) = match (settled, query) {
            (Some((fingerprint, execution)), _) => {
                (fingerprint.filter(|_| use_cache), Some(execution))
            }
            (None, Some((logical, optimized))) => {
                let fingerprint =
                    use_cache.then(|| EquivEngine::new().fingerprint(logical).as_u64());
                let execution = match fingerprint.and_then(|fp| self.semantic_cache.probe(fp)) {
                    Some(hit) => Some(Execution::Held(hit)),
                    None => {
                        self.executions += 1;
                        self.execute_answer(optimized).ok().map(Execution::Ran)
                    }
                };
                (fingerprint, execution)
            }
            // A statement that does not bind has nothing to execute; only
            // with `soundness` off (the P4 ablation) does one get this far.
            (None, None) => (None, None),
        };
        // The turn serves the hit, or stores the execution it paid for —
        // the winner's only: of a losing candidate the cache keeps just the
        // outcome the round recorded, never a result.
        let mut cache_note: Option<String> = None;
        let executed = match execution {
            Some(Execution::Held(hit)) => {
                self.semantic_cache.count_hit();
                cache_note = Some(format!(
                    "[cache] served from the semantic cache: this request is equivalent to the \
                     query executed in turn {} ({})",
                    hit.turn + 1,
                    hit.sql
                ));
                Some(hit.result)
            }
            Some(Execution::Ran(result)) => {
                if let Some(fp) = fingerprint {
                    self.semantic_cache.put(
                        fp,
                        CachedAnswer {
                            turn: self.state.turn.saturating_sub(1),
                            sql: sql.clone(),
                            result: result.clone(),
                        },
                    );
                }
                Some(result)
            }
            None => None,
        };
        let infra_elapsed = t_infra.elapsed();
        let Some(result) = executed else {
            let mut a = AnswerTurn::answered(
                "The generated query failed to execute; I will not fabricate a result.",
            );
            a.status = AnswerStatus::Abstained("execution failure".into());
            a.tag(PropertyTag::Soundness);
            a.timings.soundness += sound_elapsed;
            a.timings.infrastructure += infra_elapsed;
            return a;
        };
        let source = self
            .world
            .catalog
            .get(&task.table)
            .map(|d| d.source_url.clone())
            .unwrap_or_default();
        let mut text = generation::tabular_answer(&result.table, &source, 10);
        if cache_note.is_some() {
            text.push_str(
                "\nI recognized this request as equivalent to an earlier one in this \
                 conversation and reused that verified result.",
            );
        }
        if !repair_notes.is_empty() {
            text.push_str(&format!(
                "\nI repaired the generated query before running it ({}).",
                repair_notes
                    .iter()
                    .map(|n| n.trim_start_matches("[repair] "))
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
        // Explainability: provenance + losslessness verification.
        let t_expl = Instant::now();
        let explanation = if self.config.explainability {
            // The verdict is a function of the plan's equivalence class, the
            // world and the result — what the fingerprint already certifies —
            // so one the cache recorded for this fingerprint is reused.
            // Otherwise the plan that produced the answer is replayed over
            // the tables it scans, restricted to the rows the answer's first
            // row cites, and the verdict recorded.
            let lossless = match fingerprint.and_then(|fp| self.semantic_cache.verdict(fp)) {
                Some(recorded) => recorded,
                None => {
                    let replayed = query.filter(|_| result.table.num_rows() > 0).map(
                        |(_, optimized)| {
                            check_plan_losslessness(
                                self.world.catalog.sql(),
                                optimized,
                                self.exec_options(),
                                &result.table,
                                0,
                            )
                            .ok()
                        },
                    );
                    self.lossless_replays += usize::from(replayed.is_some());
                    let verdict = replayed.flatten();
                    if let Some(fp) = fingerprint {
                        let reads = cda_analyzer::plan_reads(&result.plan);
                        self.semantic_cache.record_verdict(fp, reads, verdict.clone());
                    }
                    verdict
                }
            };
            let cited = result.table.lineages().distinct_ids();
            let ds_lin = self.lineage_node(NodeKind::Dataset(task.table.clone()), &[]);
            let q_lin =
                self.lineage_node(NodeKind::Query(sql.clone()), &[parent, ds_lin]);
            let _ = self.lineage.add(
                NodeKind::Answer(format!("{} result rows", result.table.num_rows())),
                &[q_lin],
            );
            Some(
                Explanation::new(format!("Executed against {}", task.table))
                    .with_sources(vec![task.table.clone()])
                    .with_rows(cited)
                    .with_plan(result.plan.explain())
                    .with_code(sql.clone())
                    .with_confidence(confidence)
                    .with_verification(lossless, None),
            )
        } else {
            None
        };
        let expl_elapsed = t_expl.elapsed();
        let t_guide = Instant::now();
        let suggestions = self.suggest(Some(&task.table));
        let guide_elapsed = t_guide.elapsed();
        self.state.last_task = Some(task.clone());
        let mut a = AnswerTurn::answered(text)
            .with_confidence(confidence)
            .with_suggestions(suggestions);
        a.executed_sql = Some(sql.clone());
        a.analysis = static_report.annotations();
        if let Some(est) = static_report.estimate {
            a.analysis.push(format!("[cost] estimated result size {est}"));
        }
        if let Some(note) = cache_note {
            a.analysis.push(note);
        }
        a.analysis.extend(repair_notes.iter().cloned());
        if let Some(e) = explanation {
            a = a.with_explanation(e);
        }
        if !repair_notes.is_empty() {
            a.tag(PropertyTag::Soundness); // the gate both vetoed and repaired
        }
        a.tag(PropertyTag::Efficiency);
        a.timings.nl_model += nl_elapsed;
        a.timings.soundness += sound_elapsed;
        a.timings.infrastructure += infra_elapsed;
        a.timings.explainability += expl_elapsed;
        a.timings.guidance += guide_elapsed;
        a
    }

    /// The start of the one branch on which consistency UQ did not choose
    /// the statement (`soundness` off, or UQ could not sample): gate `sql`
    /// and, before giving up on a doomed statement, try the analyzer's own
    /// repair hints (diagnosis→generation feedback, P4 enhances P5). The
    /// gate compiles the statement; nothing has been fingerprinted or
    /// executed yet.
    fn gate_unsampled(&self, analyzer: &Analyzer<'_>, sql: &str, confidence: f64) -> Chosen {
        let gated = analyzer.gate_with_repair(sql, self.config.repair_rounds);
        Chosen {
            sql: gated.sql,
            report: gated.report,
            compiled: gated.compiled,
            confidence,
            repairs: gated.hints.iter().map(ToString::to_string).collect(),
            settled: None,
        }
    }

    fn handle_unclear(&mut self, parent: usize) -> AnswerTurn {
        let _ = self.lineage.add(NodeKind::Answer("clarification requested".into()), &[parent]);
        if !self.config.guidance {
            let mut a = AnswerTurn::answered("I did not understand the request.");
            a.status = AnswerStatus::AskedClarification;
            return a;
        }
        let names: Vec<String> = self
            .world
            .catalog
            .datasets()
            .iter()
            .map(|d| d.name.replace('_', " "))
            .collect();
        let mut a = AnswerTurn::answered(format!(
            "I did not quite understand. I can (a) give an overview of available datasets \
             ({}), (b) describe one of them, (c) run aggregate queries, or (d) analyze trends \
             and seasonality. What would you like?",
            names.join(", ")
        ));
        a.status = AnswerStatus::AskedClarification;
        a.tag(PropertyTag::Guidance);
        a
    }

    /// Rank follow-up suggestions with the speculative planner (P5).
    fn suggest(&self, dataset: Option<&str>) -> Vec<String> {
        if !self.config.guidance {
            return Vec::new();
        }
        let Some(name) = dataset else {
            return Vec::new();
        };
        let Ok(ds) = self.world.catalog.get(name) else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        if ds.series.is_some() {
            actions.push(Action::leaf(
                "seasonality",
                format!("ask for seasonality insights of {}", name.replace('_', " ")),
            ));
            actions.push(Action::leaf(
                "trend",
                format!("ask for the overall trend of {}", name.replace('_', " ")),
            ));
        }
        if let Some(table) = &ds.table {
            let numeric = table
                .schema()
                .fields()
                .iter()
                .find(|f| f.data_type().is_numeric())
                .map(|f| f.name().to_owned());
            let string_col = table
                .schema()
                .fields()
                .iter()
                .find(|f| f.data_type() == cda_dataframe::DataType::Str)
                .map(|f| f.name().to_owned());
            if let (Some(m), Some(g)) = (numeric, string_col) {
                actions.push(Action::leaf(
                    "aggregate",
                    format!("ask for the total {m} in {name} per {g}"),
                ));
            }
        }
        if actions.is_empty() {
            return Vec::new();
        }
        let planner = SpeculativePlanner::default();
        let score = |a: &Action| match a.id.as_str() {
            "seasonality" => 0.9,
            "aggregate" => 0.8,
            "trend" => 0.7,
            _ => 0.5,
        };
        planner
            .rank(&actions, &score)
            .map(|ranked| ranked.into_iter().take(2).map(|r| r.action.description).collect())
            .unwrap_or_default()
    }
}

/// The statement an analysis turn answers with, and how far it has been
/// taken already.
struct Chosen {
    /// Post-repair SQL.
    sql: String,
    /// The gate's report on `sql`.
    report: Report,
    /// `sql` as the gate compiled it (`None`: it does not bind).
    compiled: Option<Compiled>,
    /// Confidence before the static report and the repairs weigh in.
    confidence: f64,
    /// Rendered repair hints that produced `sql`.
    repairs: Vec<String>,
    /// Canonical-plan fingerprint and result, when consistency UQ chose the
    /// statement: its round settles both.
    settled: Option<(Option<u64>, Execution<CachedAnswer>)>,
}

/// Where an utterance is headed ([`Session::route`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Route {
    /// SQL DML, through the mutation gate ([`Session::apply_sql`]).
    Write,
    /// An analytic question (or a refinement of the last one): nl2sql,
    /// provided the intent classifier agrees it is an analysis turn.
    Analysis(AnalyticTask),
    /// Anything else: discovery, description, selection, time-series
    /// insight, or a clarification.
    Dialogue,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_session, FIGURE1_TURNS};
    use crate::reliability::CdaConfig;

    #[test]
    fn figure1_turn1_discovery_offers_options() {
        let mut s = demo_session(1);
        let a = s.process(FIGURE1_TURNS[0]);
        assert_eq!(a.status, AnswerStatus::AskedClarification);
        assert!(a.text.contains("I am assuming"));
        assert!(a.text.to_lowercase().contains("barometer"));
        assert!(a.properties.contains(&PropertyTag::Grounding));
        assert!(a.properties.contains(&PropertyTag::Efficiency));
        assert!(a.properties.contains(&PropertyTag::Guidance));
        assert!(a.confidence.unwrap() > 0.3);
    }

    #[test]
    fn figure1_turn2_describes_barometer_with_source() {
        let mut s = demo_session(1);
        s.process(FIGURE1_TURNS[0]);
        let a = s.process(FIGURE1_TURNS[1]);
        assert!(a.text.contains("monthly leading indicator"));
        assert!(a.text.contains("arbeit.swiss"));
        assert!(a.properties.contains(&PropertyTag::Soundness));
    }

    #[test]
    fn figure1_turn3_selection_focuses_barometer() {
        let mut s = demo_session(1);
        s.process(FIGURE1_TURNS[0]);
        s.process(FIGURE1_TURNS[1]);
        let a = s.process(FIGURE1_TURNS[2]);
        assert_eq!(s.state().focused.as_deref(), Some("labour_barometer"));
        assert!(a.text.contains("overview"));
    }

    #[test]
    fn figure1_turn4_seasonality_with_confidence_and_code() {
        let mut s = demo_session(1);
        for t in &FIGURE1_TURNS[..3] {
            s.process(t);
        }
        let a = s.process(FIGURE1_TURNS[3]);
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        assert!(a.text.contains("best fitted seasonal period is 6"), "{}", a.text);
        assert!(a.text.contains("seasonal_decompose"));
        assert!(a.text.contains("recent 120 observations"));
        assert!(a.confidence.unwrap() >= 0.5);
        assert!(a.explanation.is_some());
        assert!(a.properties.contains(&PropertyTag::Explainability));
        assert!(a.properties.contains(&PropertyTag::Soundness));
    }

    #[test]
    fn analysis_turn_executes_sql_with_provenance() {
        let mut s = demo_session(1);
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        assert!(a.confidence.is_some());
        let e = a.explanation.as_ref().unwrap();
        assert!(e.code.contains("SUM(employees)"));
        assert!(!e.cited_rows.is_empty());
        assert!(e.lossless.as_ref().unwrap().lossless);
    }

    #[test]
    fn follow_up_refinement_regroups_previous_task() {
        let mut s = demo_session(1);
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        // iterative refinement (the paper's follow-up questions): regroup
        let a = s.process("and per type instead?");
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        let sql = a.executed_sql.as_deref().unwrap_or_default();
        assert!(sql.contains("GROUP BY type"), "{sql}");
        assert!(sql.contains("SUM(employees)"), "{sql}");
        // then narrow with a filter
        let a = s.process("only for canton is ZH please, how many records?");
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        let sql = a.executed_sql.as_deref().unwrap_or_default();
        assert!(sql.contains("canton = 'ZH'"), "{sql}");
    }

    #[test]
    fn repeated_analysis_turn_hits_the_semantic_cache_byte_identically() {
        let mut s = demo_session(1);
        let q = "What is the total employees in employment_by_type per canton?";
        let first = s.process(q);
        assert_eq!(first.status, AnswerStatus::Answered, "{}", first.text);
        assert_eq!(s.stats().cache.hits, 0);
        assert_eq!(s.stats().cache.misses, 1);
        assert!(!first.analysis.iter().any(|n| n.starts_with("[cache]")), "{:?}", first.analysis);
        let second = s.process(q);
        assert_eq!(second.status, AnswerStatus::Answered, "{}", second.text);
        assert_eq!(s.stats().cache.hits, 1);
        // the cached answer is byte-identical up to the cache note itself
        assert!(second.analysis.iter().any(|n| n.starts_with("[cache]")), "{:?}", second.analysis);
        assert!(second.text.contains("reused that verified result"), "{}", second.text);
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.contains("reused") && !l.is_empty())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&second.text), strip(&first.text));
        assert_eq!(second.executed_sql, first.executed_sql);
        // and serving it must be exactly what re-executing would produce
        let sql = first.executed_sql.as_deref().unwrap();
        let fresh = cda_sql::execute(s.catalog().sql(), sql).unwrap();
        let cached = &second.explanation.as_ref().unwrap().plan;
        assert_eq!(cached, &fresh.plan.explain());
    }

    #[test]
    fn semantic_cache_off_restores_unconditional_execution() {
        let cfg = CdaConfig { semantic_cache: false, ..CdaConfig::default() };
        let mut off = demo_session(1).with_config(cfg);
        let mut on = demo_session(1);
        let q = "What is the total employees in employment_by_type per canton?";
        let off1 = off.process(q);
        let off2 = off.process(q);
        let on1 = on.process(q);
        assert_eq!(off.stats().cache.hits + off.stats().cache.misses, 0);
        assert_eq!(off.stats().cache.entries, 0);
        // with the cache off, a repeated turn carries no cache annotation
        assert!(!off2.analysis.iter().any(|n| n.starts_with("[cache]")));
        // and the first turn is bit-for-bit the same with the cache on
        assert_eq!(off1.text, on1.text);
        assert_eq!(off1.analysis, on1.analysis);
        assert_eq!(off1.confidence, on1.confidence);
        assert_eq!(off1.executed_sql, on1.executed_sql);
    }

    #[test]
    fn absint_sanitizer_toggle_is_answer_neutral() {
        // The sanitizer is a cross-check on the analyzer: when the analyzer
        // is sound (it is), answers are bit-for-bit identical with the check
        // on or off — confidence folding included.
        let q = "What is the total employees in employment_by_type per canton?";
        let mut on =
            demo_session(1).with_config(CdaConfig { absint_check: true, ..CdaConfig::default() });
        let mut off =
            demo_session(1).with_config(CdaConfig { absint_check: false, ..CdaConfig::default() });
        let a_on = on.process(q);
        let a_off = off.process(q);
        assert_eq!(a_on.status, AnswerStatus::Answered, "{}", a_on.text);
        assert_eq!(a_on.text, a_off.text);
        assert_eq!(a_on.confidence, a_off.confidence);
        assert_eq!(a_on.analysis, a_off.analysis);
        assert_eq!(a_on.executed_sql, a_off.executed_sql);
    }

    #[test]
    fn reset_conversation_clears_the_semantic_cache() {
        let mut s = demo_session(1);
        let q = "What is the total employees in employment_by_type per canton?";
        let _ = s.process(q);
        assert!(s.stats().cache.entries > 0);
        s.reset_conversation();
        assert_eq!(s.stats().cache.entries, 0);
        assert_eq!(s.stats().cache.hits + s.stats().cache.misses, 0);
        // after the reset the same question is a miss again, not a hit
        let _ = s.process(q);
        assert_eq!(s.stats().cache.hits, 0);
        assert_eq!(s.stats().cache.misses, 1);
    }

    #[test]
    fn semantically_equivalent_refinement_phrasing_shares_one_execution() {
        // Turn 2 regroups, turn 3 regroups back: turn 3's plan is
        // canonically equal to turn 1's, so it must be served from the
        // cache even though the utterance differs.
        let mut s = demo_session(1);
        let a1 = s.process("What is the total employees in employment_by_type per canton?");
        assert_eq!(a1.status, AnswerStatus::Answered, "{}", a1.text);
        let a2 = s.process("and per type instead?");
        assert_eq!(a2.status, AnswerStatus::Answered, "{}", a2.text);
        let a3 = s.process("and per canton instead?");
        assert_eq!(a3.status, AnswerStatus::Answered, "{}", a3.text);
        assert_eq!(s.stats().cache.hits, 1, "turn 3 should reuse turn 1's execution");
        assert!(a3.analysis.iter().any(|n| n.starts_with("[cache]")), "{:?}", a3.analysis);
    }

    #[test]
    fn off_topic_discovery_returns_honest_empty_set() {
        // P1's "return an empty set" requirement surfaced conversationally:
        // an off-topic request must not be answered with irrelevant datasets
        let mut s = demo_session(1);
        let a = s.process("Give me an overview of quantum fluxberry trajectories");
        assert_eq!(a.status, AnswerStatus::AskedClarification);
        assert!(a.text.contains("could not find"), "{}", a.text);
        assert!(a.properties.contains(&PropertyTag::Soundness));
    }

    #[test]
    fn unclear_turn_asks_for_clarification() {
        let mut s = demo_session(1);
        let a = s.process("qwerty zxcv");
        assert_eq!(a.status, AnswerStatus::AskedClarification);
        assert!(a.text.contains("overview"));
    }

    #[test]
    fn guidance_off_removes_suggestions_and_help() {
        let mut s = demo_session(1).with_config(CdaConfig::without(PropertyTag::Guidance));
        let a = s.process("qwerty zxcv");
        assert!(!a.text.contains("seasonality"));
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert!(a.suggestions.is_empty());
    }

    #[test]
    fn soundness_off_skips_abstention() {
        // with a maximally hallucinating LM, soundness-off answers anyway or
        // fails loudly, never abstains on low consistency
        let mut s = demo_session(1).with_config(CdaConfig::without(PropertyTag::Soundness));
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert!(!matches!(a.status, AnswerStatus::Abstained(ref r) if r == "low consistency"));
    }

    #[test]
    fn explainability_off_drops_explanations() {
        let mut s = demo_session(1).with_config(CdaConfig::without(PropertyTag::Explainability));
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert!(a.explanation.is_none());
    }

    /// Shared assertions for an answered turn that carries repair notes:
    /// transcript annotation, Soundness tag, executable + clean SQL, and the
    /// 0.9-per-hint confidence fold.
    fn assert_repaired_answer(s: &Session, a: &AnswerTurn) -> bool {
        if a.status != AnswerStatus::Answered {
            return false;
        }
        let repair_lines: Vec<&String> =
            a.analysis.iter().filter(|l| l.starts_with("[repair]")).collect();
        if repair_lines.is_empty() {
            return false;
        }
        assert!(
            a.text.contains("I repaired the generated query"),
            "annotation missing from transcript: {}",
            a.text
        );
        assert!(a.properties.contains(&PropertyTag::Soundness));
        let sql = a.executed_sql.as_deref().unwrap();
        assert!(cda_sql::execute(s.catalog().sql(), sql).is_ok(), "{sql}");
        assert!(
            !cda_analyzer::Analyzer::new(s.catalog().sql()).execution_doomed(sql),
            "repaired answer is statically doomed: {sql}"
        );
        // Confidence folding: 0.9 per applied hint keeps it below 1.
        let folded_cap = 0.9f64.powi(repair_lines.len() as i32);
        assert!(a.confidence.unwrap() <= folded_cap + 1e-12, "{:?}", a.confidence);
        true
    }

    #[test]
    fn repair_annotations_surface_through_uq_majority() {
        use cda_nlmodel::lm::{SimLm, SimLmConfig};
        // With a maximally hallucinating LM the UQ vote can be won by a
        // cluster of *repaired* candidates (e.g. wrong-table samples whose
        // columns the analyzer re-pointed). The chosen answer must then
        // carry the repair annotation, the Soundness tag, an executable
        // query, and the folded confidence.
        let mut found = false;
        for seed in 0..80 {
            let mut s = demo_session(1);
            s.config.answer_threshold = 0.2;
            s.lm = SimLm::new(SimLmConfig {
                hallucination_rate: 1.0,
                overconfidence: 0.8,
                seed,
            });
            let a = s.process("What is the total employees in employment_by_type per canton?");
            if assert_repaired_answer(&s, &a) {
                found = true;
                break;
            }
        }
        assert!(found, "no seed in 0..80 produced a repaired answered turn via UQ");
    }

    #[test]
    fn repair_annotations_surface_when_static_gate_repairs_chosen_sql() {
        use cda_nlmodel::lm::{SimLm, SimLmConfig};
        // The fallback path: with consistency UQ ablated the single sampled
        // candidate reaches the static gate unvetted; a doomed candidate is
        // repaired in place before execution and the annotation surfaces.
        let mut found = false;
        for seed in 0..80 {
            let mut s = demo_session(1).with_config(CdaConfig::without(PropertyTag::Soundness));
            s.lm = SimLm::new(SimLmConfig {
                hallucination_rate: 0.5,
                overconfidence: 0.8,
                seed,
            });
            let a = s.process("What is the total employees in employment_by_type per canton?");
            if assert_repaired_answer(&s, &a) {
                found = true;
                break;
            }
        }
        assert!(found, "no seed in 0..80 hit the static-gate repair path");
    }

    #[test]
    fn repair_disabled_restores_skip_only_gating() {
        use cda_nlmodel::lm::{SimLm, SimLmConfig};
        // repair_rounds = 0 must reproduce the pre-repair pipeline: no
        // repair annotations can ever appear.
        for seed in 0..20 {
            let mut s = demo_session(1);
            s.config.repair_rounds = 0;
            s.lm = SimLm::new(SimLmConfig {
                hallucination_rate: 0.5,
                overconfidence: 0.8,
                seed,
            });
            let a = s.process("What is the total employees in employment_by_type per canton?");
            assert!(
                a.analysis.iter().all(|l| !l.starts_with("[repair]")),
                "repair ran with repair_rounds = 0: {:?}",
                a.analysis
            );
            assert!(!a.text.contains("I repaired"), "{}", a.text);
        }
    }

    #[test]
    fn lineage_grows_across_turns() {
        let mut s = demo_session(1);
        s.process(FIGURE1_TURNS[0]);
        let after_one = s.lineage().len();
        s.process(FIGURE1_TURNS[1]);
        assert!(s.lineage().len() > after_one);
        assert!(s.conversation().len() >= 4);
    }

    #[test]
    fn timings_are_recorded() {
        let mut s = demo_session(1);
        let a = s.process("What is the total employees in employment_by_type per canton?");
        assert!(a.timings.total().as_nanos() > 0);
    }

    #[test]
    fn dml_utterance_routes_through_the_mutation_gate() {
        let mut s = demo_session(1);
        let epoch0 = s.epoch();
        let a = s.process(
            "INSERT INTO employment_by_type (canton, type, year, employees) \
             VALUES ('ZH', 'full_time', 2025, 41000)",
        );
        assert_eq!(a.status, AnswerStatus::Answered, "{}", a.text);
        assert!(a.text.contains("Applied: 1 row(s)"), "{}", a.text);
        assert!(a.executed_sql.is_some());
        assert!(a.properties.contains(&PropertyTag::Soundness));
        assert!(
            a.analysis.iter().any(|n| n.starts_with("[effects]")),
            "the turn must carry the effect annotation: {:?}",
            a.analysis
        );
        assert_eq!(s.epoch(), epoch0 + 1, "the commit advances the session's world");
        // The query log records the deterministic mutation intent.
        let entry = s.query_log().entries().last().unwrap();
        assert_eq!(entry.intent, "mutation");
        // And a follow-up analysis turn answers over the new data.
        let after = s.process("What is the total employees in employment_by_type per canton?");
        assert_eq!(after.status, AnswerStatus::Answered, "{}", after.text);
    }

    #[test]
    fn doomed_dml_utterance_abstains_with_annotations() {
        let mut s = demo_session(1);
        s.config.repair_rounds = 0;
        let epoch0 = s.epoch();
        let a = s.process("DELETE FROM employment_by_type WHERE no_such_column = 3");
        assert!(
            matches!(a.status, AnswerStatus::Abstained(_)),
            "a doomed write must abstain: {}",
            a.text
        );
        assert!(!a.analysis.is_empty(), "gate findings must reach the transcript");
        assert_eq!(s.epoch(), epoch0, "nothing committed");
    }

    #[test]
    fn route_mirrors_where_process_sends_the_turn() {
        let mut s = demo_session(1);
        assert_eq!(s.route("UPDATE wage_stats SET median_wage = 1 WHERE canton = 'ZH'"), Route::Write);
        assert_eq!(s.route(FIGURE1_TURNS[0]), Route::Dialogue);
        // A refinement routes as dialogue until there is a task to refine.
        assert_eq!(s.route("and per type instead?"), Route::Dialogue);
        let question = "What is the total employees in employment_by_type per canton?";
        let Route::Analysis(task) = s.route(question) else { panic!("a question is an analysis turn") };
        assert_eq!(task.group_by.as_deref(), Some("canton"));
        let _ = s.process(question);
        let Route::Analysis(refined) = s.route("and per type instead?") else {
            panic!("a refinement of the last task is an analysis turn")
        };
        assert_eq!(refined.group_by.as_deref(), Some("type"));
        // A SELECT is not a write: it routes by what it asks, like any text.
        assert!(!Session::is_write("SELECT canton FROM wage_stats"));
        assert!(!Session::is_write("UPDATE wage_stats SET"), "unparseable DML is dialogue");
    }
}
