//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each product layer; nothing inside the product is instrumented. A span
//! opened while another is open becomes its child. Spans stay in memory and
//! are written out once, when the run ends.

use cda_testkit::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the recorder (also the id children point at).
    pub id: usize,
    /// The span open when this one started, if any.
    pub parent: Option<usize>,
    /// The operation (turn, restart cycle, drain round) this span belongs to.
    pub op_id: u64,
    /// What was called, e.g. `sql.exec`.
    pub name: &'static str,
    /// The crate the call enters, e.g. `cda-sql`.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// True when sibling spans already account for this span's work (the
    /// lexer inside the parser, a whole UQ round next to its parts); such
    /// spans are left out of `layer_coverage` so nothing is counted twice.
    pub overlapping: bool,
}

impl Span {
    /// Wall-clock length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; span times are relative to this call.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Set the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            overlapping: false,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span (and any span still open inside it).
    pub fn end(&mut self, span: SpanId) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == span.0 {
                break;
            }
        }
    }

    /// Record `f` as one span and return its result.
    pub fn time<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, layer);
        let out = f();
        self.end(span);
        out
    }

    /// [`time`](Self::time) for a call whose work sibling spans also cover.
    pub fn time_overlapping<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, layer);
        self.spans[span.0].overlapping = true;
        let out = f();
        self.end(span);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent's interval).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds, over the spans `keep` accepts.
pub fn layer_self_ns(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if keep(s) {
            *out.entry(s.layer).or_insert(0) += own;
        }
    }
    out
}

/// A span the replay accounts to a product layer exactly once: not the real
/// `core.process` call the replay is compared against, not one of the
/// benchmark's own grouping spans, and not marked overlapping.
pub fn is_replayed_layer_work(span: &Span) -> bool {
    !span.overlapping && span.layer != "perf" && span.name != "core.process"
}

/// Per operation, the summed duration of spans called `name`.
pub fn per_op_ns(spans: &[Span], name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op_id).or_insert(0) += s.duration_ns();
    }
    out
}

/// The spans as a JSON array of `{id, parent, op_id, name, layer, start_ns,
/// end_ns, overlapping}` objects.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("name", Json::Str(s.name.to_owned())),
                    ("layer", Json::Str(s.layer.to_owned())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("overlapping", Json::Bool(s.overlapping)),
                ])
            })
            .collect(),
    )
}
