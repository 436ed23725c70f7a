//! One query, from text to result, through the system's public calls:
//! frontend parse/lower → `Engine::new` + builders → `eval_collection` /
//! `eval_program`. Each layer call is one bench-side span.

use crate::trace::Tracer;
use arc_core::ast::{Collection, Program};
use arc_core::conventions::{Conventions, Semantics};
use arc_core::value::Value;
use arc_engine::{Catalog, Engine, Relation, Tuple};
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// The surface syntax a query text is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Modality {
    /// ARC comprehension syntax (`arc-parser`).
    Arc,
    /// SQL (`arc-sql`).
    Sql,
    /// Soufflé-style Datalog (`arc-datalog`).
    Datalog,
}

impl Modality {
    /// Every modality, in report order.
    pub const ALL: [Modality; 3] = [Modality::Arc, Modality::Sql, Modality::Datalog];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Modality::Arc => "arc",
            Modality::Sql => "sql",
            Modality::Datalog => "datalog",
        }
    }

    /// The conventions a client of this modality evaluates under (paper
    /// §2.6): textbook sets for ARC, SQL's bags, Soufflé's sets.
    pub fn conventions(self) -> Conventions {
        match self {
            Modality::Arc => Conventions::set(),
            Modality::Sql => Conventions::sql(),
            Modality::Datalog => Conventions::souffle(),
        }
    }
}

/// How a query's expected result is obtained, before any timing.
pub enum Reference {
    /// Evaluate the generating AST with `EvalStrategy::NestedLoop` (the
    /// paper's conceptual evaluation) on the catalog as the stream left it.
    Oracle(Collection),
    /// Compute the answer bag directly from the catalog's rows in bench
    /// code; set semantics then deduplicates it.
    Direct(fn(&Catalog) -> Vec<Tuple>),
}

/// One distinct query text and what it runs against.
pub struct Query {
    /// Report label (the figure or generator it came from).
    pub label: String,
    /// Surface syntax of `text`.
    pub modality: Modality,
    /// The text the system receives.
    pub text: String,
    /// ARC program text (`parse_program`), not a single collection.
    pub program: bool,
    /// Relation holding the answer of a program.
    pub head: String,
    /// Index of the catalog it runs against.
    pub catalog: usize,
    /// How its expected answer is obtained.
    pub reference: Reference,
}

/// Engine settings of a workload, applied through the `with_*` builders.
#[derive(Debug, Clone, Copy)]
pub struct EngineCfg {
    /// `with_threads`.
    pub threads: usize,
    /// `with_timeout`, when set.
    pub deadline: Option<Duration>,
    /// `with_mem_budget`, when set.
    pub mem_budget: Option<usize>,
}

impl EngineCfg {
    /// Build an engine the way the workload's client does.
    pub fn engine<'c>(&self, catalog: &'c Catalog, conv: Conventions) -> Engine<'c> {
        let mut e = Engine::new(catalog, conv).with_threads(self.threads);
        if let Some(d) = self.deadline {
            e = e.with_timeout(d);
        }
        if let Some(b) = self.mem_budget {
            e = e.with_mem_budget(b);
        }
        e
    }
}

/// A lowered query: what the frontend hands the engine.
pub enum Lowered {
    /// A single collection (`eval_collection`).
    Collection(Collection),
    /// A program (`eval_program`).
    Program(Program),
}

/// Parse/lower the text with its frontend, one span per frontend call.
pub fn lower(q: &Query, catalog: &Catalog, tr: &mut Tracer) -> Result<Lowered, String> {
    match q.modality {
        Modality::Arc => tr.span("parser.parse", || {
            if q.program {
                arc_parser::parse_program(&q.text).map(Lowered::Program)
            } else {
                arc_parser::parse_collection(&q.text).map(Lowered::Collection)
            }
            .map_err(|e| e.to_string())
        }),
        Modality::Sql => tr.span("sql.to_arc", || {
            arc_sql::sql_to_arc(&q.text, &catalog.schema_map())
                .map(Lowered::Collection)
                .map_err(|e| e.to_string())
        }),
        Modality::Datalog => tr.span("datalog.lower", || {
            let parsed = arc_datalog::parse_datalog(&q.text).map_err(|e| e.to_string())?;
            arc_datalog::lower_program(&parsed)
                .map(Lowered::Program)
                .map_err(|e| e.to_string())
        }),
    }
}

/// Evaluate a lowered query and return the answer relation.
pub fn evaluate(engine: &Engine, lowered: &Lowered, head: &str) -> Result<Relation, String> {
    match lowered {
        Lowered::Collection(c) => engine.eval_collection(c).map_err(|e| e.to_string()),
        Lowered::Program(p) => {
            let mut out = engine.eval_program(p).map_err(|e| e.to_string())?;
            out.query
                .or_else(|| out.defined.remove(head))
                .ok_or_else(|| format!("program defines no `{head}`"))
        }
    }
}

/// Text in, result out: the timed unit of every workload. `eval_span`
/// names the evaluation span (`engine.eval` or `fixpoint.eval`).
pub fn execute(
    q: &Query,
    catalog: &Catalog,
    cfg: &EngineCfg,
    eval_span: &'static str,
    tr: &mut Tracer,
) -> Result<Relation, String> {
    let lowered = lower(q, catalog, tr)?;
    let engine = tr.span("engine.new", || {
        cfg.engine(catalog, q.modality.conventions())
    });
    tr.span(eval_span, || evaluate(&engine, &lowered, &q.head))
}

/// Order-independent digest of a bag of rows: equal bags give equal
/// fingerprints, and any changed, added or dropped row changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    rows: u64,
    sum: u64,
    mix: u64,
}

impl Fingerprint {
    /// Fingerprint of a row bag.
    pub fn of(rows: &[Tuple]) -> Fingerprint {
        let mut fp = Fingerprint {
            rows: rows.len() as u64,
            sum: 0,
            mix: 0,
        };
        let mut key = Vec::new();
        for row in rows {
            Relation::row_key_into(row, &mut key);
            let mut h = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut h);
            let h = h.finish();
            fp.sum = fp.sum.wrapping_add(h);
            fp.mix = fp.mix.wrapping_add(h.rotate_left(29).wrapping_mul(h | 1));
        }
        fp
    }

    /// A deliberately wrong copy (the self-check's corrupted reference).
    pub fn corrupted(self) -> Fingerprint {
        Fingerprint {
            rows: self.rows + 1,
            ..self
        }
    }
}

/// Deduplicate a bag when the conventions are set-valued.
pub fn under(conv: Conventions, mut rows: Vec<Tuple>) -> Vec<Tuple> {
    if conv.semantics == Semantics::Set {
        rows.sort_by_cached_key(|r| Relation::row_key(r));
        rows.dedup_by(|a, b| Relation::row_key(a) == Relation::row_key(b));
    }
    rows
}

/// The expected fingerprint of `q` on `catalog`.
pub fn expected(q: &Query, catalog: &Catalog) -> Result<Fingerprint, String> {
    let conv = q.modality.conventions();
    let rows = match &q.reference {
        Reference::Oracle(ast) => {
            Engine::new(catalog, conv)
                .with_threads(1)
                .with_strategy(arc_engine::EvalStrategy::NestedLoop)
                .eval_collection(ast)
                .map_err(|e| format!("oracle: {e}"))?
                .rows
        }
        Reference::Direct(f) => under(conv, f(catalog)),
    };
    Ok(Fingerprint::of(&rows))
}

/// Integer cell.
pub fn int(v: i64) -> Value {
    Value::Int(v)
}
