//! The three workloads: seeded catalogs, query texts, the operation
//! cycle, and each query's reference.
//!
//! Everything here is bench-side generation. Only catalog construction
//! (the [`Workload::catalogs`] recipes) counts as set-up; texts, the
//! stream and the references are made outside every timed region.

use crate::query::{int, EngineCfg, Modality, Query, Reference};
use arc_analysis::{
    chain_catalog, likes_catalog, random_catalog, random_conjunctive_query,
    random_correlated_boolean_query, InstanceSpec, RelationSpec,
};
use arc_bench::fixtures as fx;
use arc_core::ast::{BindingSource, Collection, Definition, Formula, Program};
use arc_core::binder::SchemaMap;
use arc_core::value::{Key, Value};
use arc_engine::{Catalog, Relation, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::Duration;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Machine-generated and figure queries over small catalogs, with writes.
    Interactive,
    /// The paper's equations at sizes where asymptotics show.
    Analytic,
    /// Eq 16 ancestor over chains and cyclic graphs.
    Recursive,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Interactive, Kind::Analytic, Kind::Recursive];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Interactive => "interactive",
            Kind::Analytic => "analytic",
            Kind::Recursive => "recursive",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes: the benchmark's own, or the self-check's tiny ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small enough for a test run in well under a second.
    Tiny,
}

/// Rows appended to one relation of one catalog, followed by `ANALYZE`.
pub struct Write {
    /// Catalog index.
    pub catalog: usize,
    /// Relation name.
    pub relation: &'static str,
    /// Appended rows.
    pub rows: Vec<Tuple>,
}

/// One operation of the closed loop.
pub enum Op {
    /// Run query text `i` of [`Workload::queries`].
    Query(usize),
    /// Append rows and re-analyze.
    Write(Write),
}

/// Builds one catalog, relations registered (auto-ANALYZE included).
pub type Recipe = Box<dyn Fn() -> Catalog>;

/// A generated workload.
pub struct Workload {
    /// Catalog construction, one recipe per catalog.
    pub catalogs: Vec<Recipe>,
    /// Distinct query texts.
    pub queries: Vec<Query>,
    /// The operation cycle the closed loop replays.
    pub ops: Vec<Op>,
    /// Engine settings of the client.
    pub cfg: EngineCfg,
    /// Name of the evaluation span.
    pub eval_span: &'static str,
    /// A fixed cycle: stop only at the end of a cycle, so every query
    /// keeps its share, and report the cycle of each text's median
    /// latency instead of the percentiles of all latencies.
    pub whole_cycles: bool,
    /// Share of query operations that re-send a recently sent text.
    pub repeat_share: f64,
    /// One-line description of the sizes.
    pub sizes: String,
    /// Texts whose render failed; they run as ARC text instead.
    pub render_fallbacks: usize,
}

impl Workload {
    /// Whether the cycle writes (the loop then restores the catalogs
    /// between cycles).
    pub fn has_writes(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Write(_)))
    }

    /// Share of operations that are writes.
    pub fn write_share(&self) -> f64 {
        let w = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Write(_)))
            .count();
        w as f64 / self.ops.len() as f64
    }
}

/// Generate a workload from its seed.
pub fn build(kind: Kind, seed: u64, scale: Scale) -> Workload {
    match kind {
        Kind::Interactive => interactive(seed, scale),
        Kind::Analytic => analytic(seed, scale),
        Kind::Recursive => recursive(seed, scale),
    }
}

/// Apply a write: append the rows, re-register the relation and run the
/// explicit `ANALYZE` pass (which bumps the statistics epoch). Returns the
/// `Catalog::analyze` time.
pub fn apply_write(catalog: &mut Catalog, w: &Write) -> Duration {
    let mut rel = catalog
        .relation(w.relation)
        .expect("written relation exists")
        .clone();
    for row in &w.rows {
        rel.push(row.clone());
    }
    catalog.add(rel);
    let t = std::time::Instant::now();
    catalog.analyze();
    t.elapsed()
}

fn rel_rows<'c>(catalog: &'c Catalog, name: &str) -> &'c [Tuple] {
    &catalog.relation(name).expect("reference relation").rows
}

fn query(
    label: &str,
    modality: Modality,
    text: String,
    catalog: usize,
    reference: Reference,
) -> Query {
    Query {
        label: label.to_string(),
        modality,
        text,
        program: false,
        head: "Q".to_string(),
        catalog,
        reference,
    }
}

/// Render `ast` in `want`. Datalog goes through `render_program` with the
/// catalog's schemas: only its `.decl` lines give the positional atoms
/// the catalog's attribute names.
fn render(ast: &Collection, want: Modality, schemas: &SchemaMap) -> Result<String, String> {
    match want {
        Modality::Arc => Ok(arc_parser::print_collection(ast)),
        Modality::Sql => {
            arc_sql::arc_to_sql(ast, &Modality::Sql.conventions()).map_err(|e| e.to_string())
        }
        Modality::Datalog => {
            let program = Program::default().with_definition(Definition {
                collection: ast.clone(),
            });
            arc_datalog::render_program(&program, schemas).map_err(|e| e.to_string())
        }
    }
}

/// A query of the interactive mix in modality `want`. A render that fails
/// stays ARC and is counted in `fallbacks`.
fn rendered(
    label: &str,
    ast: Collection,
    want: Modality,
    catalog: (usize, &SchemaMap),
    fallbacks: &mut usize,
) -> Query {
    let (modality, text) = match render(&ast, want, catalog.1) {
        Ok(text) => (want, text),
        Err(_) => {
            *fallbacks += 1;
            (Modality::Arc, arc_parser::print_collection(&ast))
        }
    };
    query(label, modality, text, catalog.0, Reference::Oracle(ast))
}

/// Whether a negation in `f` refers to a variable bound outside it
/// (`NOT EXISTS` / `NOT IN` with correlation). The Datalog renderer drops
/// that correlation, so such queries are not sent as Datalog.
fn correlated_negation(f: &Formula) -> bool {
    match f {
        Formula::Not(inner) => {
            !arc_plan::analysis::formula_free_vars(inner).is_empty() || correlated_negation(inner)
        }
        Formula::Quant(q) => {
            q.bindings.iter().any(|b| match &b.source {
                BindingSource::Collection(c) => correlated_negation(&c.body),
                _ => false,
            }) || correlated_negation(&q.body)
        }
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(correlated_negation),
        Formula::Pred(_) => false,
    }
}

/// The modalities `ast` may be sent in.
fn modalities(ast: &Collection) -> &'static [Modality] {
    if correlated_negation(&ast.body) {
        &[Modality::Arc, Modality::Sql]
    } else {
        &Modality::ALL
    }
}

// ---------------------------------------------------------------------------
// interactive
// ---------------------------------------------------------------------------

/// Values of generated cells lie in `0..DOMAIN`.
const DOMAIN: i64 = 8;
/// One operation in `WRITE_EVERY` is a write.
const WRITE_EVERY: usize = 50;
/// Repeats re-send one of the last `RECENT` texts.
const RECENT: usize = 8;

fn rs_spec(null_rate: f64) -> InstanceSpec {
    let rel = |name: &str, attrs: [&str; 2]| RelationSpec {
        name: name.into(),
        attrs: attrs.iter().map(|a| a.to_string()).collect(),
        rows: 8..33,
        domain: 0..DOMAIN,
        null_rate,
    };
    InstanceSpec {
        relations: vec![rel("R", ["A", "B"]), rel("S", ["B", "C"])],
    }
}

fn ints_with_null(name: &str, attr: &str, vals: &[Option<i64>]) -> Relation {
    let mut r = Relation::new(name, &[attr]);
    for v in vals {
        r.push(vec![v.map_or(Value::Null, Value::Int)]);
    }
    r
}

// Small instances of the figures the fixtures do not provide.

fn fig3_catalog() -> Catalog {
    Catalog::new()
        .with(Relation::from_ints("X", &["A"], &[&[1], &[2], &[3]]))
        .with(Relation::from_ints("Y", &["A"], &[&[2], &[3], &[4]]))
}

fn fig4_catalog() -> Catalog {
    Catalog::new().with(Relation::from_ints(
        "R",
        &["A", "B"],
        &[&[1, 10], &[1, 20], &[2, 5]],
    ))
}

fn fig11_catalog() -> Catalog {
    Catalog::new()
        .with(ints_with_null("R", "A", &[Some(1), Some(2), Some(3), None]))
        .with(ints_with_null("S", "A", &[Some(2)]))
}

fn fig20_catalog() -> Catalog {
    let matrix =
        |name: &str, cells: &[&[i64]]| Relation::from_ints(name, &["row", "col", "val"], cells);
    Catalog::with_standard_externals()
        .with(matrix("A", &[&[0, 0, 1], &[0, 1, 2], &[1, 1, 3]]))
        .with(matrix("B", &[&[0, 0, 4], &[1, 0, 5], &[1, 1, 6]]))
}

fn count_bug_catalog() -> Catalog {
    fx::count_bug_catalog(false)
}

/// A figure query: label, query, instance.
type Figure = (&'static str, Collection, fn() -> Catalog);

/// The paper's figure queries, each with its instance.
fn figure_queries() -> Vec<Figure> {
    vec![
        ("eq2", fx::eq2(), fig3_catalog),
        ("eq3", fx::eq3(), fig4_catalog),
        ("eq7", fx::eq7(), fig4_catalog),
        ("eq8", fx::eq8(), fx::dept_paper_catalog),
        ("eq10", fx::eq10(), fx::dept_paper_catalog),
        ("eq12", fx::eq12(), fx::dept_paper_catalog),
        ("eq15", fx::eq15(), fx::eq15_catalog),
        ("eq17", fx::eq17(), fig11_catalog),
        ("eq18", fx::eq18(), fx::fig12_catalog),
        ("eq19", fx::eq19(), fx::fig15_catalog),
        ("eq20", fx::eq20(), fx::fig15_catalog),
        ("eq21", fx::eq21(), fx::fig15_catalog),
        ("eq22", fx::eq22(), fx::likes_paper_catalog),
        ("eq26", fx::eq26(), fig20_catalog),
        ("eq27", fx::eq27(), count_bug_catalog),
        ("eq28", fx::eq28(), count_bug_catalog),
        ("eq29", fx::eq29(), count_bug_catalog),
    ]
}

fn interactive(seed: u64, scale: Scale) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n_catalogs, per_catalog, cycle) = match scale {
        Scale::Full => (48, 40, 12000),
        Scale::Tiny => (2, 6, 150),
    };
    let mut catalogs: Vec<Recipe> = Vec::new();
    let mut null_rates = Vec::new();
    let mut queries = Vec::new();
    let mut fallbacks = 0;
    for g in 0..n_catalogs {
        // Half the catalogs carry 10% NULLs.
        let null_rate = if g % 2 == 1 { 0.1 } else { 0.0 };
        let spec = rs_spec(null_rate);
        let cat_seed: u64 = rng.gen();
        let spec_for_recipe = spec.clone();
        catalogs.push(Box::new(move || {
            random_catalog(&spec_for_recipe, &mut StdRng::seed_from_u64(cat_seed))
        }));
        null_rates.push(null_rate);
        let schemas = catalogs[g]().schema_map();
        for _ in 0..per_catalog {
            let qseed: u64 = rng.gen();
            let (label, ast) = match rng.gen_range(0..4u32) {
                0 | 1 => (
                    "gen.conj",
                    random_conjunctive_query(
                        &spec,
                        rng.gen_range(1..4),
                        rng.gen_range(0..3),
                        qseed,
                    ),
                ),
                shape => {
                    let negated = shape == 3;
                    let ast = random_correlated_boolean_query(
                        &spec,
                        rng.gen_range(1..3),
                        rng.gen_range(1..3),
                        rng.gen_range(0..2),
                        negated,
                        qseed,
                    );
                    (
                        if negated {
                            "gen.not_exists"
                        } else {
                            "gen.exists"
                        },
                        ast,
                    )
                }
            };
            let allowed = modalities(&ast);
            let want = allowed[rng.gen_range(0..allowed.len())];
            queries.push(rendered(label, ast, want, (g, &schemas), &mut fallbacks));
        }
    }
    for (label, ast, recipe) in figure_queries() {
        let idx = catalogs.len();
        let schemas = recipe().schema_map();
        catalogs.push(Box::new(recipe));
        for &want in modalities(&ast) {
            let q = rendered(label, ast.clone(), want, (idx, &schemas), &mut fallbacks);
            // A figure whose render fails is already in the mix as ARC.
            if q.modality == want {
                queries.push(q);
            }
        }
    }

    let mut ops = Vec::with_capacity(cycle);
    let mut recent: VecDeque<usize> = VecDeque::with_capacity(RECENT);
    let (mut repeats, mut sent) = (0usize, 0usize);
    for i in 0..cycle {
        if i % WRITE_EVERY == WRITE_EVERY - 1 {
            let catalog = rng.gen_range(0..n_catalogs);
            let relation = if rng.gen_bool(0.5) { "R" } else { "S" };
            let rows = (0..rng.gen_range(1..5))
                .map(|_| {
                    (0..2)
                        .map(|_| {
                            if null_rates[catalog] > 0.0 && rng.gen_bool(null_rates[catalog]) {
                                Value::Null
                            } else {
                                int(rng.gen_range(0..DOMAIN))
                            }
                        })
                        .collect()
                })
                .collect();
            ops.push(Op::Write(Write {
                catalog,
                relation,
                rows,
            }));
            continue;
        }
        let qi = if !recent.is_empty() && rng.gen_bool(0.5) {
            repeats += 1;
            recent[rng.gen_range(0..recent.len())]
        } else {
            rng.gen_range(0..queries.len())
        };
        sent += 1;
        if recent.len() == RECENT {
            recent.pop_front();
        }
        recent.push_back(qi);
        ops.push(Op::Query(qi));
    }
    let sizes = format!(
        "{n_catalogs} generated R/S catalogs of 8-32 rows per relation (half with 10% NULLs), \
         {} figure instances, {} distinct texts, cycle of {cycle} operations",
        catalogs.len() - n_catalogs,
        queries.len()
    );
    Workload {
        catalogs,
        queries,
        ops,
        cfg: EngineCfg {
            threads: 1,
            deadline: Some(Duration::from_secs(2)),
            mem_budget: Some(256 << 20),
        },
        eval_span: "engine.eval",
        whole_cycles: false,
        repeat_share: repeats as f64 / sent.max(1) as f64,
        sizes,
        render_fallbacks: fallbacks,
    }
}

// ---------------------------------------------------------------------------
// analytic
// ---------------------------------------------------------------------------

/// A fixed cycle sending each of `n` queries once, in order.
fn fixed_cycle(n: usize) -> Vec<Op> {
    (0..n).map(Op::Query).collect()
}

fn col(row: &Tuple, i: usize) -> Option<i64> {
    match row[i] {
        Value::Int(v) => Some(v),
        _ => None,
    }
}

/// Eq 1: `r.A` once per `s` with `s.B = r.B ∧ s.C = 0`.
fn ref_eq1(c: &Catalog) -> Vec<Tuple> {
    let mut per_b: HashMap<i64, usize> = HashMap::new();
    for s in rel_rows(c, "S") {
        if let (Some(b), Some(0)) = (col(s, 0), col(s, 1)) {
            *per_b.entry(b).or_default() += 1;
        }
    }
    let mut out = Vec::new();
    for r in rel_rows(c, "R") {
        let m = col(r, 1).and_then(|b| per_b.get(&b)).copied().unwrap_or(0);
        out.extend(std::iter::repeat_n(vec![r[0].clone()], m));
    }
    out
}

/// Eq 3: one `(A, Σ B)` row per group.
fn ref_eq3(c: &Catalog) -> Vec<Tuple> {
    let mut sums: BTreeMap<i64, i64> = BTreeMap::new();
    for r in rel_rows(c, "R") {
        *sums.entry(col(r, 0).unwrap()).or_default() += col(r, 1).unwrap();
    }
    sums.into_iter()
        .map(|(a, s)| vec![int(a), int(s)])
        .collect()
}

/// Eq 17: `R.A NOT IN S.A` with SQL's NULL rules.
fn ref_eq17(c: &Catalog) -> Vec<Tuple> {
    let s = rel_rows(c, "S");
    if s.iter().any(|row| row[0] == Value::Null) {
        return Vec::new();
    }
    let keys: HashSet<i64> = s.iter().filter_map(|row| col(row, 0)).collect();
    rel_rows(c, "R")
        .iter()
        .filter(|r| col(r, 0).is_some_and(|a| !keys.contains(&a)))
        .map(|r| vec![r[0].clone()])
        .collect()
}

/// `exists_corr(k)` keeps `r` when some `s.B = r.B` has `s.C > k - 5`,
/// with `k = |S|`; `negated` keeps the others.
fn ref_corr(c: &Catalog, negated: bool) -> Vec<Tuple> {
    let s = rel_rows(c, "S");
    let k = s.len() as i64;
    let hit: HashSet<i64> = s
        .iter()
        .filter(|row| col(row, 1).is_some_and(|v| v > k - 5))
        .filter_map(|row| col(row, 0))
        .collect();
    rel_rows(c, "R")
        .iter()
        .filter(|r| col(r, 1).is_some_and(|b| hit.contains(&b)) != negated)
        .map(|r| vec![r[0].clone()])
        .collect()
}

fn ref_exists(c: &Catalog) -> Vec<Tuple> {
    ref_corr(c, false)
}

fn ref_not_exists(c: &Catalog) -> Vec<Tuple> {
    ref_corr(c, true)
}

/// Eq 19: `r.A` once per `(s, t)` with `r.B - s.B > t.B`.
fn ref_eq19(c: &Catalog) -> Vec<Tuple> {
    let sb: Vec<i64> = rel_rows(c, "S").iter().filter_map(|r| col(r, 0)).collect();
    let tb: Vec<i64> = rel_rows(c, "T").iter().filter_map(|r| col(r, 0)).collect();
    let mut out = Vec::new();
    for r in rel_rows(c, "R") {
        let b = col(r, 1).unwrap();
        let m = sb
            .iter()
            .map(|s| tb.iter().filter(|&&t| b - s > t).count())
            .sum();
        out.extend(std::iter::repeat_n(vec![r[0].clone()], m));
    }
    out
}

/// Eq 22: each `l1.d` whose beer set no other drinker shares, once per
/// `L` row of that drinker.
fn ref_eq22(c: &Catalog) -> Vec<Tuple> {
    let rows = rel_rows(c, "L");
    let mut sets: BTreeMap<Key, Vec<Key>> = BTreeMap::new();
    for r in rows {
        sets.entry(r[0].key()).or_default().push(r[1].key());
    }
    for s in sets.values_mut() {
        s.sort();
        s.dedup();
    }
    let mut owners: HashMap<&Vec<Key>, usize> = HashMap::new();
    for s in sets.values() {
        *owners.entry(s).or_default() += 1;
    }
    rows.iter()
        .filter(|r| owners[&sets[&r[0].key()]] == 1)
        .map(|r| vec![r[0].clone()])
        .collect()
}

/// `R(A)` with `n` rows and `S(A)` holding the even values below `n`.
fn not_in_catalog(n: usize) -> Catalog {
    let mut r = Relation::new("R", &["A"]);
    let mut s = Relation::new("S", &["A"]);
    for i in 0..n as i64 {
        r.push(vec![int(i)]);
        if i % 2 == 0 {
            s.push(vec![int(i)]);
        }
    }
    Catalog::new().with(r).with(s)
}

/// A permutation of `0..n` drawn from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    ids
}

/// Seed of the Likes instance's subsets. It is fixed: which drinkers share
/// a beer set sets the cost of Eq 22, which would then vary from seed to
/// seed by up to 1.5×.
const LIKES_SUBSETS: u64 = 0;

/// `likes_catalog(drinkers, beers, LIKES_SUBSETS)` with its drinkers and
/// beers renamed by permutations drawn from `seed`.
fn likes_renamed(drinkers: usize, beers: usize, seed: u64) -> Catalog {
    let c = likes_catalog(drinkers, beers, LIKES_SUBSETS);
    let who = permutation(drinkers, seed);
    let what = permutation(beers, seed.wrapping_add(1));
    let mut l = Relation::new("L", &["d", "b"]);
    for row in rel_rows(&c, "L") {
        let Value::Str(name) = &row[0] else {
            unreachable!("likes_catalog names its drinkers")
        };
        let d: usize = name[1..].parse().expect("drinkers are named d0, d1, …");
        let b = col(row, 1).expect("beer id") as usize;
        l.push(vec![
            Value::str(format!("d{}", who[d])),
            int(what[b] as i64),
        ]);
    }
    Catalog::new().with(l)
}

struct AnalyticSizes {
    rs: usize,
    grouped: (usize, usize),
    not_in: usize,
    semijoin: (usize, usize),
    arith: (usize, usize),
    likes: (usize, usize),
}

fn analytic(seed: u64, scale: Scale) -> Workload {
    let z = match scale {
        Scale::Full => AnalyticSizes {
            rs: 2048,
            grouped: (65536, 256),
            not_in: 2048,
            semijoin: (65536, 4096),
            arith: (1024, 24),
            likes: (32, 8),
        },
        Scale::Tiny => AnalyticSizes {
            rs: 64,
            grouped: (256, 8),
            not_in: 64,
            semijoin: (256, 64),
            arith: (32, 6),
            likes: (6, 4),
        },
    };
    let AnalyticSizes {
        rs,
        grouped,
        not_in,
        semijoin,
        arith,
        likes,
    } = z;
    let catalogs: Vec<Recipe> = vec![
        Box::new(move || fx::rs_catalog(rs)),
        Box::new(move || fx::grouped_catalog(grouped.0, grouped.1)),
        Box::new(move || not_in_catalog(not_in)),
        Box::new(move || fx::semijoin_catalog(semijoin.0, semijoin.1)),
        Box::new(move || fx::arith_catalog(arith.0, arith.1)),
        Box::new(move || likes_renamed(likes.0, likes.1, seed)),
    ];
    let arc = |c: &Collection| arc_parser::print_collection(c);
    let sql = |c: &Collection| {
        arc_sql::arc_to_sql(c, &Modality::Sql.conventions()).expect("figure renders to SQL")
    };
    let datalog = |c: &Collection| {
        render(c, Modality::Datalog, &fx::all_schemas()).expect("figure renders to Datalog")
    };
    use Modality::{Arc, Datalog, Sql};
    use Reference::Direct;
    let queries = vec![
        query("eq1", Arc, arc(&fx::eq1()), 0, Direct(ref_eq1)),
        query("eq1", Sql, sql(&fx::eq1()), 0, Direct(ref_eq1)),
        query("eq1", Datalog, datalog(&fx::eq1()), 0, Direct(ref_eq1)),
        query("eq3", Sql, sql(&fx::eq3()), 1, Direct(ref_eq3)),
        query("eq17", Sql, sql(&fx::eq17()), 2, Direct(ref_eq17)),
        query(
            "exists_corr",
            Arc,
            arc(&fx::exists_corr(semijoin.1)),
            3,
            Direct(ref_exists),
        ),
        query(
            "not_exists_corr",
            Arc,
            arc(&fx::not_exists_corr(semijoin.1)),
            3,
            Direct(ref_not_exists),
        ),
        query("eq19", Sql, sql(&fx::eq19()), 4, Direct(ref_eq19)),
        query("eq22", Arc, arc(&fx::eq22()), 5, Direct(ref_eq22)),
        query("eq22", Sql, sql(&fx::eq22()), 5, Direct(ref_eq22)),
    ];
    let ops = fixed_cycle(queries.len());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    Workload {
        catalogs,
        queries,
        ops,
        cfg: EngineCfg {
            threads,
            deadline: None,
            mem_budget: None,
        },
        eval_span: "engine.eval",
        whole_cycles: true,
        repeat_share: 1.0,
        sizes: format!(
            "rs_catalog({rs}), grouped_catalog({}, {}), NOT IN R/S({not_in}), \
             semijoin_catalog({}, {}), arith_catalog({}, {}), \
             likes_catalog({}, {}, {LIKES_SUBSETS}) with seeded names",
            grouped.0, grouped.1, semijoin.0, semijoin.1, arith.0, arith.1, likes.0, likes.1
        ),
        render_fallbacks: 0,
    }
}

// ---------------------------------------------------------------------------
// recursive
// ---------------------------------------------------------------------------

/// Transitive closure of `P(s, t)` by a breadth-first search per node.
fn ref_closure(c: &Catalog) -> Vec<Tuple> {
    let mut next: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for row in rel_rows(c, "P") {
        next.entry(col(row, 0).unwrap())
            .or_default()
            .push(col(row, 1).unwrap());
    }
    let mut out = Vec::new();
    for &start in next.keys() {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<i64> = next[&start].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if seen.insert(v) {
                out.push(vec![int(start), int(v)]);
                if let Some(ns) = next.get(&v) {
                    queue.extend(ns.iter().copied());
                }
            }
        }
    }
    out
}

/// Seed of the cyclic graphs' extra edges. It is fixed: where random
/// shortcuts fall sets the number of fixpoint rounds, and so the cost,
/// which would then vary from seed to seed by up to 2.5×.
const CYCLIC_EDGES: u64 = 0;

/// `chain_catalog(d, d/4 - 1, CYCLIC_EDGES)` closed by the edge `d → 0`:
/// a cyclic graph whose closure is full, `(d + 1)²` facts.
fn cyclic_catalog(d: usize) -> Catalog {
    let mut c = chain_catalog(d, d / 4 - 1, CYCLIC_EDGES);
    let mut p = c.relation("P").expect("chain_catalog builds P").clone();
    p.push(vec![int(d as i64), int(0)]);
    c.add(p);
    c
}

/// The graph `P` of `c` with its `d + 1` nodes renamed by a permutation
/// drawn from `seed`: the same shape, and so the same fixpoint work, under
/// other node ids.
fn relabeled(c: Catalog, d: usize, seed: u64) -> Catalog {
    let ids = permutation(d + 1, seed);
    let mut p = Relation::new("P", &["s", "t"]);
    for row in rel_rows(&c, "P") {
        let node = |i: usize| int(ids[col(row, i).expect("node id") as usize] as i64);
        p.push(vec![node(0), node(1)]);
    }
    Catalog::new().with(p)
}

fn recursive(seed: u64, scale: Scale) -> Workload {
    let depths: &[usize] = match scale {
        Scale::Full => &[64, 96, 128],
        Scale::Tiny => &[6, 9, 12],
    };
    let program = fx::eq16();
    let arc_text = arc_parser::print_program(&program);
    let mut schemas = arc_core::binder::SchemaMap::new();
    schemas.insert("P".into(), vec!["s".into(), "t".into()]);
    let datalog_text =
        arc_datalog::render_program(&program, &schemas).expect("Eq 16 renders to Datalog");
    let mut catalogs: Vec<Recipe> = Vec::new();
    let mut queries = Vec::new();
    for &d in depths {
        for shape in ["chain", "cyclic"] {
            let idx = catalogs.len();
            catalogs.push(Box::new(move || {
                let graph = if shape == "chain" {
                    chain_catalog(d, 0, seed)
                } else {
                    cyclic_catalog(d)
                };
                relabeled(graph, d, seed)
            }));
            for (modality, text) in [
                (Modality::Datalog, &datalog_text),
                (Modality::Arc, &arc_text),
            ] {
                queries.push(Query {
                    label: format!("eq16.{shape}{d}"),
                    modality,
                    text: text.clone(),
                    program: true,
                    head: "A".to_string(),
                    catalog: idx,
                    reference: Reference::Direct(ref_closure),
                });
            }
        }
    }
    let ops = fixed_cycle(queries.len());
    Workload {
        catalogs,
        queries,
        ops,
        cfg: EngineCfg {
            threads: 1,
            deadline: None,
            mem_budget: None,
        },
        eval_span: "fixpoint.eval",
        whole_cycles: true,
        repeat_share: 1.0,
        sizes: format!(
            "chain_catalog(d, 0, _) and chain_catalog(d, d/4 - 1, {CYCLIC_EDGES}) + edge d->0, \
             nodes renamed by a seeded permutation, for d in {depths:?}"
        ),
        render_fallbacks: 0,
    }
}
