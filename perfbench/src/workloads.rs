//! The three workloads. Each runs the whole path — integrate, export,
//! ranked queries, refine installments, feedback, durable publish and
//! reopen — so every end-to-end metric is defined on every workload;
//! what differs is the input shape and which stage carries the load.

use crate::flow::{
    export, query, reopen, run_query, store_bytes, until, Corrupt, Ctx, Payg, Setup, ALL_POOLS,
};
use crate::gen::{self, Rng, Sources};
use crate::layers::Replay;
use crate::measure::secs;
use imprecise::integrate::{BlockingMode, IntegrationOptions, Parallelism, RefineOptions};
use imprecise::PreparedQuery;
use std::sync::Arc;
use std::time::Instant;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Catalog,
    Refine,
    Session,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Catalog, Workload::Refine, Workload::Session];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog",
            Workload::Refine => "refine",
            Workload::Session => "session",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A prepared workload: inputs built, ready to loop.
pub trait Prepared {
    /// One iteration of the measured loop.
    fn iterate(&mut self, ctx: &mut Ctx);
    /// The direct layer calls of the traced run.
    fn replay(&self) -> Replay<'_>;
    /// Workload sizes for the run record.
    fn sizes(&self) -> String;
}

/// Build the workload's inputs and starting state.
fn set_up(ctx: &mut Ctx, workload: Workload) -> Box<dyn Prepared> {
    match workload {
        Workload::Catalog => Box::new(Catalog::new(ctx)),
        Workload::Refine => Box::new(Refine::new(ctx)),
        Workload::Session => Box::new(Session::new(ctx)),
    }
}

/// [`set_up`], timed as a `setup_s` sample.
fn timed_set_up(ctx: &mut Ctx, workload: Workload) -> Box<dyn Prepared> {
    let start = Instant::now();
    let prepared = set_up(ctx, workload);
    ctx.rec.sample("setup", secs(start));
    prepared
}

/// Set the workload up, then run the once-per-run checks. The first
/// set-up is untimed: it pays the process's lazy initialisation and
/// first page faults, which later set-ups do not.
pub fn prepare(ctx: &mut Ctx, workload: Workload) -> Box<dyn Prepared> {
    drop(set_up(ctx, workload));
    let prepared = timed_set_up(ctx, workload);
    match workload {
        Workload::Catalog => catalog_checks(ctx),
        Workload::Refine => naive_checks(ctx, &refine_naive_instance(ctx.seed), &refine_setup(8)),
        Workload::Session => {
            naive_checks(ctx, &catalog_naive_instance(ctx.seed), &catalog_setup(None))
        }
    }
    prepared
}

/// Run the measured loop for `ctx.seconds`. Every iteration also sets
/// the workload up once more, timed: set-up lasts well under a second,
/// so samples spread over the whole run keep `setup_s` from resting on
/// whatever the machine was doing in its first second.
pub fn run(ctx: &mut Ctx, prepared: &mut dyn Prepared, workload: Workload) {
    let seconds = ctx.seconds;
    until(seconds, || {
        prepared.iterate(ctx);
        drop(timed_set_up(ctx, workload));
    });
}

fn catalog_setup(budget: Option<usize>) -> Setup {
    Setup {
        oracle: Arc::new(imprecise_bench::blocking_oracle()),
        schema: imprecise::datagen::movie_schema(),
        options: IntegrationOptions {
            blocking: BlockingMode::RecallSafe,
            max_matchings_per_component: budget
                .unwrap_or(IntegrationOptions::default().max_matchings_per_component),
            ..IntegrationOptions::default()
        },
    }
}

fn refine_setup(budget: usize) -> Setup {
    Setup {
        oracle: Arc::new(imprecise_bench::confusion_oracle()),
        schema: imprecise::datagen::movie_schema(),
        options: IntegrationOptions {
            blocking: BlockingMode::RecallSafe,
            max_matchings_per_component: budget,
            ..IntegrationOptions::default()
        },
    }
}

/// Refine options of an installment: `extra` more matchings for up to
/// `components` components, on every core.
fn installment(extra: usize, components: usize) -> RefineOptions {
    RefineOptions {
        extra_matchings: extra,
        min_retained_mass: None,
        max_components: components,
        threads: Some(Parallelism::AUTO),
    }
}

/// The pay-as-you-go leg of the catalogue-shaped workloads: the reduced
/// instance integrated keeping only the likeliest matching of each
/// component, then refined where mass was discarded.
fn catalog_payg(sources: Sources, tiny: bool, feeds: &'static [&'static str]) -> Payg {
    let components = if tiny { 2 } else { 32 };
    Payg::new(
        sources,
        None,
        catalog_setup(Some(1)),
        2,
        installment(1, components),
        vec![vec![query("//movie/title")]],
        0,
        feeds,
    )
}

/// The small catalogue the naive evaluator can enumerate (784 worlds).
fn catalog_naive_instance(seed: u64) -> Sources {
    gen::catalog(seed, 8)
}

/// The small refine instance the naive evaluator can enumerate.
fn refine_naive_instance(seed: u64) -> Sources {
    gen::confusable(seed, &[2, 1])
}

/// Point, path and aggregate queries must agree with `eval_px_naive` on
/// a small instance of the workload's generator.
fn naive_checks(ctx: &mut Ctx, sources: &Sources, setup: &Setup) {
    let Some(outcome) = ctx.op(None, "check.integrate", || {
        setup.integrate_in_memory(sources)
    }) else {
        return;
    };
    let texts = [
        format!("//movie[title='{}']/year", sources.titles[0]),
        "//movie/title".to_string(),
        "//movie/director".to_string(),
    ];
    for text in &texts {
        ctx.agrees_with_naive(&outcome.doc, &query(text));
    }
}

/// Blocked ≡ unblocked on a small catalogue, plus the naive checks.
fn catalog_checks(ctx: &mut Ctx) {
    let small = gen::catalog(ctx.seed, if ctx.tiny { 40 } else { 200 });
    let blocked = catalog_setup(None);
    let mut unblocked = catalog_setup(None);
    unblocked.options.blocking = BlockingMode::Off;
    let a = ctx.op(None, "check.blocked", || {
        blocked.integrate_in_memory(&small)
    });
    let b = ctx.op(None, "check.unblocked", || {
        unblocked.integrate_in_memory(&small)
    });
    if let (Some(a), Some(b)) = (a, b) {
        let (fa, fb) = (a.doc.fingerprint(), b.doc.fingerprint());
        ctx.same(
            Corrupt::Fingerprint,
            fb,
            fa,
            "blocked vs unblocked integration",
        );
    }
    naive_checks(ctx, &catalog_naive_instance(ctx.seed), &blocked);
}

// ---------------------------------------------------------------- catalog

/// Reduced-size integrations per catalog iteration.
const SMALL_REPEATS: usize = 5;

/// Batch integration of two large catalogues: candidate generation,
/// merge and simplify do the work.
struct Catalog {
    big: Sources,
    small: Sources,
    setup: Setup,
    queries: Vec<PreparedQuery>,
    feedback: Option<String>,
    payg: Payg,
    agg: (Sources, Sources),
}

impl Catalog {
    fn new(ctx: &mut Ctx) -> Self {
        let (n, small_n, q) = if ctx.tiny {
            (200, 40, 6)
        } else {
            (10_000, 1_000, 24)
        };
        let big = gen::catalog(ctx.seed, n);
        let small = gen::catalog(ctx.seed, small_n);
        let mut rng = Rng::new(ctx.seed ^ 0xCA7A);
        // Selective point and path queries on seeded targets.
        let queries = (0..q)
            .map(|i| {
                let text = if i % 8 < 5 {
                    let t = &big.titles[rng.below(big.titles.len())];
                    format!("//movie[title='{t}']/year")
                } else {
                    format!("//movie[year='{}']/title", 1900 + rng.below(120))
                };
                query(&text)
            })
            .collect();
        let feedback = big
            .confirm
            .get(rng.below(big.confirm.len().max(1)))
            .cloned();
        let agg_n = if ctx.tiny { 20 } else { 150 };
        Catalog {
            payg: catalog_payg(
                small.clone(),
                ctx.tiny,
                &[
                    "refine_step",
                    "discarded_mass",
                    "open",
                    "store_bytes_per_publish",
                ],
            ),
            agg: (
                gen::catalog(ctx.seed, agg_n),
                gen::catalog(ctx.seed, 2 * agg_n),
            ),
            big,
            small,
            setup: catalog_setup(None),
            feedback,
            queries,
        }
    }
}

impl Prepared for Catalog {
    fn iterate(&mut self, ctx: &mut Ctx) {
        self.payg.cycle(ctx);
        let setup = &self.setup;
        let engine = setup.in_memory();
        // The reduced integration lasts tens of milliseconds and swings
        // more from one to the next than the full one: several samples
        // per iteration keep its median, and so `integrate_growth_x`,
        // steady.
        let small = &self.small;
        for _ in 0..SMALL_REPEATS {
            ctx.op(Some("integrate_small"), "core.integrate", || {
                setup.integrate(&engine, small, "small")
            });
        }
        let big = &self.big;
        let Some(doc) = ctx.op(Some("integrate"), "core.integrate", || {
            setup.integrate(&engine, big, "doc")
        }) else {
            return;
        };
        ctx.invariants(&engine, &doc);
        if let Ok(snap) = engine.snapshot(&doc) {
            ctx.expect_same(
                Corrupt::Fingerprint,
                "catalog integration".into(),
                snap.doc().fingerprint(),
            );
        }
        export(ctx, &engine, &doc, Some("export"));
        for i in 0..self.queries.len() {
            let q = &self.queries[i];
            if let Some(ranked) =
                ctx.op(Some("query"), "core.query", || run_query(&engine, &doc, q))
            {
                ctx.expect_same(
                    Corrupt::Answer,
                    format!("catalog query {i}"),
                    Ctx::answers(&ranked),
                );
            }
        }
        let title = query("//movie/title");
        let Some(value) = &self.feedback else {
            ctx.rec.fail("catalog has no title to confirm".into());
            return;
        };
        if let Some(report) = ctx.op(Some("feedback"), "core.feedback", || {
            engine.feedback(&doc, &title, value, true)
        }) {
            ctx.note_feedback(&report);
            ctx.invariants(&engine, &doc);
            if let Ok(snap) = engine.snapshot(&doc) {
                ctx.expect_same(
                    Corrupt::Fingerprint,
                    "catalog feedback".into(),
                    snap.doc().fingerprint(),
                );
            }
        }
    }

    fn replay(&self) -> Replay<'_> {
        Replay {
            sources: &self.big,
            setup: &self.setup,
            payg: &self.payg,
            point: self.queries[0].text().to_string(),
            scan: "//movie/title".into(),
            agg: (&self.agg.0, &self.agg.1),
            confirm: self.feedback.as_deref(),
        }
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"movies\":{},\"growth_base\":{},\"queries_per_iteration\":{},\"payg_movies\":{},\"agg_movies\":{}}}",
            self.big.movies,
            self.small.movies,
            self.queries.len(),
            self.payg.sources.movies,
            self.agg.1.movies
        )
    }
}

// ----------------------------------------------------------------- refine

/// The pay-as-you-go loop on confusable blocks: best-first search,
/// incremental emission and durable appends do the work.
struct Refine {
    payg: Payg,
    agg_small: Sources,
}

impl Refine {
    fn new(ctx: &mut Ctx) -> Self {
        let (sizes, small, budget, steps, extra): (&[usize], &[usize], _, _, _) = if ctx.tiny {
            (&[3, 2], &[2, 1], 4, 2, 4)
        } else {
            (&[5, 4, 3], &[3, 2, 2], 8, 2, 16)
        };
        let sources = gen::confusable(ctx.seed, sizes);
        let setup = refine_setup(budget);
        // Built at set-up: a durable engine holding the budgeted
        // integration (each cycle rebuilds it on a fresh store). It is
        // timed with the set-up, not as `integrate_s`: following a cycle,
        // its first fsync also commits the previous segment's deletion.
        let path = ctx.fresh_store();
        if let Some(engine) = ctx.op(None, "core.open_store", || setup.durable(&path)) {
            ctx.op(None, "core.integrate", || {
                setup.integrate(&engine, &sources, "doc")
            });
        }
        let _ = std::fs::remove_file(&path);
        // Title scans only: four after installment 1, one after
        // installment 2. Refinement makes the scan slower, so sorted by
        // latency the pool falls into two bands, 80% and 20%: the median
        // lands inside the first and the 90th percentile in the middle
        // of the second, never on an edge where the run-to-run mix would
        // move them. Point queries are left out: their cost depends on
        // the seeded title and falls between the bands. Likewise the
        // two installments and the resumed one put the median refine
        // step mid-band on the second. Each query is parsed on its own:
        // clones would share one run cache.
        let scans = |n: usize| (0..n).map(|_| query("//movie/title")).collect();
        let after = vec![scans(4), scans(1)];
        Refine {
            agg_small: gen::confusable(ctx.seed, &sizes[..sizes.len() - 1]),
            payg: Payg::new(
                sources,
                Some(gen::confusable(ctx.seed, small)),
                setup,
                steps,
                installment(extra, usize::MAX),
                after,
                1,
                ALL_POOLS,
            ),
        }
    }
}

impl Prepared for Refine {
    fn iterate(&mut self, ctx: &mut Ctx) {
        self.payg.cycle(ctx);
    }

    fn replay(&self) -> Replay<'_> {
        Replay {
            sources: &self.payg.sources,
            setup: &self.payg.setup,
            payg: &self.payg,
            point: format!("//movie[title='{}']/year", self.payg.sources.titles[0]),
            scan: "//movie/title".into(),
            agg: (&self.agg_small, &self.payg.sources),
            confirm: None,
        }
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"movies\":{},\"growth_base\":{},\"budget\":{},\"installments\":{},\"extra_matchings\":{}}}",
            self.payg.sources.movies,
            self.payg.small.as_ref().map_or(0, |s| s.movies),
            self.payg.setup.options.max_matchings_per_component,
            self.payg.installments,
            self.payg.refine.extra_matchings
        )
    }
}

// ---------------------------------------------------------------- session

/// In-memory integrations of both sizes per session.
const INTEGRATE_REPEATS: usize = 3;

/// One step of the read-heavy session.
#[derive(Debug, Clone)]
enum Step {
    Query(usize),
    Feedback(String),
}

/// A read-heavy interactive session on an integrated catalogue: query
/// planning, evaluation and event probability do the work.
struct Session {
    sources: Sources,
    small: Sources,
    setup: Setup,
    base: Arc<imprecise::pxml::PxDoc>,
    queries: Vec<PreparedQuery>,
    steps: Vec<Step>,
    payg: Payg,
}

impl Session {
    fn new(ctx: &mut Ctx) -> Self {
        // Sorted by latency the full mix falls into bands: points (24 of
        // 34), scans (4), aggregates (6). The median lands 70% into the
        // points, the 90th percentile in the middle of the aggregates.
        // Points target the typo'd titles of `confirm`: each is uncertain
        // and in a 1×1 component, so every point costs about the same.
        // Drawn from all titles, the share of uncertain (dearer) ones
        // would vary with the seed and move the median.
        let (n, point, scan, agg, again) = if ctx.tiny {
            (40, 2, 1, 1, 1)
        } else {
            (300, 24, 2, 6, 2)
        };
        let sources = gen::catalog(ctx.seed, n);
        let small = gen::catalog(ctx.seed, n / 2);
        let setup = catalog_setup(None);
        // Built at set-up: the integrated document, which every session
        // then publishes to a fresh durable store.
        let engine = setup.in_memory();
        let base = ctx
            .op(None, "core.integrate", || {
                setup.integrate(&engine, &sources, "doc")
            })
            .and_then(|doc| engine.snapshot(&doc).ok())
            .map(|snap| snap.doc_arc())
            .unwrap_or_default();
        let mut rng = Rng::new(ctx.seed ^ 0x5E55);
        let mut queries = Vec::new();
        let mut add = |text: String| {
            queries.push(query(&text));
            Step::Query(queries.len() - 1)
        };
        // Browse (aggregates included), confirm a title, look at the
        // titles again, confirm two more. Conditioning by event expansion
        // makes the aggregate query several times slower per confirmation,
        // so aggregates run only before the first one (see README.md).
        let mut browse: Vec<Step> = Vec::new();
        for _ in 0..point {
            let t = &sources.confirm[rng.below(sources.confirm.len())];
            browse.push(add(format!("//movie[title='{t}']/year")));
        }
        for _ in 0..scan {
            browse.push(add("//movie/title".into()));
        }
        for _ in 0..agg {
            browse.push(add("//movie/director".into()));
        }
        rng.shuffle(&mut browse);
        let again: Vec<Step> = (0..again).map(|_| add("//movie/title".into())).collect();
        let mut confirm = sources.confirm.clone();
        rng.shuffle(&mut confirm);
        let mut confirm = confirm.into_iter().map(Step::Feedback);
        let mut steps = browse;
        steps.extend(confirm.next());
        steps.extend(again);
        steps.extend(confirm.take(2));
        Session {
            payg: catalog_payg(small.clone(), ctx.tiny, &["refine_step", "discarded_mass"]),
            sources,
            small,
            setup,
            base,
            queries,
            steps,
        }
    }
}

impl Prepared for Session {
    fn iterate(&mut self, ctx: &mut Ctx) {
        self.payg.cycle(ctx);
        // Integration is set-up work here; it is sampled a few times per
        // session (about 2% of its time) so that `integrate_s` rests on
        // samples spread over the run rather than on the first second of
        // it, and on enough of them: each lasts only milliseconds.
        let (setup, engine) = (&self.setup, self.setup.in_memory());
        let (small, sources) = (&self.small, &self.sources);
        for _ in 0..INTEGRATE_REPEATS {
            ctx.op(Some("integrate_small"), "core.integrate", || {
                setup.integrate(&engine, small, "small")
            });
            if let Some(doc) = ctx.op(Some("integrate"), "core.integrate", || {
                setup.integrate(&engine, sources, "doc")
            }) {
                if let Ok(snap) = engine.snapshot(&doc) {
                    ctx.same(
                        Corrupt::Fingerprint,
                        self.base.fingerprint(),
                        snap.doc().fingerprint(),
                        "session integration",
                    );
                }
            }
        }
        drop(engine);
        let path = ctx.fresh_store();
        let Some(engine) = ctx.op(None, "core.open_store", || self.setup.durable(&path)) else {
            return;
        };
        let base = Arc::clone(&self.base);
        let Some(doc) = ctx.op(None, "core.publish", || engine.insert_arc("doc", base)) else {
            return;
        };
        let mut publishes = 1;
        export(ctx, &engine, &doc, Some("export"));
        let title = query("//movie/title");
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Query(q) => {
                    let q = &self.queries[*q];
                    if let Some(ranked) =
                        ctx.op(Some("query"), "core.query", || run_query(&engine, &doc, q))
                    {
                        ctx.expect_same(
                            Corrupt::Answer,
                            format!("session step {i}"),
                            Ctx::answers(&ranked),
                        );
                    }
                }
                Step::Feedback(value) => {
                    if let Some(report) = ctx.op(Some("feedback"), "core.feedback", || {
                        engine.feedback(&doc, &title, value, true)
                    }) {
                        publishes += 1;
                        ctx.note_feedback(&report);
                        ctx.invariants(&engine, &doc);
                    }
                }
            }
        }
        if reopen(ctx, &self.setup, engine, &doc, &path, Some("open")).is_some() {
            store_bytes(ctx, &path, publishes, Some("store_bytes_per_publish"));
        }
    }

    fn replay(&self) -> Replay<'_> {
        Replay {
            sources: &self.sources,
            setup: &self.setup,
            payg: &self.payg,
            point: self.queries[0].text().to_string(),
            scan: "//movie/title".into(),
            agg: (&self.small, &self.sources),
            confirm: self.sources.confirm.first().map(String::as_str),
        }
    }

    fn sizes(&self) -> String {
        format!(
            "{{\"movies\":{},\"growth_base\":{},\"choice_points\":{},\"steps_per_session\":{},\"payg_movies\":{}}}",
            self.sources.movies,
            self.small.movies,
            self.base.node_breakdown().prob,
            self.steps.len(),
            self.payg.sources.movies
        )
    }
}
