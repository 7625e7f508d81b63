//! What every workload shares: the run context, engine set-up, the
//! correctness checks, and the pay-as-you-go leg (budgeted durable
//! integrate → refine installments → reopen → resumed installment →
//! feedback).

use crate::gen::Sources;
use crate::measure::{Recorder, Tracer};
use imprecise::integrate::{integrate_px_shared, IntegrationOptions, RefineOptions};
use imprecise::oracle::Oracle;
use imprecise::pxml::{parse_annotated, PxDoc};
use imprecise::query::{eval_px_naive, RankedAnswers};
use imprecise::xml::{parse, Schema};
use imprecise::{DocHandle, Durability, Engine, ImpreciseError, PreparedQuery};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A deliberately corrupted output, for proving the checks count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    Answer,
    Fingerprint,
}

/// Everything one run carries: its options, the operation recorder,
/// the tracer and the expected outputs seen so far.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub rec: Recorder,
    pub tracer: Tracer,
    work: PathBuf,
    stores: usize,
    corrupt: Option<Corrupt>,
    expected: BTreeMap<String, u64>,
    /// Feedback conditionings resolved by `Method::Local`, and all.
    pub feedback_local: (u64, u64),
}

impl Ctx {
    pub fn new(
        seed: u64,
        seconds: f64,
        tiny: bool,
        work: PathBuf,
        corrupt: Option<Corrupt>,
    ) -> Self {
        Ctx {
            seed,
            seconds,
            tiny,
            rec: Recorder::default(),
            tracer: Tracer::new(false),
            work,
            stores: 0,
            corrupt,
            expected: BTreeMap::new(),
            feedback_local: (0, 0),
        }
    }

    /// A path for a fresh segment file inside the run's work directory.
    pub fn fresh_store(&mut self) -> PathBuf {
        self.stores += 1;
        let path = self.work.join(format!("store-{}.seg", self.stores));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// One counted, timed operation, recorded as span `span` when
    /// tracing is on.
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        pool: Option<&'static str>,
        span: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let Ctx { rec, tracer, .. } = self;
        tracer.span(span, |_| rec.op(pool, span, f))
    }

    /// A digest of ranked answers: values and probability bits.
    pub fn answers(ranked: &RankedAnswers) -> u64 {
        let mut bytes = Vec::new();
        for a in &ranked.items {
            bytes.extend_from_slice(a.value.as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&a.probability.to_bits().to_le_bytes());
        }
        fnv1a(&bytes)
    }

    /// Compare an observed output with the expected one and count a
    /// failure when they differ. `--corrupt` flips the first observed
    /// output of its kind, to show that the checks catch it.
    pub fn same(&mut self, kind: Corrupt, expected: u64, mut observed: u64, what: &str) {
        if self.corrupt == Some(kind) {
            self.corrupt = None;
            observed ^= 1;
        }
        self.rec
            .check(expected == observed, || format!("{what}: output differs"))
    }

    /// The same inputs must give the same output every time: the first
    /// value seen under `key` is the expectation for every later one.
    pub fn expect_same(&mut self, kind: Corrupt, key: String, value: u64) {
        match self.expected.get(&key) {
            None => {
                self.expected.insert(key, value);
            }
            Some(&v) => {
                self.same(kind, v, value, &key);
            }
        }
    }

    /// Count which conditioning method a feedback used.
    pub fn note_feedback(&mut self, report: &imprecise::feedback::FeedbackReport) {
        self.feedback_local.1 += 1;
        if report.method == imprecise::feedback::Method::Local {
            self.feedback_local.0 += 1;
        }
    }

    /// `Engine::check_invariants` after a publish.
    pub fn invariants(&mut self, engine: &Engine, handle: &DocHandle) {
        if let Err(e) = engine.check_invariants(handle) {
            self.rec
                .fail(format!("invariants of {}: {e}", handle.name()));
        }
    }

    /// The planned evaluator must agree with the possible-worlds
    /// evaluator on `doc` (a small instance).
    pub fn agrees_with_naive(&mut self, doc: &PxDoc, query: &PreparedQuery) {
        let planned = self.op(None, "check.planned", || query.run_doc(doc));
        let naive = self.op(None, "check.naive", || {
            eval_px_naive(doc, query.ast(), 4096)
        });
        if let (Some(planned), Some(naive)) = (planned, naive) {
            let same = planned.len() == naive.len()
                && naive
                    .items
                    .iter()
                    .all(|a| (planned.probability_of(&a.value) - a.probability).abs() < 1e-9);
            self.rec.check(same, || {
                format!(
                    "{}: planned answers differ from eval_px_naive",
                    query.text()
                )
            });
        }
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Oracle, schema and options a workload integrates under.
#[derive(Clone)]
pub struct Setup {
    pub oracle: Arc<Oracle>,
    pub schema: Schema,
    pub options: IntegrationOptions,
}

impl Setup {
    pub fn in_memory(&self) -> Engine {
        self.builder().build()
    }

    pub fn durable(&self, path: &std::path::Path) -> Result<Engine, ImpreciseError> {
        self.builder()
            .with_store(path)
            .durability(Durability::Always)
            .open()
    }

    fn builder(&self) -> imprecise::EngineBuilder {
        Engine::builder()
            .oracle_shared(Arc::clone(&self.oracle))
            .schema(self.schema.clone())
            .options(self.options)
    }

    /// Source XML text → published integrated document `out`.
    pub fn integrate(
        &self,
        engine: &Engine,
        sources: &Sources,
        out: &str,
    ) -> Result<DocHandle, ImpreciseError> {
        let a = engine.load_xml("a", &sources.a_xml)?;
        let b = engine.load_xml("b", &sources.b_xml)?;
        Ok(engine.integrate(&a, &b, out)?.0)
    }

    /// The same integration in memory, straight through the
    /// integrate crate (the same-process reference).
    pub fn integrate_in_memory(
        &self,
        sources: &Sources,
    ) -> Result<imprecise::integrate::IntegrationOutcome, String> {
        let a = Arc::new(px(&sources.a_xml)?);
        let b = Arc::new(px(&sources.b_xml)?);
        integrate_px_shared(&a, &b, &self.oracle, Some(&self.schema), &self.options)
            .map_err(|e| e.to_string())
    }
}

/// Parse XML text into a probabilistic document.
pub fn px(text: &str) -> Result<PxDoc, String> {
    let xml = parse(text).map_err(|e| e.to_string())?;
    parse_annotated(&xml).map_err(|e| e.to_string())
}

pub fn query(text: &str) -> PreparedQuery {
    PreparedQuery::parse(text).expect("benchmark queries are well-formed")
}

/// The titles whose probability is strictly between 0 and 1, most
/// likely first.
pub fn uncertain_titles(ranked: &RankedAnswers) -> Vec<String> {
    ranked
        .items
        .iter()
        .filter(|a| a.probability > 1e-6 && a.probability < 1.0 - 1e-6)
        .map(|a| a.value.clone())
        .collect()
}

/// Every pool the pay-as-you-go leg can feed.
pub const ALL_POOLS: &[&str] = &[
    "integrate",
    "integrate_small",
    "query",
    "refine_step",
    "discarded_mass",
    "export",
    "open",
    "feedback",
    "store_bytes_per_publish",
];

/// The pay-as-you-go leg.
pub struct Payg {
    pub sources: Sources,
    /// A reduced instance integrated just before each cycle's main
    /// integration, for `integrate_growth_x`.
    pub small: Option<Sources>,
    pub setup: Setup,
    pub installments: usize,
    pub refine: RefineOptions,
    /// Queries run after each installment: `after[i]` after installment
    /// `i`, the last list after every later one.
    after: Vec<Vec<PreparedQuery>>,
    feedbacks: usize,
    /// The end-to-end pools this leg's timings feed; every other
    /// operation of the leg is only counted and checked.
    feeds: &'static [&'static str],
    /// Fingerprint after `installments + 1` in-memory refine steps.
    reference: Option<u64>,
}

impl Payg {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sources: Sources,
        small: Option<Sources>,
        setup: Setup,
        installments: usize,
        refine: RefineOptions,
        after: Vec<Vec<PreparedQuery>>,
        feedbacks: usize,
        feeds: &'static [&'static str],
    ) -> Self {
        Payg {
            sources,
            small,
            setup,
            installments,
            refine,
            after,
            feedbacks,
            feeds,
            reference: None,
        }
    }

    fn feeds(&self, pool: &'static str) -> Option<&'static str> {
        self.feeds.contains(&pool).then_some(pool)
    }

    /// The same-process run of the leg's installments plus the resumed
    /// one, without a store: what the reopened engine must reproduce.
    fn reference(&mut self, ctx: &mut Ctx) -> Option<u64> {
        if self.reference.is_none() {
            let setup = &self.setup;
            let sources = &self.sources;
            let (steps, refine) = (self.installments + 1, self.refine);
            self.reference = ctx.op(None, "check.reference", || {
                let mut outcome = setup.integrate_in_memory(sources)?;
                for _ in 0..steps {
                    outcome
                        .refine(&setup.oracle, Some(&setup.schema), &refine)
                        .map_err(|e| e.to_string())?;
                }
                Ok::<_, String>(outcome.doc.fingerprint())
            });
        }
        self.reference
    }

    /// One cycle on a fresh store.
    pub fn cycle(&mut self, ctx: &mut Ctx) {
        let reference = self.reference(ctx);
        if let Some(small) = &self.small {
            // The first integration after the previous cycle freed its
            // documents pays for page faults; it warms up, unrecorded.
            for pool in [None, self.feeds("integrate_small")] {
                let path = ctx.fresh_store();
                if let Some(engine) = ctx.op(None, "core.open_store", || self.setup.durable(&path))
                {
                    ctx.op(pool, "core.integrate", || {
                        self.setup.integrate(&engine, small, "doc")
                    });
                }
                let _ = std::fs::remove_file(&path);
            }
        }
        let main = |p: &'static str| self.feeds(p);
        let path = ctx.fresh_store();
        let Some(engine) = ctx.op(None, "core.open_store", || self.setup.durable(&path)) else {
            return;
        };
        let mut publishes = 0u64;
        let (setup, sources) = (&self.setup, &self.sources);
        let Some(doc) = ctx.op(main("integrate"), "core.integrate", || {
            setup.integrate(&engine, sources, "doc")
        }) else {
            return;
        };
        publishes += 3;
        ctx.invariants(&engine, &doc);
        let mut mass = match engine.refine_state(&doc) {
            Ok(Some(info)) => info.max_discarded_mass,
            _ => {
                ctx.rec
                    .fail("pay-as-you-go integration left nothing to refine".into());
                return;
            }
        };
        for step in 0..self.installments {
            let refine = self.refine;
            let Some(done) = ctx.op(main("refine_step"), "core.refine", || {
                engine.refine(&doc, &refine)
            }) else {
                return;
            };
            publishes += 1;
            ctx.invariants(&engine, &doc);
            ctx.rec.check(done.max_discarded_mass <= mass, || {
                format!(
                    "discarded mass rose from {mass} to {}",
                    done.max_discarded_mass
                )
            });
            mass = done.max_discarded_mass;
            let after = &self.after[step.min(self.after.len() - 1)];
            for (qi, q) in after.iter().enumerate() {
                if let Some(ranked) =
                    ctx.op(main("query"), "core.query", || run_query(&engine, &doc, q))
                {
                    let key = format!("payg step {step} query {qi}");
                    ctx.expect_same(Corrupt::Answer, key, Ctx::answers(&ranked));
                }
            }
        }
        if let Some(pool) = main("discarded_mass") {
            ctx.rec.sample(pool, mass);
        }
        export(ctx, &engine, &doc, main("export"));
        let Some((engine, doc)) = reopen(ctx, &self.setup, engine, &doc, &path, main("open"))
        else {
            return;
        };
        let refine = self.refine;
        if ctx
            .op(main("refine_step"), "core.refine", || {
                engine.refine(&doc, &refine)
            })
            .is_some()
        {
            publishes += 1;
            ctx.invariants(&engine, &doc);
            if let (Some(want), Ok(snap)) = (reference, engine.snapshot(&doc)) {
                let got = snap.doc().fingerprint();
                ctx.same(
                    Corrupt::Fingerprint,
                    want,
                    got,
                    "resumed vs same-process installment",
                );
            }
        }
        let title = query("//movie/title");
        for i in 0..self.feedbacks {
            let Some(ranked) = ctx.op(None, "core.query", || run_query(&engine, &doc, &title))
            else {
                return;
            };
            let Some(value) = uncertain_titles(&ranked).into_iter().next() else {
                ctx.rec.fail("no uncertain title left for feedback".into());
                return;
            };
            if let Some(report) = ctx.op(main("feedback"), "core.feedback", || {
                engine.feedback(&doc, &title, &value, true)
            }) {
                publishes += 1;
                ctx.note_feedback(&report);
                ctx.invariants(&engine, &doc);
                if let Ok(snap) = engine.snapshot(&doc) {
                    let fp = snap.doc().fingerprint();
                    ctx.expect_same(Corrupt::Fingerprint, format!("payg feedback {i}"), fp);
                }
            }
        }
        drop(engine);
        store_bytes(ctx, &path, publishes, main("store_bytes_per_publish"));
    }
}

/// Sample the segment at `path` as bytes per publish into `pool`, then
/// delete it.
pub fn store_bytes(
    ctx: &mut Ctx,
    path: &std::path::Path,
    publishes: u64,
    pool: Option<&'static str>,
) {
    match (std::fs::metadata(path), pool) {
        (Ok(meta), Some(pool)) => ctx.rec.sample(pool, meta.len() as f64 / publishes as f64),
        (Err(e), _) => ctx.rec.fail(format!("segment size: {e}")),
        _ => {}
    }
    let _ = std::fs::remove_file(path);
}

/// Run a query against the current version of `doc`.
pub fn run_query(
    engine: &Engine,
    doc: &DocHandle,
    q: &PreparedQuery,
) -> Result<RankedAnswers, ImpreciseError> {
    q.run(&engine.snapshot(doc)?)
}

/// How many times a cycle exports and reopens: each is a sample.
const REPEATS: usize = 3;

/// Export `doc` `REPEATS` times, timed into `pool`.
pub fn export(ctx: &mut Ctx, engine: &Engine, doc: &DocHandle, pool: Option<&'static str>) {
    for _ in 0..REPEATS {
        ctx.op(pool, "core.export", || engine.export(doc));
    }
}

/// Drop `engine` and reopen its store `REPEATS` times, each timed into
/// `pool` and checked against the document held in memory; return the
/// last engine and its handle of `doc`.
pub fn reopen(
    ctx: &mut Ctx,
    setup: &Setup,
    engine: Engine,
    doc: &DocHandle,
    path: &std::path::Path,
    pool: Option<&'static str>,
) -> Option<(Engine, DocHandle)> {
    let before = engine.snapshot(doc).ok()?.doc().fingerprint();
    let name = doc.name().to_string();
    drop(engine);
    let mut reopened = None;
    for _ in 0..REPEATS {
        drop(reopened.take());
        let engine = ctx.op(pool, "core.open", || setup.durable(path))?;
        let Some(doc) = engine.handle(&name) else {
            ctx.rec.fail("reopened store lost the document".into());
            return None;
        };
        let after = engine.snapshot(&doc).ok()?.doc().fingerprint();
        ctx.same(
            Corrupt::Fingerprint,
            before,
            after,
            "reopened vs in-memory document",
        );
        ctx.invariants(&engine, &doc);
        reopened = Some((engine, doc));
    }
    reopened
}

/// Run `body` repeatedly until `seconds` have passed, and at least
/// twice, so every repeat-run check has something to compare.
pub fn until(seconds: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < 2 || start.elapsed().as_secs_f64() < seconds {
        body();
        runs += 1;
    }
}
