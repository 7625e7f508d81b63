//! The traced run's direct layer calls: every call into a crate's
//! public API is timed from outside as a span, and the counters the
//! layers report are kept beside the spans.

use crate::flow::{query, uncertain_titles, Ctx, Payg, Setup};
use crate::gen::Sources;
use crate::measure::median;
use imprecise::feedback::apply_feedback;
use imprecise::integrate::pipeline::{enumerate_components, split, CandidateSet};
use imprecise::integrate::{
    block_candidates, integrate_px_shared, Candidate, IntegrationOutcome, SearchStats,
};
use imprecise::oracle::{Decision, ElemRef};
use imprecise::pxml::{from_xml, to_annotated_xml, PxDoc, PxNodeId};
use imprecise::store::Store;
use imprecise::xml::{parse, to_string};
use imprecise::{Durability, PreparedQuery};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What the replay runs on.
pub struct Replay<'a> {
    /// The workload's main integration.
    pub sources: &'a Sources,
    pub setup: &'a Setup,
    /// The refinable integration and its installments.
    pub payg: &'a Payg,
    pub point: String,
    pub scan: String,
    /// Sources of the aggregate query's documents at n and 2n.
    pub agg: (&'a Sources, &'a Sources),
    /// The title to confirm; `None` confirms the likeliest uncertain one.
    pub confirm: Option<&'a str>,
}

/// Per-layer metric names and units, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("xmlkit.parse_ms", "ms"),
    ("xmlkit.serialize_ms", "ms"),
    ("pxml.from_xml_ms", "ms"),
    ("pxml.nodes", "count"),
    ("pxml.prob_nodes", "count"),
    ("pxml.arena_total", "count"),
    ("oracle.block_ms", "ms"),
    ("oracle.judge_ms", "ms"),
    ("oracle.pairs_scored", "count"),
    ("oracle.pairs_pruned", "count"),
    ("oracle.survivor_ratio", "ratio"),
    ("integrate.total_ms", "ms"),
    ("integrate.enumerate_ms", "ms"),
    ("integrate.rest_ms", "ms"),
    ("integrate.refine_ms", "ms"),
    ("integrate.components", "count"),
    ("integrate.matchings", "count"),
    ("search.popped", "count"),
    ("search.expanded", "count"),
    ("search.kept_per_popped", "ratio"),
    ("store.append_ms", "ms"),
    ("store.append_bytes", "bytes"),
    ("store.scan_ms", "ms"),
    ("store.load_ms", "ms"),
    ("core.publish_overhead_ms", "ms"),
    ("query.prepare_ms", "ms"),
    ("query.point_ms", "ms"),
    ("query.scan_ms", "ms"),
    ("query.agg_ms", "ms"),
    ("query.agg_growth_x", "ratio"),
    ("feedback.condition_ms", "ms"),
    ("feedback.local_share", "ratio"),
];

/// Spans whose median self time is reported as `<span>_ms`.
const TIMED: &[&str] = &[
    "xmlkit.parse",
    "xmlkit.serialize",
    "pxml.from_xml",
    "oracle.block",
    "oracle.judge",
    "integrate.total",
    "integrate.enumerate",
    "integrate.refine",
    "store.append",
    "store.scan",
    "store.load",
    "query.prepare",
    "query.point",
    "query.scan",
    "query.agg",
    "feedback.condition",
];

fn movies(doc: &PxDoc) -> Vec<PxNodeId> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        if doc.tag(n) == Some("movie") {
            out.push(n);
            continue;
        }
        stack.extend(doc.children(n).iter().rev());
    }
    out
}

/// Replay the layer calls `reps` times under the tracer (which the
/// caller enabled) and return the per-layer metrics.
pub fn replay(ctx: &mut Ctx, r: &Replay<'_>, reps: usize) -> BTreeMap<&'static str, f64> {
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for _ in 0..reps {
        ctx.tracer.span("replay", |t| {
            // xmlkit → pxml.
            let xa = t.span("xmlkit.parse", |_| parse(&r.sources.a_xml));
            let xb = t.span("xmlkit.parse", |_| parse(&r.sources.b_xml));
            let (Ok(xa), Ok(xb)) = (xa, xb) else {
                return;
            };
            let pa = Arc::new(t.span("pxml.from_xml", |_| from_xml(&xa)));
            let pb = Arc::new(t.span("pxml.from_xml", |_| from_xml(&xb)));
            // oracle: block, then judge the survivors row by row.
            let (ga, gb) = (movies(&pa), movies(&pb));
            let oracle = &r.setup.oracle;
            let blocked = t.span("oracle.block", |_| {
                block_candidates(
                    &pa,
                    &ga,
                    &pb,
                    &gb,
                    oracle,
                    "movie",
                    r.setup.options.blocking,
                )
            });
            let (forced, possible) = t.span("oracle.judge", |_| {
                let mut forced = Vec::new();
                let mut possible = Vec::new();
                for row in blocked.pairs.chunk_by(|x, y| x.0 == y.0) {
                    let a = ElemRef {
                        doc: &pa,
                        node: ga[row[0].0],
                    };
                    let bs: Vec<ElemRef<'_>> = row
                        .iter()
                        .map(|&(_, bi)| ElemRef {
                            doc: &pb,
                            node: gb[bi],
                        })
                        .collect();
                    for (&(ai, bi), j) in row.iter().zip(oracle.judge_row(&a, &bs)) {
                        match j.decision {
                            Decision::Match => forced.push((ai, bi)),
                            Decision::NonMatch => {}
                            Decision::Possible(p) => possible.push(Candidate { a: ai, b: bi, p }),
                        }
                    }
                }
                (forced, possible)
            });
            let scored = blocked.pairs.len() as f64;
            counts.insert("oracle.pairs_scored", scored);
            counts.insert("oracle.pairs_pruned", blocked.pruned as f64);
            let survivors = (forced.len() + possible.len()) as f64;
            counts.insert(
                "oracle.survivor_ratio",
                if scored > 0.0 {
                    survivors / scored
                } else {
                    0.0
                },
            );
            // integrate: the top-level group's split + enumeration, then
            // the whole integration.
            let _ = t.span("integrate.enumerate", |_| {
                let set = CandidateSet::resolve(forced, possible);
                let components = split(&set, ga.len(), gb.len());
                enumerate_components(components, &r.setup.options, "catalog/movie")
            });
            let schema = Some(&r.setup.schema);
            let Ok(outcome) = t.span("integrate.total", |_| {
                integrate_px_shared(&pa, &pb, oracle, schema, &r.setup.options)
            }) else {
                return;
            };
            counts.insert(
                "integrate.components",
                outcome.stats.components_total as f64,
            );
            counts.insert(
                "integrate.matchings",
                outcome.stats.matchings_enumerated as f64,
            );
            let doc = &outcome.doc;
            counts.insert("pxml.nodes", doc.node_breakdown().total() as f64);
            counts.insert("pxml.prob_nodes", doc.node_breakdown().prob as f64);
            let _ = t.span("xmlkit.serialize", |_| to_string(&to_annotated_xml(doc)));
            // query: prepare, then one run per class.
            let point = t.span("query.prepare", |_| PreparedQuery::parse(&r.point));
            let scan = t.span("query.prepare", |_| PreparedQuery::parse(&r.scan));
            if let (Ok(point), Ok(scan)) = (point, scan) {
                let _ = t.span("query.point", |_| point.run_doc(doc));
                let _ = t.span("query.scan", |_| scan.run_doc(doc));
            }
            // feedback: confirm a title.
            let title = query("//movie/title");
            let value = match r.confirm {
                Some(t) => Some(t.to_string()),
                None => {
                    (title.run_doc(doc).ok()).and_then(|a| uncertain_titles(&a).into_iter().next())
                }
            };
            if let Some(value) = value {
                let _ = t.span("feedback.condition", |_| {
                    apply_feedback(doc, title.ast(), &value, true, 100_000)
                });
            }
        });
        aggregate(ctx, r);
        refine_and_store(ctx, r.payg, &mut counts);
    }
    let mut out = BTreeMap::new();
    for name in TIMED {
        let key: &'static str = LAYER_METRICS
            .iter()
            .find(|(m, _)| m.strip_suffix("_ms") == Some(name))
            .map(|(m, _)| *m)
            .expect("every timed span has a metric");
        out.insert(key, median(&ctx.tracer.self_ms(name)));
    }
    let total = out["integrate.total_ms"];
    let parts = out["oracle.block_ms"] + out["oracle.judge_ms"] + out["integrate.enumerate_ms"];
    out.insert("integrate.rest_ms", total - parts);
    let engine_refine = median(&ctx.tracer.self_ms("core.refine_durable"));
    out.insert(
        "core.publish_overhead_ms",
        engine_refine - out["integrate.refine_ms"] - out["store.append_ms"],
    );
    let agg_small = median(&ctx.tracer.self_ms("query.agg_half"));
    out.insert(
        "query.agg_growth_x",
        if agg_small > 0.0 {
            out["query.agg_ms"] / agg_small
        } else {
            0.0
        },
    );
    let (local, all) = ctx.feedback_local;
    out.insert(
        "feedback.local_share",
        if all > 0 {
            local as f64 / all as f64
        } else {
            0.0
        },
    );
    out.extend(counts);
    out
}

/// The aggregate query at n and 2n of the workload's generator.
fn aggregate(ctx: &mut Ctx, r: &Replay<'_>) {
    let agg = query("//movie/director");
    for (sources, span) in [(r.agg.0, "query.agg_half"), (r.agg.1, "query.agg")] {
        let Ok(outcome) = r.setup.integrate_in_memory(sources) else {
            ctx.rec
                .fail("aggregate document failed to integrate".into());
            continue;
        };
        let _ = ctx.tracer.span(span, |_| agg.run_doc(&outcome.doc));
    }
}

/// Refine installments in memory, each followed by a durable append of
/// the refined version; a scan and load of the segment; and the same
/// installments through a durable engine, for the publish overhead.
fn refine_and_store(ctx: &mut Ctx, payg: &Payg, counts: &mut BTreeMap<&'static str, f64>) {
    let Ok(mut outcome) = payg.setup.integrate_in_memory(&payg.sources) else {
        ctx.rec.fail("pay-as-you-go integration failed".into());
        return;
    };
    let schema = Some(&payg.setup.schema);
    let path = ctx.fresh_store();
    let Ok(mut store) = Store::open(&path, Durability::Always) else {
        ctx.rec.fail("store failed to open".into());
        return;
    };
    let mut search = SearchStats::default();
    let mut kept = 0usize;
    let mut appended = Vec::new();
    for version in 1..=payg.installments as u64 {
        let Ok(step) = ctx.tracer.span("integrate.refine", |_| {
            outcome.refine(&payg.setup.oracle, schema, &payg.refine)
        }) else {
            ctx.rec.fail("in-memory refine failed".into());
            return;
        };
        search.absorb(&step.search);
        kept += step
            .refined
            .iter()
            .map(|c| c.kept_after - c.kept_before)
            .sum::<usize>();
        counts.insert("pxml.arena_total", step.arena_total as f64);
        let mut copy: IntegrationOutcome = outcome.clone();
        let state = copy.detach_refine_state();
        let before = std::fs::metadata(&path).map_or(0, |m| m.len());
        let appended_ok = ctx.tracer.span("store.append", |_| {
            store.append_publish("doc", version, &copy.doc, state.as_ref())
        });
        if appended_ok.is_err() {
            ctx.rec.fail("store append failed".into());
            return;
        }
        appended.push((std::fs::metadata(&path).map_or(0, |m| m.len()) - before) as f64);
    }
    drop(store);
    counts.insert("search.popped", search.popped as f64);
    counts.insert("search.expanded", search.expanded as f64);
    counts.insert(
        "search.kept_per_popped",
        if search.popped > 0 {
            kept as f64 / search.popped as f64
        } else {
            0.0
        },
    );
    counts.insert("store.append_bytes", median(&appended));
    match ctx
        .tracer
        .span("store.scan", |_| Store::open(&path, Durability::Always))
    {
        Ok(mut store) => {
            if ctx
                .tracer
                .span("store.load", |_| store.load_publish("doc"))
                .is_err()
            {
                ctx.rec.fail("store load failed".into());
            }
        }
        Err(_) => ctx.rec.fail("store scan failed".into()),
    }
    let _ = std::fs::remove_file(&path);
    // The same installments through the engine's durable publish path.
    let path = ctx.fresh_store();
    if let Ok(engine) = payg.setup.durable(&path) {
        if let Ok(doc) = payg.setup.integrate(&engine, &payg.sources, "doc") {
            for _ in 0..payg.installments {
                let _ = ctx
                    .tracer
                    .span("core.refine_durable", |_| engine.refine(&doc, &payg.refine));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
