//! Recall-safe blocking is invisible: integrating with
//! `BlockingMode::RecallSafe` must produce the bit-identical document
//! (same fingerprint, same serialized bytes) as integrating with
//! blocking off, on every workload — named scenarios and random ones.
//! The only permitted difference is *work*: fewer oracle calls, with
//! the pruned pairs accounted in `IntegrationStats::pairs_pruned`.
//!
//! Besides the preset oracles, random rule lists drawn from all four rule
//! kinds check that every pair a blocking plan prunes is one its oracle
//! rejects — the rule set is closed, so this covers every rule shape.

use imprecise::datagen::addressbook::{addressbook_schema, addressbook_to_xml, fig2_sources};
use imprecise::datagen::scenarios::{confusable, large_source, sequels_t1, MovieScenario};
use imprecise::integrate::{integrate_px, BlockingMode, IntegrationOptions, IntegrationOutcome};
use imprecise::oracle::presets::{addressbook_oracle, movie_oracle, MovieOracleConfig};
use imprecise::oracle::rules::{
    DeepEqualRule, ExactTextRule, KeyInequalityRule, Rule, SimMeasure, SimilarityThresholdRule,
};
use imprecise::oracle::{Decision, ElemRef, Oracle, SimilarityPrior};
use imprecise::pxml::{from_xml, px_fingerprint, PxDoc, PxNodeId};
use imprecise::xml::XmlDoc;
use proptest::prelude::*;

fn opts(blocking: BlockingMode) -> IntegrationOptions {
    IntegrationOptions {
        blocking,
        ..IntegrationOptions::default()
    }
}

fn run(
    a: &XmlDoc,
    b: &XmlDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    blocking: BlockingMode,
) -> IntegrationOutcome {
    run_px(&from_xml(a), &from_xml(b), oracle, schema, blocking)
}

fn run_px(
    a: &PxDoc,
    b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    blocking: BlockingMode,
) -> IntegrationOutcome {
    integrate_px(a, b, oracle, schema, &opts(blocking)).expect("integration succeeds")
}

/// Assert blocked ≡ unblocked bitwise and return (unblocked, blocked).
fn assert_recall_safe(
    a: &XmlDoc,
    b: &XmlDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    label: &str,
) -> (IntegrationOutcome, IntegrationOutcome) {
    assert_recall_safe_px(&from_xml(a), &from_xml(b), oracle, schema, label)
}

/// [`assert_recall_safe`] on (possibly already probabilistic) documents.
fn assert_recall_safe_px(
    a: &PxDoc,
    b: &PxDoc,
    oracle: &Oracle,
    schema: Option<&imprecise::xml::Schema>,
    label: &str,
) -> (IntegrationOutcome, IntegrationOutcome) {
    let off = run_px(a, b, oracle, schema, BlockingMode::Off);
    let safe = run_px(a, b, oracle, schema, BlockingMode::RecallSafe);
    assert_eq!(
        px_fingerprint(&off.doc, off.doc.root()),
        px_fingerprint(&safe.doc, safe.doc.root()),
        "{label}: recall-safe blocking changed the integrated document"
    );
    // Match/possible tallies are judgments that actually reached the
    // candidate set — pruning must not remove any of those.
    assert_eq!(off.stats.judged_match, safe.stats.judged_match, "{label}");
    assert_eq!(
        off.stats.judged_possible, safe.stats.judged_possible,
        "{label}"
    );
    assert_eq!(
        safe.stats.pairs_judged + safe.stats.pairs_pruned,
        off.stats.pairs_judged,
        "{label}: every skipped judgment must be accounted as pruned"
    );
    assert_eq!(safe.stats.pairs_windowed_out, 0, "{label}");
    (off, safe)
}

fn movie_scenario_oracle() -> Oracle {
    movie_oracle(MovieOracleConfig::default())
}

fn check_movie_scenario(s: &MovieScenario) {
    assert_recall_safe(
        &s.mpeg7,
        &s.imdb,
        &movie_scenario_oracle(),
        Some(&s.schema),
        &s.info.name,
    );
}

#[test]
fn movies_sequels_fingerprints_match() {
    check_movie_scenario(&sequels_t1());
}

#[test]
fn movies_confusable_fingerprints_match() {
    check_movie_scenario(&confusable(6));
}

#[test]
fn addressbook_fingerprints_match() {
    let (a, b) = fig2_sources();
    assert_recall_safe(
        &a,
        &b,
        &addressbook_oracle(),
        Some(&addressbook_schema()),
        "fig2-addressbook",
    );
}

#[test]
fn large_source_fingerprints_match_and_pruning_bites() {
    let s = large_source(240);
    let (off, safe) = assert_recall_safe(
        &s.mpeg7,
        &s.imdb,
        &movie_scenario_oracle(),
        Some(&s.schema),
        &s.info.name,
    );
    // The whole point: on the year-bucketed large workload the plan
    // prunes the vast majority of the cross product.
    assert!(
        safe.stats.pairs_pruned * 2 > off.stats.pairs_judged,
        "pruned only {} of {} pairs",
        safe.stats.pairs_pruned,
        off.stats.pairs_judged
    );
}

#[test]
fn heuristic_windowing_reports_dropped_pairs() {
    let s = large_source(240);
    let oracle = movie_scenario_oracle();
    let windowed = run(
        &s.mpeg7,
        &s.imdb,
        &oracle,
        Some(&s.schema),
        BlockingMode::Heuristic { window: 8 },
    );
    let off = run(
        &s.mpeg7,
        &s.imdb,
        &oracle,
        Some(&s.schema),
        BlockingMode::Off,
    );
    // Heuristic mode is honest about its recall risk: the unexamined
    // pairs are reported, and it does strictly less judging work.
    assert!(windowed.stats.pairs_windowed_out > 0);
    assert!(windowed.stats.pairs_judged < off.stats.pairs_judged);
    windowed.doc.validate().expect("valid px document");
}

// Random persons exercise the addressbook plan (similarity filter only —
// no equality join), random movies the movie plan (year join + title
// bound + genre text filter).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_addressbooks_are_blocking_invariant(
        names_a in proptest::collection::vec((0usize..8, 0usize..26), 0..5),
        names_b in proptest::collection::vec((0usize..8, 0usize..26), 0..5),
    ) {
        use imprecise::datagen::addressbook::Person;
        const FIRST: [&str; 8] = [
            "John", "Jon", "Mary", "Maria", "Alice", "Bob", "Carol", "Dave",
        ];
        let mk = |specs: &[(usize, usize)], base: u64| -> Vec<Person> {
            specs
                .iter()
                .enumerate()
                .map(|(i, &(f, l))| Person {
                    rwo: base + i as u64,
                    name: format!("{} {}", FIRST[f], (b'A' + l as u8) as char),
                    tel: Some(format!("{}", 1000 + 7 * (f + 13 * l))),
                })
                .collect()
        };
        let a = addressbook_to_xml(&mk(&names_a, 0));
        let b = addressbook_to_xml(&mk(&names_b, 100));
        assert_recall_safe(
            &a,
            &b,
            &addressbook_oracle(),
            Some(&addressbook_schema()),
            "random-addressbook",
        );
    }

    #[test]
    fn random_movie_catalogs_are_blocking_invariant(
        specs_a in proptest::collection::vec((0usize..6, 0u32..6, 0usize..3), 0..5),
        specs_b in proptest::collection::vec((0usize..6, 0u32..6, 0usize..3), 0..5),
    ) {
        use imprecise::datagen::movies::{catalog_to_xml, movie_schema, Movie, MovieBuilder, SourceStyle};
        const TITLES: [&str; 6] = ["Jaws", "Jaws 2", "Heat", "Fargo", "Die Hard", "Casino"];
        const GENRES: [&str; 3] = ["Horror", "Action", "Crime"];
        let mk = |specs: &[(usize, u32, usize)], base: u64| -> Vec<Movie> {
            specs
                .iter()
                .enumerate()
                .map(|(i, &(t, y, g))| {
                    MovieBuilder::new(base + i as u64, TITLES[t], 1970 + y)
                        .genre(GENRES[g])
                        .build()
                })
                .collect()
        };
        let a = catalog_to_xml(&mk(&specs_a, 0), SourceStyle::Mpeg7);
        let b = catalog_to_xml(&mk(&specs_b, 100), SourceStyle::Imdb);
        let schema = movie_schema();
        assert_recall_safe(
            &a,
            &b,
            &movie_scenario_oracle(),
            Some(&schema),
            "random-movies",
        );
    }
}

const RULE_TAGS: [&str; 3] = ["movie", "genre", "title"];

const MEASURES: [SimMeasure; 6] = [
    SimMeasure::Title,
    SimMeasure::PersonName,
    SimMeasure::Levenshtein,
    SimMeasure::JaroWinkler,
    SimMeasure::TokenJaccard,
    SimMeasure::TrigramDice,
];

/// One rule from a `(kind, tag, measure, threshold %, path)` draw. Movie
/// rules read `title` or `year`; genre and title rules read the
/// element's own text.
fn random_rule(
    i: usize,
    (kind, tag, measure, pct, path): (usize, usize, usize, u32, usize),
) -> Rule {
    let tag = RULE_TAGS[tag];
    let value_path = match tag {
        "movie" => ["title", "year"][path],
        _ => "",
    };
    let rule_name = format!("rule-{i}");
    match kind {
        0 => DeepEqualRule.into(),
        1 => ExactTextRule::new(tag).into(),
        2 => SimilarityThresholdRule {
            rule_name,
            tag: tag.into(),
            value_path: value_path.into(),
            threshold: f64::from(pct) / 100.0,
            measure: MEASURES[measure],
        }
        .into(),
        _ => KeyInequalityRule {
            rule_name,
            tag: tag.into(),
            value_path: value_path.into(),
        }
        .into(),
    }
}

const MOVIE_TITLES: [&str; 6] = ["Jaws", "Jaws 2", "Jaws II", "Heat", "Die Hard", ""];
const MOVIE_GENRES: [&str; 3] = ["Horror", "Action", "horror"];

/// A catalogue of movies, each drawn as `(title, alt title, year, alt
/// year, genre)`. An alt title below 6 makes the title text a choice
/// between the two titles; an alt year below 4 makes the year element a
/// choice between the two years, 4 keeps it certain and 5 leaves it out;
/// genre 3 leaves the genre out.
fn random_catalog(specs: &[(usize, usize, u32, usize, usize)]) -> PxDoc {
    let mut doc = PxDoc::new();
    let root = doc.root();
    let poss = doc.add_poss(root, 1.0);
    let catalog = doc.add_elem(poss, "catalog");
    for &(title, alt_title, year, alt_year, genre) in specs {
        let movie = doc.add_elem(catalog, "movie");
        let title_elem = doc.add_elem(movie, "title");
        if alt_title < MOVIE_TITLES.len() {
            let choice = doc.add_prob(title_elem);
            for t in [title, alt_title] {
                let p = doc.add_poss(choice, 0.5);
                doc.add_text(p, MOVIE_TITLES[t]);
            }
        } else {
            doc.add_text(title_elem, MOVIE_TITLES[title]);
        }
        match alt_year {
            0..=3 => {
                let choice = doc.add_prob(movie);
                for y in [year, alt_year as u32] {
                    let p = doc.add_poss(choice, 0.5);
                    doc.add_text_elem(p, "year", (1975 + y).to_string());
                }
            }
            4 => {
                doc.add_text_elem(movie, "year", (1975 + year).to_string());
            }
            _ => {}
        }
        if genre < MOVIE_GENRES.len() {
            doc.add_text_elem(movie, "genre", MOVIE_GENRES[genre]);
        }
    }
    doc
}

/// Every element of `doc` with tag `tag`, including those under choices.
fn elements_tagged(doc: &PxDoc, tag: &str) -> Vec<PxNodeId> {
    let mut out = Vec::new();
    let mut stack = vec![doc.root()];
    while let Some(n) = stack.pop() {
        if doc.tag(n) == Some(tag) {
            out.push(n);
        }
        stack.extend(doc.children(n).iter().rev());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_rule_lists_prune_only_nonmatches(
        rules in proptest::collection::vec((0usize..4, 0usize..3, 0usize..6, 0u32..121, 0usize..2), 1..6),
        specs_a in proptest::collection::vec((0usize..6, 0usize..9, 0u32..4, 0usize..6, 0usize..4), 0..4),
        specs_b in proptest::collection::vec((0usize..6, 0usize..9, 0u32..4, 0usize..6, 0usize..4), 0..4),
    ) {
        let rules: Vec<Rule> = rules.into_iter().enumerate().map(|(i, r)| random_rule(i, r)).collect();
        let oracle = Oracle::new(rules, SimilarityPrior::movie_title(0.05, 0.95).into());
        let (a, b) = (random_catalog(&specs_a), random_catalog(&specs_b));
        // Every ordered pair over both catalogues, self-pairs included:
        // identical elements are where deep-equal transparency is tested.
        for tag in RULE_TAGS {
            let plan = oracle.blocking_plan(tag);
            let elems: Vec<ElemRef<'_>> = [&a, &b]
                .into_iter()
                .flat_map(|doc| elements_tagged(doc, tag).into_iter().map(move |node| ElemRef { doc, node }))
                .collect();
            let features: Vec<_> = elems.iter().map(|e| plan.features(e)).collect();
            for (ea, fa) in elems.iter().zip(&features) {
                for (eb, fb) in elems.iter().zip(&features) {
                    if plan.prunes(fa, fb) {
                        prop_assert_eq!(
                            oracle.judge(ea, eb).decision,
                            Decision::NonMatch,
                            "{:?} pruned a pair its oracle does not reject",
                            plan
                        );
                    }
                }
            }
        }
        let schema = imprecise::datagen::movies::movie_schema();
        assert_recall_safe_px(&a, &b, &oracle, Some(&schema), "random-rule-lists");
    }
}
