//! Blocking plans: recall-safe prefilters derived from an Oracle's rules.
//!
//! Candidate generation judges every cross-source pair, which is O(n·m)
//! oracle calls. A [`BlockingPlan`] extracts, from the configured rule
//! list, cheap per-element features (normalised keys, token sets, q-gram
//! profiles) and a pairwise `prunes` predicate with one guarantee:
//!
//! > If the plan prunes a pair, the oracle judges that pair `NonMatch`.
//!
//! Pruned pairs can therefore be dropped *before* any oracle call without
//! changing the integration result — the recall-safe property the
//! blocking property tests check bitwise.
//!
//! # How soundness is derived
//!
//! The plan walks the Oracle's closed [`Rule`] list in consultation order
//! for one element tag and keeps the rules it can prune on:
//!
//! * [`Rule::DeepEqual`] only ever `Match`es content-identical pairs. No
//!   rule kept below can prune such a pair — equality rules see a shared
//!   value pairing, and similarity rules bound `sim(x, x) = 1 ≥
//!   threshold` — so the walk continues.
//! * Rules gated on a *different* tag abstain on every pair of this tag;
//!   the walk continues.
//! * Key-inequality and similarity rules for *this* tag are kept: the plan
//!   prunes a pair only where the rule certainly decides `NonMatch` (an
//!   under-approximation). A similarity threshold above 1 rejects even
//!   identical values, which contradicts deep-equal transparency, so such
//!   a rule is passed over.
//! * An exact-text rule for *this* tag is kept and ends the walk: it can
//!   also `Match`, and a later rule could otherwise prune a pair it would
//!   have matched.
//!
//! Because the rule set is closed, every rule has one of these behaviours;
//! there is no rule of unknown shape to stop at.
//!
//! Similarity rules prune on *upper bounds*: exact values where the
//! measure is set arithmetic (Jaccard, Dice), and length/q-gram/character
//! -multiset bounds for the edit-based measures, padded with a slack that
//! absorbs any f64 rounding asymmetry. When a cheap bound is too loose to
//! prune, the edit-based measures fall back to evaluating the measure
//! itself on the precomputed (normalised) values — still a fraction of a
//! full oracle consultation, and the price of keeping the scored set
//! near-linear on workloads the q-gram bound cannot separate. A pair is
//! pruned only when every possible-value pairing is provably below the
//! rule's threshold.

use crate::rules::{PreparedMeasure, Rule, SimMeasure};
use crate::value::{ElemRef, PossibleValues};
use imprecise_sim as sim;
use std::collections::BTreeSet;

/// Variant budget for feature extraction — must equal the rules' own cap
/// so "certain values" means the same thing on both paths.
use crate::rules::VALUE_VARIANT_CAP;

/// Safety margin added to every similarity upper bound: pruning uses a
/// strict `ub < threshold` comparison, so the margin only ever *keeps*
/// borderline pairs, never drops them.
const UB_SLACK: f64 = 1e-9;

/// The rules that are sound to prune on for one element tag under one
/// oracle.
#[derive(Debug, Clone)]
pub struct BlockingPlan {
    tag: String,
    rules: Vec<Rule>,
}

impl BlockingPlan {
    /// Derive the plan for `tag` by walking `rules` in consultation order.
    pub(crate) fn derive(rules: &[Rule], tag: &str) -> BlockingPlan {
        let mut kept = Vec::new();
        for rule in rules {
            match rule {
                Rule::ExactText(r) if r.tag == tag => {
                    kept.push(rule.clone());
                    break;
                }
                Rule::Similarity(r) if r.tag == tag && r.threshold <= 1.0 => {
                    kept.push(rule.clone())
                }
                Rule::KeyInequality(r) if r.tag == tag => kept.push(rule.clone()),
                _ => {}
            }
        }
        BlockingPlan {
            tag: tag.to_string(),
            rules: kept,
        }
    }

    /// Tag this plan applies to.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The rules the plan prunes on, in consultation order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Whether the plan can prune anything at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Index of the first rule that prunes on value equality
    /// (key-inequality or exact-text) — the natural hash-join key for
    /// sub-quadratic pair generation.
    pub fn join_rule(&self) -> Option<usize> {
        self.rules
            .iter()
            .position(|r| matches!(r, Rule::KeyInequality(_) | Rule::ExactText(_)))
    }

    /// Extract this plan's per-element features. Cheap for elements of
    /// another tag (every rule becomes inapplicable and never prunes).
    pub fn features(&self, e: &ElemRef<'_>) -> ElementFeatures {
        if e.tag() != self.tag {
            return ElementFeatures {
                per_rule: vec![RuleFeatures::Inapplicable; self.rules.len()],
            };
        }
        let values = |path: &str| match e.possible_values_at(path, VALUE_VARIANT_CAP) {
            PossibleValues::Values(vs) if !vs.is_empty() => Some(vs),
            _ => None,
        };
        let per_rule = self
            .rules
            .iter()
            .map(|rule| {
                let features = match rule {
                    Rule::KeyInequality(r) => values(&r.value_path).map(|vs| {
                        RuleFeatures::Equality(vs.iter().map(|v| v.trim().to_string()).collect())
                    }),
                    Rule::ExactText(_) => e
                        .possible_own_texts(VALUE_VARIANT_CAP)
                        .filter(|ts| !ts.is_empty())
                        .map(RuleFeatures::Equality),
                    Rule::Similarity(r) => values(&r.value_path).map(|vs| {
                        RuleFeatures::Similarity(
                            vs.iter().map(|v| SimFeature::new(r.measure, v)).collect(),
                        )
                    }),
                    Rule::DeepEqual(_) => None,
                };
                features.unwrap_or(RuleFeatures::Inapplicable)
            })
            .collect();
        ElementFeatures { per_rule }
    }

    /// Whether the pair `(a, b)` is provably a `NonMatch` for the oracle
    /// this plan was derived from.
    pub fn prunes(&self, a: &ElementFeatures, b: &ElementFeatures) -> bool {
        self.rules
            .iter()
            .zip(a.per_rule.iter().zip(&b.per_rule))
            .any(|(r, (fa, fb))| rule_fires(r, fa, fb))
    }
}

/// Per-element cached inputs to one plan's rules, index-aligned with
/// [`BlockingPlan::rules`].
#[derive(Debug, Clone)]
pub struct ElementFeatures {
    per_rule: Vec<RuleFeatures>,
}

impl ElementFeatures {
    /// Join keys for an equality rule: `Some(values)` when the element
    /// has certain values there, `None` when the rule cannot prune this
    /// element (uncertain/missing value — must pair with everything).
    pub fn join_keys(&self, rule_idx: usize) -> Option<&[String]> {
        match self.per_rule.get(rule_idx) {
            Some(RuleFeatures::Equality(ks)) => Some(ks),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum RuleFeatures {
    /// The rule abstains for this element (wrong tag, missing or
    /// uncertain value) and must never prune a pair involving it.
    Inapplicable,
    /// Certain values for an equality rule, trimmed where the rule trims.
    Equality(Vec<String>),
    /// Upper-bound features, one per possible value.
    Similarity(Vec<SimFeature>),
}

/// Whether `rule` certainly decides `NonMatch` on a pair with these
/// features: every pairing of values differs, or is provably below the
/// similarity threshold.
fn rule_fires(rule: &Rule, a: &RuleFeatures, b: &RuleFeatures) -> bool {
    match (rule, a, b) {
        (
            Rule::KeyInequality(_) | Rule::ExactText(_),
            RuleFeatures::Equality(ka),
            RuleFeatures::Equality(kb),
        ) => ka.iter().all(|x| kb.iter().all(|y| x != y)),
        (Rule::Similarity(r), RuleFeatures::Similarity(sa), RuleFeatures::Similarity(sb)) => {
            sa.iter().all(|x| {
                sb.iter().all(|y| {
                    x.upper_bound(y) < r.threshold
                        || x.exact(y).is_some_and(|v| v + UB_SLACK < r.threshold)
                })
            })
        }
        _ => false,
    }
}

/// Character-bigram multiset of a string — each edit operation disturbs
/// at most two bigrams, giving the q-gram edit-distance lower bound.
/// Stored as a sorted run-length vector: the prefilter intersects these
/// pairwise on every hash-join candidate, and a two-pointer merge over
/// short sorted slices beats a tree lookup per gram by an order of
/// magnitude.
type Bigrams = Vec<((char, char), usize)>;

fn sorted_counts<K: Ord + Copy>(mut keys: Vec<K>) -> Vec<(K, usize)> {
    keys.sort_unstable();
    let mut out: Vec<(K, usize)> = Vec::with_capacity(keys.len());
    for k in keys {
        match out.last_mut() {
            Some((last, n)) if *last == k => *n += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

fn bigrams(s: &str) -> Bigrams {
    let chars: Vec<char> = s.chars().collect();
    sorted_counts(chars.windows(2).map(|w| (w[0], w[1])).collect())
}

fn multiset_common<K: Ord + Copy>(a: &[(K, usize)], b: &[(K, usize)]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += a[i].1.min(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    common
}

fn char_counts(s: &str) -> Vec<(char, usize)> {
    sorted_counts(s.chars().collect())
}

/// Upper bound on `1 − d/max_len` from two edit-distance lower bounds:
/// the length difference and the q-gram (q = 2) bound
/// `d ≥ ⌈(max_grams − common_grams) / 2⌉`.
fn lev_similarity_ub(ca: usize, cb: usize, ba: &Bigrams, bb: &Bigrams) -> f64 {
    let max_len = ca.max(cb);
    if max_len == 0 {
        return 1.0;
    }
    let len_lb = ca.abs_diff(cb);
    let max_grams = ca.saturating_sub(1).max(cb.saturating_sub(1));
    let qgram_lb = (max_grams - multiset_common(ba, bb)).div_ceil(2);
    let d_lb = len_lb.max(qgram_lb);
    1.0 - d_lb as f64 / max_len as f64
}

/// Precomputed per-value features for one similarity measure: the
/// prepared value the measure itself compares, plus the features of a
/// sound (never smaller than the true similarity) pairwise upper bound.
#[derive(Debug, Clone)]
struct SimFeature {
    prepared: PreparedMeasure,
    bound: BoundFeatures,
}

#[derive(Debug, Clone)]
enum BoundFeatures {
    /// Length and bigram multiset of the compared text (Levenshtein, and
    /// the edit half of the title measure).
    Edit { chars: usize, grams: Bigrams },
    /// Length and character multiset (Jaro-Winkler, person names).
    Jaro {
        chars: usize,
        counts: Vec<(char, usize)>,
    },
    /// Token set (token Jaccard).
    Tokens(Vec<String>),
    /// Lowercase form and trigram set (trigram Dice).
    Trigrams {
        lower: String,
        trigrams: BTreeSet<Vec<char>>,
    },
}

impl SimFeature {
    fn new(measure: SimMeasure, v: &str) -> SimFeature {
        let prepared = measure.prepare(v);
        let text = prepared.text();
        let bound = match measure {
            SimMeasure::Title | SimMeasure::Levenshtein => BoundFeatures::Edit {
                chars: text.chars().count(),
                grams: bigrams(text),
            },
            SimMeasure::PersonName | SimMeasure::JaroWinkler => BoundFeatures::Jaro {
                chars: text.chars().count(),
                counts: char_counts(text),
            },
            SimMeasure::TokenJaccard => BoundFeatures::Tokens(sim::token_set(v)),
            SimMeasure::TrigramDice => {
                let lower = v.to_lowercase();
                let trigrams = sim::token::trigram_set(&lower);
                BoundFeatures::Trigrams { lower, trigrams }
            }
        };
        SimFeature { prepared, bound }
    }

    /// An upper bound on the measure applied to the two underlying
    /// values. Mismatched feature kinds (impossible through
    /// [`BlockingPlan::features`]) return `1.0`, which never prunes.
    fn upper_bound(&self, other: &SimFeature) -> f64 {
        match (&self.bound, &other.bound) {
            (
                BoundFeatures::Edit {
                    chars: ca,
                    grams: ga,
                },
                BoundFeatures::Edit {
                    chars: cb,
                    grams: gb,
                },
            ) => {
                let edit = lev_similarity_ub(*ca, *cb, ga, gb);
                // title_similarity = max(token Jaccard, Levenshtein sim)
                // on the normalised titles: Jaccard is exact here, the
                // edit part is bounded.
                let ub = match (&self.prepared, &other.prepared) {
                    (PreparedMeasure::Title(a), PreparedMeasure::Title(b)) => {
                        sim::jaccard_token_sets(a.tokens(), b.tokens()).max(edit)
                    }
                    _ => edit,
                };
                ub + UB_SLACK
            }
            (
                BoundFeatures::Jaro {
                    chars: ca,
                    counts: na,
                },
                BoundFeatures::Jaro {
                    chars: cb,
                    counts: nb,
                },
            ) => jaro_winkler_ub(*ca, *cb, na, nb),
            (BoundFeatures::Tokens(ta), BoundFeatures::Tokens(tb)) => {
                sim::jaccard_token_sets(ta, tb) + UB_SLACK
            }
            (
                BoundFeatures::Trigrams {
                    lower: la,
                    trigrams: ta,
                },
                BoundFeatures::Trigrams {
                    lower: lb,
                    trigrams: tb,
                },
            ) => sim::token::dice_trigram_sets(la, ta, lb, tb) + UB_SLACK,
            _ => 1.0,
        }
    }

    /// The measure itself, evaluated on the prepared values — the tight
    /// fallback [`rule_fires`] uses when the cheap bound cannot prune.
    /// `None` for the set-arithmetic measures, whose "bound" already *is*
    /// the measure. Bit-identical to the rule's own similarity, because
    /// [`PreparedMeasure::similarity`] ends in the same `sim` function as
    /// [`SimMeasure::apply`].
    fn exact(&self, other: &SimFeature) -> Option<f64> {
        matches!(
            self.bound,
            BoundFeatures::Edit { .. } | BoundFeatures::Jaro { .. }
        )
        .then(|| self.prepared.similarity(&other.prepared))
    }
}

/// Jaro-Winkler upper bound from character multisets: Jaro's match count
/// is an injective pairing of equal characters, so `m ≤ |multiset
/// intersection|`, and the transposition term is at most 1; Winkler's
/// boost is maximal at a full 4-character prefix.
fn jaro_winkler_ub(ca: usize, cb: usize, na: &[(char, usize)], nb: &[(char, usize)]) -> f64 {
    if ca == 0 || cb == 0 {
        // Both empty is exactly 1.0 (and `person_name_similarity` short-
        // circuits to 1.0 before Jaro); one empty side scores 0.0, but
        // 1.0 is still a sound bound and keeps the edge case trivial.
        return 1.0;
    }
    let c = multiset_common(na, nb);
    if c == 0 {
        // No shared character: no Jaro matches and no shared prefix.
        return UB_SLACK;
    }
    let c = c as f64;
    let ub_jaro = (c / ca as f64 + c / cb as f64 + 1.0) / 3.0;
    let ub_jaro = ub_jaro.min(1.0);
    ub_jaro + 0.4 * (1.0 - ub_jaro) + UB_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{DeepEqualRule, ExactTextRule, KeyInequalityRule, SimilarityThresholdRule};
    use crate::Oracle;
    use imprecise_pxml::{from_xml, PxDoc};
    use imprecise_xmlkit::parse;

    fn px(xml: &str) -> PxDoc {
        from_xml(&parse(xml).unwrap())
    }

    fn root_elem(doc: &PxDoc) -> ElemRef<'_> {
        let poss = doc.children(doc.root())[0];
        ElemRef {
            doc,
            node: doc.children(poss)[0],
        }
    }

    fn movie_oracle_like() -> Oracle {
        let mut o = Oracle::uninformed();
        o.push_rule(DeepEqualRule);
        o.push_rule(ExactTextRule::new("genre"));
        o.push_rule(SimilarityThresholdRule::movie_title(0.55));
        o.push_rule(KeyInequalityRule::movie_year());
        o
    }

    #[test]
    fn plan_collects_movie_filters_past_transparent_rules() {
        let plan = movie_oracle_like().blocking_plan("movie");
        assert_eq!(plan.rules().len(), 2, "title similarity + year key");
        assert!(matches!(plan.rules()[0], Rule::Similarity(_)));
        assert!(matches!(plan.rules()[1], Rule::KeyInequality(_)));
        assert_eq!(plan.join_rule(), Some(1));
    }

    #[test]
    fn plan_stops_at_match_capable_rules() {
        // The genre exact-text rule can Match, so for the `genre` tag only
        // that rule is kept even with later genre-gated rules.
        let mut o = movie_oracle_like();
        o.push_rule(KeyInequalityRule {
            rule_name: "genre-key".into(),
            tag: "genre".into(),
            value_path: ".".into(),
        });
        let plan = o.blocking_plan("genre");
        assert!(matches!(plan.rules(), [Rule::ExactText(_)]));
    }

    #[test]
    fn over_unit_thresholds_emit_no_filter() {
        // threshold > 1 makes the rule reject even identical titles,
        // which conflicts with deep-equal transparency — not kept.
        let mut o = Oracle::uninformed();
        o.push_rule(DeepEqualRule);
        o.push_rule(SimilarityThresholdRule {
            rule_name: "impossible".into(),
            tag: "movie".into(),
            value_path: "title".into(),
            threshold: 1.5,
            measure: SimMeasure::Title,
        });
        assert!(o.blocking_plan("movie").is_empty());
    }

    /// The central soundness property on concrete documents: whenever the
    /// plan prunes, the oracle says NonMatch.
    #[test]
    fn pruning_implies_nonmatch() {
        let oracle = movie_oracle_like();
        let plan = oracle.blocking_plan("movie");
        let docs: Vec<PxDoc> = [
            "<movie><title>Jaws</title><year>1975</year></movie>",
            "<movie><title>Jaws 2</title><year>1978</year></movie>",
            "<movie><title>Die Hard: With a Vengeance</title><year>1995</year></movie>",
            "<movie><title>Die Hard</title><year>1988</year></movie>",
            "<movie><title>Mission: Impossible II</title><year>2000</year></movie>",
            "<movie><title>Mission Impossible 2</title><year>2000</year></movie>",
            "<movie><title>jaws</title></movie>",
            "<movie><year>1975</year></movie>",
        ]
        .iter()
        .map(|x| px(x))
        .collect();
        let mut pruned = 0;
        for da in &docs {
            for db in &docs {
                let (a, b) = (root_elem(da), root_elem(db));
                let fa = plan.features(&a);
                let fb = plan.features(&b);
                if plan.prunes(&fa, &fb) {
                    pruned += 1;
                    let j = oracle.judge(&a, &b);
                    assert_eq!(
                        j.decision,
                        crate::Decision::NonMatch,
                        "pruned a pair the oracle would not reject"
                    );
                }
            }
        }
        assert!(pruned > 0, "plan should prune at least the obvious pairs");
    }

    #[test]
    fn similarity_upper_bounds_dominate_the_measures() {
        let values = [
            "Jaws",
            "Jaws 2",
            "Die Hard: With a Vengeance",
            "Mission: Impossible II",
            "mission impossible 2",
            "McTiernan, John",
            "John Woo",
            "",
            "tv",
        ];
        for measure in [
            SimMeasure::Title,
            SimMeasure::PersonName,
            SimMeasure::Levenshtein,
            SimMeasure::JaroWinkler,
            SimMeasure::TokenJaccard,
            SimMeasure::TrigramDice,
        ] {
            for a in values {
                let fa = SimFeature::new(measure, a);
                for b in values {
                    let fb = SimFeature::new(measure, b);
                    let ub = fa.upper_bound(&fb);
                    let actual = measure.apply(a, b);
                    assert!(
                        ub >= actual,
                        "{measure:?} ub {ub} < actual {actual} for {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_fallback_matches_the_measure_bitwise() {
        let values = [
            "Jaws",
            "Jaws 2",
            "Die Hard: With a Vengeance",
            "Mission: Impossible II",
            "mission impossible 2",
            "McTiernan, John",
            "John Woo",
            "",
            "tv",
        ];
        // The edit-based measures must offer the exact fallback, and it
        // must reproduce the rule's own similarity to the bit — that is
        // what makes pruning on it recall-safe.
        for measure in [
            SimMeasure::Title,
            SimMeasure::PersonName,
            SimMeasure::Levenshtein,
            SimMeasure::JaroWinkler,
        ] {
            for a in values {
                let fa = SimFeature::new(measure, a);
                for b in values {
                    let fb = SimFeature::new(measure, b);
                    let exact = fa
                        .exact(&fb)
                        .unwrap_or_else(|| panic!("{measure:?} must provide an exact fallback"));
                    let actual = measure.apply(a, b);
                    assert_eq!(
                        exact.to_bits(),
                        actual.to_bits(),
                        "{measure:?} exact {exact} != measure {actual} for {a:?} vs {b:?}"
                    );
                }
            }
        }
        // Set-arithmetic measures already bound exactly; no fallback.
        for measure in [SimMeasure::TokenJaccard, SimMeasure::TrigramDice] {
            let fa = SimFeature::new(measure, "Jaws");
            let fb = SimFeature::new(measure, "Jaws 2");
            assert_eq!(fa.exact(&fb), None);
        }
    }

    #[test]
    fn join_keys_surface_trimmed_certain_values() {
        let plan = movie_oracle_like().blocking_plan("movie");
        let d = px("<movie><title>Jaws</title><year> 1975 </year></movie>");
        let f = plan.features(&root_elem(&d));
        assert_eq!(f.join_keys(1), Some(&["1975".to_string()][..]));
        let missing = px("<movie><title>Jaws</title></movie>");
        let fm = plan.features(&root_elem(&missing));
        assert_eq!(fm.join_keys(1), None, "missing year must stay wild");
    }

    #[test]
    fn other_tag_features_never_prune() {
        let plan = movie_oracle_like().blocking_plan("movie");
        let movie = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let person = px("<person><nm>Jaws</nm></person>");
        let fm = plan.features(&root_elem(&movie));
        let fp = plan.features(&root_elem(&person));
        assert!(!plan.prunes(&fm, &fp));
        assert!(!plan.prunes(&fp, &fm));
    }
}
