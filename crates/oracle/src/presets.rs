//! Pre-assembled oracles for the paper's two demo scenarios.
//!
//! The Table I experiment compares five *effective rule sets* on the movie
//! workload; [`TableIRuleSet`] enumerates them exactly as the table's rows.

use crate::prior::{SimilarityPrior, UniformPrior};
use crate::rules::{DeepEqualRule, ExactTextRule, KeyInequalityRule, SimilarityThresholdRule};
use crate::Oracle;

/// Default similarity threshold of the movie-title rule. Sequels and
/// format variants ("Jaws" / "Jaws 2" / "Jaws (TV)") stay above it;
/// unrelated titles fall below.
pub const DEFAULT_TITLE_THRESHOLD: f64 = 0.55;

/// Configuration for the movie-domain oracle.
#[derive(Debug, Clone, Copy)]
pub struct MovieOracleConfig {
    /// Enable the genre rule ("no typos occur in genres").
    pub genre_rule: bool,
    /// Enable the title rule with [`MovieOracleConfig::title_threshold`].
    pub title_rule: bool,
    /// Enable the year rule ("movies of different years cannot match").
    pub year_rule: bool,
    /// Similarity threshold of the title rule.
    pub title_threshold: f64,
    /// Grade undecided movie pairs by title similarity instead of the
    /// uniform ½ prior (gives the §VI-style ranked answers their spread).
    pub graded_prior: bool,
}

impl Default for MovieOracleConfig {
    fn default() -> Self {
        MovieOracleConfig {
            genre_rule: true,
            title_rule: true,
            year_rule: true,
            title_threshold: DEFAULT_TITLE_THRESHOLD,
            graded_prior: true,
        }
    }
}

/// Build the movie-domain oracle of §V. The deep-equal generic rule is
/// always present; domain rules are added per the configuration.
pub fn movie_oracle(cfg: MovieOracleConfig) -> Oracle {
    let mut oracle = Oracle::uninformed();
    oracle.push_rule(DeepEqualRule);
    if cfg.genre_rule {
        oracle.push_rule(ExactTextRule::new("genre"));
    }
    if cfg.title_rule {
        oracle.push_rule(SimilarityThresholdRule::movie_title(cfg.title_threshold));
    }
    if cfg.year_rule {
        oracle.push_rule(KeyInequalityRule::movie_year());
    }
    // Directors are value-like person names: treat exact-equal directors as
    // the same rwo (deep-equal already covers it), and let the prior handle
    // near-matches.
    if cfg.graded_prior {
        oracle.set_prior(SimilarityPrior::movie_title(0.05, 0.95));
    } else {
        oracle.set_prior(UniformPrior::default());
    }
    oracle
}

/// The rows of Table I: which rules are *effective* during integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableIRuleSet {
    /// "none" — only the generic rules.
    None,
    /// "Genre rule".
    Genre,
    /// "Movie title rule".
    Title,
    /// "Genre and movie title rule".
    GenreTitle,
    /// "Genre, movie title and year rule".
    GenreTitleYear,
}

impl TableIRuleSet {
    /// All rows in the table's order.
    pub const ALL: [TableIRuleSet; 5] = [
        TableIRuleSet::None,
        TableIRuleSet::Genre,
        TableIRuleSet::Title,
        TableIRuleSet::GenreTitle,
        TableIRuleSet::GenreTitleYear,
    ];

    /// The row label as printed in the paper.
    pub fn label(&self) -> &'static str {
        match self {
            TableIRuleSet::None => "none",
            TableIRuleSet::Genre => "Genre rule",
            TableIRuleSet::Title => "Movie title rule",
            TableIRuleSet::GenreTitle => "Genre and movie title rule",
            TableIRuleSet::GenreTitleYear => "Genre, movie title and year rule",
        }
    }

    /// The oracle for this row. Undecided pairs get the uniform prior so
    /// the row's possibility count depends only on the rules (as in the
    /// paper, which counts nodes, not probabilities).
    pub fn oracle(&self) -> Oracle {
        let cfg = match self {
            TableIRuleSet::None => MovieOracleConfig {
                genre_rule: false,
                title_rule: false,
                year_rule: false,
                graded_prior: false,
                ..MovieOracleConfig::default()
            },
            TableIRuleSet::Genre => MovieOracleConfig {
                genre_rule: true,
                title_rule: false,
                year_rule: false,
                graded_prior: false,
                ..MovieOracleConfig::default()
            },
            TableIRuleSet::Title => MovieOracleConfig {
                genre_rule: false,
                title_rule: true,
                year_rule: false,
                graded_prior: false,
                ..MovieOracleConfig::default()
            },
            TableIRuleSet::GenreTitle => MovieOracleConfig {
                genre_rule: true,
                title_rule: true,
                year_rule: false,
                graded_prior: false,
                ..MovieOracleConfig::default()
            },
            TableIRuleSet::GenreTitleYear => MovieOracleConfig {
                genre_rule: true,
                title_rule: true,
                year_rule: true,
                graded_prior: false,
                ..MovieOracleConfig::default()
            },
        };
        movie_oracle(cfg)
    }
}

/// Oracle for the Fig. 2 address-book scenario: deep-equal persons match;
/// persons with clearly different names cannot match; phone numbers are
/// value-identified. A person pair with equal names but different phones
/// stays undecided at ½ — producing exactly the paper's three worlds.
pub fn addressbook_oracle() -> Oracle {
    let mut oracle = Oracle::uninformed();
    oracle.push_rule(DeepEqualRule);
    oracle.push_rule(SimilarityThresholdRule::person_name(0.85));
    oracle.push_rule(ExactTextRule::new("tel"));
    oracle.push_rule(ExactTextRule::new("nm"));
    oracle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ElemRef;
    use crate::Decision;
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

    #[test]
    fn rule_sets_have_expected_rule_counts() {
        assert_eq!(TableIRuleSet::None.oracle().rule_names().len(), 1);
        assert_eq!(TableIRuleSet::Genre.oracle().rule_names().len(), 2);
        assert_eq!(TableIRuleSet::Title.oracle().rule_names().len(), 2);
        assert_eq!(TableIRuleSet::GenreTitle.oracle().rule_names().len(), 3);
        assert_eq!(TableIRuleSet::GenreTitleYear.oracle().rule_names().len(), 4);
    }

    #[test]
    fn labels_match_paper_rows() {
        let labels: Vec<&str> = TableIRuleSet::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "none",
                "Genre rule",
                "Movie title rule",
                "Genre and movie title rule",
                "Genre, movie title and year rule",
            ]
        );
    }

    #[test]
    fn full_rule_set_rejects_cross_franchise_pairs() {
        let oracle = TableIRuleSet::GenreTitleYear.oracle();
        let jaws = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let die_hard = px("<movie><title>Die Hard</title><year>1988</year></movie>");
        let j = oracle.judge(&root_elem(&jaws), &root_elem(&die_hard));
        assert_eq!(j.decision, Decision::NonMatch);
    }

    #[test]
    fn year_rule_separates_sequels_title_rule_does_not() {
        let jaws = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let jaws2 = px("<movie><title>Jaws 2</title><year>1978</year></movie>");
        let title_only = TableIRuleSet::Title.oracle();
        let with_year = TableIRuleSet::GenreTitleYear.oracle();
        assert!(matches!(
            title_only
                .judge(&root_elem(&jaws), &root_elem(&jaws2))
                .decision,
            Decision::Possible(_)
        ));
        assert_eq!(
            with_year
                .judge(&root_elem(&jaws), &root_elem(&jaws2))
                .decision,
            Decision::NonMatch
        );
    }

    #[test]
    fn none_rule_set_leaves_everything_possible() {
        let oracle = TableIRuleSet::None.oracle();
        let jaws = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let die_hard = px("<movie><title>Die Hard</title><year>1988</year></movie>");
        assert!(matches!(
            oracle
                .judge(&root_elem(&jaws), &root_elem(&die_hard))
                .decision,
            Decision::Possible(_)
        ));
    }

    #[test]
    fn addressbook_oracle_fig2_case() {
        let oracle = addressbook_oracle();
        let john1 = px("<person><nm>John</nm><tel>1111</tel></person>");
        let john2 = px("<person><nm>John</nm><tel>2222</tel></person>");
        let mary = px("<person><nm>Mary</nm><tel>1111</tel></person>");
        // Same name, different phone: undecided (the Fig. 2 situation).
        assert!(matches!(
            oracle
                .judge(&root_elem(&john1), &root_elem(&john2))
                .decision,
            Decision::Possible(_)
        ));
        // Different names: certainly different persons.
        assert_eq!(
            oracle.judge(&root_elem(&john1), &root_elem(&mary)).decision,
            Decision::NonMatch
        );
        // Identical persons: certainly the same.
        let john1b = px("<person><nm>John</nm><tel>1111</tel></person>");
        assert_eq!(
            oracle
                .judge(&root_elem(&john1), &root_elem(&john1b))
                .decision,
            Decision::Match
        );
    }

    #[test]
    fn addressbook_oracle_decides_tel_and_nm_values() {
        let oracle = addressbook_oracle();
        let t1 = px("<tel>1111</tel>");
        let t2 = px("<tel>2222</tel>");
        let t1b = px("<tel>1111</tel>");
        assert_eq!(
            oracle.judge(&root_elem(&t1), &root_elem(&t2)).decision,
            Decision::NonMatch
        );
        assert_eq!(
            oracle.judge(&root_elem(&t1), &root_elem(&t1b)).decision,
            Decision::Match
        );
    }
}
