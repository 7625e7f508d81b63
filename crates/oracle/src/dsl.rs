//! A textual configuration language for the Oracle.
//!
//! §V: *"Semantical knowledge is given to 'The Oracle' in terms of rules
//! … The rules need to be as simple as possible, because the purpose of
//! probabilistic integration is to significantly reduce manual effort, so
//! rule specification overhead should be minimal."* This module is that
//! minimal surface: a line-oriented language a user writes in a small
//! file, paralleling the XQuery-function rules of the original prototype.
//!
//! ```text
//! # The paper's movie configuration (§V)
//! rule deep-equal
//! rule exact-text genre
//! rule similarity movie title >= 0.55 using title
//! rule key movie year
//! prior similarity movie title range 0.05 0.95
//! ```
//!
//! One directive per line; `#` starts a comment. Directives:
//!
//! | Directive | Meaning |
//! |---|---|
//! | `rule deep-equal` | [`crate::Rule::DeepEqual`] |
//! | `rule exact-text <tag>` | [`crate::Rule::ExactText`] |
//! | `rule similarity <tag> <path> >= <θ> [using <measure>]` | [`crate::Rule::Similarity`] (reject below θ) |
//! | `rule key <tag> <path>` | [`crate::Rule::KeyInequality`] |
//! | `prior uniform [p]` | [`crate::Prior::Uniform`] |
//! | `prior similarity <tag> <path> range <lo> <hi> [using <measure>]` | [`crate::Prior::Similarity`] |
//!
//! Each directive builds one variant of the closed rule or prior enum, so
//! a rule file can express exactly the rules judging and blocking know.
//!
//! Measures: `title`, `person-name`, `levenshtein`, `jaro-winkler`,
//! `token-jaccard`, `trigram-dice` (default `levenshtein`; the `<tag>` of
//! a similarity prior is informational only — the prior applies to
//! whatever pair the rules left undecided).

use crate::prior::{SimilarityPrior, UniformPrior};
use crate::rules::{
    DeepEqualRule, ExactTextRule, KeyInequalityRule, SimMeasure, SimilarityThresholdRule,
};
use crate::Oracle;
use std::fmt;

/// A rule-file parse error, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

/// Parse a rule file into a configured [`Oracle`].
///
/// Rules are consulted in file order. At most one `prior` directive is
/// allowed; without one the uniform ½ prior applies.
pub fn parse_rules(text: &str) -> Result<Oracle, DslError> {
    let mut oracle = Oracle::uninformed();
    let mut prior_seen = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "rule" => parse_rule(&tokens[1..], line_no, &mut oracle)?,
            "prior" => {
                if prior_seen {
                    return Err(err(line_no, "duplicate prior directive"));
                }
                prior_seen = true;
                parse_prior(&tokens[1..], line_no, &mut oracle)?;
            }
            other => {
                return Err(err(
                    line_no,
                    format!("unknown directive {other:?} (expected `rule` or `prior`)"),
                ))
            }
        }
    }
    Ok(oracle)
}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError {
        line,
        message: message.into(),
    }
}

fn parse_rule(args: &[&str], line: usize, oracle: &mut Oracle) -> Result<(), DslError> {
    match args.first() {
        Some(&"deep-equal") => {
            expect_len(args, 1, line, "rule deep-equal")?;
            oracle.push_rule(DeepEqualRule);
            Ok(())
        }
        Some(&"exact-text") => {
            expect_len(args, 2, line, "rule exact-text <tag>")?;
            oracle.push_rule(ExactTextRule::new(args[1]));
            Ok(())
        }
        Some(&"similarity") => {
            // rule similarity <tag> <path> >= <θ> [using <measure>]
            if args.len() != 5 && args.len() != 7 {
                return Err(err(
                    line,
                    "expected: rule similarity <tag> <path> >= <threshold> [using <measure>]",
                ));
            }
            if args[3] != ">=" {
                return Err(err(line, format!("expected `>=`, found {:?}", args[3])));
            }
            let threshold = parse_prob(args[4], line, "threshold")?;
            let measure = parse_optional_measure(&args[5..], line)?;
            oracle.push_rule(SimilarityThresholdRule {
                rule_name: format!("{}-{}", args[1], args[2].replace('/', "-")),
                tag: args[1].to_string(),
                value_path: args[2].to_string(),
                threshold,
                measure,
            });
            Ok(())
        }
        Some(&"key") => {
            expect_len(args, 3, line, "rule key <tag> <path>")?;
            oracle.push_rule(KeyInequalityRule {
                rule_name: format!("{}-{}", args[1], args[2].replace('/', "-")),
                tag: args[1].to_string(),
                value_path: args[2].to_string(),
            });
            Ok(())
        }
        Some(other) => Err(err(
            line,
            format!(
                "unknown rule kind {other:?} \
                 (expected deep-equal | exact-text | similarity | key)"
            ),
        )),
        None => Err(err(line, "empty rule directive")),
    }
}

fn parse_prior(args: &[&str], line: usize, oracle: &mut Oracle) -> Result<(), DslError> {
    match args.first() {
        Some(&"uniform") => {
            let p = match args.len() {
                1 => 0.5,
                2 => parse_prob(args[1], line, "probability")?,
                _ => return Err(err(line, "expected: prior uniform [p]")),
            };
            oracle.set_prior(UniformPrior { p });
            Ok(())
        }
        Some(&"similarity") => {
            // prior similarity <tag> <path> range <lo> <hi> [using <measure>]
            if args.len() != 6 && args.len() != 8 {
                return Err(err(
                    line,
                    "expected: prior similarity <tag> <path> range <lo> <hi> [using <measure>]",
                ));
            }
            if args[3] != "range" {
                return Err(err(line, format!("expected `range`, found {:?}", args[3])));
            }
            let lo = parse_prob(args[4], line, "range low")?;
            let hi = parse_prob(args[5], line, "range high")?;
            if lo > hi {
                return Err(err(line, format!("empty range: {lo} > {hi}")));
            }
            let measure = parse_optional_measure(&args[6..], line)?;
            oracle.set_prior(SimilarityPrior {
                lo,
                hi,
                value_path: Some(args[2].to_string()),
                measure,
            });
            Ok(())
        }
        Some(other) => Err(err(
            line,
            format!("unknown prior {other:?} (expected uniform | similarity)"),
        )),
        None => Err(err(line, "empty prior directive")),
    }
}

fn expect_len(args: &[&str], n: usize, line: usize, usage: &str) -> Result<(), DslError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(err(line, format!("expected: {usage}")))
    }
}

fn parse_prob(token: &str, line: usize, what: &str) -> Result<f64, DslError> {
    let v: f64 = token
        .parse()
        .map_err(|_| err(line, format!("{what} is not a number: {token:?}")))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(err(line, format!("{what} must be in [0, 1], got {v}")));
    }
    Ok(v)
}

fn parse_optional_measure(rest: &[&str], line: usize) -> Result<SimMeasure, DslError> {
    match rest {
        [] => Ok(SimMeasure::Levenshtein),
        ["using", m] => parse_measure(m, line),
        _ => Err(err(line, "trailing tokens (expected `using <measure>`)")),
    }
}

fn parse_measure(token: &str, line: usize) -> Result<SimMeasure, DslError> {
    match token {
        "title" => Ok(SimMeasure::Title),
        "person-name" => Ok(SimMeasure::PersonName),
        "levenshtein" => Ok(SimMeasure::Levenshtein),
        "jaro-winkler" => Ok(SimMeasure::JaroWinkler),
        "token-jaccard" => Ok(SimMeasure::TokenJaccard),
        "trigram-dice" => Ok(SimMeasure::TrigramDice),
        other => Err(err(
            line,
            format!(
                "unknown measure {other:?} (title | person-name | levenshtein | \
                 jaro-winkler | token-jaccard | trigram-dice)"
            ),
        )),
    }
}

/// The paper's §V movie configuration as a rule file (used by examples,
/// the CLI's `--rules movie` shorthand, and equivalence tests).
pub const MOVIE_RULES: &str = "\
# IMPrECISE §V movie-domain configuration
rule deep-equal
rule exact-text genre            # no typos occur in genres
rule similarity movie title >= 0.55 using title
rule key movie year              # movies of different years cannot match
prior similarity movie title range 0.05 0.95 using title
";

/// The Fig. 2 address-book configuration as a rule file.
pub const ADDRESSBOOK_RULES: &str = "\
rule deep-equal
rule similarity person nm >= 0.85 using person-name
rule exact-text tel
rule exact-text nm
";

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
    fn movie_rules_parse_and_name_rules() {
        let oracle = parse_rules(MOVIE_RULES).unwrap();
        assert_eq!(
            oracle.rule_names(),
            vec!["deep-equal", "exact-text", "movie-title", "movie-year"]
        );
    }

    #[test]
    fn parsed_movie_rules_decide_like_the_preset() {
        let dsl = parse_rules(MOVIE_RULES).unwrap();
        let preset = crate::presets::movie_oracle(crate::presets::MovieOracleConfig::default());
        let pairs = [
            (
                "<movie><title>Jaws</title><year>1975</year></movie>",
                "<movie><title>Die Hard</title><year>1988</year></movie>",
            ),
            (
                "<movie><title>Jaws</title><year>1975</year></movie>",
                "<movie><title>Jaws 2</title><year>1978</year></movie>",
            ),
            (
                "<movie><title>Jaws</title><year>1975</year></movie>",
                "<movie><title>Jaws (TV)</title><year>1975</year></movie>",
            ),
            ("<genre>Horror</genre>", "<genre>Horror</genre>"),
        ];
        for (a, b) in pairs {
            let (da, db) = (px(a), px(b));
            let ja = dsl.judge(&root_elem(&da), &root_elem(&db));
            let jb = preset.judge(&root_elem(&da), &root_elem(&db));
            match (ja.decision, jb.decision) {
                (Decision::Possible(x), Decision::Possible(y)) => {
                    assert!((x - y).abs() < 1e-12, "{a} ~ {b}")
                }
                (x, y) => assert_eq!(x, y, "{a} ~ {b}"),
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let oracle = parse_rules("\n  # only a comment\n\nrule deep-equal # trailing\n").unwrap();
        assert_eq!(oracle.rule_names(), vec!["deep-equal"]);
    }

    #[test]
    fn uniform_prior_with_and_without_probability() {
        parse_rules("prior uniform").unwrap();
        parse_rules("prior uniform 0.3").unwrap();
        let e = parse_rules("prior uniform 1.5").unwrap_err();
        assert!(e.message.contains("[0, 1]"), "{e}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_rules("rule deep-equal\nrule bogus x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        let e = parse_rules("rule similarity movie title > 0.5").unwrap_err();
        assert!(e.message.contains(">="));
        let e = parse_rules("nonsense").unwrap_err();
        assert!(e.message.contains("unknown directive"));
        let e = parse_rules("rule similarity movie title >= 0.5 using sounds-like").unwrap_err();
        assert!(e.message.contains("unknown measure"));
        let e = parse_rules("prior uniform\nprior uniform").unwrap_err();
        assert!(e.message.contains("duplicate prior"));
        let e = parse_rules("prior similarity movie title range 0.9 0.1").unwrap_err();
        assert!(e.message.contains("empty range"));
    }

    #[test]
    fn addressbook_rules_reproduce_fig2_judgments() {
        let oracle = parse_rules(ADDRESSBOOK_RULES).unwrap();
        let john1 = px("<person><nm>John</nm><tel>1111</tel></person>");
        let john2 = px("<person><nm>John</nm><tel>2222</tel></person>");
        let mary = px("<person><nm>Mary</nm><tel>1111</tel></person>");
        assert!(matches!(
            oracle
                .judge(&root_elem(&john1), &root_elem(&john2))
                .decision,
            Decision::Possible(_)
        ));
        assert_eq!(
            oracle.judge(&root_elem(&john1), &root_elem(&mary)).decision,
            Decision::NonMatch
        );
    }

    #[test]
    fn similarity_rule_defaults_to_levenshtein() {
        let oracle = parse_rules("rule similarity movie title >= 0.9").unwrap();
        // "Jaws" vs "Jaws 2" at Levenshtein similarity 4/6 < 0.9 → reject.
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Jaws 2</title></movie>");
        assert_eq!(
            oracle.judge(&root_elem(&a), &root_elem(&b)).decision,
            Decision::NonMatch
        );
    }
}
