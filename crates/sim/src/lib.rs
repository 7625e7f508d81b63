//! # imprecise-sim — string similarity substrate
//!
//! The Oracle's domain rules compare element values: *"two movies cannot
//! match if their titles are not sufficiently similar"*, and the movie
//! sources "use different conventions for, e.g., naming directors, so these
//! never match exactly" (§V). This crate supplies the string machinery that
//! those rules are built on — edit distance, Jaro/Jaro-Winkler, token-set
//! measures, and the normalisers that reconcile source conventions
//! (`"Woo, John"` vs `"John Woo"`, roman vs arabic sequel numbers).
//!
//! Everything is implemented here (no third-party similarity crates), is
//! allocation-conscious, and is deterministic across platforms.

pub mod edit;
pub mod jaro;
pub mod normalize;
pub mod simd;
pub mod token;

pub use edit::{levenshtein, levenshtein_similarity};
pub use jaro::{jaro, jaro_winkler};
pub use normalize::{normalize_person_name, normalize_title, normalize_token};
pub use token::{dice_trigram, jaccard_token_sets, jaccard_tokens, token_set, tokenize};

use std::borrow::Cow;

/// Similarity between two movie titles in `[0, 1]`.
///
/// Titles are normalised (case, punctuation, roman numerals) and compared
/// with a blend of token-set Jaccard (robust to re-ordering and subtitle
/// punctuation) and character-level Levenshtein (robust to typos). The
/// blend takes the maximum: either signal alone suffices to call two titles
/// "sufficiently similar" in the sense of the paper's title rule.
pub fn title_similarity(a: &str, b: &str) -> f64 {
    PreparedTitle::new(a).similarity(b)
}

/// Similarity between two person names in `[0, 1]`.
///
/// Names are normalised into `given family` order (fixing the
/// `"Family, Given"` convention of one source) before a Jaro-Winkler
/// comparison, which is the standard measure for short person names.
pub fn person_name_similarity(a: &str, b: &str) -> f64 {
    PreparedPersonName::new(a).similarity(b)
}

/// The right-hand side of a prepared measure: a raw string, prepared on
/// the spot, or a value of the same kind prepared earlier.
pub trait Operand<P: Clone> {
    /// This operand in prepared form.
    fn prepared(&self) -> Cow<'_, P>;
}

/// One movie title, normalised and tokenised once.
///
/// This is the only implementation of [`title_similarity`]: the free
/// function, the Oracle's one-vs-many judging and the blocking plan's
/// exact fallback all call [`PreparedTitle::similarity`], so they agree
/// bit for bit by construction.
#[derive(Debug, Clone)]
pub struct PreparedTitle {
    norm: String,
    tokens: Vec<String>,
}

impl PreparedTitle {
    pub fn new(a: &str) -> Self {
        let norm = normalize_title(a);
        let tokens = token_set(&norm);
        PreparedTitle { norm, tokens }
    }

    /// The normalised title.
    pub fn norm(&self) -> &str {
        &self.norm
    }

    /// The normalised title's token set, sorted and deduplicated.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    /// Title similarity against a raw or prepared title: the larger of
    /// token-set Jaccard and Levenshtein similarity on the normalised
    /// titles; two titles that normalise to nothing are identical.
    pub fn similarity<T: Operand<Self> + ?Sized>(&self, other: &T) -> f64 {
        let other = other.prepared();
        if self.norm.is_empty() && other.norm.is_empty() {
            return 1.0;
        }
        let token_sim = jaccard_token_sets(&self.tokens, &other.tokens);
        let char_sim = levenshtein_similarity(&self.norm, &other.norm);
        token_sim.max(char_sim)
    }
}

impl Operand<PreparedTitle> for PreparedTitle {
    fn prepared(&self) -> Cow<'_, PreparedTitle> {
        Cow::Borrowed(self)
    }
}

impl Operand<PreparedTitle> for str {
    fn prepared(&self) -> Cow<'_, PreparedTitle> {
        Cow::Owned(PreparedTitle::new(self))
    }
}

/// One person name, normalised once. The only implementation of
/// [`person_name_similarity`], as [`PreparedTitle`] is for titles.
#[derive(Debug, Clone)]
pub struct PreparedPersonName {
    norm: String,
}

impl PreparedPersonName {
    pub fn new(a: &str) -> Self {
        PreparedPersonName {
            norm: normalize_person_name(a),
        }
    }

    /// The normalised name, in `given family` order.
    pub fn norm(&self) -> &str {
        &self.norm
    }

    /// Jaro-Winkler similarity of the normalised names against a raw or
    /// prepared name; two names that normalise to nothing are identical.
    pub fn similarity<T: Operand<Self> + ?Sized>(&self, other: &T) -> f64 {
        let other = other.prepared();
        if self.norm.is_empty() && other.norm.is_empty() {
            return 1.0;
        }
        jaro_winkler(&self.norm, &other.norm)
    }
}

impl Operand<PreparedPersonName> for PreparedPersonName {
    fn prepared(&self) -> Cow<'_, PreparedPersonName> {
        Cow::Borrowed(self)
    }
}

impl Operand<PreparedPersonName> for str {
    fn prepared(&self) -> Cow<'_, PreparedPersonName> {
        Cow::Owned(PreparedPersonName::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_title_matches_the_free_function() {
        let lhs = [
            "Mission: Impossible II",
            "Jaws",
            "",
            "Die Hard: With a Vengeance",
        ];
        let rhs = [
            "Mission Impossible 2",
            "Jaws 2",
            "",
            "Die Hard",
            "Live Free or Die Hard",
        ];
        for a in lhs {
            let prep = PreparedTitle::new(a);
            for b in rhs {
                let expect = title_similarity(a, b);
                assert_eq!(prep.similarity(b).to_bits(), expect.to_bits(), "{a} vs {b}");
                let both = prep.similarity(&PreparedTitle::new(b));
                assert_eq!(both.to_bits(), expect.to_bits(), "{a} vs {b} (prepared)");
            }
        }
    }

    #[test]
    fn prepared_person_name_matches_the_free_function() {
        let lhs = ["McTiernan, John", "John Woo", ""];
        let rhs = ["John McTiernan", "Woo, John", "Jan de Bont", ""];
        for a in lhs {
            let prep = PreparedPersonName::new(a);
            for b in rhs {
                let expect = person_name_similarity(a, b);
                assert_eq!(prep.similarity(b).to_bits(), expect.to_bits(), "{a} vs {b}");
                let both = prep.similarity(&PreparedPersonName::new(b));
                assert_eq!(both.to_bits(), expect.to_bits(), "{a} vs {b} (prepared)");
            }
        }
    }

    #[test]
    fn identical_titles_score_one() {
        assert_eq!(title_similarity("Jaws", "Jaws"), 1.0);
    }

    #[test]
    fn sequels_are_similar_but_not_identical() {
        let s = title_similarity("Mission: Impossible", "Mission: Impossible II");
        assert!(s > 0.6 && s < 1.0, "similarity {s}");
    }

    #[test]
    fn roman_and_arabic_sequel_numbers_unify() {
        let s = title_similarity("Mission: Impossible II", "Mission Impossible 2");
        assert_eq!(
            s, 1.0,
            "roman numeral normalisation should make these equal"
        );
    }

    #[test]
    fn unrelated_titles_score_low() {
        let s = title_similarity("Jaws", "Die Hard: With a Vengeance");
        assert!(s < 0.35, "similarity {s}");
    }

    #[test]
    fn director_conventions_unify() {
        let s = person_name_similarity("McTiernan, John", "John McTiernan");
        assert!(s > 0.99, "similarity {s}");
    }

    #[test]
    fn different_johns_are_distinguishable() {
        let s = person_name_similarity("John Woo", "John McTiernan");
        assert!(s < 0.9, "similarity {s}");
    }

    #[test]
    fn empty_strings() {
        assert_eq!(title_similarity("", ""), 1.0);
        assert_eq!(person_name_similarity("", ""), 1.0);
        assert!(title_similarity("Jaws", "") < 0.1);
    }
}
