//! Prior models for pairs no rule decides.
//!
//! When every rule abstains the pair stays *possible*; the prior supplies
//! its match probability. The paper does not commit to a particular prior
//! (its experiments measure how rules shrink the undecided set, not the
//! probabilities of the undecided pairs); the reproduction offers the
//! uninformed uniform prior and a similarity-based prior that grades
//! near-duplicates higher, which is what gives the §VI query rankings
//! their useful spread.

use crate::rules::SimMeasure;
use crate::value::{ElemRef, ValueLookup};

/// Supplies match probabilities for undecided pairs: one of the two
/// prior models below.
#[derive(Debug, Clone)]
pub enum Prior {
    /// The same probability for every undecided pair.
    Uniform(UniformPrior),
    /// A probability graded by value similarity.
    Similarity(SimilarityPrior),
}

impl Prior {
    /// Match probability in `(0, 1)` (the Oracle clamps defensively).
    pub fn probability(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> f64 {
        match self {
            Prior::Uniform(p) => p.probability(a, b),
            Prior::Similarity(p) => p.probability(a, b),
        }
    }
}

impl From<UniformPrior> for Prior {
    fn from(p: UniformPrior) -> Self {
        Prior::Uniform(p)
    }
}

impl From<SimilarityPrior> for Prior {
    fn from(p: SimilarityPrior) -> Self {
        Prior::Similarity(p)
    }
}

/// The uninformed prior: every undecided pair matches with the same
/// probability (default ½ — maximum uncertainty).
#[derive(Debug, Clone, Copy)]
pub struct UniformPrior {
    /// The constant probability.
    pub p: f64,
}

impl Default for UniformPrior {
    fn default() -> Self {
        UniformPrior { p: 0.5 }
    }
}

impl UniformPrior {
    /// The constant probability, whatever the pair.
    pub fn probability(&self, _: &ElemRef<'_>, _: &ElemRef<'_>) -> f64 {
        self.p
    }
}

/// A similarity-graded prior: the probability interpolates between `lo`
/// and `hi` with the similarity of a designated value (or, without a value
/// path, of the elements' full text).
#[derive(Debug, Clone)]
pub struct SimilarityPrior {
    /// Probability at similarity 0.
    pub lo: f64,
    /// Probability at similarity 1.
    pub hi: f64,
    /// Path to the compared value below each element (`None` ⇒ full text).
    pub value_path: Option<String>,
    /// Similarity measure.
    pub measure: SimMeasure,
}

impl SimilarityPrior {
    /// Prior for movie elements graded by title similarity, spanning
    /// `[lo, hi]`.
    pub fn movie_title(lo: f64, hi: f64) -> Self {
        SimilarityPrior {
            lo,
            hi,
            value_path: Some("title".into()),
            measure: SimMeasure::Title,
        }
    }

    fn lookup(&self, e: &ElemRef<'_>) -> ValueLookup {
        match &self.value_path {
            Some(path) => e.value_at(path),
            None => e.own_text(),
        }
    }

    /// `lo` plus the values' similarity times `hi - lo`; the middle of
    /// the band when either value is missing or uncertain.
    pub fn probability(&self, a: &ElemRef<'_>, b: &ElemRef<'_>) -> f64 {
        match (self.lookup(a), self.lookup(b)) {
            (ValueLookup::Value(va), ValueLookup::Value(vb)) => {
                let s = self.measure.apply(&va, &vb);
                self.lo + s * (self.hi - self.lo)
            }
            // Unknown evidence: sit in the middle of the configured band.
            _ => 0.5 * (self.lo + self.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn uniform_prior_is_constant() {
        let p = UniformPrior::default();
        let a = px("<movie><title>Jaws</title></movie>");
        let b = px("<movie><title>Die Hard</title></movie>");
        assert_eq!(p.probability(&root_elem(&a), &root_elem(&b)), 0.5);
    }

    #[test]
    fn similarity_prior_grades_by_title() {
        let prior = SimilarityPrior::movie_title(0.1, 0.9);
        let jaws = px("<movie><title>Jaws</title></movie>");
        let jaws_dup = px("<movie><title>Jaws</title><year>1975</year></movie>");
        let jaws2 = px("<movie><title>Jaws 2</title></movie>");
        let die_hard = px("<movie><title>Die Hard</title></movie>");
        let p_same = prior.probability(&root_elem(&jaws), &root_elem(&jaws_dup));
        let p_sequel = prior.probability(&root_elem(&jaws), &root_elem(&jaws2));
        let p_other = prior.probability(&root_elem(&jaws), &root_elem(&die_hard));
        assert!((p_same - 0.9).abs() < 1e-12);
        assert!(p_sequel < p_same && p_sequel > p_other);
        assert!(p_other >= 0.1);
    }

    #[test]
    fn similarity_prior_falls_back_to_band_middle() {
        let prior = SimilarityPrior::movie_title(0.2, 0.8);
        let with_title = px("<movie><title>Jaws</title></movie>");
        let without = px("<movie><year>1975</year></movie>");
        let p = prior.probability(&root_elem(&with_title), &root_elem(&without));
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn full_text_mode_compares_own_text() {
        let prior = SimilarityPrior {
            lo: 0.0,
            hi: 1.0,
            value_path: None,
            measure: SimMeasure::Levenshtein,
        };
        let a = px("<g>Horror</g>");
        let b = px("<g>Horror</g>");
        assert_eq!(prior.probability(&root_elem(&a), &root_elem(&b)), 1.0);
    }
}
