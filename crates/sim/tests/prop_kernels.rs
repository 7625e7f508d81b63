//! Property tests for the similarity measures: the edit distance agrees
//! with an independent reference DP on arbitrary ASCII and Unicode input,
//! and the prepared title and person-name forms are bit-identical to the
//! formulas they replace, written out here with `BTreeSet` token sets.

use imprecise_sim::{
    jaro_winkler, levenshtein, levenshtein_similarity, normalize_person_name, normalize_title,
    person_name_similarity, title_similarity, tokenize, PreparedPersonName, PreparedTitle,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference two-row DP over Unicode scalars — independent of every
/// implementation under test.
fn reference_levenshtein(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=bc.len()).collect();
    let mut cur = vec![0usize; bc.len() + 1];
    for (i, ca) in ac.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in bc.iter().enumerate() {
            cur[j + 1] = (prev[j] + usize::from(ca != cb))
                .min(cur[j] + 1)
                .min(prev[j + 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[bc.len()]
}

/// Title similarity as computed before token sets became sorted vectors:
/// `BTreeSet` token sets, Jaccard, then the larger of that and the
/// Levenshtein similarity of the normalised titles.
fn reference_title_similarity(a: &str, b: &str) -> f64 {
    let (na, nb) = (normalize_title(a), normalize_title(b));
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    let ta: BTreeSet<String> = tokenize(&na).into_iter().collect();
    let tb: BTreeSet<String> = tokenize(&nb).into_iter().collect();
    let jaccard = if ta.is_empty() && tb.is_empty() {
        1.0
    } else {
        ta.intersection(&tb).count() as f64 / ta.union(&tb).count() as f64
    };
    jaccard.max(levenshtein_similarity(&na, &nb))
}

/// Person-name similarity as computed before the prepared form became
/// its only implementation.
fn reference_person_name_similarity(a: &str, b: &str) -> f64 {
    let (na, nb) = (normalize_person_name(a), normalize_person_name(b));
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    jaro_winkler(&na, &nb)
}

fn ascii_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..128, 0..=max_len)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

fn unicode_string(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x2FFF, 0..=max_len).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
}

/// Title- and name-like Unicode strings: words from a small vocabulary
/// (so token sets overlap and normalisation rules fire) joined by mixed
/// separators, followed by a random Unicode fragment.
fn unicode_phrase() -> impl Strategy<Value = String> {
    const WORDS: [&str; 12] = [
        "Jaws",
        "jaws",
        "II",
        "2",
        "Café",
        "CAFÉ",
        "Straße",
        "Ὀδύσσεια",
        "die",
        "Hard",
        "Woo",
        "John",
    ];
    const SEPS: [&str; 4] = [" ", ", ", ": ", "-"];
    (
        proptest::collection::vec((0..WORDS.len(), 0..SEPS.len()), 0..5),
        unicode_string(6),
    )
        .prop_map(|(words, tail)| {
            let mut s = String::new();
            for (w, sep) in words {
                s.push_str(WORDS[w]);
                s.push_str(SEPS[sep]);
            }
            s + &tail
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pair entry point agrees with the reference DP on ASCII —
    /// this covers the Myers tier (pattern ≤ 64 bytes) and the byte DP.
    #[test]
    fn ascii_pair_matches_reference(a in ascii_string(90), b in ascii_string(90)) {
        prop_assert_eq!(levenshtein(&a, &b), reference_levenshtein(&a, &b));
    }

    /// ... and on arbitrary Unicode (the char DP tier).
    #[test]
    fn unicode_pair_matches_reference(a in unicode_string(40), b in unicode_string(40)) {
        prop_assert_eq!(levenshtein(&a, &b), reference_levenshtein(&a, &b));
    }

    /// Levenshtein similarity is `1 - d / max_len` over the reference
    /// distance, and the prepared title agrees with the free function, bit
    /// for bit.
    #[test]
    fn similarities_are_bit_identical(a in ascii_string(64), b in ascii_string(80)) {
        let max_len = a.chars().count().max(b.chars().count());
        let expect = if max_len == 0 {
            1.0
        } else {
            1.0 - reference_levenshtein(&a, &b) as f64 / max_len as f64
        };
        prop_assert_eq!(levenshtein_similarity(&a, &b).to_bits(), expect.to_bits());
        prop_assert_eq!(
            PreparedTitle::new(&a).similarity(b.as_str()).to_bits(),
            title_similarity(&a, &b).to_bits()
        );
    }

    /// Every form of the title measure reproduces the reference formula
    /// on arbitrary Unicode, bit for bit.
    #[test]
    fn prepared_title_matches_reference(a in unicode_phrase(), b in unicode_phrase()) {
        let expect = reference_title_similarity(&a, &b).to_bits();
        let prep = PreparedTitle::new(&a);
        prop_assert_eq!(prep.similarity(&PreparedTitle::new(&b)).to_bits(), expect);
        prop_assert_eq!(prep.similarity(b.as_str()).to_bits(), expect);
        prop_assert_eq!(title_similarity(&a, &b).to_bits(), expect);
    }

    /// ... and so does every form of the person-name measure.
    #[test]
    fn prepared_person_name_matches_reference(a in unicode_phrase(), b in unicode_phrase()) {
        let expect = reference_person_name_similarity(&a, &b).to_bits();
        let prep = PreparedPersonName::new(&a);
        prop_assert_eq!(prep.similarity(&PreparedPersonName::new(&b)).to_bits(), expect);
        prop_assert_eq!(prep.similarity(b.as_str()).to_bits(), expect);
        prop_assert_eq!(person_name_similarity(&a, &b).to_bits(), expect);
    }
}
