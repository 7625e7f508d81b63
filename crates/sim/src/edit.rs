//! Levenshtein edit distance and the similarity derived from it.
//!
//! Two execution tiers, both computing the same integers:
//!
//! * ASCII pairs whose shorter side fits 64 bytes run Myers' bit-parallel
//!   recurrence ([`crate::simd::generic`]) on the stack, with no
//!   allocation at all;
//! * everything else runs the classic two-row DP over bytes or Unicode
//!   scalars, with the rows (and char scratch) reused from a thread-local
//!   buffer instead of being re-collected per call.
//!
//! Distances are exact in both tiers, so derived `f64` similarities are
//! bit-identical no matter which tier computed them.

use crate::simd::generic::MyersPattern;
use std::cell::RefCell;

thread_local! {
    /// Reusable DP rows and char scratch for the non-Myers tiers.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

#[derive(Default)]
struct Scratch {
    prev: Vec<usize>,
    cur: Vec<usize>,
    a_chars: Vec<char>,
    b_chars: Vec<char>,
}

/// Levenshtein (edit) distance between two strings, computed over Unicode
/// scalar values.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        return 0;
    }
    if a.is_ascii() && b.is_ascii() {
        return levenshtein_ascii(a.as_bytes(), b.as_bytes());
    }
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.a_chars.clear();
        s.a_chars.extend(a.chars());
        s.b_chars.clear();
        s.b_chars.extend(b.chars());
        two_row(&s.a_chars, &s.b_chars, &mut s.prev, &mut s.cur)
    })
}

/// ASCII fast path: bytes are scalars, so the shorter side can drive the
/// allocation-free Myers tier whenever it fits one machine word.
fn levenshtein_ascii(a: &[u8], b: &[u8]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (pat, txt) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pat.len() <= 64 {
        return MyersPattern::new(pat).distance(txt);
    }
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        two_row(a, b, &mut s.prev, &mut s.cur)
    })
}

/// Classic two-row DP over any scalar slice, reusing caller-owned rows.
fn two_row<T: PartialEq>(a: &[T], b: &[T], prev: &mut Vec<usize>, cur: &mut Vec<usize>) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string in the inner loop for less memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    prev.clear();
    prev.extend(0..=short.len());
    cur.clear();
    cur.resize(short.len() + 1, 0);
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let substitution = prev[j] + usize::from(lc != sc);
            let insertion = cur[j] + 1;
            let deletion = prev[j + 1] + 1;
            cur[j + 1] = substitution.min(insertion).min(deletion);
        }
        std::mem::swap(prev, cur);
    }
    prev[short.len()]
}

/// Normalised Levenshtein similarity: `1 − distance / max_len`, in `[0, 1]`.
/// Two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("jaws", "jaws 2"), ("die hard", "die harder"), ("a", "b")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let (a, b, c) = ("mission", "missing", "omission");
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }

    #[test]
    fn unicode_counts_scalars() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("★★", "★"), 1);
    }

    #[test]
    fn long_ascii_uses_the_dp_tier() {
        // Shorter side over 64 bytes: exercises the reusable-row DP.
        let a = "x".repeat(80);
        let b = format!("{}y", "x".repeat(80));
        assert_eq!(levenshtein(&a, &b), 1);
        let c = "z".repeat(100);
        assert_eq!(levenshtein(&a, &c), 100);
    }

    #[test]
    fn mixed_ascii_unicode_pairs() {
        assert_eq!(levenshtein("café", "cafx"), 1);
        assert_eq!(levenshtein("naïve", "naive"), 1);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("jaws", "jaws 2");
        assert!((s - (1.0 - 2.0 / 6.0)).abs() < 1e-12);
    }
}
