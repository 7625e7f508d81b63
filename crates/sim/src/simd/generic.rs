//! Portable scalar kernel: Myers' bit-parallel Levenshtein.
//!
//! Myers (1999) packs one column of the edit-distance DP into two 64-bit
//! words (`pv`/`mv`: positions where the column increases/decreases), so a
//! pattern of up to 64 characters advances one text character per constant
//! number of word operations. The recurrence is exact: it computes the
//! same integers as the classic two-row DP.

/// Preprocessed Myers state for one ASCII pattern of 1..=64 bytes: the
/// per-character match masks plus the score bit of the last pattern row.
pub(crate) struct MyersPattern {
    peq: [u64; 128],
    m: usize,
    high: u64,
}

impl MyersPattern {
    /// Preprocess `pat` (ASCII, 1..=64 bytes — the callers in this crate
    /// route longer or empty patterns to the two-row DP instead).
    pub(crate) fn new(pat: &[u8]) -> Self {
        debug_assert!(!pat.is_empty() && pat.len() <= 64 && pat.is_ascii());
        let mut peq = [0u64; 128];
        for (i, &c) in pat.iter().enumerate() {
            peq[(c & 0x7f) as usize] |= 1 << i;
        }
        MyersPattern {
            peq,
            m: pat.len(),
            high: 1u64 << (pat.len() - 1),
        }
    }

    /// Exact Levenshtein distance of the pattern against `text` (ASCII).
    pub(crate) fn distance(&self, text: &[u8]) -> usize {
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = self.m;
        for &c in text {
            let eq = self.peq[(c & 0x7f) as usize];
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & self.high != 0 {
                score += 1;
            }
            if mh & self.high != 0 {
                score -= 1;
            }
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference DP for validating the bit-parallel recurrence.
    fn dp(a: &[u8], b: &[u8]) -> usize {
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + usize::from(ca != cb))
                    .min(cur[j] + 1)
                    .min(prev[j + 1] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    #[test]
    fn myers_matches_the_classic_dp() {
        let words: [&[u8]; 8] = [
            b"kitten",
            b"sitting",
            b"",
            b"a",
            b"levenshtein",
            b"meilenstein",
            b"die hard with a vengeance",
            b"jaws",
        ];
        for pat in words {
            if pat.is_empty() {
                continue;
            }
            let pre = MyersPattern::new(pat);
            for txt in words {
                assert_eq!(
                    pre.distance(txt),
                    dp(pat, txt),
                    "pattern {:?} text {:?}",
                    std::str::from_utf8(pat),
                    std::str::from_utf8(txt)
                );
            }
        }
    }

    #[test]
    fn full_width_pattern() {
        // Exactly 64 bytes: exercises the `1 << 63` high bit.
        let pat = [b'x'; 64];
        let pre = MyersPattern::new(&pat);
        assert_eq!(pre.distance(&pat), 0);
        assert_eq!(pre.distance(b""), 64);
        assert_eq!(pre.distance(&[b'x'; 63]), 1);
        assert_eq!(pre.distance(&[b'y'; 64]), 64);
        let mut one_sub = [b'x'; 64];
        one_sub[17] = b'z';
        assert_eq!(pre.distance(&one_sub), 1);
    }
}
