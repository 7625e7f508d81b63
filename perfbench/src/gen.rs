//! Seeded input generators. The program under test only ever sees the
//! XML text these produce.
//!
//! The shapes follow `datagen::scenarios::large_source` (year-bucketed
//! catalogues with exact and typo'd duplicates among unrelated entries)
//! and `datagen::scenarios::confusable_mixed` (year-separated blocks of
//! sequels against same-year TV re-editions). The seed picks titles,
//! directors, years and block order; the structure that sets the cost of
//! each stage (bucket count, duplicate shares, block sizes, title lengths
//! within a block) stays fixed, so two seeds give different inputs and
//! the same amount of work.

use imprecise::datagen::{catalog_to_xml, Movie, MovieBuilder, SourceStyle};
use imprecise::xml::to_string;

/// splitmix64: a small deterministic generator (no external crates).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A capitalised consonant–vowel pseudo-word of `syllables` syllables.
fn word(rng: &mut Rng, syllables: usize) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnprstvz";
    const VOWELS: &[u8] = b"aeiouy";
    let mut w = String::with_capacity(2 * syllables);
    for _ in 0..syllables {
        w.push(CONSONANTS[rng.below(CONSONANTS.len())] as char);
        w.push(VOWELS[rng.below(VOWELS.len())] as char);
    }
    w[..1].make_ascii_uppercase();
    w
}

/// Two or three pseudo-words: random syllables share no tokens and
/// almost no bigrams, so distinct titles are pairwise dissimilar.
fn title(rng: &mut Rng) -> String {
    let words = 2 + rng.below(2);
    (0..words)
        .map(|_| {
            let syllables = 2 + rng.below(3);
            word(rng, syllables)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A `Given Family` director name.
fn director(rng: &mut Rng) -> String {
    format!("{} {}", word(rng, 2), word(rng, 3))
}

const GENRES: [[&str; 2]; 3] = [
    ["Action", "Adventure"],
    ["Action", "Thriller"],
    ["Horror", "Thriller"],
];

/// Two sources rendered as XML text, plus what the benchmark needs to
/// know about them to build queries.
#[derive(Debug, Clone)]
pub struct Sources {
    pub a_xml: String,
    pub b_xml: String,
    /// Titles present in source `a` (point-query targets).
    pub titles: Vec<String>,
    /// Source-`a` titles of typo'd duplicate pairs: each is uncertain
    /// after integration and occurs once, so confirming one is the same
    /// amount of work whichever the seed picks (the session's point
    /// queries target them for the same reason).
    pub confirm: Vec<String>,
    /// Movies per source.
    pub movies: usize,
}

fn render(a: &[Movie], b: &[Movie], titles: Vec<String>, confirm: Vec<String>) -> Sources {
    Sources {
        a_xml: to_string(&catalog_to_xml(a, SourceStyle::Mpeg7)),
        b_xml: to_string(&catalog_to_xml(b, SourceStyle::Imdb)),
        titles,
        confirm,
        movies: a.len(),
    }
}

/// A `large_source`-shaped pair with `n` movies per side: years spread
/// over 120 buckets, a quarter exact duplicates, a quarter duplicates
/// with two title characters swapped, and half unrelated entries.
pub fn catalog(seed: u64, n: usize) -> Sources {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(n as u64));
    let directors: Vec<String> = (0..9).map(|_| director(&mut rng)).collect();
    let year_shift = rng.below(120);
    let year = |k: usize| 1900 + ((k * 7 + year_shift) % 120) as u32;
    let titles: Vec<String> = (0..2 * n).map(|_| title(&mut rng)).collect();
    let typo = |t: &str| {
        let mut cs: Vec<char> = t.chars().collect();
        cs.swap(1, 2);
        cs.into_iter().collect::<String>()
    };
    // Franchise `k % 3` supplies genres and directors exactly as in
    // `large_source`, so each director is shared by about n/3 movies.
    let movie = |rwo: usize, title: String, year: u32, k: usize, shift: usize| {
        let fr = k % 3;
        MovieBuilder::new(rwo as u64, title, year)
            .genre(GENRES[fr][(k + shift) % 2])
            .director(directors[fr * 3 + (k + shift) % 3].clone())
            .build()
    };
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for k in 0..n {
        a.push(movie(k, titles[k].clone(), year(k), k, 0));
        b.push(match k % 4 {
            0 => movie(k, titles[k].clone(), year(k), k, 0),
            1 => movie(k, typo(&titles[k]), year(k), k, 0),
            _ => movie(1_000_000 + k, titles[k + n].clone(), year(k + 1), k, 1),
        });
    }
    let mut seen = std::collections::BTreeMap::new();
    for t in a.iter().chain(&b).map(|m| m.title.as_str()) {
        *seen.entry(t.to_string()).or_insert(0) += 1;
    }
    // Typo'd pairs share year buckets, and a short title can resemble
    // another pair's enough to join its component; the longest quarter
    // keeps the confirmed title in a 1×1 component.
    let mut confirm: Vec<&String> = (0..n)
        .filter(|k| k % 4 == 1 && seen[&titles[*k]] == 1 && seen[&typo(&titles[*k])] == 1)
        .map(|k| &titles[k])
        .collect();
    confirm.sort_by_key(|t| std::cmp::Reverse(t.len()));
    confirm.truncate((confirm.len() / 4).max(3));
    let confirm = confirm.into_iter().cloned().collect();
    rng.shuffle(&mut a);
    rng.shuffle(&mut b);
    let a_titles = a.iter().map(|m| m.title.clone()).collect();
    render(&a, &b, a_titles, confirm)
}

const ROMAN: [&str; 12] = [
    "", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII",
];

/// A `confusable_mixed`-shaped pair: one block per entry of `sizes`,
/// each a franchise of sequels against same-year TV re-editions, pinned
/// to its own year so the year rule separates blocks while nothing
/// separates entries within one. Block `g` keeps the base-title length
/// of `confusable_mixed`'s franchise cycle position, so the title prior
/// — and with it every matching weight — is the same for every seed.
pub fn confusable(seed: u64, sizes: &[usize]) -> Sources {
    let mut rng = Rng::new(seed.wrapping_mul(37).wrapping_add(sizes.len() as u64));
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    rng.shuffle(&mut order);
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut titles = Vec::new();
    for (slot, &g) in order.iter().enumerate() {
        let n = sizes[g];
        let base = word(&mut rng, 2 + g % 3);
        let directors: Vec<String> = (0..3).map(|_| director(&mut rng)).collect();
        let year = 1900 + 10 * slot as u32;
        let sequel = |i: usize| {
            if i == 0 {
                base.clone()
            } else {
                format!("{base} {}", ROMAN[i.min(ROMAN.len() - 1)])
            }
        };
        for i in 0..n {
            titles.push(sequel(i));
            a.push(
                MovieBuilder::new((g * 1000 + i) as u64, sequel(i), year)
                    .genre(GENRES[g % 3][0])
                    .director(directors[i % 3].clone())
                    .build(),
            );
            b.push(
                MovieBuilder::new(
                    (100_000 + g * 1000 + i) as u64,
                    format!("{} (TV)", sequel(i)),
                    year,
                )
                .genre(GENRES[g % 3][0])
                .director(directors[(i + 1) % 3].clone())
                .build(),
            );
        }
    }
    render(&a, &b, titles, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(catalog(1, 40).a_xml, catalog(1, 40).a_xml);
        assert_ne!(catalog(1, 40).a_xml, catalog(2, 40).a_xml);
        assert_eq!(confusable(1, &[3, 2]).b_xml, confusable(1, &[3, 2]).b_xml);
        assert_ne!(confusable(1, &[3, 2]).b_xml, confusable(2, &[3, 2]).b_xml);
    }

    #[test]
    fn shapes_have_the_requested_sizes() {
        let c = catalog(7, 40);
        assert_eq!(c.movies, 40);
        assert_eq!(c.a_xml.matches("<movie>").count(), 40);
        assert_eq!(c.b_xml.matches("<movie>").count(), 40);
        let k = confusable(7, &[4, 3]);
        assert_eq!(k.movies, 7);
        assert_eq!(k.b_xml.matches("(TV)").count(), 7);
    }
}
