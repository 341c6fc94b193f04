//! Microbenchmarks of the glob-pattern engine: matching and the covering
//! (language inclusion) decision that SACS insertion relies on.

use subsum_types::Pattern;

fn main() {
    let patterns: Vec<Pattern> = [
        "microsoft",
        "m*t",
        "OT*",
        "*SE",
        "*market*",
        "a*b*c*d",
        "N*SE",
        "*",
    ]
    .iter()
    .map(|s| Pattern::parse(s).unwrap())
    .collect();
    let values = [
        "microsoft",
        "micronet",
        "NYSE",
        "OTE",
        "the market reacts to earnings",
        "aXbYcZd",
        "unrelated-value-here",
    ];

    let grid = (patterns.len() * values.len()) as u64;
    subsum_bench::time("pattern/matches_grid", grid, 100, || {
        let mut hits = 0usize;
        for p in &patterns {
            for v in &values {
                if p.matches(v) {
                    hits += 1;
                }
            }
        }
        hits
    });

    let grid = (patterns.len() * patterns.len()) as u64;
    subsum_bench::time("pattern/covers_grid", grid, 100, || {
        let mut covers = 0usize;
        for p in &patterns {
            for q in &patterns {
                if p.covers(q) {
                    covers += 1;
                }
            }
        }
        covers
    });
}
