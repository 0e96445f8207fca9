//! Spec-parser fuzzing: mutated campaign specs must never panic.
//!
//! Starts from the bundled examples (`examples/campaign.toml`, the latency
//! grid, and `examples/heatmap.toml`, the L × G axes), each as TOML and
//! rendered as JSON, applies randomised byte- and line-level corruption
//! (truncation, byte flips, splices, line deletion and duplication) and
//! asserts the only two legal outcomes of `CampaignSpec::parse`: a spec
//! or a typed `SpecError`, which the CLI reports with exit code 3. Any
//! panic fails the property.

use llamp_engine::value::parse_toml;
use llamp_engine::CampaignSpec;
use proptest::prelude::*;

const CAMPAIGN: &str = include_str!("../../../examples/campaign.toml");
const HEATMAP: &str = include_str!("../../../examples/heatmap.toml");

/// The four seeds: (source, path hint selecting the syntax).
fn seeds() -> [(String, &'static str); 4] {
    let json = |toml: &str| parse_toml(toml).expect("bundled example parses").to_json();
    [
        (CAMPAIGN.to_string(), "campaign.toml"),
        (HEATMAP.to_string(), "heatmap.toml"),
        (json(CAMPAIGN), "campaign.json"),
        (json(HEATMAP), "heatmap.json"),
    ]
}

/// One corruption step, described as data so strategies stay `Clone`.
#[derive(Debug, Clone)]
enum Mutation {
    /// Cut the input off at a relative position.
    Truncate(f64),
    /// XOR one byte with a mask.
    FlipByte { pos: f64, mask: u8 },
    /// Insert junk bytes at a relative position.
    Splice { pos: f64, junk: Vec<u8> },
    /// Insert ASCII digits after one of the input's digits: the damage
    /// that keeps a number a number but makes it huge (radices, ranks,
    /// grid points).
    GrowNumber { pos: f64, digits: Vec<u8> },
    /// Remove one line.
    DeleteLine(f64),
    /// Repeat one line (duplicate keys, doubled table headers).
    DuplicateLine(f64),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0, 1u8..=255).prop_map(|(pos, mask)| Mutation::FlipByte { pos, mask }),
        ((0.0f64..1.0), prop::collection::vec(0u8..=255, 1..16))
            .prop_map(|(pos, junk)| Mutation::Splice { pos, junk }),
        ((0.0f64..1.0), prop::collection::vec(b'0'..=b'9', 1..12))
            .prop_map(|(pos, digits)| Mutation::GrowNumber { pos, digits }),
        (0.0f64..1.0).prop_map(Mutation::DeleteLine),
        (0.0f64..1.0).prop_map(Mutation::DuplicateLine),
    ]
}

fn apply(text: &str, m: &Mutation) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = |rel: f64, len: usize| ((rel * len as f64) as usize).min(len.saturating_sub(1));
    match m {
        Mutation::Truncate(rel) => {
            let n = at(*rel, bytes.len());
            bytes.truncate(n);
        }
        Mutation::FlipByte { pos, mask } => {
            if !bytes.is_empty() {
                let n = at(*pos, bytes.len());
                bytes[n] ^= mask;
            }
        }
        Mutation::Splice { pos, junk } => {
            let n = at(*pos, bytes.len());
            for (i, b) in junk.iter().enumerate() {
                bytes.insert(n + i, *b);
            }
        }
        Mutation::GrowNumber { pos, digits } => {
            let at_digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit())
                .collect();
            if !at_digits.is_empty() {
                let n = at_digits[at(*pos, at_digits.len())] + 1;
                for (i, b) in digits.iter().enumerate() {
                    bytes.insert(n + i, *b);
                }
            }
        }
        Mutation::DeleteLine(rel) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let n = at(*rel, lines.len());
                lines.remove(n);
            }
            return lines.join("\n");
        }
        Mutation::DuplicateLine(rel) => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let n = at(*rel, lines.len());
                lines.insert(n, lines[n]);
            }
            return lines.join("\n");
        }
    }
    // Byte-level damage can break UTF-8; the CLI reads specs with
    // `read_to_string`, so model what a lossy reader would hand it.
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn the_seeds_parse() {
    for (text, hint) in seeds() {
        CampaignSpec::parse(&text, hint).unwrap_or_else(|e| panic!("{hint}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_specs_never_panic(
        seed in 0usize..4,
        mutations in prop::collection::vec(mutation_strategy(), 1..6),
    ) {
        let (mut text, hint) = seeds()[seed].clone();
        for m in &mutations {
            text = apply(&text, m);
        }
        // Ok (the damage happened to stay well-formed) and Err are both
        // legal; a panic aborts the test and fails the property.
        let _ = CampaignSpec::parse(&text, hint);
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        junk in prop::collection::vec(0u8..=255, 0..512),
        json in any::<bool>(),
    ) {
        let text = String::from_utf8_lossy(&junk).into_owned();
        let _ = CampaignSpec::parse(&text, if json { "x.json" } else { "x.toml" });
    }
}
