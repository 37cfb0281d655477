//! Deterministic text corpora — the stand-in for the paper's Wikipedia
//! dataset and 1 GB text corpus.
//!
//! Words are drawn from a Zipf-like distribution over a synthetic
//! vocabulary, with a twist that matters for scenario MR2: lines begin
//! with one of a small set of distinguished words (`alpha`, `beta`, ...),
//! so "the buggy mapper drops the first word of each line" has a clean,
//! queryable effect on specific word counts.

use dp_types::codec::fnv64;
use dp_types::DetRng;

/// One input file: a name, its lines, and a content checksum (the paper's
/// HDFS file checksum, used by the replay engine to identify inputs).
#[derive(Clone, Debug)]
pub struct InputFile {
    /// File name.
    pub name: String,
    /// Lines of whitespace-separated words.
    pub lines: Vec<String>,
    /// FNV-1a checksum of the content.
    pub checksum: u64,
    /// Content size in bytes.
    pub bytes: u64,
}

/// Corpus generation parameters.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of files.
    pub files: usize,
    /// Lines per file.
    pub lines_per_file: usize,
    /// Words per line (including the distinguished first word).
    pub words_per_line: usize,
    /// Vocabulary size.
    pub vocabulary: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 17,
            files: 2,
            lines_per_file: 30,
            words_per_line: 6,
            vocabulary: 40,
        }
    }
}

/// The distinguished words that may start a line.
pub const FIRST_WORDS: [&str; 2] = ["alpha", "beta"];

/// Generates a corpus.
pub fn generate(cfg: &CorpusConfig) -> Vec<InputFile> {
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let vocab: Vec<String> = (0..cfg.vocabulary).map(|i| format!("w{i:03}")).collect();
    let mut files = Vec::with_capacity(cfg.files);
    for f in 0..cfg.files {
        let mut lines = Vec::with_capacity(cfg.lines_per_file);
        for _ in 0..cfg.lines_per_file {
            let mut words = Vec::with_capacity(cfg.words_per_line);
            words.push(FIRST_WORDS[rng.gen_range_usize(0, FIRST_WORDS.len())].to_string());
            for _ in 1..cfg.words_per_line {
                // Zipf-ish: rank ~ floor(vocab^u) biases towards low ranks.
                let u: f64 = rng.gen_f64();
                let rank = ((cfg.vocabulary as f64).powf(u) - 1.0) as usize;
                words.push(vocab[rank.min(cfg.vocabulary - 1)].clone());
            }
            lines.push(words.join(" "));
        }
        let content = lines.join("\n");
        files.push(InputFile {
            name: format!("part-{f:05}.txt"),
            checksum: fnv64(content.as_bytes()),
            bytes: content.len() as u64,
            lines,
        });
    }
    files
}

/// Reference word counts for a corpus, optionally skipping the first word
/// of each line (the MR2 bug), as ground truth for tests.
pub fn expected_counts(
    files: &[InputFile],
    skip_first: bool,
) -> std::collections::BTreeMap<String, i64> {
    let mut out = std::collections::BTreeMap::new();
    for f in files {
        for line in &f.lines {
            for (i, w) in line.split_whitespace().enumerate() {
                if skip_first && i == 0 {
                    continue;
                }
                *out.entry(w.to_string()).or_insert(0) += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        let a = generate(&CorpusConfig::default());
        let b = generate(&CorpusConfig::default());
        assert_eq!(a[0].lines, b[0].lines);
        assert_eq!(a[0].checksum, b[0].checksum);
    }

    #[test]
    fn lines_start_with_distinguished_words() {
        let files = generate(&CorpusConfig::default());
        for f in &files {
            for l in &f.lines {
                let first = l.split_whitespace().next().unwrap();
                assert!(FIRST_WORDS.contains(&first), "{first}");
            }
        }
    }

    #[test]
    fn skipping_first_words_changes_counts() {
        let files = generate(&CorpusConfig::default());
        let full = expected_counts(&files, false);
        let skipped = expected_counts(&files, true);
        let total_lines: i64 = files.iter().map(|f| f.lines.len() as i64).sum();
        let alpha_beta_full = full.get("alpha").unwrap_or(&0) + full.get("beta").unwrap_or(&0);
        let alpha_beta_skipped =
            skipped.get("alpha").copied().unwrap_or(0) + skipped.get("beta").copied().unwrap_or(0);
        assert_eq!(alpha_beta_full - alpha_beta_skipped, total_lines);
    }

    #[test]
    fn checksums_differ_across_files() {
        let files = generate(&CorpusConfig {
            files: 3,
            ..Default::default()
        });
        assert_ne!(files[0].checksum, files[1].checksum);
        assert_ne!(files[1].checksum, files[2].checksum);
    }
}
