//! Corpus files: persisted (shrunk) scenario repros.
//!
//! A corpus case is a tiny text file pinning one generated scenario — a
//! seed plus the (usually shrunk) set of injection indexes to apply —
//! together with the invariant it once violated or the behaviour it
//! pins. The regression suite (`tests/sim_corpus.rs` at the repository
//! root) regenerates every case and re-runs the battery, so a fixed bug
//! stays fixed and a pinned behaviour stays pinned.
//!
//! The format is deliberately line-based and dependency-free:
//!
//! ```text
//! # optional comment lines
//! seed = 42
//! keep = 0 2 5        (or `keep = all`)
//! invariant = digest-determinism
//! note = free text describing the case
//! ```

use std::path::{Path, PathBuf};

use crate::battery::{check_scenario, BatteryReport};
use crate::scenario::generate_masked;

/// One persisted corpus case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusCase {
    /// The generator seed.
    pub seed: u64,
    /// The injection indexes to apply; `None` applies the full schedule.
    pub keep: Option<Vec<usize>>,
    /// The invariant this case concerns (or `pinned` for behaviour pins).
    pub invariant: String,
    /// Free-text description.
    pub note: String,
}

impl CorpusCase {
    /// Parses a corpus file's contents.
    pub fn parse(text: &str) -> Result<CorpusCase, String> {
        let mut seed = None;
        let mut keep = None;
        let mut invariant = String::new();
        let mut note = String::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("line {}: bad seed: {e}", lineno + 1))?,
                    );
                }
                "keep" => {
                    keep = if value == "all" {
                        Some(None)
                    } else {
                        let idx: Result<Vec<usize>, _> =
                            value.split_whitespace().map(str::parse).collect();
                        Some(Some(idx.map_err(|e| {
                            format!("line {}: bad keep list: {e}", lineno + 1)
                        })?))
                    };
                }
                "invariant" => invariant = value.to_string(),
                "note" => note = value.to_string(),
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        Ok(CorpusCase {
            seed: seed.ok_or("missing `seed =` line")?,
            keep: keep.ok_or("missing `keep =` line")?,
            invariant,
            note,
        })
    }

    /// Renders the case back into the file format.
    pub fn render(&self) -> String {
        let keep = match &self.keep {
            None => "all".to_string(),
            Some(idx) => idx
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" "),
        };
        format!(
            "# dp-sim corpus case — regenerate with `repro -- sim` or tests/sim_corpus.rs\n\
             seed = {}\n\
             keep = {keep}\n\
             invariant = {}\n\
             note = {}\n",
            self.seed, self.invariant, self.note
        )
    }

    /// Regenerates the case's scenario and runs the battery on it.
    pub fn replay(&self) -> dp_types::Result<BatteryReport> {
        Ok(check_scenario(&generate_masked(self.seed, self.keep.as_deref())?))
    }
}

/// Loads every `*.case` file under `dir`, sorted by file name. A missing
/// directory yields an empty corpus (not an error), so fresh checkouts
/// work before anything has been persisted.
pub fn load_corpus(dir: &Path) -> std::io::Result<Vec<(PathBuf, CorpusCase)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)?;
        match CorpusCase::parse(&text) {
            Ok(case) => out.push((path, case)),
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_case_roundtrips() {
        let case = CorpusCase {
            seed: 42,
            keep: Some(vec![0, 2, 5]),
            invariant: "digest-determinism".to_string(),
            note: "shrunk from 6 injections".to_string(),
        };
        assert_eq!(CorpusCase::parse(&case.render()), Ok(case));
        let all = CorpusCase {
            seed: 7,
            keep: None,
            invariant: "pinned".to_string(),
            note: String::new(),
        };
        assert_eq!(CorpusCase::parse(&all.render()), Ok(all));
    }

    #[test]
    fn parse_rejects_malformed_cases() {
        assert!(CorpusCase::parse("seed = x\nkeep = all\n").is_err());
        assert!(CorpusCase::parse("keep = all\n").is_err());
        assert!(CorpusCase::parse("seed = 1\n").is_err());
        assert!(CorpusCase::parse("seed = 1\nkeep = all\nwhat = no\n").is_err());
    }
}
