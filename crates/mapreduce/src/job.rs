//! Job construction: turns a corpus + configuration into an execution log.

use std::sync::Arc;

use dp_ndlog::expr::hash_value;
use dp_replay::Execution;
use dp_types::{tuple, LogicalTime, NodeId, Tuple, Value};

use crate::corpus::InputFile;
use crate::program::{mr_combiner_program, mr_declarative_program, mr_imperative_program};

/// Which pipeline implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// NDlog rules (the paper's `-D` variants).
    Declarative,
    /// Native Rust map/shuffle with report-mode provenance (`-I`).
    Imperative,
}

/// Job parameters.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Declarative or imperative pipeline.
    pub pipeline: Pipeline,
    /// `mapreduce.job.reduces`.
    pub reducers: i64,
    /// Number of mapper workers (input is split round-robin).
    pub mappers: usize,
    /// Declarative mapper parameter: minimum word position emitted
    /// (0 = correct; 1 = the MR2-D bug).
    pub mapper_min_pos: i64,
    /// Imperative mapper version checksum ([`crate::program::GOOD_MAPPER`]
    /// or [`crate::program::BAD_MAPPER`]).
    pub mapper_code: u64,
    /// Total configuration entries (the paper instruments 235; the one
    /// that matters plus padding).
    pub config_entries: usize,
    /// Enable the map-side combiner (imperative pipeline only).
    pub combiner: bool,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            pipeline: Pipeline::Declarative,
            reducers: 4,
            mappers: 2,
            mapper_min_pos: 0,
            mapper_code: crate::program::GOOD_MAPPER,
            config_entries: 235,
            combiner: false,
        }
    }
}

/// The reducer-pool size (nodes `r0..r7`); `reducers` must not exceed it.
pub const REDUCER_POOL: usize = 8;

/// Driver node name.
pub const DRIVER: &str = "drv";

/// Logical times of the job phases.
pub const T_CONFIG: LogicalTime = 10;
/// Input records start here.
pub const T_INPUT: LogicalTime = 1_000;
/// The reduce fence.
pub const T_REDUCE: LogicalTime = 1_000_000;
/// The map-side combine fence (combiner jobs only).
pub const T_COMBINE: LogicalTime = 500_000;
/// The output-commit fence.
pub const T_COMMIT: LogicalTime = 2_000_000;

/// Builds the execution log for one WordCount job over `files`.
pub fn build_job(cfg: &JobConfig, files: &[InputFile]) -> Execution {
    assert!(cfg.reducers as usize <= REDUCER_POOL);
    assert!(
        !(cfg.combiner && cfg.pipeline == Pipeline::Declarative),
        "the combiner is an imperative-pipeline feature"
    );
    let built = match (cfg.pipeline, cfg.combiner) {
        (Pipeline::Declarative, _) => mr_declarative_program(),
        (Pipeline::Imperative, false) => mr_imperative_program(),
        (Pipeline::Imperative, true) => mr_combiner_program(),
    };
    let program = match built {
        Ok(program) => program,
        Err(e) => panic!("the MapReduce programs are fixed text and natives that build: {e}"),
    };
    let mut exec = Execution::new(Arc::clone(&program));
    let drv = NodeId::new(DRIVER);

    // Worker registry: mappers and the reducer pool all receive job state.
    let mappers: Vec<String> = (0..cfg.mappers).map(|i| format!("m{i}")).collect();
    for m in &mappers {
        exec.log.insert(T_CONFIG, drv, tuple!("worker", m.as_str()));
    }
    for r in 0..REDUCER_POOL {
        exec.log
            .insert(T_CONFIG, drv, tuple!("worker", format!("r{r}").as_str()));
    }

    // Configuration: the entry under test plus padding entries.
    exec.log.insert(
        T_CONFIG,
        drv,
        tuple!("mrConfig", "mapreduce.job.reduces", cfg.reducers),
    );
    for i in 1..cfg.config_entries {
        exec.log.insert(
            T_CONFIG,
            drv,
            tuple!("mrConfig", format!("mapreduce.padding.{i:03}").as_str(), i as i64),
        );
    }
    match cfg.pipeline {
        Pipeline::Declarative => {
            exec.log
                .insert(T_CONFIG, drv, tuple!("mapperParam", cfg.mapper_min_pos));
        }
        Pipeline::Imperative => {
            exec.log.insert(
                T_CONFIG,
                drv,
                Tuple::new("mapperCode", vec![Value::Sum(cfg.mapper_code)]),
            );
        }
    }

    // Input: file metadata at the driver (what the logging engine actually
    // stores, Section 6.5) and records at the mappers, split round-robin.
    let mut t = T_INPUT;
    let mut split = 0usize;
    for f in files {
        exec.log.insert(
            T_CONFIG,
            drv,
            Tuple::new(
                "inputFile",
                vec![
                    Value::str(&f.name),
                    Value::Sum(f.checksum),
                    Value::Int(f.bytes as i64),
                ],
            ),
        );
        for (lineno, line) in f.lines.iter().enumerate() {
            let mapper = NodeId::new(&mappers[split % mappers.len()]);
            split += 1;
            match cfg.pipeline {
                Pipeline::Imperative => {
                    exec.log.insert(
                        t,
                        mapper,
                        tuple!("lineIn", f.name.as_str(), lineno as i64, line.as_str()),
                    );
                }
                Pipeline::Declarative => {
                    for (pos, word) in line.split_whitespace().enumerate() {
                        exec.log.insert(
                            t,
                            mapper,
                            tuple!("wordIn", f.name.as_str(), lineno as i64, pos as i64, word),
                        );
                    }
                }
            }
            t += 1;
        }
    }

    // The combine fence at every mapper (combiner jobs only).
    if cfg.combiner {
        for m in &mappers {
            exec.log
                .insert(T_COMBINE, NodeId::new(m), tuple!("combineStart", 1));
        }
    }
    // Phase fences at every reducer in the pool.
    for r in 0..REDUCER_POOL {
        exec.log
            .insert(T_REDUCE, NodeId::new(format!("r{r}")), tuple!("reduceStart", 1));
        exec.log
            .insert(T_COMMIT, NodeId::new(format!("r{r}")), tuple!("commitStart", 1));
    }
    exec
}

/// The reducer index a word is shuffled to under `n` reducers — for
/// locating events in tests and scenarios.
pub fn reducer_of(word: &str, n: i64) -> usize {
    (hash_value(&Value::str(word)) % (n as u64)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{expected_counts, generate, CorpusConfig};
    use dp_types::TupleRef;

    fn corpus() -> Vec<crate::corpus::InputFile> {
        generate(&CorpusConfig {
            files: 1,
            lines_per_file: 12,
            words_per_line: 4,
            vocabulary: 10,
            ..Default::default()
        })
    }

    fn count_of(exec: &Execution, word: &str, n: i64) -> Option<i64> {
        let r = exec.replay().unwrap();
        let reducer = NodeId::new(format!("r{}", reducer_of(word, n)));
        let view = r.engine.view(&reducer)?;
        let count = view
            .table(&dp_types::Sym::new("wordCount"))
            .find(|t| t.args[0] == Value::str(word))
            .map(|t| t.args[1].as_int().unwrap());
        count
    }

    #[test]
    fn declarative_and_imperative_agree_with_ground_truth() {
        let files = corpus();
        let truth = expected_counts(&files, false);
        let decl = build_job(&JobConfig::default(), &files);
        let imp = build_job(
            &JobConfig {
                pipeline: Pipeline::Imperative,
                ..Default::default()
            },
            &files,
        );
        for (word, expected) in truth.iter().take(6) {
            assert_eq!(count_of(&decl, word, 4), Some(*expected), "decl {word}");
            assert_eq!(count_of(&imp, word, 4), Some(*expected), "imp {word}");
        }
    }

    #[test]
    fn buggy_imperative_mapper_drops_first_words() {
        let files = corpus();
        let truth_skip = expected_counts(&files, true);
        let exec = build_job(
            &JobConfig {
                pipeline: Pipeline::Imperative,
                mapper_code: crate::program::BAD_MAPPER,
                ..Default::default()
            },
            &files,
        );
        // "alpha" only ever appears as a first word; with the bug its count
        // matches the skip-first ground truth (possibly zero/absent).
        let got = count_of(&exec, "alpha", 4);
        assert_eq!(got, truth_skip.get("alpha").copied());
    }

    #[test]
    fn buggy_declarative_param_matches_imperative_bug() {
        let files = corpus();
        let d = build_job(
            &JobConfig {
                mapper_min_pos: 1,
                ..Default::default()
            },
            &files,
        );
        let i = build_job(
            &JobConfig {
                pipeline: Pipeline::Imperative,
                mapper_code: crate::program::BAD_MAPPER,
                ..Default::default()
            },
            &files,
        );
        for word in ["alpha", "beta", "w000", "w001"] {
            assert_eq!(count_of(&d, word, 4), count_of(&i, word, 4), "{word}");
        }
    }

    #[test]
    fn changing_reducer_count_moves_words() {
        let files = corpus();
        let truth = expected_counts(&files, false);
        let exec5 = build_job(
            &JobConfig {
                reducers: 5,
                ..Default::default()
            },
            &files,
        );
        // Counts are preserved but live at hmod(word, 5) now.
        let r = exec5.replay().unwrap();
        let mut moved = 0;
        for (word, expected) in truth.iter() {
            let r5 = reducer_of(word, 5);
            let r4 = reducer_of(word, 4);
            let node = NodeId::new(format!("r{r5}"));
            let found = r
                .engine
                .view(&node)
                .and_then(|v| {
                    v.table(&dp_types::Sym::new("wordCount"))
                        .find(|t| t.args[0] == Value::str(word))
                        .map(|t| t.args[1].as_int().unwrap())
                });
            assert_eq!(found, Some(*expected), "{word}");
            if r5 != r4 {
                moved += 1;
            }
        }
        assert!(moved > 0, "changing the reducer count must move some words");
    }

    #[test]
    fn combiner_preserves_counts_and_shrinks_the_shuffle() {
        let files = corpus();
        let plain = build_job(
            &JobConfig {
                pipeline: Pipeline::Imperative,
                ..Default::default()
            },
            &files,
        );
        let combined = build_job(
            &JobConfig {
                pipeline: Pipeline::Imperative,
                combiner: true,
                ..Default::default()
            },
            &files,
        );
        // Counts agree with ground truth under both pipelines.
        let truth = expected_counts(&files, false);
        for (word, expected) in truth.iter().take(5) {
            assert_eq!(count_of(&plain, word, 4), Some(*expected), "plain {word}");
            assert_eq!(count_of(&combined, word, 4), Some(*expected), "combined {word}");
        }
        // The combiner ships strictly fewer shuffle pairs.
        let shuffle_pairs = |exec: &Execution| {
            let r = exec.replay().unwrap();
            let mut n = 0usize;
            for (_, st) in r.engine.nodes() {
                n += st.table(&dp_types::Sym::new("partIn")).count();
            }
            n
        };
        let plain_pairs = shuffle_pairs(&plain);
        let combined_pairs = shuffle_pairs(&combined);
        assert!(
            combined_pairs < plain_pairs,
            "combiner did not shrink the shuffle: {combined_pairs} vs {plain_pairs}"
        );
    }

    #[test]
    fn combiner_rejects_declarative_pipeline() {
        let files = corpus();
        let res = std::panic::catch_unwind(|| {
            build_job(
                &JobConfig {
                    pipeline: Pipeline::Declarative,
                    combiner: true,
                    ..Default::default()
                },
                &files,
            )
        });
        assert!(res.is_err());
    }

    #[test]
    fn output_files_exist_and_differ_across_configs() {
        let files = corpus();
        let a = build_job(&JobConfig::default(), &files);
        let b = build_job(
            &JobConfig {
                mapper_min_pos: 1,
                ..Default::default()
            },
            &files,
        );
        let ra = a.replay().unwrap();
        let rb = b.replay().unwrap();
        // Find some reducer where both runs produced an output file with
        // different checksums (the MR2 symptom).
        let mut differs = false;
        for k in 0..REDUCER_POOL {
            let node = NodeId::new(format!("r{k}"));
            let fa = ra.engine.view(&node).and_then(|v| {
                v.table(&dp_types::Sym::new("outputFile")).next().cloned()
            });
            let fb = rb.engine.view(&node).and_then(|v| {
                v.table(&dp_types::Sym::new("outputFile")).next().cloned()
            });
            if let (Some(fa), Some(fb)) = (fa, fb) {
                if fa != fb {
                    differs = true;
                }
                // Both are queryable provenance roots.
                let tref = TupleRef::new(node, fa);
                assert!(ra.query(&tref).is_some());
            }
        }
        assert!(differs, "the buggy mapper must change some output file");
    }
}
