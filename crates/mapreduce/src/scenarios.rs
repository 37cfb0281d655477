//! The MapReduce diagnostic scenarios of Section 6.2: MR1 (configuration
//! change) and MR2 (code change), each in declarative (`-D`) and
//! imperative (`-I`) form.
//!
//! Unlike the SDN scenarios, the reference event comes from a **separate
//! execution**: the user compares today's (bad) job run against
//! yesterday's (good) run over the same input.

use diffprov_core::{QueryEvent, Scenario};
use dp_types::{tuple, NodeId, TupleRef};

use crate::corpus::{expected_counts, generate, CorpusConfig, InputFile};
use crate::job::{build_job, reducer_of, JobConfig, Pipeline};
use crate::program::{BAD_MAPPER, GOOD_MAPPER};

fn small_corpus() -> Vec<InputFile> {
    generate(&CorpusConfig {
        files: 2,
        lines_per_file: 16,
        words_per_line: 5,
        vocabulary: 24,
        ..Default::default()
    })
}

/// The word whose count the MR2 bug destroys (a line-initial word).
const MR2_WORD: &str = "alpha";

/// Picks the most frequent corpus word that visibly moves between
/// reducers when the pool size changes from `a` to `b` — the MR1 symptom
/// ("almost all the emitted words end up at a different reducer node").
fn moving_word(files: &[InputFile], a: i64, b: i64) -> (String, i64) {
    let counts = expected_counts(files, false);
    let mut best: Option<(String, i64)> = None;
    for (w, c) in counts {
        if reducer_of(&w, a) != reducer_of(&w, b)
            && best.as_ref().is_none_or(|(_, bc)| c > *bc)
        {
            best = Some((w, c));
        }
    }
    match best {
        Some(found) => found,
        None => panic!("the small corpus has a word that moves between pools of {a} and {b} reducers"),
    }
}

fn word_count_event(word: &str, count: i64, reducers: i64) -> QueryEvent {
    let node = NodeId::new(format!("r{}", reducer_of(word, reducers)));
    QueryEvent::new(
        TupleRef::new(node, tuple!("wordCount", word, count)),
        u64::MAX,
    )
}

fn mr1(pipeline: Pipeline, name: &'static str, description: &'static str) -> Scenario {
    let files = small_corpus();
    let (word, count) = moving_word(&files, 4, 5);
    let good_cfg = JobConfig {
        pipeline,
        reducers: 4,
        ..Default::default()
    };
    // The accident: the user changed mapreduce.job.reduces from 4 to 5, so
    // almost every word lands on a different reducer node.
    let bad_cfg = JobConfig {
        reducers: 5,
        ..good_cfg.clone()
    };
    Scenario {
        name,
        description,
        good_exec: build_job(&good_cfg, &files),
        bad_exec: build_job(&bad_cfg, &files),
        good_event: word_count_event(&word, count, 4),
        bad_event: word_count_event(&word, count, 5),
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// MR1-D: reducer-count configuration change, declarative pipeline.
pub fn mr1_d() -> Scenario {
    mr1(
        Pipeline::Declarative,
        "MR1-D",
        "mapreduce.job.reduces accidentally changed from 4 to 5 (declarative NDlog job)",
    )
}

/// MR1-I: reducer-count configuration change, imperative pipeline.
pub fn mr1_i() -> Scenario {
    mr1(
        Pipeline::Imperative,
        "MR1-I",
        "mapreduce.job.reduces accidentally changed from 4 to 5 (instrumented imperative job)",
    )
}

fn output_file_event(files: &[InputFile], cfg: &JobConfig, word: &str) -> QueryEvent {
    // The per-reducer output file holding `word` in this configuration.
    let exec = build_job(cfg, files);
    let r = match exec.replay() {
        Ok(r) => r,
        Err(e) => panic!("a generated WordCount job replays: {e}"),
    };
    let node = NodeId::new(format!("r{}", reducer_of(word, cfg.reducers)));
    let output = r.engine.view(&node).and_then(|view| {
        view.table(&dp_types::Sym::new("outputFile")).next().cloned()
    });
    let Some(out) = output else {
        panic!("the reducer {node} that `{word}` hashes to commits an output file");
    };
    QueryEvent::new(TupleRef::new(node, out), u64::MAX)
}

/// MR2-D: mapper "code" change, declarative pipeline — the bug is the
/// declarative equivalent, a `mapperParam` minimum-position of 1 that
/// drops the first word of every line.
pub fn mr2_d() -> Scenario {
    let files = small_corpus();
    let good_cfg = JobConfig {
        pipeline: Pipeline::Declarative,
        ..Default::default()
    };
    let bad_cfg = JobConfig {
        mapper_min_pos: 1,
        ..good_cfg.clone()
    };
    Scenario {
        name: "MR2-D",
        description: "new mapper drops the first word of each line (declarative equivalent: \
                      mapperParam minPos=1)",
        good_event: output_file_event(&files, &good_cfg, MR2_WORD),
        bad_event: output_file_event(&files, &bad_cfg, MR2_WORD),
        good_exec: build_job(&good_cfg, &files),
        bad_exec: build_job(&bad_cfg, &files),
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// MR2-I: mapper code change, imperative pipeline — the buggy
/// implementation is identified by its bytecode checksum, which is exactly
/// what DiffProv pinpoints (it cannot see inside the native code).
pub fn mr2_i() -> Scenario {
    let files = small_corpus();
    let good_cfg = JobConfig {
        pipeline: Pipeline::Imperative,
        mapper_code: GOOD_MAPPER,
        ..Default::default()
    };
    let bad_cfg = JobConfig {
        mapper_code: BAD_MAPPER,
        ..good_cfg.clone()
    };
    Scenario {
        name: "MR2-I",
        description: "new mapper build drops the first word of each line; identified by \
                      its code checksum",
        good_event: output_file_event(&files, &good_cfg, MR2_WORD),
        bad_event: output_file_event(&files, &bad_cfg, MR2_WORD),
        good_exec: build_job(&good_cfg, &files),
        bad_exec: build_job(&bad_cfg, &files),
        expected_changes: 1,
        expected_rounds: 1,
    }
}

/// All four MapReduce scenarios, in Table 1 order.
pub fn all_mr_scenarios() -> Vec<Scenario> {
    vec![mr1_d(), mr2_d(), mr1_i(), mr2_i()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::{Tuple, Value};

    #[test]
    fn mr1_d_finds_the_reducer_count_change() {
        let report = mr1_d().diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let c = &report.delta[0];
        assert_eq!(c.node.as_str(), "drv");
        assert_eq!(
            c.before,
            Some(tuple!("mrConfig", "mapreduce.job.reduces", 5))
        );
        assert_eq!(c.after, Some(tuple!("mrConfig", "mapreduce.job.reduces", 4)));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn mr1_i_finds_the_reducer_count_change() {
        let report = mr1_i().diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        assert_eq!(
            report.delta[0].after,
            Some(tuple!("mrConfig", "mapreduce.job.reduces", 4))
        );
        assert!(report.verified, "{report}");
    }

    #[test]
    fn mr2_d_finds_the_mapper_parameter() {
        let report = mr2_d().diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        assert_eq!(report.delta[0].before, Some(tuple!("mapperParam", 1)));
        assert_eq!(report.delta[0].after, Some(tuple!("mapperParam", 0)));
        assert!(report.verified, "{report}");
    }

    #[test]
    fn mr2_i_pinpoints_the_code_version() {
        let report = mr2_i().diagnose().unwrap();
        assert!(report.succeeded(), "{report}");
        assert_eq!(report.delta.len(), 1, "{report}");
        let c = &report.delta[0];
        assert_eq!(
            c.before,
            Some(Tuple::new("mapperCode", vec![Value::Sum(BAD_MAPPER)]))
        );
        assert_eq!(
            c.after,
            Some(Tuple::new("mapperCode", vec![Value::Sum(GOOD_MAPPER)]))
        );
        assert!(report.verified, "{report}");
    }

    #[test]
    fn mr_trees_are_large_but_answers_are_tiny() {
        for s in all_mr_scenarios() {
            let report = s.diagnose().unwrap();
            assert!(report.succeeded(), "{}: {report}", s.name);
            assert!(
                report.good_tree_size >= 100,
                "{}: good tree only {} vertexes",
                s.name,
                report.good_tree_size
            );
            assert_eq!(report.answer_size(), s.expected_changes, "{}", s.name);
        }
    }
}
