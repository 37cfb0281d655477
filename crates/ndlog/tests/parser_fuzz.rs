//! Seeded byte-level fuzz of the NDlog parser and program builder.
//!
//! Rule text is outside input. The rule texts the crates export — the
//! SDN program's, the two MapReduce programs' and the external-mode
//! specification program's — are mutated with [`DetRng`]: bit flips,
//! truncations, byte inserts and punctuation swaps, one to three per
//! mutant. Each mutant goes through `Program::builder(..).rules_text(..)?
//! .build()` over its program's schemas, builtins and natives, and must
//! give a program or a typed error: never a panic, and never a hang (the
//! whole run is bounded by the suite's wall time; `scripts/check.sh` runs
//! it under a timeout).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dp_mapreduce::program::{
    mr_schemas, MapperNative, OutputNative, PartitionNative, ReduceNative, MR_DECLARATIVE_RULES,
    MR_IMPERATIVE_RULES,
};
use dp_ndlog::Program;
use dp_sdn::external::{spec_schemas, SPEC_RULES};
use dp_sdn::program::SDN_RULES;
use dp_sdn::{sdn_schemas, BestMatch};
use dp_types::{DetRng, NodeId, Result};

/// Mutants per rule text.
const MUTANTS: usize = 8_000;

/// The characters NDlog's grammar is made of, for swaps and inserts.
const PUNCTUATION: &[u8] = b"()@,.:-!=<>+*/%\"'#;_ \n";

type Build = fn(&str) -> Result<Arc<Program>>;

/// Each exported rule text, and how its program is built from a text.
fn sources() -> [(&'static str, &'static str, Build); 4] {
    [
        ("SDN_RULES", SDN_RULES, |text| {
            let best_match = BestMatch::new(Some(NodeId::new("ctl")));
            let builder = Program::builder(sdn_schemas()).rules_text(text)?;
            builder.builtin(Arc::new(best_match)).build()
        }),
        ("MR_DECLARATIVE_RULES", MR_DECLARATIVE_RULES, |text| {
            let builder = Program::builder(mr_schemas()).rules_text(text)?;
            builder.native(Arc::new(OutputNative)).build()
        }),
        ("MR_IMPERATIVE_RULES", MR_IMPERATIVE_RULES, |text| {
            let builder = Program::builder(mr_schemas()).rules_text(text)?;
            let builder = builder
                .native(Arc::new(MapperNative))
                .native(Arc::new(PartitionNative));
            builder
                .native(Arc::new(ReduceNative))
                .native(Arc::new(OutputNative))
                .build()
        }),
        ("SPEC_RULES", SPEC_RULES, |text| {
            let builder = Program::builder(spec_schemas()).rules_text(text)?;
            builder.builtin(Arc::new(BestMatch::new(None))).build()
        }),
    ]
}

/// `text` with one to three seeded mutations, read back as UTF-8 (a byte
/// that breaks it becomes U+FFFD, itself input the parser must refuse).
fn mutant(rng: &mut DetRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range_usize(1, 4) {
        let at = rng.gen_range_usize(0, bytes.len().max(1));
        match rng.gen_range_usize(0, 4) {
            0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.gen_range_usize(0, 8),
            1 => bytes.truncate(at),
            2 => {
                let byte = match rng.gen_bool(0.5) {
                    true => PUNCTUATION[rng.gen_range_usize(0, PUNCTUATION.len())],
                    false => rng.gen_u8(),
                };
                bytes.insert(at.min(bytes.len()), byte);
            }
            _ => {
                let marks: Vec<usize> = (0..bytes.len())
                    .filter(|&i| PUNCTUATION.contains(&bytes[i]))
                    .collect();
                if let Some(&i) = marks.get(rng.gen_range_usize(0, marks.len().max(1))) {
                    bytes[i] = PUNCTUATION[rng.gen_range_usize(0, PUNCTUATION.len())];
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_rule_texts_build_or_fail_typed() {
    for (name, text, build) in sources() {
        assert!(build(text).is_ok(), "{name} itself must build");
        let mut rng = DetRng::seed_from_u64(0x006e_646c_6f67);
        let (mut built, mut refused) = (0, 0);
        for i in 0..MUTANTS {
            let text = mutant(&mut rng, text);
            match catch_unwind(AssertUnwindSafe(|| build(&text))) {
                Ok(Ok(_)) => built += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panic!("{name} mutant {i} panicked the builder:\n{text}"),
            }
        }
        // Both outcomes occur, so the mutants reach past the first token.
        assert!(
            built > 0 && refused > 0,
            "{name}: {built} built, {refused} refused"
        );
    }
}
