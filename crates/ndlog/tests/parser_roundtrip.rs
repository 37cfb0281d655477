//! Randomized test: the concrete syntax round-trips. Any rule built from
//! the AST, printed with `Display`, parses back to the identical AST.
//!
//! (String literals are excluded from generated patterns: `Display` prints
//! them bare for readability, which is deliberately not re-parseable as a
//! literal.)

use dp_ndlog::{parse_rule, Assign, BinOp, BodyAtom, Constraint, Expr, HeadAtom, Pattern, Rule};
use dp_types::{DetRng, Prefix, Sym, Value};

fn arb_var(rng: &mut DetRng) -> Sym {
    let n = rng.gen_range_usize(0, 4);
    let mut s = String::new();
    s.push((b'A' + rng.gen_range_usize(0, 26) as u8) as char);
    for _ in 0..n {
        let c = match rng.gen_range_usize(0, 2) {
            0 => (b'a' + rng.gen_range_usize(0, 26) as u8) as char,
            _ => (b'0' + rng.gen_range_usize(0, 10) as u8) as char,
        };
        s.push(c);
    }
    Sym::new(s)
}

fn arb_value(rng: &mut DetRng) -> Value {
    match rng.gen_range_usize(0, 4) {
        0 => Value::Int(rng.gen_range_i64(-1000, 1000)),
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Ip(rng.next_u32()),
        _ => {
            let len = rng.gen_range_usize(0, 33) as u8;
            Value::Prefix(Prefix::new(rng.next_u32(), len).unwrap())
        }
    }
}

fn arb_pattern(rng: &mut DetRng, vars: &[Sym]) -> Pattern {
    match rng.gen_range_usize(0, 6) {
        0..=2 => Pattern::Var(vars[rng.gen_range_usize(0, vars.len())]),
        3 | 4 => Pattern::Const(arb_value(rng)),
        _ => Pattern::Wildcard,
    }
}

fn arb_arith(rng: &mut DetRng, vars: &[Sym], depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        if rng.gen_bool(0.5) {
            Expr::Var(vars[rng.gen_range_usize(0, vars.len())])
        } else {
            Expr::val(rng.gen_range_i64(-1000, 1000))
        }
    } else {
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul];
        let op = ops[rng.gen_range_usize(0, ops.len())];
        let l = arb_arith(rng, vars, depth - 1);
        let r = arb_arith(rng, vars, depth - 1);
        Expr::bin(op, l, r)
    }
}

fn arb_rule(rng: &mut DetRng) -> Rule {
    let mut vars: Vec<Sym> = (0..rng.gen_range_usize(2, 5)).map(|_| arb_var(rng)).collect();
    vars.push(Sym::new("Z0"));
    vars.push(Sym::new("Z1"));
    let n_atoms = rng.gen_range_usize(1, 3);
    let mut patterns: Vec<Pattern> = (0..n_atoms * 2).map(|_| arb_pattern(rng, &vars)).collect();
    // Guarantee Z0/Z1 are bound: force the first atom's patterns.
    patterns[0] = Pattern::Var(Sym::new("Z0"));
    patterns[1] = Pattern::Var(Sym::new("Z1"));
    let body: Vec<BodyAtom> = (0..n_atoms)
        .map(|i| BodyAtom {
            table: Sym::new(format!("t{i}")),
            loc: Sym::new("N"),
            args: patterns[i * 2..i * 2 + 2].to_vec(),
        })
        .collect();
    let assign_expr = arb_arith(rng, &[Sym::new("Z0"), Sym::new("Z1")], 3);
    let cmps = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne];
    let cmp = cmps[rng.gen_range_usize(0, cmps.len())];
    Rule {
        name: Sym::new("r"),
        head: HeadAtom {
            table: Sym::new("h"),
            loc: Expr::var("N"),
            args: vec![Expr::var("Z0"), Expr::var("W")],
        },
        body,
        assigns: vec![Assign {
            var: Sym::new("W"),
            expr: assign_expr,
        }],
        constraints: vec![Constraint::Expr(Expr::bin(
            cmp,
            Expr::var("Z0"),
            Expr::var("Z1"),
        ))],
        link_delay: 1,
        agg: None,
    }
}

#[test]
fn display_then_parse_is_identity() {
    let mut rng = DetRng::seed_from_u64(0x9A25_E001);
    for _ in 0..256 {
        let rule = arb_rule(&mut rng);
        let text = rule.to_string();
        let reparsed =
            parse_rule(&text).unwrap_or_else(|e| panic!("unparseable display {text:?}: {e}"));
        assert_eq!(rule, reparsed, "text was {text}");
    }
}

#[test]
fn builtin_constraints_roundtrip() {
    let rule = Rule {
        name: Sym::new("r"),
        head: HeadAtom {
            table: Sym::new("h"),
            loc: Expr::var("N"),
            args: vec![Expr::var("X")],
        },
        body: vec![BodyAtom {
            table: Sym::new("t"),
            loc: Sym::new("N"),
            args: vec![Pattern::Var(Sym::new("X"))],
        }],
        assigns: vec![],
        constraints: vec![Constraint::Builtin {
            name: Sym::new("best_match"),
            args: vec![Expr::var("N"), Expr::var("X")],
        }],
        link_delay: 1,
        agg: None,
    };
    let reparsed = parse_rule(&rule.to_string()).unwrap();
    assert_eq!(rule, reparsed);
}
