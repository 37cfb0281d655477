//! A text parser for the NDlog dialect.
//!
//! Programs are written as one rule per statement, terminated by `.`:
//!
//! ```text
//! r1 packetOut(@S, Src, Dst, Prio, Pt) :-
//!     packetIn(@S, Src, Dst),
//!     flowEntry(@S, Rid, Prio, Match, Pt),
//!     prefix_contains(Match, Dst),
//!     best_match!(S, Dst, Prio).
//! ```
//!
//! Conventions:
//! * identifiers are variables, except directly before `(` where they are
//!   function or table names;
//! * `@Var` marks the location argument (first argument of every atom);
//! * `Var := Expr` is an assignment;
//! * a bare boolean expression is a constraint;
//! * `name!(args)` invokes a stateful builtin registered on the program;
//! * literals: integers, `"strings"`, `true`/`false`, IPv4 addresses
//!   (`1.2.3.4`) and prefixes (`4.3.2.0/24`);
//! * `%` starts a line comment.

use dp_types::{Error, Prefix, Result, Sym, Value};

use crate::ast::{AggFunc, AggSpec, Assign, BodyAtom, Constraint, HeadAtom, Pattern, Rule};
use crate::expr::{BinOp, Expr, Func};

/// Parses a whole program: a sequence of rules.
pub fn parse_rules(src: &str) -> Result<Vec<Rule>> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.rule()?);
    }
    Ok(rules)
}

/// Parses a single rule.
pub fn parse_rule(src: &str) -> Result<Rule> {
    let rules = parse_rules(src)?;
    match rules.len() {
        1 => Ok(rules.into_iter().next().expect("len checked")),
        n => Err(Error::Parse(format!("expected 1 rule, found {n}"))),
    }
}

/// Parses a standalone expression (used in tests and by the netcore
/// front-end).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    if !p.at_end() {
        return Err(Error::Parse(format!("trailing input after expression: {src:?}")));
    }
    Ok(e)
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    Ip(u32),
    Pfx(Prefix),
    Punct(&'static str),
}

fn lex(src: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '%' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(Error::Parse("unterminated string literal".into()));
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            c if c.is_ascii_digit() => {
                // Integer, IPv4 address, or CIDR prefix.
                let start = i;
                let mut dots = 0;
                let mut slash = false;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_digit() {
                        i += 1;
                    } else if b == '.' && !slash {
                        // A dot is part of an address only when followed by a
                        // digit (so `foo(1).` still terminates the rule).
                        if i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit() {
                            dots += 1;
                            i += 1;
                        } else {
                            break;
                        }
                    } else if b == '/' && dots == 3 && !slash {
                        if i + 1 < bytes.len() && (bytes[i + 1] as char).is_ascii_digit() {
                            slash = true;
                            i += 1;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                if dots == 3 && slash {
                    out.push(Tok::Pfx(text.parse()?));
                } else if dots == 3 {
                    out.push(Tok::Ip(Prefix::parse_ip(text)?));
                } else if dots == 0 {
                    let n: i64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad integer {text:?}")))?;
                    out.push(Tok::Int(n));
                } else {
                    return Err(Error::Parse(format!("malformed numeric literal {text:?}")));
                }
            }
            _ => {
                // Multi-char punctuation first.
                let rest = &src[i..];
                let two = ["::", ":=", ":-", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>"]
                    .iter()
                    .find(|p| rest.starts_with(**p));
                if let Some(p) = two {
                    out.push(Tok::Punct(p));
                    i += p.len();
                } else {
                    let one = [
                        "(", ")", ",", ".", "@", "_", "+", "-", "*", "/", "&", "|", "^", "<", ">",
                        "!", "=",
                    ]
                    .iter()
                    .find(|p| rest.starts_with(**p));
                    match one {
                        Some(p) => {
                            out.push(Tok::Punct(p));
                            i += 1;
                        }
                        None => {
                            return Err(Error::Parse(format!(
                                "unexpected character {c:?} at byte {i}"
                            )))
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, p: &'static str) -> Result<()> {
        match self.next()? {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(Error::Parse(format!("expected {p:?}, got {other:?}"))),
        }
    }

    fn eat(&mut self, p: &'static str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(Error::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    /// `name head :- body .`
    fn rule(&mut self) -> Result<Rule> {
        let name = self.ident()?;
        let (head, agg) = self.head_atom()?;
        self.expect(":-")?;
        let mut body = Vec::new();
        let mut assigns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            self.body_item(&mut body, &mut assigns, &mut constraints)?;
            if self.eat(",") {
                continue;
            }
            self.expect(".")?;
            break;
        }
        if body.is_empty() {
            return Err(Error::Parse(format!("rule {name} has no body atoms")));
        }
        let loc = body[0].loc;
        for b in &body {
            if b.loc != loc {
                return Err(Error::Parse(format!(
                    "rule {name}: body atoms must share one location (found @{} and @{})",
                    loc, b.loc
                )));
            }
        }
        if let Some(spec) = &agg {
            if body.len() < 2 {
                return Err(Error::Parse(format!(
                    "aggregation rule {name} needs a fence atom plus at least one \
                     scanned atom"
                )));
            }
            let _ = spec;
        }
        Ok(Rule {
            name: Sym::new(name),
            head,
            body,
            assigns,
            constraints,
            link_delay: 1,
            agg,
        })
    }

    fn head_atom(&mut self) -> Result<(HeadAtom, Option<AggSpec>)> {
        let table = self.ident()?;
        self.expect("(")?;
        self.expect("@")?;
        let loc = self.expr()?;
        let mut args = Vec::new();
        let mut agg: Option<AggSpec> = None;
        while self.eat(",") {
            // Aggregate marker: `agg_sum(Var)` etc., only in head position.
            if let (Some(Tok::Ident(name)), Some(Tok::Punct("("))) = (self.peek(), self.peek2()) {
                if let Some(func) = AggFunc::from_name(name) {
                    if agg.is_some() {
                        return Err(Error::Parse(
                            "at most one aggregate per rule head".into(),
                        ));
                    }
                    self.pos += 2; // marker, '('
                    let var = Sym::new(self.ident()?);
                    self.expect(")")?;
                    agg = Some(AggSpec {
                        func,
                        var,
                        head_index: args.len(),
                    });
                    args.push(Expr::Var(var));
                    continue;
                }
            }
            args.push(self.expr()?);
        }
        self.expect(")")?;
        Ok((
            HeadAtom {
                table: Sym::new(table),
                loc,
                args,
            },
            agg,
        ))
    }

    fn body_item(
        &mut self,
        body: &mut Vec<BodyAtom>,
        assigns: &mut Vec<Assign>,
        constraints: &mut Vec<Constraint>,
    ) -> Result<()> {
        // Lookahead: Ident '(' '@'  => atom; Ident '!' '('  => builtin;
        // Ident ':='               => assignment; otherwise an expression.
        if let Some(Tok::Ident(name)) = self.peek() {
            let name = name.clone();
            match self.peek2() {
                Some(Tok::Punct("(")) => {
                    // Atom or function-call expression: atoms start with `@`.
                    if matches!(self.tokens.get(self.pos + 2), Some(Tok::Punct("@"))) {
                        self.pos += 2; // consume ident, '('
                        self.expect("@")?;
                        let loc = self.ident()?;
                        let mut args = Vec::new();
                        while self.eat(",") {
                            args.push(self.pattern()?);
                        }
                        self.expect(")")?;
                        body.push(BodyAtom {
                            table: Sym::new(name),
                            loc: Sym::new(&loc),
                            args,
                        });
                        return Ok(());
                    }
                }
                Some(Tok::Punct("!")) => {
                    self.pos += 2; // ident, '!'
                    self.expect("(")?;
                    let mut args = Vec::new();
                    if !self.eat(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(",") {
                                continue;
                            }
                            self.expect(")")?;
                            break;
                        }
                    }
                    constraints.push(Constraint::Builtin {
                        name: Sym::new(name),
                        args,
                    });
                    return Ok(());
                }
                Some(Tok::Punct(":=")) => {
                    self.pos += 2; // ident, ':='
                    let expr = self.expr()?;
                    assigns.push(Assign {
                        var: Sym::new(name),
                        expr,
                    });
                    return Ok(());
                }
                _ => {}
            }
        }
        let e = self.expr()?;
        constraints.push(Constraint::Expr(e));
        Ok(())
    }

    fn pattern(&mut self) -> Result<Pattern> {
        match self.peek() {
            Some(Tok::Punct("_")) => {
                self.pos += 1;
                Ok(Pattern::Wildcard)
            }
            Some(Tok::Ident(_)) if !matches!(self.peek2(), Some(Tok::Punct("("))) => {
                let name = self.ident()?;
                match name.as_str() {
                    "true" => Ok(Pattern::Const(Value::Bool(true))),
                    "false" => Ok(Pattern::Const(Value::Bool(false))),
                    // `_` lexes as an identifier; every occurrence is an
                    // independent wildcard, not a shared variable.
                    "_" => Ok(Pattern::Wildcard),
                    _ => Ok(Pattern::Var(Sym::new(name))),
                }
            }
            _ => {
                // A literal (possibly negative).
                let e = self.expr()?;
                match e {
                    Expr::Const(v) => Ok(Pattern::Const(v)),
                    other => Err(Error::Parse(format!(
                        "body atom arguments must be variables or literals, got {other}"
                    ))),
                }
            }
        }
    }

    // Precedence climbing: || < && < comparison < |^& < shift < +- < */%.
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat("||") {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat("&&") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.bit_expr()?;
        let op = match self.peek() {
            Some(Tok::Punct("==")) => Some(BinOp::Eq),
            Some(Tok::Punct("!=")) => Some(BinOp::Ne),
            Some(Tok::Punct("<")) => Some(BinOp::Lt),
            Some(Tok::Punct("<=")) => Some(BinOp::Le),
            Some(Tok::Punct(">")) => Some(BinOp::Gt),
            Some(Tok::Punct(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let rhs = self.bit_expr()?;
                Ok(Expr::bin(op, lhs, rhs))
            }
            None => Ok(lhs),
        }
    }

    fn bit_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.shift_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("|")) => BinOp::BitOr,
                Some(Tok::Punct("^")) => BinOp::BitXor,
                Some(Tok::Punct("&")) => BinOp::BitAnd,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.shift_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("<<")) => BinOp::Shl,
                Some(Tok::Punct(">>")) => BinOp::Shr,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.add_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("*")) => BinOp::Mul,
                Some(Tok::Punct("/")) => BinOp::Div,
                // `%` is the comment character; modulo is spelled `mod` via
                // the `hmod`/`Mod` path or the `Bin` constructor in code.
                _ => break,
            };
            self.pos += 1;
            let rhs = self.primary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next()? {
            Tok::Int(n) => Ok(Expr::val(n)),
            Tok::Str(s) => Ok(Expr::Const(Value::str(s))),
            Tok::Ip(ip) => Ok(Expr::Const(Value::Ip(ip))),
            Tok::Pfx(p) => Ok(Expr::Const(Value::Prefix(p))),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Tok::Punct("-") => {
                // Unary minus on an integer literal.
                match self.next()? {
                    Tok::Int(n) => Ok(Expr::val(-n)),
                    other => Err(Error::Parse(format!("expected integer after '-', got {other:?}"))),
                }
            }
            Tok::Ident(name) => {
                if matches!(self.peek(), Some(Tok::Punct("("))) {
                    let f = Func::from_name(&name)
                        .ok_or_else(|| Error::Parse(format!("unknown function {name:?}")))?;
                    self.expect("(")?;
                    let mut args = Vec::new();
                    if !self.eat(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(",") {
                                continue;
                            }
                            self.expect(")")?;
                            break;
                        }
                    }
                    if args.len() != f.arity() {
                        return Err(Error::Parse(format!(
                            "{name} expects {} args, got {}",
                            f.arity(),
                            args.len()
                        )));
                    }
                    Ok(Expr::Call(f, args))
                } else {
                    match name.as_str() {
                        "true" => Ok(Expr::val(true)),
                        "false" => Ok(Expr::val(false)),
                        _ => Ok(Expr::Var(Sym::new(name))),
                    }
                }
            }
            other => Err(Error::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_types::prefix::{cidr, ip};

    #[test]
    fn lex_literals() {
        let toks = lex(r#"42 "hi" 1.2.3.4 4.3.2.0/24 foo"#).unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Int(42),
                Tok::Str("hi".into()),
                Tok::Ip(ip("1.2.3.4")),
                Tok::Pfx(cidr("4.3.2.0/24")),
                Tok::Ident("foo".into()),
            ]
        );
    }

    #[test]
    fn lex_comments_and_rule_final_dot() {
        let toks = lex("a % this is ignored\nfoo(1).").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("a".into()),
                Tok::Ident("foo".into()),
                Tok::Punct("("),
                Tok::Int(1),
                Tok::Punct(")"),
                Tok::Punct("."),
            ]
        );
    }

    #[test]
    fn parse_forwarding_rule() {
        let r = parse_rule(
            "r1 packetOut(@S, Src, Dst, Prio, Pt) :- packetIn(@S, Src, Dst), \
             flowEntry(@S, Rid, Prio, Match, Pt), prefix_contains(Match, Dst), \
             best_match!(S, Dst, Prio).",
        )
        .unwrap();
        assert_eq!(r.name, Sym::new("r1"));
        assert_eq!(r.head.table, Sym::new("packetOut"));
        assert_eq!(r.body.len(), 2);
        assert_eq!(r.constraints.len(), 2);
        assert!(matches!(&r.constraints[1], Constraint::Builtin { name, args }
            if name == &Sym::new("best_match") && args.len() == 3));
    }

    /// Every occurrence of a variable is one symbol — within a rule and
    /// across rules, as for any two equal names.
    #[test]
    fn a_rules_variables_share_one_sym() {
        let rules = parse_rules(
            "r1 out(@Next, Src, D) :- pkt(@S, Src, C), link(@S, C, Next), D := 2*C + Src, C > 0.\n\
             r2 out(@S, Src, Src) :- pkt(@S, Src, _).",
        )
        .unwrap();
        let same = |a: &Sym, b: &Sym| a == b && a.as_str().as_ptr() == b.as_str().as_ptr();
        let r = &rules[0];
        let (Pattern::Var(src), Pattern::Var(c)) = (&r.body[0].args[0], &r.body[0].args[1]) else {
            panic!("patterns: {:?}", r.body[0].args);
        };
        assert!(same(&r.body[0].loc, &r.body[1].loc));
        assert!(matches!(&r.body[1].args[0], Pattern::Var(v) if same(v, c)));
        assert!(matches!(&r.head.args[0], Expr::Var(v) if same(v, src)));
        let (Pattern::Var(next), Expr::Var(head_loc)) = (&r.body[1].args[1], &r.head.loc) else {
            panic!("head location: {:?}", r.head.loc);
        };
        assert!(same(next, head_loc));
        let mut in_assign = Vec::new();
        r.assigns[0].expr.vars(&mut in_assign);
        assert!(in_assign.iter().any(|v| same(v, c)) && in_assign.iter().any(|v| same(v, src)));
        assert!(matches!(&r.head.args[1], Expr::Var(v) if same(v, &r.assigns[0].var)));
        assert!(matches!(&rules[1].body[0].args[0], Pattern::Var(v) if same(v, src)));
        assert!(!same(src, c));
    }

    #[test]
    fn parse_assignment_rule() {
        let r = parse_rule("r2 bar(@N, A, D) :- foo(@N, A, B, C), D := 2*C + 1.").unwrap();
        assert_eq!(r.assigns.len(), 1);
        assert_eq!(r.assigns[0].var, Sym::new("D"));
        assert_eq!(r.assigns[0].expr.to_string(), "((2 * C) + 1)");
    }

    #[test]
    fn parse_wildcards_and_literals_in_patterns() {
        let r = parse_rule(r#"r3 out(@N, X) :- t(@N, _, 7, "srv", 1.2.3.4, X)."#).unwrap();
        let args = &r.body[0].args;
        assert_eq!(args[0], Pattern::Wildcard);
        assert_eq!(args[1], Pattern::Const(Value::Int(7)));
        assert_eq!(args[2], Pattern::Const(Value::str("srv")));
        assert_eq!(args[3], Pattern::Const(Value::Ip(ip("1.2.3.4"))));
        assert_eq!(args[4], Pattern::Var(Sym::new("X")));
    }

    #[test]
    fn parse_remote_head_location() {
        // Head at a different node: a message send along a link.
        let r = parse_rule("fwd packetIn(@Next, Src, Dst) :- packetOut(@S, Src, Dst, Prio, Pt), link(@S, Pt, Next).").unwrap();
        assert_eq!(r.head.loc, Expr::var("Next"));
        assert_eq!(r.body[0].loc, Sym::new("S"));
    }

    #[test]
    fn reject_mixed_body_locations() {
        let err = parse_rule("bad a(@X, V) :- b(@X, V), c(@Y, V).").unwrap_err();
        assert!(err.to_string().contains("location"), "{err}");
    }

    #[test]
    fn parse_multiple_rules_and_expr_precedence() {
        let rules = parse_rules(
            "ra h(@N, X) :- b(@N, X), X > 1 + 2 * 3.\n\
             rb g(@N) :- b(@N, X), X == 7 || X == 8.",
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        match &rules[0].constraints[0] {
            Constraint::Expr(e) => assert_eq!(e.to_string(), "(X > (1 + (2 * 3)))"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_expr_entrypoint() {
        let e = parse_expr("last_octet(1.2.3.4) + 1").unwrap();
        assert_eq!(e.eval(&Default::default()).unwrap(), Value::Int(5));
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("nosuchfn(1)").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        let err = parse_rule("r h(@N) :- .").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = parse_rules("r h(@N)").unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }
}
