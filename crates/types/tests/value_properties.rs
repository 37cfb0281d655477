//! Randomized property tests on the foundation types, driven by the
//! in-repo deterministic generator (the workspace builds offline, so no
//! property-testing framework is available).

use dp_types::{DetRng, Prefix, Sym, Tuple, Value};

fn arb_value(rng: &mut DetRng) -> Value {
    match rng.gen_range_usize(0, 7) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => {
            let n = rng.gen_range_usize(0, 9);
            let s: String = (0..n)
                .map(|_| (b'a' + rng.gen_range_usize(0, 26) as u8) as char)
                .collect();
            Value::str(s)
        }
        3 => Value::Ip(rng.next_u32()),
        4 => {
            let len = rng.gen_range_usize(0, 33) as u8;
            Value::Prefix(Prefix::new(rng.next_u32(), len).unwrap())
        }
        5 => Value::Sum(rng.next_u64()),
        _ => Value::Time(rng.next_u64()),
    }
}

/// Value ordering is a total order consistent with equality.
#[test]
fn value_ordering_is_total() {
    use std::cmp::Ordering;
    let mut rng = DetRng::seed_from_u64(0x7E57_0001);
    for _ in 0..2000 {
        let a = arb_value(&mut rng);
        let b = arb_value(&mut rng);
        let c = arb_value(&mut rng);
        assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }
}

/// Tuple ordering is lexicographic over (table, args).
#[test]
fn tuple_ordering_is_lexicographic() {
    let mut rng = DetRng::seed_from_u64(0x7E57_0002);
    for _ in 0..1000 {
        let xs: Vec<Value> = (0..rng.gen_range_usize(0, 4))
            .map(|_| arb_value(&mut rng))
            .collect();
        let ys: Vec<Value> = (0..rng.gen_range_usize(0, 4))
            .map(|_| arb_value(&mut rng))
            .collect();
        let a = Tuple::new("t", xs.clone());
        let b = Tuple::new("t", ys.clone());
        assert_eq!(a.cmp(&b), xs.cmp(&ys));
        let c = Tuple::new("s", xs);
        assert!(c < a || c.table == a.table);
    }
}

/// IPv4 display/parse round-trips.
#[test]
fn ip_display_roundtrips() {
    let mut rng = DetRng::seed_from_u64(0x7E57_0003);
    for _ in 0..2000 {
        let ip = rng.next_u32();
        let s = Prefix::fmt_ip(ip);
        assert_eq!(Prefix::parse_ip(&s).unwrap(), ip);
    }
}

/// Symbols hash and compare consistently with their strings.
#[test]
fn sym_matches_string() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    let mut rng = DetRng::seed_from_u64(0x7E57_0004);
    for _ in 0..1000 {
        let n = rng.gen_range_usize(0, 13);
        let s: String = (0..n)
            .map(|_| ALPHABET[rng.gen_range_usize(0, ALPHABET.len())] as char)
            .collect();
        let sym = Sym::new(&s);
        assert_eq!(sym.as_str(), s.as_str());
        let sym2 = Sym::new(&s);
        assert_eq!(&sym, &sym2);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &Sym| {
            let mut hh = DefaultHasher::new();
            x.hash(&mut hh);
            hh.finish()
        };
        assert_eq!(h(&sym), h(&sym2));
    }
}

/// Prefix containment is antisymmetric under `covers` and consistent with
/// `contains`.
#[test]
fn prefix_covers_consistency() {
    let mut rng = DetRng::seed_from_u64(0x7E57_0005);
    for _ in 0..2000 {
        let pa = Prefix::new(rng.next_u32(), rng.gen_range_usize(0, 33) as u8).unwrap();
        let pb = Prefix::new(rng.next_u32(), rng.gen_range_usize(0, 33) as u8).unwrap();
        if pa.covers(&pb) {
            assert!(pa.contains(pb.addr()));
            if pb.covers(&pa) {
                assert_eq!(pa, pb);
            }
        }
    }
}

#[test]
fn display_is_stable_for_key_examples() {
    // These exact renderings appear in documentation and operator output;
    // changing them is a compatibility break worth noticing.
    assert_eq!(
        Value::Ip(dp_types::prefix::ip("4.3.2.1")).to_string(),
        "4.3.2.1"
    );
    assert_eq!(
        Value::Prefix(dp_types::prefix::cidr("4.3.2.0/23")).to_string(),
        "4.3.2.0/23"
    );
    assert_eq!(Value::Sum(0x600d).to_string(), "#000000000000600d");
    let t = Tuple::new(
        "cfgEntry",
        vec![
            Value::Int(1),
            Value::str("S2"),
            Value::Int(10),
            Value::Prefix(dp_types::prefix::cidr("4.3.2.0/24")),
        ],
    );
    assert_eq!(t.to_string(), "cfgEntry(1,S2,10,4.3.2.0/24)");
}
