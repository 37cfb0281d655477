//! Property tests for the versioned binary codec: seeded random values and
//! tuples round-trip to equal structures, and corrupt bytes (truncation,
//! bit flips) always surface a typed [`Error::Codec`] — never a panic.

use dp_types::prefix::Prefix;
use dp_types::{Dec, DetRng, Enc, Error, Sym, Tuple, Value};

fn random_value(rng: &mut DetRng) -> Value {
    match rng.gen_range_u32(0, 7) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => {
            let len = rng.gen_range_usize(0, 12);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + rng.gen_range_u8_inclusive(0, 25)))
                .collect();
            Value::str(s)
        }
        3 => Value::Ip(rng.next_u32()),
        4 => {
            let len = rng.gen_range_u8_inclusive(0, 32);
            Value::Prefix(Prefix::new(rng.next_u32(), len).unwrap())
        }
        5 => Value::Sum(rng.next_u64()),
        _ => Value::Time(rng.next_u64()),
    }
}

fn random_tuple(rng: &mut DetRng) -> Tuple {
    let table = Sym::new(format!("t{}", rng.gen_range_u32(0, 16)));
    let arity = rng.gen_range_usize(0, 6);
    let args = (0..arity).map(|_| random_value(rng)).collect();
    Tuple { table, args }
}

#[test]
fn random_values_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0x60D5_70DE);
    for _ in 0..2000 {
        let v = random_value(&mut rng);
        let mut e = Enc::new();
        e.value(&v).unwrap();
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.is_exhausted(), "{v:?} decoded short");
    }
}

#[test]
fn random_tuples_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xBAD_CAFE);
    for _ in 0..500 {
        let t = random_tuple(&mut rng);
        let mut e = Enc::new();
        e.tuple(&t).unwrap();
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.tuple().unwrap(), t);
        assert!(d.is_exhausted());
    }
}

#[test]
fn encoding_is_deterministic() {
    let mut a = DetRng::seed_from_u64(7);
    let mut b = DetRng::seed_from_u64(7);
    for _ in 0..200 {
        let (ta, tb) = (random_tuple(&mut a), random_tuple(&mut b));
        let (mut ea, mut eb) = (Enc::new(), Enc::new());
        ea.tuple(&ta).unwrap();
        eb.tuple(&tb).unwrap();
        assert_eq!(ea.bytes(), eb.bytes());
    }
}

#[test]
fn truncated_tuples_error_never_panic() {
    let mut rng = DetRng::seed_from_u64(42);
    for _ in 0..100 {
        let t = random_tuple(&mut rng);
        let mut e = Enc::new();
        e.tuple(&t).unwrap();
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            match Dec::new(&bytes[..cut]).tuple() {
                Err(Error::Codec { .. }) => {}
                other => panic!("truncation at {cut} of {t:?} gave {other:?}"),
            }
        }
    }
}

#[test]
fn bit_flipped_tuples_error_or_decode_cleanly() {
    // A single flipped bit must never panic. It either still decodes (the
    // flip landed in a payload byte, producing a different but valid value)
    // or surfaces Error::Codec — and when it decodes with trailing bytes
    // left over, the caller's is_exhausted check still catches it.
    let mut rng = DetRng::seed_from_u64(0xF11B);
    for _ in 0..50 {
        let t = random_tuple(&mut rng);
        let mut e = Enc::new();
        e.tuple(&t).unwrap();
        let bytes = e.into_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let mut d = Dec::new(&corrupt);
                match d.tuple() {
                    Ok(_) | Err(Error::Codec { .. }) => {}
                    Err(other) => panic!("unexpected error kind: {other:?}"),
                }
            }
        }
    }
}
