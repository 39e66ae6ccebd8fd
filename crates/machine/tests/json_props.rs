//! The JSON writer and parser are inverse: whatever value a report or
//! a daemon reply is built from, both renderings parse back to it.

use polymem_machine::Json;
use proptest::prelude::*;

/// Strings the writer must escape or pass through: quotes,
/// backslashes, every control character, non-ASCII, and the empty one.
const STRINGS: [&str; 8] = [
    "",
    "plain",
    "a\"b\\c/d",
    "line\nbreak\ttab\rreturn",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
    "naïve — 多层 🦀",
    "\\u0041 is not an escape here",
    "{\"looks\": [\"like\", \"json\"]}",
];

fn next(words: &mut impl Iterator<Item = u64>) -> u64 {
    words.next().unwrap_or(0)
}

fn string(words: &mut impl Iterator<Item = u64>) -> String {
    STRINGS[next(words) as usize % STRINGS.len()].repeat(next(words) as usize % 3)
}

/// Build a value from a stream of random words: scalars of every
/// kind, integers up to 2^53 in both signs, arbitrary bit patterns
/// (fractions, huge, tiny, non-finite), and nested (possibly empty)
/// arrays and objects down to `depth`.
fn value(words: &mut impl Iterator<Item = u64>, depth: u32) -> Json {
    match next(words) % if depth == 0 { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(next(words) & 1 == 0),
        2 => Json::Num((next(words) % ((1 << 53) + 1)) as f64),
        3 => Json::Num(-((next(words) % ((1 << 53) + 1)) as f64)),
        4 => Json::Num(f64::from_bits(next(words))),
        5 => Json::Str(string(words)),
        6 => (0..next(words) % 4)
            .map(|_| value(words, depth - 1))
            .collect(),
        _ => {
            let mut fields = Vec::new();
            for i in 0..next(words) % 4 {
                fields.push((format!("{}{i}", string(words)), value(words, depth - 1)));
            }
            Json::obj(fields)
        }
    }
}

/// Non-finite numbers have no JSON spelling and are written as
/// `null`; everything else must survive unchanged.
fn expected(v: &Json) -> Json {
    match v {
        Json::Num(n) if !n.is_finite() => Json::Null,
        Json::Arr(items) => items.iter().map(expected).collect(),
        Json::Obj(fields) => Json::obj(fields.iter().map(|(k, v)| (k.clone(), expected(v)))),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn both_renderings_parse_back_to_the_value(
        words in prop::collection::vec(0u64..u64::MAX, 1..96),
    ) {
        let v = value(&mut words.into_iter(), 4);
        let want = expected(&v);
        prop_assert_eq!(Json::parse(&v.to_string()), Some(want.clone()));
        prop_assert_eq!(Json::parse(&v.pretty()), Some(want));
    }
}
