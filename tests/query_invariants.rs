//! Serve query grammar invariants: any string parses to a typed error
//! or to a query whose token parses back to an equal query. A token is
//! the query's cache address, so two different queries must never
//! share one.
//!
//! The vendored proptest has no string strategies, so the strings are
//! spliced from fragments of the grammar: every prefix, every name it
//! knows, number spellings the watts parser meets, and characters that
//! break or extend a token.

use proptest::prelude::*;
use sc_repro::core::{FigureId, PointStat};
use sc_repro::prelude::*;
use sc_repro::serve::RelQuery;

/// What a generated query string starts with: every prefix of the
/// grammar, the watts prefix, and near misses.
const PREFIXES: [&str; 9] =
    ["point:", "fig:", "ab:", "ab:powercap:", "dq:", "rel:", "", "powercap:", "ab:powercap:-"];

/// Number spellings the watts parser accepts or must reject.
const NUMBERS: [&str; 10] =
    ["1e3", "NaN", "inf", "-0", "0", "+5", "1e-300", "1e400", " 100", "100 "];

/// Characters appended after the body to break or extend it.
const JUNK: [char; 10] = [':', '.', ' ', '-', '+', 'e', '0', '\0', '"', 'é'];

/// Every name the grammar accepts after some prefix.
fn names() -> Vec<String> {
    let mut names: Vec<String> = PointStat::ALL.iter().map(|p| p.name().to_string()).collect();
    names.extend(FigureId::ALL.iter().map(|f| f.name().to_string()));
    names.extend(RelQuery::ALL.iter().map(|r| r.name().to_string()));
    names.extend(DataQualityProfile::NAMES.split('|').map(String::from));
    names.extend(["off", "coshare", "coshare-predicted", "tiered"].map(String::from));
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fractional watts are the case that once failed: `powercap:99.6`
    /// and `powercap:100.4` both printed `powercap:100`.
    #[test]
    fn any_string_is_an_error_or_a_round_tripping_query(
        prefix in 0usize..PREFIXES.len(),
        body in (0usize..4, 0usize..1 << 16, 0.0f64..1_000.0),
        junk in proptest::collection::vec(0usize..JUNK.len(), 0..3),
    ) {
        let (kind, pick, watts) = body;
        let body = match kind {
            0 => names()[pick % names().len()].clone(),
            1 => format!("{watts:.*}", pick % 4),
            2 => format!("{watts}"),
            _ => NUMBERS[pick % NUMBERS.len()].to_string(),
        };
        let mut s = format!("{}{body}", PREFIXES[prefix]);
        s.extend(junk.iter().map(|&j| JUNK[j]));
        match Query::parse(&s) {
            Ok(q) => {
                let back = Query::parse(&q.token());
                prop_assert!(back == Ok(q), "{s:?} gave {q:?}, whose token parses to {back:?}");
            }
            Err(msg) => prop_assert!(!msg.is_empty(), "{:?}: empty diagnostic", s),
        }
    }
}
