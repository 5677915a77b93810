//! The DESIGN.md "Metric inventory" table is checked against the code:
//! every metric a crate declares must be matched by a row, and every
//! name a row spells must be declared somewhere.
//!
//! Declared names are the string literals passed to `Counter::new`,
//! `Gauge::new` and `AtomicHistogram::new` under `crates/*/src`
//! (`test.*` names belong to unit tests). Documented names are the
//! backticked patterns in the table's second column, where `{a,b}`
//! lists alternatives and a `<placeholder>` segment stands for any one
//! dot-free segment.

use std::collections::BTreeSet;
use std::path::Path;

/// Collects every literal passed to a metric constructor in the `.rs`
/// files under `dir`.
fn declared_under(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            declared_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).unwrap();
            for ctor in ["Counter::new(", "Gauge::new(", "AtomicHistogram::new("] {
                for (at, _) in source.match_indices(ctor) {
                    let arg = source[at + ctor.len()..].trim_start();
                    let name = arg.strip_prefix('"').and_then(|rest| rest.split('"').next());
                    out.extend(name.filter(|n| !n.starts_with("test.")).map(String::from));
                }
            }
        }
    }
}

/// Expands every `{a,b}` group of `pattern`, leftmost first.
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else { return vec![pattern.to_string()] };
    let close = open + pattern[open..].find('}').expect("unclosed `{` in an inventory row");
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &pattern[..open], &pattern[close + 1..])))
        .collect()
}

fn matches(pattern: &str, name: &str) -> bool {
    let (p, n): (Vec<_>, Vec<_>) = (pattern.split('.').collect(), name.split('.').collect());
    p.len() == n.len() && p.iter().zip(&n).all(|(p, n)| p.starts_with('<') || p == n)
}

#[test]
fn design_md_inventory_matches_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut declared = BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        declared_under(&krate.unwrap().path().join("src"), &mut declared);
    }
    assert!(declared.len() > 50, "the scan found only {} metric declarations", declared.len());

    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let section = design.split("### Metric inventory").nth(1).expect("inventory section");
    let rows =
        section.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let documented: Vec<String> = rows
        .skip(2) // header and separator
        .flat_map(|row| {
            let metrics = row.split('|').nth(2).expect("a Metrics column");
            metrics.split('`').skip(1).step_by(2).flat_map(expand).collect::<Vec<_>>()
        })
        .collect();

    let undocumented: Vec<_> =
        declared.iter().filter(|n| !documented.iter().any(|p| matches(p, n))).collect();
    let undeclared: Vec<_> =
        documented.iter().filter(|p| !declared.iter().any(|n| matches(p, n))).collect();
    assert!(
        undocumented.is_empty(),
        "declared but in no DESIGN.md inventory row: {undocumented:?}"
    );
    assert!(
        undeclared.is_empty(),
        "in a DESIGN.md inventory row but never declared: {undeclared:?}"
    );
}
