//! Per-rule fixture coverage: every pass ships `trip.rs` (the rule
//! fires), `clean.rs` (the compliant rewrite stays quiet), and
//! `waived.rs` (a justified waiver suppresses the finding and the
//! ledger marks it used).
//!
//! Fixtures live under `fixtures/<rule-id>/` and are scanned *as if*
//! they sat at a path where the rule applies (third tuple field); the
//! repo walker skips `fixtures/` so they never pollute the real scan.

use std::path::{Path, PathBuf};

use memento_analyzer::{scan_file, scan_source, Rule};

/// (fixture dir, scan-as path) for every rule.
const CASES: [(&str, &str, Rule); 14] = [
    (
        "wall-clock",
        "crates/system/src/machine.rs",
        Rule::WallClock,
    ),
    (
        "thread-spawn",
        "crates/system/src/machine.rs",
        Rule::ThreadSpawn,
    ),
    (
        "unordered-iter",
        "crates/system/src/machine.rs",
        Rule::UnorderedIter,
    ),
    (
        "unwrap-in-lib",
        "crates/system/src/machine.rs",
        Rule::UnwrapInLib,
    ),
    (
        "ignore-without-reason",
        "tests/fixture.rs",
        Rule::IgnoreWithoutReason,
    ),
    (
        "ignore-in-experiments",
        "crates/experiments/src/memusage.rs",
        Rule::IgnoreInExperiments,
    ),
    (
        "btreemap-in-hot-path",
        "crates/cluster/src/sim.rs",
        Rule::BTreeMapInHotPath,
    ),
    (
        "unsafe-without-safety-comment",
        "crates/system/src/machine.rs",
        Rule::UnsafeWithoutSafetyComment,
    ),
    (
        "atomic-ordering-audit",
        "crates/system/src/machine.rs",
        Rule::AtomicOrderingAudit,
    ),
    (
        "panic-in-lib",
        "crates/system/src/machine.rs",
        Rule::PanicInLib,
    ),
    (
        "narrowing-cast-in-hot-path",
        "crates/cluster/src/event_heap.rs",
        Rule::NarrowingCastInHotPath,
    ),
    (
        "float-accumulation-order",
        "crates/experiments/src/cluster.rs",
        Rule::FloatAccumulationOrder,
    ),
    (
        "unjustified-waiver",
        "crates/system/src/machine.rs",
        Rule::UnjustifiedWaiver,
    ),
    (
        "unused-waiver",
        "crates/system/src/machine.rs",
        Rule::UnusedWaiver,
    ),
];

fn fixture(dir: &str, name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(dir)
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_rule_has_a_tripping_fixture() {
    for (dir, rel, rule) in CASES {
        let findings = scan_source(rel, &fixture(dir, "trip.rs"));
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "{dir}/trip.rs did not trip {}: {findings:?}",
            rule.id()
        );
    }
}

#[test]
fn every_rule_has_a_clean_fixture() {
    for (dir, rel, rule) in CASES {
        let scan = scan_file(rel, &fixture(dir, "clean.rs"));
        assert!(
            scan.findings.is_empty(),
            "{dir}/clean.rs is not clean ({}): {:?}",
            rule.id(),
            scan.findings
        );
        assert!(
            scan.waivers.iter().all(|w| w.used),
            "{dir}/clean.rs carries a dead waiver"
        );
    }
}

#[test]
fn every_rule_has_a_waived_fixture() {
    for (dir, rel, rule) in CASES {
        let src = fixture(dir, "waived.rs");
        let scan = scan_file(rel, &src);
        assert!(
            scan.findings.is_empty(),
            "{dir}/waived.rs still has findings ({}): {:?}",
            rule.id(),
            scan.findings
        );
        assert!(
            !scan.waivers.is_empty() && scan.waivers.iter().all(|w| w.used),
            "{dir}/waived.rs must carry only used waivers: {:?}",
            scan.waivers
        );
        // The waiver is what keeps it quiet: stripping the waiver lines
        // must make the rule fire again (ledger rules fire *as* the
        // waiver-line manipulation, so they are exercised by trip.rs).
        if !matches!(rule, Rule::UnjustifiedWaiver | Rule::UnusedWaiver) {
            let stripped: String = src
                .lines()
                .filter(|l| !l.contains("lint:allow"))
                .map(|l| format!("{l}\n"))
                .collect();
            let findings = scan_source(rel, &stripped);
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "{dir}/waived.rs minus its waiver should trip {}",
                rule.id()
            );
        }
    }
}

#[test]
fn lexer_block_comment_regression_fixture() {
    // Regression for the old per-line scanner's strip_comments blind
    // spot: banned patterns inside /* */ (and a quote that used to break
    // parity) must not trip the token engine.
    let src = fixture("lexer", "block_comments.rs");
    let rel = "crates/system/src/machine.rs";
    let new = scan_source(rel, &src);
    assert!(
        new.is_empty(),
        "token engine misread block comments: {new:?}"
    );
}
