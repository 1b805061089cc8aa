//! Field-by-field comparison of an evaluation summary against the
//! checked-in golden reference, with the golden test's tolerance.

use memento_simcore::json::{self, Value};
use std::path::PathBuf;

/// Workload scale divisor the golden reference was made at.
pub const GOLDEN_SCALE: u64 = 64;

/// Relative tolerance for numeric fields (absorbs libm ulp differences).
const REL_TOL: f64 = 1e-9;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../tests/fixtures/golden_summary.json")
}

/// Reads and parses the golden summary.
pub fn load() -> Value {
    let path = fixture_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden reference {} unreadable: {e}", path.display()));
    json::parse(&text).expect("golden reference is valid JSON")
}

/// Diffs `expected` against `actual`, one line per mismatching field.
pub fn diff(path: &str, expected: &Value, actual: &Value, out: &mut Vec<String>) {
    match (expected, actual) {
        (Value::Num(e), Value::Num(a)) => {
            let scale = e.abs().max(a.abs()).max(1e-300);
            if (e - a).abs() / scale > REL_TOL {
                out.push(format!("{path}: expected {e}, got {a}"));
            }
        }
        (Value::Object(e), Value::Object(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => diff(&format!("{path}.{key}"), ev, av, out),
                    None => out.push(format!("{path}.{key}: missing from actual")),
                }
            }
            for (key, _) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not in reference"));
                }
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                out.push(format!("{path}: array length {} vs {}", e.len(), a.len()));
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                diff(&format!("{path}[{i}]"), ev, av, out);
            }
        }
        (e, a) if e == a => {}
        (e, a) => out.push(format!("{path}: expected {e:?}, got {a:?}")),
    }
}

/// Mismatching fields of `summary` against `reference`.
pub fn mismatches(reference: &Value, summary: &Value) -> Vec<String> {
    let mut out = Vec::new();
    diff("summary", reference, summary, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_matches_itself() {
        let golden = load();
        assert!(mismatches(&golden, &golden).is_empty());
    }

    #[test]
    fn perturbed_reference_value_is_a_mismatch() {
        let golden = load();
        let Value::Object(mut fields) = golden.clone() else {
            panic!("golden summary is an object");
        };
        let (key, value) = fields
            .iter_mut()
            .find(|(_, v)| matches!(v, Value::Num(_)))
            .expect("golden summary has a numeric field");
        let key = key.clone();
        if let Value::Num(x) = value {
            *x *= 1.0 + 1e-6;
        }
        let found = mismatches(&Value::Object(fields), &golden);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains(&key));
    }
}
