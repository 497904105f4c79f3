//! The cross-version `q_low` gate: every built-in kernel and every example
//! program must derive *exactly* the bound recorded in
//! `tests/golden/q_low.txt`.
//!
//! `engine_equivalence.rs` compares configurations of one build against each
//! other; this file pins the bound strings themselves, so a change to any
//! layer (lattice closure, partition LP, combination, symbolic printing) that
//! alters a bound fails here even when every configuration still agrees.
//!
//! Each workload's report document is checked on the way: it is one line,
//! it parses and renders back byte for byte, and its `q_low` field is the
//! string compared against the golden file.
//!
//! The golden file holds one `name<TAB>q_low` line per workload. A change
//! that deliberately re-pins a bound rewrites it with
//! `IOLB_BLESS_GOLDEN=1 cargo test --test q_low_golden` and justifies the diff.

use iolb::frontend::IolbFile;
use iolb::poly::json::{self, Json};
use iolb::prelude::*;
use std::path::PathBuf;

/// The `.iolb` example programs pinned next to the 30 built-in kernels.
const PROGRAMS: &[&str] = &[
    "gemm.iolb",
    "cholesky.iolb",
    "jacobi-2d.iolb",
    "ai/attention.iolb",
    "ai/conv2d.iolb",
    "ai/mlp.iolb",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `q_low` field of the outcome's report document, after checking that
/// the document is one line that renders back from its parse byte for byte
/// and that the field is the analysis's bound.
fn document_q_low(name: &str, outcome: &AnalysisOutcome) -> String {
    let doc = outcome.to_json();
    assert!(!doc.contains('\n'), "{name}: the report is not one line");
    let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        parsed.render(),
        doc,
        "{name}: parse + render changed the bytes"
    );
    let q_low = parsed.get("q_low").and_then(Json::as_str).expect("q_low");
    assert_eq!(q_low, outcome.analysis().q_low.to_string(), "{name}");
    q_low.to_string()
}

/// `(name, q_low)` for every pinned workload, each analysed cold in its own
/// session with the serial driver; `q_low` is read from the report document.
fn derive_all() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = iolb::polybench::all_kernels()
        .iter()
        .map(|kernel| {
            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
            (
                kernel.name.to_string(),
                document_q_low(kernel.name, &outcome),
            )
        })
        .collect();
    for program in PROGRAMS {
        let file = IolbFile::new(root().join("examples/programs").join(program));
        let outcome = Analyzer::new().parallel(false).analyze(&file).unwrap();
        let name = format!("examples/programs/{program}");
        let q_low = document_q_low(&name, &outcome);
        rows.push((name, q_low));
    }
    rows
}

#[test]
fn q_low_matches_the_golden_file_on_every_kernel_and_example() {
    let path = root().join("tests/golden/q_low.txt");
    let derived = derive_all();
    assert_eq!(derived.len(), 30 + PROGRAMS.len());
    let rendered: String = derived
        .iter()
        .map(|(name, q_low)| format!("{name}\t{q_low}\n"))
        .collect();
    if std::env::var_os("IOLB_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read tests/golden/q_low.txt");
    let expected: Vec<(&str, &str)> = golden
        .lines()
        .map(|line| line.split_once('\t').expect("name<TAB>q_low"))
        .collect();
    assert_eq!(
        expected.len(),
        derived.len(),
        "the golden file pins a different workload list"
    );
    for ((name, q_low), (golden_name, golden_q_low)) in derived.iter().zip(&expected) {
        assert_eq!(name, golden_name, "workload order changed");
        assert_eq!(
            q_low, golden_q_low,
            "{name}: q_low drifted from the golden file"
        );
    }
}
