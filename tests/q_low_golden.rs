//! The cross-version `q_low` gate: every built-in kernel and every example
//! program must derive *exactly* the bound recorded in
//! `tests/golden/q_low.txt`.
//!
//! `engine_equivalence.rs` compares configurations of one build against each
//! other; this file pins the bound strings themselves, so a change to any
//! layer (lattice closure, partition LP, combination, symbolic printing) that
//! alters a bound fails here even when every configuration still agrees.
//!
//! The golden file holds one `name<TAB>q_low` line per workload. A change
//! that deliberately re-pins a bound rewrites it with
//! `IOLB_BLESS_GOLDEN=1 cargo test --test q_low_golden` and justifies the diff.

use iolb::frontend::IolbFile;
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

/// `(name, q_low)` for every pinned workload, each analysed cold in its own
/// session with the serial driver.
fn derive_all() -> Vec<(String, String)> {
    let q_low = |outcome: AnalysisOutcome| outcome.analysis().q_low.to_string();
    let mut rows: Vec<(String, String)> = iolb::polybench::all_kernels()
        .iter()
        .map(|kernel| {
            let outcome = Analyzer::new().parallel(false).analyze(kernel).unwrap();
            (kernel.name.to_string(), q_low(outcome))
        })
        .collect();
    for program in PROGRAMS {
        let file = IolbFile::new(root().join("examples/programs").join(program));
        let outcome = Analyzer::new().parallel(false).analyze(&file).unwrap();
        rows.push((format!("examples/programs/{program}"), q_low(outcome)));
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
