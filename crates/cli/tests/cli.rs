//! Binary-level end-to-end tests: run the real `iolb` executable the way a
//! user would and check its output.

use iolb_poly::json::{self, Json};
use std::process::Command;

fn iolb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_iolb"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run iolb binary")
}

/// A string field of a one-line `--json` document.
fn json_field(json: &str, key: &str) -> String {
    assert_eq!(json.lines().count(), 1, "one line: {json}");
    json::parse(json)
        .unwrap()
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("field {key} in {json}"))
        .to_string()
}

/// The acceptance criterion of this PR:
/// `iolb analyze examples/programs/gemm.iolb --json` produces the same
/// parametric lower bound as the built-in gemm kernel.
#[test]
fn gemm_example_matches_builtin_kernel() {
    let from_file = iolb(&["analyze", "examples/programs/gemm.iolb", "--json"]);
    assert!(
        from_file.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&from_file.stderr)
    );
    let from_kernel = iolb(&["analyze", "--kernel", "gemm", "--json"]);
    assert!(from_kernel.status.success());

    let file_json = String::from_utf8(from_file.stdout).unwrap();
    let kernel_json = String::from_utf8(from_kernel.stdout).unwrap();
    assert_eq!(
        json_field(&file_json, "q_low"),
        json_field(&kernel_json, "q_low")
    );
    assert_eq!(
        json_field(&file_json, "q_asymptotic"),
        json_field(&kernel_json, "q_asymptotic")
    );
    assert_eq!(
        json_field(&kernel_json, "q_asymptotic"),
        "2*Ni*Nj*Nk*S^(-1/2)"
    );
}

#[test]
fn remaining_example_programs_analyze() {
    for example in ["jacobi-2d.iolb", "cholesky.iolb"] {
        let out = iolb(&["analyze", &format!("examples/programs/{example}")]);
        assert!(
            out.status.success(),
            "{example} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("Q_low"), "{example} output: {text}");
    }
}

#[test]
fn kernels_subcommand_lists_suite() {
    let out = iolb(&["kernels"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 31);
}

#[test]
fn bad_input_exits_nonzero_with_position() {
    let out = iolb(&["analyze", "/nonexistent/x.iolb"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// `iolb serve --stdio`: pipe a kernel request, a file-path request and a
/// shutdown through the daemon and check the line-delimited replies — the
/// same exchange the CI smoke test performs over TCP.
#[test]
fn serve_stdio_round_trip_and_clean_exit() {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_iolb"))
        .args(["serve", "--stdio", "--workers", "2"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn iolb serve --stdio");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            concat!(
                "{\"id\": \"k\", \"kernel\": \"gemm\"}\n",
                "{\"id\": \"f\", \"path\": \"examples/programs/gemm.iolb\"}\n",
                "{\"id\": \"bye\", \"op\": \"shutdown\"}\n",
            )
            .as_bytes(),
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("iolb serve exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {stdout}");
    for response in &lines[..2] {
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        assert!(response.contains("\"schema_version\":1"), "{response}");
        assert!(response.contains("\"q_low\""), "{response}");
    }
    assert!(lines[2].contains("\"draining\":true"), "{}", lines[2]);
    // Both workloads are gemm: the bound must be identical through either
    // door (built-in kernel vs frontend-lowered file).
    let q = |line: &str| {
        let report = json::parse(line).unwrap().get("report").cloned();
        report.and_then(|r| r.get("q_low").cloned()).expect("q_low")
    };
    assert_eq!(q(lines[0]), q(lines[1]));
}
