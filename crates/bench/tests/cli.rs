//! `experiments` argument errors: every bad input exits 2 with a one-line
//! message that carries the usage line, never a panic.

use std::process::Command;

/// Runs `experiments suite --spec PATH` and returns (exit code, stderr).
fn suite_with_spec(path: &std::path::Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["suite", "--spec"])
        .arg(path)
        .env_remove("RUST_BACKTRACE")
        .output()
        .expect("run experiments");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(code: Option<i32>, stderr: &str, what: &str) {
    assert_eq!(code, Some(2), "{what}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{what}: stderr {stderr:?}");
    assert!(stderr.contains(what), "{what}: stderr {stderr:?}");
    assert!(
        stderr.contains("usage: experiments suite"),
        "stderr {stderr:?}"
    );
}

#[test]
fn missing_spec_file_exits_2_with_usage() {
    let path = std::env::temp_dir().join(format!("no-such-spec-{}.toml", std::process::id()));
    let (code, stderr) = suite_with_spec(&path);
    assert_usage_error(code, &stderr, "cannot read spec");
}

#[test]
fn malformed_spec_exits_2_with_usage() {
    let path = std::env::temp_dir().join(format!("malformed-spec-{}.toml", std::process::id()));
    std::fs::write(&path, "[[scenario]]\nfamily = \"gnp\"\nbogus_key = 1\n").unwrap();
    let (code, stderr) = suite_with_spec(&path);
    std::fs::remove_file(&path).unwrap();
    assert_usage_error(code, &stderr, "spec error at line");
}
