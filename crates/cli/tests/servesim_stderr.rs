//! `ccrp-tools servesim` keeps the chaos trials' deliberate handler
//! panics off stderr, so a real panic there stands out.

use std::process::Command;

#[test]
fn servesim_stderr_holds_no_panic_message() {
    let dir = std::env::temp_dir().join(format!("ccrp-servesim-stderr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // 28 trials are two cycles of the fourteen trial kinds, so both
    // chaos trials panic a handler.
    let output = Command::new(env!("CARGO_BIN_EXE_ccrp-tools"))
        .args([
            "servesim", "--trials", "28", "--seed", "7", "--jobs", "2", "--burst", "0",
        ])
        .arg("--out")
        .arg(dir.join("servesim.json"))
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "servesim failed: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
}
