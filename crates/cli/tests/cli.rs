//! Integration tests driving the compiled `mime` binary.

use std::process::Command;

fn mime() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mime"))
}

#[test]
fn help_exits_zero() {
    let out = mime().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("storage"));
    assert!(text.contains("simulate"));
}

#[test]
fn no_args_shows_help() {
    let out = mime().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

#[test]
fn storage_table() {
    let out = mime()
        .args(["storage", "--children", "3", "--input-hw", "224"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("conventional"));
    // 3 children + header + zero row
    assert!(text.lines().count() >= 5);
}

#[test]
fn simulate_small() {
    let out = mime()
        .args(["simulate", "--input-hw", "64", "--approach", "case2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("TOTAL"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = mime().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn bad_flag_fails() {
    let out = mime().args(["storage", "--children", "many"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("children"));
}

#[test]
fn batch_exit_codes_distinguish_clean_and_degraded() {
    // clean run: exit 0
    let out = mime()
        .args(["batch", "--images", "2", "--tasks", "2", "--seed", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // poison drill: the batch completes on the parent path for task 1
    // and exits with the distinct degraded code 2
    let out = mime()
        .args(["batch", "--images", "2", "--tasks", "2", "--seed", "1", "--poison", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("parallel == serial: true"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "{stderr}");
}

/// A front door that cannot start — its address is already bound —
/// exits non-zero and removes the temporary image it packed first.
#[test]
fn failed_serve_start_leaves_no_temporary_image() {
    let dir = std::env::temp_dir().join("mime_cli_bin_serve_bind");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let child = mime()
        .args(["serve", "--listen", &addr, "--tasks", "1"])
        .env("TMPDIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let pid = child.id();
    let out = child.wait_with_output().expect("serve exits");
    assert!(!out.status.success(), "bind to a taken address must fail");
    let prefix = format!("mime_frontdoor_{pid}_");
    let leaked: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with(&prefix) && n.ends_with(".mime"))
        .collect();
    assert!(leaked.is_empty(), "temporary image left behind: {leaked:?}");
    drop(taken);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_checkpoints_and_resumes_from_latest_clean() {
    let dir = std::env::temp_dir().join("mime_cli_bin_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let out = mime()
        .args(["train", "--epochs", "2", "--seed", "5", "--checkpoint-dir", dir_str])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // one crash-safe checkpoint image per epoch, each clean
    for epoch in ["epoch-0000.mime", "epoch-0001.mime"] {
        let path = dir.join(epoch);
        assert!(path.exists(), "{epoch} missing");
        let out = mime()
            .args(["verify-image", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{epoch} not clean");
    }
    // tear the newest checkpoint: resume must fall back to epoch 0
    let latest = dir.join("epoch-0001.mime");
    let bytes = std::fs::read(&latest).unwrap();
    std::fs::write(&latest, &bytes[..bytes.len() / 2]).unwrap();
    let out = mime()
        .args([
            "train",
            "--epochs",
            "2",
            "--seed",
            "5",
            "--checkpoint-dir",
            dir_str,
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed from"), "{stdout}");
    assert!(stdout.contains("epoch-0000.mime"), "{stdout}");
    assert!(stdout.contains("continuing at epoch 1"), "{stdout}");
    // only the remaining epoch is re-run and re-checkpointed
    assert!(stdout.contains("epoch  1:"), "{stdout}");
    assert!(!stdout.contains("epoch  0:"), "{stdout}");
    let out = mime()
        .args(["verify-image", dir.join("epoch-0001.mime").to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "rewritten checkpoint must be clean");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pack_writes_file_and_inspect_reads_it() {
    let dir = std::env::temp_dir().join("mime_cli_bin_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.mime");
    let out = mime()
        .args(["pack", "--out", path.to_str().unwrap(), "--tasks", "1"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(path.exists());
    let out =
        mime().args(["inspect", path.to_str().unwrap()]).output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("registered tasks"));
    std::fs::remove_dir_all(&dir).ok();
}
