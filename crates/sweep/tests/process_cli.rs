//! End-to-end tests of the `sweep` binary: real OS processes (the parent
//! self-invokes one child per shard), real files, byte-identical merges.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const SWEEP_BIN: &str = env!("CARGO_BIN_EXE_sweep");

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anet-sweep-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// A tiny spec: 1 protocol × 2 topologies × 1 seed × 5 schedulers = 10 units.
const SPEC: &str = "\
protocol mapping
topology chain-gn 4
topology random-cyclic 6 20 15 7
seeds 3
random-schedulers 1
max-deliveries 200000
";

fn run_sweep(args: &[&str]) -> std::process::Output {
    Command::new(SWEEP_BIN)
        .args(args)
        .output()
        .expect("sweep binary runs")
}

fn assert_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

fn sweep_to(dir: &Path, spec_path: &Path, shards: usize, extra: &[&str]) -> Vec<u8> {
    let out_dir = dir.join(format!("shards-{shards}"));
    let shards_s = shards.to_string();
    let mut args = vec![
        "--spec",
        spec_path.to_str().unwrap(),
        "--shards",
        &shards_s,
        "--out",
        out_dir.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = run_sweep(&args);
    assert_success(&out, &format!("sweep --shards {shards}"));
    fs::read(out_dir.join("merged.jsonl")).expect("merged output exists")
}

#[test]
fn process_sharded_runs_merge_byte_identically() {
    let dir = test_dir("merge");
    let spec_path = dir.join("tiny.spec");
    fs::write(&spec_path, SPEC).unwrap();

    let one = sweep_to(&dir, &spec_path, 1, &[]);
    assert_eq!(one.iter().filter(|&&b| b == b'\n').count(), 10);
    for shards in [2usize, 3] {
        let many = sweep_to(&dir, &spec_path, shards, &[]);
        assert_eq!(many, one, "--shards {shards} diverged from --shards 1");
    }
    // Round-robin partitioning merges identically too.
    let rr = sweep_to(&dir, &spec_path, 2, &["--partition", "round-robin"]);
    assert_eq!(rr, one);

    // --check agrees (exit 0) and detects divergence (exit != 0).
    let a = dir.join("shards-1/merged.jsonl");
    let b = dir.join("shards-2/merged.jsonl");
    let check = run_sweep(&["--check", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_success(&check, "--check on identical files");
    let mangled = dir.join("mangled.jsonl");
    let mut contents = fs::read_to_string(&a).unwrap();
    contents = contents.replacen("terminated", "quiescent", 1);
    fs::write(&mangled, contents).unwrap();
    let check = run_sweep(&["--check", a.to_str().unwrap(), mangled.to_str().unwrap()]);
    assert!(!check.status.success(), "--check must flag divergence");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_resume_recovers_a_truncated_shard() {
    let dir = test_dir("resume");
    let spec_path = dir.join("tiny.spec");
    fs::write(&spec_path, SPEC).unwrap();

    let clean = sweep_to(&dir, &spec_path, 2, &[]);

    // Truncate one shard file mid-line and delete the merged output.
    let out_dir = dir.join("shards-2");
    let victim = out_dir.join("shard-1.jsonl");
    let contents = fs::read_to_string(&victim).unwrap();
    assert!(!contents.is_empty());
    fs::write(&victim, &contents[..contents.len() / 2]).unwrap();
    fs::remove_file(out_dir.join("merged.jsonl")).unwrap();

    let resumed = sweep_to(&dir, &spec_path, 2, &["--resume"]);
    assert_eq!(resumed, clean, "--resume merged output diverged");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn run_shard_child_mode_writes_only_its_own_shard() {
    // `--run-shard I` is the internal child mode the parent self-invokes: it
    // must execute exactly one shard's units and never merge.
    let dir = test_dir("spec-file");
    let spec_path = dir.join("tiny.spec");
    fs::write(&spec_path, SPEC).unwrap();
    let out_dir = dir.join("out");
    let out = run_sweep(&[
        "--spec",
        spec_path.to_str().unwrap(),
        "--shards",
        "2",
        "--out",
        out_dir.to_str().unwrap(),
        "--run-shard",
        "0",
    ]);
    assert_success(&out, "--run-shard 0");
    assert!(out_dir.join("shard-0.jsonl").exists());
    assert!(!out_dir.join("shard-1.jsonl").exists());
    assert!(!out_dir.join("merged.jsonl").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_generator_parameters_and_crash_targets_fail_before_any_shard_starts() {
    let dir = test_dir("bad-spec");
    for (name, text, needle) in [
        (
            "cyclic",
            "protocol mapping\ntopology chain-gn 4\ntopology random-cyclic 0 20 15 7\n",
            "line 3",
        ),
        (
            "dag",
            "protocol labeling\ntopology complete-dag 0\n",
            "line 2",
        ),
        (
            "crash",
            "protocol mapping\ntopology path 3\nfaults crash=99:0..5\n",
            "line 3: crash target 99",
        ),
    ] {
        let spec_path = dir.join(format!("{name}.spec"));
        fs::write(&spec_path, text).unwrap();
        let out_dir = dir.join(name);
        let out = run_sweep(&[
            "--spec",
            spec_path.to_str().unwrap(),
            "--shards",
            "2",
            "--out",
            out_dir.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: bad spec accepted");
        assert!(stderr.contains(needle), "{name}: {stderr}");
        assert!(
            !stderr.contains("shard"),
            "{name}: a shard started: {stderr}"
        );
        assert!(!out_dir.join("shard-0.jsonl").exists(), "{name}");
    }
    let _ = fs::remove_dir_all(&dir);
}
