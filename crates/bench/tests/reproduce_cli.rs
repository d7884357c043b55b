//! The `reproduce` binary accepts no argument (paper scale) or
//! `--test`; anything else must fail at once with a usage line instead
//! of starting the slow paper-scale run.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `reproduce` with `args` and return its exit code and stderr,
/// or `None` when it was still running at the deadline (it is then
/// killed).
fn run(args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll reproduce") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().expect("kill reproduce");
            child.wait().expect("reap reproduce");
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    Some((status.code(), stderr))
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["--bogus"][..],
        &["-test"],
        &["--test", "--test"],
        &["--test", "x"],
    ] {
        let (code, stderr) = run(args)
            .unwrap_or_else(|| panic!("reproduce {args:?} must exit at once, not start a run"));
        assert_eq!(code, Some(2), "reproduce {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: reproduce"),
            "reproduce {args:?}: {stderr}"
        );
    }
}
