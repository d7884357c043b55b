//! The `loadlab-smoke` binary takes at most one argument, an unsigned
//! seed; anything else must fail with a usage line instead of
//! replaying some other seed.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `loadlab-smoke` with `args` and return its exit code and stderr,
/// or `None` when it was still running at the deadline (it is then
/// killed).
fn run(args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_loadlab-smoke"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loadlab-smoke");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll loadlab-smoke") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().expect("kill loadlab-smoke");
            child.wait().expect("reap loadlab-smoke");
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
    for args in [&["23x"][..], &["-1"], &[""], &["23", "24"]] {
        let (code, stderr) = run(args)
            .unwrap_or_else(|| panic!("loadlab-smoke {args:?} must exit at once, not replay"));
        assert_eq!(code, Some(2), "loadlab-smoke {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: loadlab-smoke"),
            "loadlab-smoke {args:?}: {stderr}"
        );
    }
}
