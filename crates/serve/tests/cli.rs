//! The `rl-serve` binary end to end: flag parsing, the startup banner,
//! and a clean shutdown over the wire.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use rl_serve::Client;

/// Kills the server process if a test fails before it exits.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serves_with_the_requested_workers_and_shuts_down_cleanly() {
    let child = Command::new(env!("CARGO_BIN_EXE_rl-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "3"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server = Running(child);
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .trim()
        .strip_prefix("rl-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.status().unwrap().workers, 3);
    client.shutdown().unwrap();

    let status = server.0.wait().unwrap();
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(status.success(), "exit status {status}");
    assert!(rest.contains("shut down cleanly"), "stdout {rest:?}");
}

#[test]
fn a_malformed_worker_count_exits_with_the_usage_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_rl-serve"))
        .args(["--workers", "x"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: rl-serve"), "stderr {stderr:?}");
}
