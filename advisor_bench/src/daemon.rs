//! The program's own daemon, `advisord`: built from the repository's
//! workspace before anything is timed, then started on a bundle and
//! stopped with a `Shutdown` frame.

use crate::client::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use stencilmart::wire::Request;

/// Build `advisord` from the workspace manifest in the working
/// directory (the repository root) and return the executable's path.
/// A no-op build when it is up to date; either way it runs before any
/// timing starts.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "stencilmart-bench",
            "--bin",
            "advisord",
            "--message-format",
            "json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo to build advisord: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building advisord failed ({}); run from the repository root",
            out.status
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::parse_value(l).ok())
        .filter(|v| {
            v.field("target")
                .and_then(|t| t.field("name"))
                .and_then(|n| n.as_str())
                .is_ok_and(|n| n == "advisord")
        })
        .find_map(|v| Some(PathBuf::from(v.field("executable").ok()?.as_str().ok()?)))
        .ok_or_else(|| "cargo built advisord but named no executable".to_string())
}

/// A running `advisord`. Dropping the handle kills and reaps it.
pub struct Daemon {
    child: Option<Child>,
    stderr: Option<ChildStderr>,
    /// The loopback address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Start `advisord` on `bundle` and wait until it listens.
    pub fn start(advisord: &Path, bundle: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(advisord)
            .arg("--bundle")
            .arg(bundle)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", advisord.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            stderr: child.stderr.take(),
            child: Some(child),
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading advisord's address: {e}"))?;
        match line.trim().strip_prefix("advisord listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => return Err(daemon.reap("advisord exited before listening")),
        }
        Ok(daemon)
    }

    /// The child's process id.
    pub fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or(String::new(), |c| c.id().to_string())
    }

    /// Send `Shutdown` over `client` and wait for the process to exit
    /// cleanly.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client.call(&Request::Shutdown)?;
        let status = self
            .child
            .as_mut()
            .expect("a running daemon has a child")
            .wait()
            .map_err(|e| format!("waiting for advisord: {e}"))?;
        if status.success() {
            self.child = None;
            Ok(())
        } else {
            Err(self.reap(&format!("advisord exited with {status}")))
        }
    }

    /// Stop the child and return `why` with what it wrote to stderr.
    fn reap(&mut self, why: &str) -> String {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let mut text = String::new();
        if let Some(mut err) = self.stderr.take() {
            let _ = err.read_to_string(&mut text);
        }
        format!("{why}: {}", text.trim())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
