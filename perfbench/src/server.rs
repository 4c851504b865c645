//! The program under test as a process: building `alss`, launching
//! `alss serve`, timing its start-up, reading its peak RSS and stopping it.

use alss_serve::proto::{from_line, to_line};
use alss_serve::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Build the `alss` binary from the repository at `root` and return its
/// path. Honours `CARGO_TARGET_DIR` like the outer cargo invocation.
pub fn build_alss(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "alss"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of alss failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| root.join("target"), |d| root.join(PathBuf::from(d)));
    let bin = target.join("release").join("alss");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built binary not found at {}", bin.display()))
    }
}

/// Flags handed to `alss serve`.
#[derive(Clone, Debug)]
pub struct ServeFlags {
    /// `--cache`: estimate-cache capacity.
    pub cache: usize,
    /// `--shards`: cache shards.
    pub shards: usize,
    /// `--batch`: micro-batch size.
    pub batch: usize,
    /// `--threads`: batcher fan-out.
    pub threads: usize,
}

/// A running `alss serve` child process.
pub struct Server {
    child: Child,
    /// Bound address.
    pub addr: SocketAddr,
}

/// One blocking request/response over a fresh connection.
pub fn call(addr: SocketAddr, req: &Request) -> Result<Response, String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut line = to_line(req)?;
    line.push('\n');
    (&stream)
        .write_all(line.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .map_err(|e| format!("recv: {e}"))?;
    from_line(&reply)
}

impl Server {
    /// Launch `alss serve` and wait until it answers `ping`. Returns the
    /// server and the seconds from spawn to the first answered ping.
    pub fn launch(
        bin: &Path,
        dir: &Path,
        graph: &Path,
        sketch: &Path,
        flags: &ServeFlags,
    ) -> Result<(Server, f64), String> {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--graph")
            .arg(graph)
            .arg("--sketch")
            .arg(sketch)
            .arg("--port-file")
            .arg(&port_file)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--cache", &flags.cache.to_string()])
            .args(["--shards", &flags.shards.to_string()])
            .args(["--batch", &flags.batch.to_string()])
            .args(["--threads", &flags.threads.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let addr = loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                break addr;
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("alss serve exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(60) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("alss serve did not bind within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let server = Server { child, addr };
        let pong = call(addr, &Request::control("ping"))?;
        let setup = start.elapsed().as_secs_f64();
        if !pong.ok {
            return Err(format!("ping failed: {}", pong.error));
        }
        Ok((server, setup))
    }

    /// Peak resident set size of the server process, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "VmHWM missing from /proc status".to_string())
    }

    /// Ask the server to shut down and wait for the process to exit; kill
    /// it if it has not exited after 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = call(self.addr, &Request::control("shutdown")).map(|r| r.ok);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && acked == Ok(true) => return Ok(()),
                Ok(Some(status)) => return Err(format!("alss serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("alss serve did not stop within 10 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached only on an error path: never leave the child running.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
