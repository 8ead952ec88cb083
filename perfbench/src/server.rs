//! The `oa serve --listen` child process `serve-steady` drives.

use crate::client::Conn;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server process; dropping it kills and reaps the child.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

/// Pids of the server processes currently running, for [`kill_all`].
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Kill every server still running (the watchdog's last act before the
/// benchmark exits; destructors do not run after `process::exit`).
pub fn kill_all() {
    for pid in live().drain(..) {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

/// Every `OA_*` variable of this process's environment.
pub fn oa_vars() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("OA_"))
        .collect()
}

impl ServerProc {
    /// Start `oa serve --listen 127.0.0.1:0 --threads T` with every
    /// `OA_*` variable removed, and wait for its listening line.
    pub fn spawn(oa: &Path, threads: usize) -> Result<ServerProc, String> {
        let mut cmd = Command::new(oa);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for k in oa_vars() {
            cmd.env_remove(k);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", oa.display()))?;
        live().push(child.id());
        let stdout = child.stdout.take().expect("piped stdout");
        let mut server = ServerProc {
            child: Some(child),
            addr: String::new(),
            drain: None,
        };
        let mut r = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("oa serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("oa serve: listening on ") {
                server.addr = addr.to_string();
                break;
            }
        }
        // Keep reading so the child can never block on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = r.read_to_end(&mut sink);
        }));
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) of the server process, MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Ask the server to drain and exit; kill it if it has not exited
    /// within 20 s.
    pub fn shutdown(mut self) -> Result<(), String> {
        let clean = match Conn::connect(&self.addr) {
            Ok(mut c) => {
                let _ = c.op("shutdown");
                c.close();
                true
            }
            Err(_) => false,
        };
        let mut child = self.child.take().expect("child present until shutdown");
        live().retain(|&p| p != child.id());
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(s) => break Some(s),
                None if Instant::now() >= deadline => break None,
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if status.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        match status {
            Some(s) if s.success() && clean => Ok(()),
            Some(s) => Err(format!("oa serve exited with {s}")),
            None => Err("oa serve did not exit after shutdown; killed".into()),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            live().retain(|&p| p != c.id());
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
