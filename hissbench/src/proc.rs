//! Building and driving the shipped `hiss-cli` binary as child
//! processes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hiss_serve::{Request, Response};

/// Builds `hiss-cli` from the checkout at `root` and returns its path.
/// Honours `CARGO_TARGET_DIR` like any other cargo invocation.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "hiss-serve",
            "--bin",
            "hiss-cli",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building hiss-cli failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let cli = target.join("release").join("hiss-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!("built hiss-cli not found at {}", cli.display()))
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub ok: bool,
    /// Peak resident set size (`ru_maxrss`), KiB.
    pub maxrss_kib: u64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Longest a child may take to exit once it should: a `scenario run`
/// from spawn, a server from its shutdown request. Past it the child is
/// killed and the operation fails.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Waits for `child` and returns its exit and peak RSS, killing it if it
/// has not exited within [`EXIT_TIMEOUT`]. `std` offers no per-child
/// resource usage, so this reaps with `wait4(2)` directly.
pub fn reap(child: Child) -> std::io::Result<Exit> {
    reap_within(child, EXIT_TIMEOUT)
}

fn reap_within(mut child: Child, timeout: Duration) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let (reaped, watch) = std::sync::mpsc::channel::<()>();
    let result = std::thread::scope(|scope| {
        let child = &mut child;
        let watchdog = scope.spawn(move || {
            // Disconnected means reaped; only a timeout kills.
            let overdue = matches!(
                watch.recv_timeout(timeout),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            );
            if overdue {
                let _ = child.kill();
            }
            overdue
        });
        let result = loop {
            // SAFETY: `status` and `usage` are live, writable locals of
            // the types wait4 expects (`int` and the 64-bit Linux `struct
            // rusage`: two timevals, then `ru_maxrss` and 13 more longs),
            // and `pid` is our own child, not yet reaped.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break Ok(());
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                break Err(err);
            }
        };
        drop(reaped);
        let killed = watchdog.join().expect("watchdog thread panicked");
        result.map(|()| killed)
    });
    let killed = result?;
    Ok(Exit {
        ok: status == 0 && !killed,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// Runs `cmd` to completion, returning its wall time (spawn to reap) and
/// exit.
pub fn run_timed(cmd: &mut Command) -> std::io::Result<(f64, Exit)> {
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(child)?;
    Ok((t0.elapsed().as_secs_f64(), exit))
}

/// A running `hiss-cli serve` child.
#[derive(Debug)]
pub struct Server {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    /// The bound `host:port`.
    pub addr: String,
}

impl Server {
    /// Spawns `cli serve` on a free local port with `store` and
    /// `threads` workers. Returns the server and its set-up time: spawn
    /// until the port accepts a connection.
    pub fn start(cli: &Path, store: &Path, threads: usize) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--store")
            .arg(store)
            .arg("--threads")
            .arg(threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn hiss-cli serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            stdout: None,
            addr: String::new(),
        };
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the serve banner: {e}"))?;
        server.stdout = Some(stdout);
        // "hiss-serve: listening on 127.0.0.1:PORT, store DIR"
        server.addr = banner
            .strip_prefix("hiss-serve: listening on ")
            .and_then(|rest| rest.split(',').next())
            .ok_or_else(|| format!("unexpected serve banner {banner:?}"))?
            .to_string();
        let deadline = t0 + Duration::from_secs(30);
        loop {
            match TcpStream::connect(&server.addr) {
                Ok(probe) => {
                    drop(probe);
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("serve never accepted on {}: {e}", server.addr));
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    /// Asks the server to drain and exit, and reaps it.
    pub fn stop(mut self) -> Result<Exit, String> {
        let bye = (|| -> std::io::Result<String> {
            let mut conn = TcpStream::connect(&self.addr)?;
            conn.set_read_timeout(Some(crate::load::READ_TIMEOUT))?;
            conn.write_all(format!("{}\n", Request::Shutdown.encode()).as_bytes())?;
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line)?;
            Ok(line)
        })()
        .map_err(|e| format!("shutdown request failed: {e}"))?;
        if Response::decode(bye.trim_end()) != Ok(Response::Bye) {
            return Err(format!("shutdown answered with {bye:?}"));
        }
        // Drain the farewell line so the server never writes to a
        // closed pipe, then reap.
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut rest);
        }
        let child = self.child.take().expect("server is running");
        let exit = reap(child).map_err(|e| format!("reaping serve: {e}"))?;
        if !exit.ok {
            return Err("hiss-cli serve exited with a failure status".to_string());
        }
        Ok(exit)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a server behind.
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaping_reports_status_and_peak_rss() {
        let ok = reap(Command::new("true").spawn().unwrap()).unwrap();
        assert!(ok.ok);
        assert!(ok.maxrss_kib > 0);
        let failed = reap(Command::new("false").spawn().unwrap()).unwrap();
        assert!(!failed.ok);
    }

    #[test]
    fn an_overdue_child_is_killed_and_fails() {
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let t0 = Instant::now();
        let exit = reap_within(child, Duration::from_millis(100)).unwrap();
        assert!(!exit.ok);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
