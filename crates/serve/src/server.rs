//! The TCP front end: accept loop, per-connection handlers, graceful
//! shutdown.
//!
//! Concurrency here is *transport-only*: connection handlers run on OS
//! threads (scoped, so the accept loop owns their lifetime), but every
//! simulation they trigger goes through [`Service::submit`], whose
//! results are deterministic regardless of scheduling and which runs
//! every connection's cells on the service's one worker pool. The
//! determinism lint allowlists exactly this file for `std::thread` (see
//! `lint.toml`); nothing here touches simulated state.
//!
//! # Shutdown
//!
//! There is no signal handling in a std-only crate, so shutdown is a
//! protocol control message ([`Request::Shutdown`]): the handler acks
//! with `bye`, sets the shutdown flag, and wakes the accept loop with a
//! throwaway connection to its own address. The accept loop stops
//! accepting, the thread scope joins every in-flight handler (draining
//! their submissions to completion; an idle handler notices the flag
//! within `IDLE_POLL` and hangs up), and the store is flushed —
//! removing this process's leftover `*.tmp.<pid>` write intermediates
//! so no torn entry outlives the process. Entry *publication* was
//! already atomic (write-then-rename), so even an abrupt kill cannot
//! tear a published entry; the flush only tidies temporaries.
// Sanctioned exemption (see lint.toml): scoped OS threads for the
// accept loop and connection handlers; simulation state is untouched.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::{send_line, Request, Response};
use crate::service::Service;

/// Longest request line the server reads, newline excluded (1 MiB, far
/// above any scenario pack). A client that sends more without a newline
/// gets one `resp.error` line and the connection is closed, so a
/// newline-less stream cannot grow a handler's buffer without limit.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How long a handler waits on a silent client before it looks at the
/// shutdown flag again. Without it, a client that connects and sends
/// nothing would keep its handler, and so [`Server::run`], alive forever.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A bound (but not yet running) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds to `addr` (`host:port`; port 0 picks a free port).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Accepts and serves connections until a shutdown request arrives,
    /// then drains every in-flight submission and flushes the store.
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                scope.spawn(move || {
                    // A dropped connection mid-stream is the client's
                    // problem; the server stays up.
                    let _ = self.handle(conn);
                });
            }
            // Leaving the scope joins every handler: in-flight
            // submissions finish streaming before we continue.
        });
        if let Some(store) = self.service.store() {
            store.flush()?;
        }
        Ok(())
    }

    /// Flags shutdown and wakes the accept loop so [`Self::run`] can
    /// return. Safe to call from any thread.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.listener.local_addr() {
            // The accept loop observes the flag on its next iteration;
            // this throwaway connection guarantees there is one.
            drop(TcpStream::connect(addr));
        }
    }

    /// Serves one connection: a sequence of request lines, each
    /// answered by one or more response lines.
    ///
    /// Every response line goes out through `send_line` on a
    /// `TCP_NODELAY` socket behind a [`BufWriter`]: one write per line,
    /// flushed at once, so no line waits on Nagle's algorithm for the
    /// client's (delayed) acknowledgement of the previous one.
    ///
    /// Request lines are read at most [`MAX_REQUEST_BYTES`] plus the
    /// newline at a time; a longer line ends the connection. Reads time
    /// out every [`IDLE_POLL`]: once shutdown is flagged, that ends the
    /// connection; otherwise the handler keeps reading, keeping any
    /// partial line.
    fn handle(&self, conn: TcpStream) -> std::io::Result<()> {
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(IDLE_POLL))?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = BufWriter::new(conn);
        let mut line = Vec::new();
        loop {
            let limit = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
            match (&mut reader).take(limit).read_until(b'\n', &mut line) {
                Ok(_) if line.is_empty() => return Ok(()), // client hung up
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            if line.len() > MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                return send_line(&mut writer, Response::Error { message }.encode());
            }
            let request = std::mem::take(&mut line);
            let text = std::str::from_utf8(&request)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?
                .trim_end_matches(['\r', '\n']);
            if text.is_empty() {
                continue;
            }
            match Request::decode(text) {
                Err(message) => send_line(&mut writer, Response::Error { message }.encode())?,
                Ok(Request::Shutdown) => {
                    send_line(&mut writer, Response::Bye.encode())?;
                    self.initiate_shutdown();
                    return Ok(());
                }
                Ok(Request::Submit { scenario, quick }) => {
                    let mut stream_err: Option<std::io::Error> = None;
                    let result = self.service.submit("submission", &scenario, quick, |line| {
                        if stream_err.is_none() {
                            stream_err = send_line(&mut writer, line).err();
                        }
                    });
                    if let Some(e) = stream_err {
                        // Best effort: if the socket is only half-broken
                        // (client still reading), a `resp.error` tail
                        // turns a silent hang-up into a protocol error
                        // the client can report. Usually this write
                        // fails too; either way the stream never ends
                        // in a `done` that undercounts its cells.
                        let message = format!("stream aborted: {e}");
                        let _ = send_line(&mut writer, Response::Error { message }.encode());
                        return Err(e);
                    }
                    let tail = match result {
                        Ok(s) => Response::Done {
                            cells: s.cells,
                            simulated: s.simulated,
                            from_store: s.from_store,
                        },
                        Err(diags) => Response::Rejected {
                            diagnostics: diags.iter().map(|d| d.to_string()).collect(),
                        },
                    };
                    send_line(&mut writer, tail.encode())?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Submission};
    use hiss::DiskStore;
    use std::io::Write;

    const TINY: &str = r#"
[scenario]
name = "tiny"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    // Same sanction as the accept loop above (see lint.toml): a
    // transport-only thread so the test can drive the server it hosts.
    #[allow(clippy::disallowed_methods)]
    fn start(store: Option<Arc<DiskStore>>) -> (Arc<Server>, std::thread::JoinHandle<()>) {
        let server =
            Arc::new(Server::bind("127.0.0.1:0", Arc::new(Service::new(store, 2))).unwrap());
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run().unwrap());
        (server, handle)
    }

    #[test]
    fn submissions_stream_and_shutdown_drains() {
        let dir = std::env::temp_dir().join(format!("hiss_serve_server_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let (server, handle) = start(Some(Arc::clone(&store)));
        let addr = server.local_addr().unwrap().to_string();

        // Rejection carries diagnostics inline.
        match client::submit(&addr, "[scenario]\nname = \"t\"\n", false).unwrap() {
            Submission::Rejected { diagnostics } => {
                assert!(diagnostics[0].contains("HL000"), "{diagnostics:?}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        // First submission simulates; the re-submission is 100% store
        // hits with byte-identical snapshot lines.
        let first = match client::submit(&addr, TINY, false).unwrap() {
            Submission::Completed {
                snapshots,
                cells,
                simulated,
                from_store,
            } => {
                assert_eq!((cells, simulated, from_store), (1, 1, 0));
                snapshots
            }
            other => panic!("expected completion, got {other:?}"),
        };
        match client::submit(&addr, TINY, false).unwrap() {
            Submission::Completed {
                snapshots,
                simulated,
                from_store,
                ..
            } => {
                assert_eq!((simulated, from_store), (0, 1));
                assert_eq!(snapshots, first);
            }
            other => panic!("expected completion, got {other:?}"),
        }

        // Shutdown acks, drains, and leaves no write temporaries.
        client::shutdown(&addr).unwrap();
        handle.join().unwrap();
        let leftovers: Vec<_> = walk(&dir)
            .into_iter()
            .filter(|p| p.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "torn temporaries: {leftovers:?}");
        // One served cell, one entry.
        assert_eq!(store.write_count(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_requests_get_an_error_line_and_keep_the_connection() {
        let (server, handle) = start(None);
        let addr = server.local_addr().unwrap();

        let conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        writeln!(writer, "this is not json").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim_end()).unwrap() {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("expected an error line, got {other:?}"),
        }
        // The connection survives and still serves shutdown.
        writeln!(writer, "{}", Request::Shutdown.encode()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::decode(line.trim_end()).unwrap(), Response::Bye);
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_line_gets_an_error_line_and_is_closed() {
        let (server, handle) = start(None);
        let addr = server.local_addr().unwrap();

        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        // One byte past the cap, and no newline ever.
        writer
            .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim_end()).unwrap() {
            Response::Error { message } => assert!(message.contains("exceeds"), "{message}"),
            other => panic!("expected an error line, got {other:?}"),
        }
        // Then the server closes the connection: EOF, not a timeout.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line:?}");

        server.initiate_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn a_request_line_split_by_a_pause_is_read_whole() {
        let (server, handle) = start(None);
        let conn = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        // Half a line, then a pause longer than the idle poll: the read
        // times out in between, and the first half must be kept.
        let request = format!("{}\n", Request::Shutdown.encode());
        let (head, tail) = request.split_at(request.len() / 2);
        writer.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(IDLE_POLL * 3);
        writer.write_all(tail.as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::decode(line.trim_end()).unwrap(), Response::Bye);
        handle.join().unwrap();
    }

    // Same sanction as `start`: the server runs on a transport-only
    // thread that reports when `run` returns.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn shutdown_returns_while_an_idle_client_stays_connected() {
        let server =
            Arc::new(Server::bind("127.0.0.1:0", Arc::new(Service::new(None, 1))).unwrap());
        let addr = server.local_addr().unwrap();
        let runner = Arc::clone(&server);
        let (done, returned) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            runner.run().unwrap();
            let _ = done.send(());
        });

        // A client that connects and never sends a byte.
        let idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        client::shutdown(&addr.to_string()).unwrap();
        assert!(
            returned
                .recv_timeout(std::time::Duration::from_secs(10))
                .is_ok(),
            "run() did not return while an idle client stayed connected"
        );
        // The idle client's handler hung up on it.
        let mut rest = Vec::new();
        assert_eq!((&idle).read_to_end(&mut rest).unwrap(), 0);
    }

    fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    out.extend(walk(&p));
                } else {
                    out.push(p);
                }
            }
        }
        out
    }
}
