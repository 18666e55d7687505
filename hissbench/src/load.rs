//! The closed-loop load generator: one process, a few persistent
//! connections, each sending its next submission as soon as the
//! previous one's `done` line arrives.

use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hiss_serve::Response;

/// Longest a client waits for the next response line before counting
/// the submission as failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Order-sensitive digest of a stream of snapshot lines.
#[derive(Debug, Default)]
pub struct Digest(std::hash::DefaultHasher);

impl Digest {
    /// Adds one line (without its newline).
    pub fn line(&mut self, line: &str) {
        self.0.write(line.as_bytes());
        self.0.write_u8(b'\n');
    }

    /// The digest of every line added so far.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// What one submission returned.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Submission index in the generated order.
    pub index: usize,
    /// When the request was sent, seconds since the loop started.
    pub sent_s: f64,
    /// Request sent to `done` received, seconds.
    pub latency_s: f64,
    /// Request sent to first cell line received, seconds.
    pub first_cell_s: Option<f64>,
    /// Cell lines received.
    pub lines: u64,
    /// The `done` line's counters: cells, simulated, from store.
    pub done: (u64, u64, u64),
    /// Sum of `run.events_popped` over the received snapshots.
    pub events: u64,
    /// [`Digest`] of the received cell lines.
    pub digest: u64,
    /// Why the submission failed, if it did.
    pub error: Option<String>,
}

/// When the loop stops: once `warmup + seconds` have passed and at
/// least `min_done` submissions were sent after the warm-up, or at `cap`
/// regardless.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Unmeasured lead-in, seconds.
    pub warmup: f64,
    /// Measuring time.
    pub seconds: f64,
    /// Measured submissions the statistics need.
    pub min_done: usize,
    /// Hard limit, seconds.
    pub cap: f64,
}

/// Runs the closed loop against `addr` with `conns` connections.
/// `request(i)` renders submission `i`'s request line. Returns every
/// record in index order and the measured wall time: from the end of
/// the warm-up to the last `done`.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    stop: Stop,
    request: &(dyn Fn(usize) -> String + Sync),
) -> (Vec<Record>, f64) {
    let next = AtomicUsize::new(0);
    let measured = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let last_end = Mutex::new(Duration::ZERO);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn = match Connection::open(addr) {
                    Ok(c) => Some(c),
                    Err(e) => {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        records.lock().expect("records poisoned").push(Record {
                            index,
                            error: Some(format!("connect {addr}: {e}")),
                            ..Record::default()
                        });
                        None
                    }
                };
                while let Some(c) = conn.as_mut() {
                    let elapsed = t0.elapsed().as_secs_f64();
                    let done = measured.load(Ordering::SeqCst);
                    let enough = elapsed >= stop.warmup + stop.seconds && done >= stop.min_done;
                    if enough || elapsed >= stop.cap {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let line = request(index);
                    let sent_s = t0.elapsed().as_secs_f64();
                    let mut record = c.submit(index, &line);
                    record.sent_s = sent_s;
                    let broken = record.error.is_some();
                    records.lock().expect("records poisoned").push(record);
                    if sent_s >= stop.warmup {
                        measured.fetch_add(1, Ordering::SeqCst);
                    }
                    let mut last = last_end.lock().expect("clock poisoned");
                    *last = (*last).max(t0.elapsed());
                    drop(last);
                    if broken {
                        // The stream is out of step; the next submission
                        // gets a fresh connection.
                        conn = Connection::open(addr).ok();
                    }
                }
            });
        }
    });
    let mut records = records.into_inner().expect("records poisoned");
    records.sort_by_key(|r| r.index);
    let elapsed = last_end.into_inner().expect("clock poisoned").as_secs_f64() - stop.warmup;
    (records, elapsed.max(0.0))
}

/// One persistent client connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    /// Connects to `addr`.
    pub fn open(addr: &str) -> std::io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and reads its response stream to the
    /// `done` tail. Every failure is returned in the record, never
    /// raised.
    pub fn submit(&mut self, index: usize, request: &str) -> Record {
        let mut rec = Record {
            index,
            ..Record::default()
        };
        let mut digest = Digest::default();
        let t0 = Instant::now();
        let framed = format!("{request}\n");
        if let Err(e) = self.writer.write_all(framed.as_bytes()) {
            rec.error = Some(format!("send: {e}"));
            return rec;
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => {
                    rec.error = Some("connection closed mid-stream".to_string());
                    return rec;
                }
                Ok(_) => {}
                Err(e) => {
                    rec.error = Some(format!("receive: {e}"));
                    return rec;
                }
            }
            let text = self.line.trim_end_matches(['\r', '\n']);
            match Response::decode(text) {
                Ok(Response::Cell(m)) => {
                    if rec.first_cell_s.is_none() {
                        rec.first_cell_s = Some(t0.elapsed().as_secs_f64());
                    }
                    rec.lines += 1;
                    rec.events += m.counter_value("run.events_popped").unwrap_or(0);
                    digest.line(text);
                }
                Ok(Response::Done {
                    cells,
                    simulated,
                    from_store,
                }) => {
                    rec.latency_s = t0.elapsed().as_secs_f64();
                    rec.done = (cells, simulated, from_store);
                    rec.digest = digest.value();
                    return rec;
                }
                Ok(other) => {
                    rec.error = Some(format!("server answered {other:?}"));
                    return rec;
                }
                Err(e) => {
                    rec.error = Some(format!("undecodable line: {e}"));
                    return rec;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_connection_is_a_failed_operation() {
        // Bind a port, then free it: nothing listens there any more.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let stop = Stop {
            warmup: 0.0,
            seconds: 0.0,
            min_done: 0,
            cap: 5.0,
        };
        let (records, _) = closed_loop(&addr, 2, stop, &|_| "{}".to_string());
        assert_eq!(records.len(), 2, "one attempt per connection");
        assert!(records
            .iter()
            .all(|r| r.error.as_deref().unwrap().starts_with("connect")));
    }

    #[test]
    fn error_lines_and_dropped_streams_are_failed_operations() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            s.spawn(|| {
                // First connection: answer with resp.error. Second: one
                // cell line, then hang up before `done`.
                let (mut c, _) = listener.accept().unwrap();
                let mut r = BufReader::new(c.try_clone().unwrap());
                let mut l = String::new();
                r.read_line(&mut l).unwrap();
                let err = Response::Error {
                    message: "boom".to_string(),
                };
                writeln!(c, "{}", err.encode()).unwrap();
                let (mut c, _) = listener.accept().unwrap();
                let mut r = BufReader::new(c.try_clone().unwrap());
                r.read_line(&mut l).unwrap();
                writeln!(c, "{{\"run.events_popped\":3}}").unwrap();
            });
            let mut conn = Connection::open(&addr).unwrap();
            let rec = conn.submit(0, "{}");
            assert!(rec.error.unwrap().contains("Error"));
            let mut conn = Connection::open(&addr).unwrap();
            let rec = conn.submit(1, "{}");
            assert_eq!(rec.lines, 1);
            assert_eq!(rec.events, 3);
            assert!(rec.error.unwrap().contains("closed mid-stream"));
        });
    }

    #[test]
    fn digests_depend_on_content_and_order() {
        let d = |lines: &[&str]| {
            let mut d = Digest::default();
            lines.iter().for_each(|l| d.line(l));
            d.value()
        };
        assert_eq!(d(&["a", "b"]), d(&["a", "b"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_ne!(d(&["ab"]), d(&["a", "b"]));
    }
}
