//! The wire protocol: line-delimited JSON, one message per line.
//!
//! Rather than invent a serialization layer, every message is a
//! [`MetricsRegistry`] rendered with the existing byte-exact JSON codec
//! (`hiss-obs`): requests use `req.*` names, control responses use
//! `resp.*` names, and **cell results are bare cell snapshots** — the
//! exact registry `hiss-cli scenario run --metrics` would write for the
//! same cell, with no `resp.*` framing mixed in. That last property is
//! load-bearing: it lets a client (and the CI smoke test) `diff` a
//! served stream against a local batch run byte-for-byte.
//!
//! The codec escapes control characters inside strings, so a whole
//! multi-line `.hiss` file travels as a single `req.scenario` label on
//! one line.
//!
//! A response line is classified by the presence of the `resp.kind`
//! label: absent means cell snapshot; present means one of `rejected`
//! (with `resp.diag.<i>` diagnostic labels), `done` (with summary
//! counters), `error`, or `bye` (shutdown acknowledgement).
//!
//! Every message goes out through `send_line`: the line and its
//! newline in one write, then a flush. Writing them separately puts the
//! newline in a second small TCP segment, which Nagle's algorithm holds
//! until the peer acknowledges the first one — and a peer that delays
//! its acknowledgement stalls the line for about 40 ms.

use std::io::Write;

use hiss_obs::MetricsRegistry;

/// Writes one encoded message and its terminating newline as a single
/// write, then flushes, so the line leaves the process whole and at
/// once.
pub(crate) fn send_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Validate and execute a scenario, streaming cell snapshots back.
    Submit {
        /// Full text of the `.hiss` file.
        scenario: String,
        /// Run the quick workload subsets instead of the full grid.
        quick: bool,
    },
    /// Ask the server to stop accepting, drain, flush, and exit.
    Shutdown,
}

impl Request {
    /// Renders the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut m = MetricsRegistry::new();
        match self {
            Request::Submit { scenario, quick } => {
                m.label("req.kind", "submit");
                m.label("req.scenario", scenario);
                m.counter("req.quick", u64::from(*quick));
            }
            Request::Shutdown => {
                m.label("req.kind", "shutdown");
            }
        }
        m.to_json()
    }

    /// Parses one request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let m = MetricsRegistry::from_json(line)?;
        match m.label_value("req.kind") {
            Some("submit") => Ok(Request::Submit {
                scenario: m
                    .label_value("req.scenario")
                    .ok_or("submit request carries no req.scenario")?
                    .to_string(),
                quick: m.counter_value("req.quick").unwrap_or(0) != 0,
            }),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown req.kind {other:?}")),
            None => Err("request carries no req.kind label".to_string()),
        }
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission failed scenario lint; diagnostics are the
    /// rendered `file:line: severity[HLxxx]: message` strings.
    Rejected {
        /// Rendered diagnostics, in lint order.
        diagnostics: Vec<String>,
    },
    /// One cell's metrics snapshot (`cell.*` labels + run registry).
    Cell(MetricsRegistry),
    /// The submission completed; every cell snapshot has been streamed.
    Done {
        /// Cells in the submission's grid.
        cells: u64,
        /// Cells executed by the simulation engine.
        simulated: u64,
        /// Cells served from the disk store without simulating.
        from_store: u64,
    },
    /// The request could not be handled (malformed line, I/O failure).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Shutdown acknowledged; the server is draining.
    Bye,
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut m = MetricsRegistry::new();
        match self {
            Response::Cell(snapshot) => return snapshot.to_json(),
            Response::Rejected { diagnostics } => {
                m.label("resp.kind", "rejected");
                m.counter("resp.diags", diagnostics.len() as u64);
                for (i, d) in diagnostics.iter().enumerate() {
                    m.label(format!("resp.diag.{i}"), d);
                }
            }
            Response::Done {
                cells,
                simulated,
                from_store,
            } => {
                m.label("resp.kind", "done");
                m.counter("resp.cells", *cells);
                m.counter("resp.cells_simulated", *simulated);
                m.counter("resp.cells_from_store", *from_store);
            }
            Response::Error { message } => {
                m.label("resp.kind", "error");
                m.label("resp.error", message);
            }
            Response::Bye => {
                m.label("resp.kind", "bye");
            }
        }
        m.to_json()
    }

    /// Parses one response line. A line without `resp.kind` is a cell
    /// snapshot and is returned as [`Response::Cell`] verbatim.
    pub fn decode(line: &str) -> Result<Response, String> {
        let m = MetricsRegistry::from_json(line)?;
        let Some(kind) = m.label_value("resp.kind") else {
            return Ok(Response::Cell(m));
        };
        match kind {
            "rejected" => {
                let n = m.counter_value("resp.diags").unwrap_or(0);
                let mut diagnostics = Vec::with_capacity(n as usize);
                for i in 0..n {
                    diagnostics.push(
                        m.label_value(&format!("resp.diag.{i}"))
                            .ok_or_else(|| format!("rejected response missing resp.diag.{i}"))?
                            .to_string(),
                    );
                }
                Ok(Response::Rejected { diagnostics })
            }
            "done" => Ok(Response::Done {
                cells: m.counter_value("resp.cells").unwrap_or(0),
                simulated: m.counter_value("resp.cells_simulated").unwrap_or(0),
                from_store: m.counter_value("resp.cells_from_store").unwrap_or(0),
            }),
            "error" => Ok(Response::Error {
                message: m.label_value("resp.error").unwrap_or_default().to_string(),
            }),
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown resp.kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_including_multiline_scenarios() {
        let text = "[scenario]\nname = \"t\"\n[workload]\ncpu = [\"x264\"]\ngpu = [\"ubench\"]\n";
        let req = Request::Submit {
            scenario: text.to_string(),
            quick: true,
        };
        let line = req.encode();
        assert!(!line.contains('\n'), "request must be a single line");
        assert_eq!(Request::decode(&line).unwrap(), req);
        assert_eq!(
            Request::decode(&Request::Shutdown.encode()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn cell_responses_are_bare_snapshots() {
        let mut snap = MetricsRegistry::new();
        snap.label("cell.cpu_app", "x264");
        snap.counter("kernel.ipis", 9);
        let line = Response::Cell(snap.clone()).encode();
        assert_eq!(line, snap.to_json(), "no resp.* framing on cell lines");
        match Response::decode(&line).unwrap() {
            Response::Cell(m) => assert_eq!(m.to_json(), snap.to_json()),
            other => panic!("expected a cell, got {other:?}"),
        }
    }

    #[test]
    fn control_responses_round_trip() {
        let resp = Response::Rejected {
            diagnostics: vec![
                "t.hiss:3: error[HL002]: band is empty".to_string(),
                "t.hiss:9: warning[HL006]: degenerate".to_string(),
            ],
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let resp = Response::Done {
            cells: 12,
            simulated: 0,
            from_store: 12,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        assert_eq!(
            Response::decode(&Response::Bye.encode()).unwrap(),
            Response::Bye
        );
        let resp = Response::Error {
            message: "boom".to_string(),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    /// A `Write` that records every call it receives.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn each_line_reaches_the_writer_as_one_write_and_a_flush() {
        let mut snap = MetricsRegistry::new();
        // Longer than a `BufWriter`'s default 8 KiB buffer, so the line
        // also takes the buffer's pass-through path.
        snap.label("cell.note", "x".repeat(20_000));
        let lines = [
            Response::Cell(snap).encode(),
            Response::Done {
                cells: 1,
                simulated: 1,
                from_store: 0,
            }
            .encode(),
            Response::Bye.encode(),
        ];
        let mut direct = Recorder::default();
        let mut buffered = std::io::BufWriter::new(Recorder::default());
        for line in &lines {
            send_line(&mut direct, line.clone()).unwrap();
            send_line(&mut buffered, line.clone()).unwrap();
        }
        let buffered = buffered.into_inner().ok().unwrap();
        for rec in [direct, buffered] {
            assert_eq!(rec.writes.len(), lines.len(), "one write per line");
            assert_eq!(rec.flushes, lines.len(), "one flush per line");
            for (write, line) in rec.writes.iter().zip(&lines) {
                assert_eq!(write, format!("{line}\n").as_bytes());
            }
        }
    }

    /// A submission as long as the server accepts must decode in time
    /// linear in its length: a decoder that re-scans the rest of the
    /// line per character would hold a handler thread for minutes here.
    #[test]
    fn a_request_line_at_the_cap_round_trips() {
        let submit = |scenario: String| Request::Submit {
            scenario,
            quick: false,
        };
        // ASCII, two- to four-byte UTF-8, and every character the codec
        // escapes (quote, backslash, control characters), including at
        // the unit's ends.
        let unit = "\"[scenario]\nname = \"é€𝄞\\t\u{1}\"\r\n# ß ✓ \\\u{1f}";
        let framing = submit(String::new()).encode().len();
        let per_unit = submit(unit.to_string()).encode().len() - framing;
        let units = (crate::server::MAX_REQUEST_BYTES - framing) / per_unit;
        let req = submit(unit.repeat(units));
        let line = req.encode();
        assert!(line.len() <= crate::server::MAX_REQUEST_BYTES);
        assert!(line.len() + per_unit > crate::server::MAX_REQUEST_BYTES);
        assert_eq!(Request::decode(&line).unwrap(), req);
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{}").is_err());
        assert!(Response::decode("not json").is_err());
    }
}
