//! The client half of the protocol: one-shot helpers behind
//! `hiss-cli submit`.
//!
//! Snapshots are returned as the server's *raw lines* (not re-encoded),
//! so a caller can diff a served stream against a local
//! `scenario run --metrics` file byte-for-byte.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use crate::protocol::{send_line, Request, Response};

/// The outcome of one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The scenario failed lint; rendered diagnostics in lint order.
    Rejected {
        /// `file:line: severity[HLxxx]: message` strings.
        diagnostics: Vec<String>,
    },
    /// Every cell streamed back.
    Completed {
        /// Raw cell snapshot lines, in grid order.
        snapshots: Vec<String>,
        /// Cells in the grid.
        cells: u64,
        /// Cells the server simulated.
        simulated: u64,
        /// Cells served from the disk store.
        from_store: u64,
    },
}

/// Submits scenario text to the server at `addr`, collecting the
/// streamed snapshot lines.
pub fn submit(addr: &str, scenario: &str, quick: bool) -> std::io::Result<Submission> {
    let conn = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let req = Request::Submit {
        scenario: scenario.to_string(),
        quick,
    };
    send_line(&mut writer, req.encode())?;

    let mut snapshots = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-stream",
            ));
        }
        let text = line.trim_end_matches(['\r', '\n']);
        match Response::decode(text).map_err(invalid_data)? {
            Response::Cell(_) => snapshots.push(text.to_string()),
            Response::Done {
                cells,
                simulated,
                from_store,
            } => {
                // A `done` tail must account for every snapshot line: a
                // short stream (server restarted mid-grid, proxy cut the
                // connection and replayed a stale tail) is truncation,
                // not a small result set.
                if snapshots.len() as u64 != cells {
                    return Err(invalid_data(format!(
                        "truncated stream: server reported {cells} cells \
                         but streamed {} snapshot(s)",
                        snapshots.len()
                    )));
                }
                return Ok(Submission::Completed {
                    snapshots,
                    cells,
                    simulated,
                    from_store,
                });
            }
            Response::Rejected { diagnostics } => return Ok(Submission::Rejected { diagnostics }),
            Response::Error { message } => return Err(invalid_data(message)),
            Response::Bye => {
                return Err(invalid_data(
                    "unexpected shutdown acknowledgement to a submission".to_string(),
                ))
            }
        }
    }
}

/// Asks the server at `addr` to shut down gracefully; returns once the
/// shutdown is acknowledged (draining continues server-side).
pub fn shutdown(addr: &str) -> std::io::Result<()> {
    let conn = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    send_line(&mut writer, Request::Shutdown.encode())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match Response::decode(line.trim_end_matches(['\r', '\n'])).map_err(invalid_data)? {
        Response::Bye => Ok(()),
        other => Err(invalid_data(format!(
            "expected a shutdown acknowledgement, got {other:?}"
        ))),
    }
}

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
