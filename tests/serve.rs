//! End-to-end tests for the serving subsystem (`docs/SERVE.md`), in the
//! style of `tests/bench.rs`: real `hiss-cli serve` processes, real TCP
//! submissions, and the committed `scenarios/fig3.hiss`.
//!
//! The acceptance pin: a second identical submission performs **zero**
//! simulations (every cell comes from the disk store) and streams
//! `cell.*` snapshot lines byte-identical both to the first submission
//! and to a direct `hiss-cli scenario run --metrics` file — under
//! `HISS_THREADS=1` and `HISS_THREADS=8` alike.
//!
//! Corruption handling is fixture-driven (`tests/store_fixtures/`),
//! mirroring `tests/lint_fixtures/`: each corrupt entry shape must be
//! detected, counted under `bench.serve.store_invalid`, recomputed, and
//! healed in place.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use hiss::DiskStore;
use hiss_serve::{cell_store_key, Response, Service};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hiss-cli"));
    cmd.current_dir(repo_root());
    cmd
}

/// A `hiss-cli serve` child bound to an OS-assigned port, parsed from
/// its first stdout line.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(store: &Path, threads: &str) -> ServerProc {
        let mut child = cli()
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store",
                store.to_str().unwrap(),
                "--threads",
                threads,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(child.stdout.as_mut().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .split("listening on ")
            .nth(1)
            .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
            .split(',')
            .next()
            .unwrap()
            .trim()
            .to_string();
        ServerProc { child, addr }
    }

    /// Asks the server to shut down and waits for a clean exit.
    fn shutdown(mut self) {
        let out = cli()
            .args(["submit", "--shutdown", "--addr", &self.addr])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "shutdown failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let status = self.child.wait().unwrap();
        assert!(status.success(), "server exited with {status}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Parses the client's stderr summary: `submit: cells=N simulated=N
/// from_store=N`.
fn summary(stderr: &str) -> (u64, u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("submit: "))
        .unwrap_or_else(|| panic!("no submit summary in:\n{stderr}"));
    let field = |key: &str| -> u64 {
        line.split(&format!("{key}="))
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
    };
    (field("cells"), field("simulated"), field("from_store"))
}

fn submit_fig3(addr: &str, out: &Path) -> (u64, u64, u64) {
    let run = cli()
        .args([
            "submit",
            "scenarios/fig3.hiss",
            "--quick",
            "--addr",
            addr,
            "--metrics",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert!(run.status.success(), "submit failed:\n{stderr}");
    summary(&stderr)
}

fn walk(dir: &Path) -> Vec<PathBuf> {
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

/// The full acceptance loop for one server worker count.
fn resubmission_is_pure_store_hits(threads: &str) {
    let store = tmp(&format!("serve_store_t{threads}"));
    let _ = std::fs::remove_dir_all(&store);
    let server = ServerProc::start(&store, threads);

    // Ground truth: the same grid run directly, metrics to a file.
    let direct = tmp(&format!("serve_direct_t{threads}.jsonl"));
    let out = cli()
        .args([
            "scenario",
            "run",
            "scenarios/fig3.hiss",
            "--quick",
            "--no-check",
            "--metrics",
            direct.to_str().unwrap(),
        ])
        .env("HISS_THREADS", threads)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "scenario run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // First submission: a wiped store simulates everything.
    let served1 = tmp(&format!("serve_first_t{threads}.jsonl"));
    let (cells, simulated, from_store) = submit_fig3(&server.addr, &served1);
    assert!(cells > 0);
    assert_eq!((simulated, from_store), (cells, 0), "first pass");

    // Streamed snapshots are byte-identical to the direct run's file.
    let direct_text = std::fs::read_to_string(&direct).unwrap();
    let served_text = std::fs::read_to_string(&served1).unwrap();
    assert_eq!(
        served_text, direct_text,
        "served stream diverges from `scenario run --metrics` (HISS_THREADS={threads})"
    );

    // Second identical submission: zero simulations, byte-identical.
    let served2 = tmp(&format!("serve_second_t{threads}.jsonl"));
    let (cells2, simulated2, from_store2) = submit_fig3(&server.addr, &served2);
    assert_eq!(
        (cells2, simulated2, from_store2),
        (cells, 0, cells),
        "re-submission must be 100% store hits"
    );
    assert_eq!(
        std::fs::read_to_string(&served2).unwrap(),
        served_text,
        "re-served stream diverges (HISS_THREADS={threads})"
    );

    // Graceful shutdown drains and leaves no write temporaries.
    server.shutdown();
    let torn: Vec<_> = walk(&store)
        .into_iter()
        .filter(|p| p.to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        torn.is_empty(),
        "torn temporaries survive shutdown: {torn:?}"
    );

    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn resubmission_is_pure_store_hits_serial() {
    resubmission_is_pure_store_hits("1");
}

#[test]
fn resubmission_is_pure_store_hits_parallel() {
    resubmission_is_pure_store_hits("8");
}

const TINY: &str = r#"
[scenario]
name = "tiny"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

/// A fake server: accepts one connection, reads the request line, plays
/// back the given response lines verbatim, and closes the socket —
/// the wire behaviour of a server killed (or cut by a proxy) mid-stream.
///
/// Same sanction as the serve accept loop (see lint.toml): a
/// transport-only thread that never touches simulation state.
#[allow(clippy::disallowed_methods)]
fn fake_server(lines: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        use std::io::Write;
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut req = String::new();
        reader.read_line(&mut req).unwrap();
        let mut writer = conn;
        for line in &lines {
            writeln!(writer, "{line}").unwrap();
        }
        writer.flush().unwrap();
    });
    (addr, handle)
}

/// One plausible-looking cell snapshot line (no `resp.*` framing).
fn cell_line() -> String {
    let mut m = hiss::MetricsRegistry::new();
    m.label("cell.cpu_app", "x264");
    m.counter("kernel.ipis", 9);
    Response::Cell(m).encode()
}

/// A `done` tail claiming more cells than were streamed must be a hard
/// protocol error, not a successful short run: a server restarted
/// mid-grid (or a replayed stale tail) silently losing cells is exactly
/// the failure a batch pipeline cannot be allowed to absorb.
#[test]
fn done_tail_undercounting_the_stream_is_a_protocol_error() {
    let done = Response::Done {
        cells: 3,
        simulated: 3,
        from_store: 0,
    };
    let (addr, handle) = fake_server(vec![cell_line(), done.encode()]);
    let err = hiss_serve::submit(&addr, TINY, false).unwrap_err();
    handle.join().unwrap();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") && msg.contains("3 cells") && msg.contains("1 snapshot"),
        "unhelpful truncation error: {msg}"
    );
}

/// A connection that closes with no tail at all (killed server) is an
/// error too — never a zero-cell success.
#[test]
fn eof_mid_stream_is_an_error_not_a_short_run() {
    let (addr, handle) = fake_server(vec![cell_line()]);
    let err = hiss_serve::submit(&addr, TINY, false).unwrap_err();
    handle.join().unwrap();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// The `hiss-cli submit` process must propagate a truncated stream as a
/// nonzero exit with the protocol error on stderr — and write nothing
/// to the `--metrics` file path.
#[test]
fn cli_submit_exits_nonzero_on_a_truncated_stream() {
    let done = Response::Done {
        cells: 2,
        simulated: 2,
        from_store: 0,
    };
    let (addr, handle) = fake_server(vec![cell_line(), done.encode()]);
    let out_path = tmp("truncated_submit.jsonl");
    let _ = std::fs::remove_file(&out_path);
    let out = cli()
        .args([
            "submit",
            "scenarios/fig3.hiss",
            "--addr",
            &addr,
            "--metrics",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    handle.join().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        !out.status.success(),
        "truncated stream exited zero:\n{stderr}"
    );
    assert!(stderr.contains("truncated"), "stderr: {stderr}");
    assert!(
        !out_path.exists(),
        "a truncated stream must not produce a metrics file"
    );
}

const TINY_TOPOLOGY: &str = r#"
[scenario]
name = "tiny"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
[topology]
devices = ["gpu", "nic"]
steer = [-1, 3]
"#;

/// Store-identity regression: `TINY` and `TINY_TOPOLOGY` resolve to the
/// same `Knobs` (the topology fixes gpus = 1) and the same app names,
/// so before the key incorporated the topology they collided to one
/// cached result — a NIC-laden run served from a NIC-free entry.
#[test]
fn store_keys_differ_for_cells_differing_only_in_topology() {
    let plain = hiss_scenario::Scenario::from_str(TINY).unwrap();
    let topo = hiss_scenario::Scenario::from_str(TINY_TOPOLOGY).unwrap();
    let plain_cell = hiss_scenario::expand(&plain, false).remove(0);
    let topo_cell = hiss_scenario::expand(&topo, false).remove(0);
    assert_eq!(
        format!("{:?}", plain_cell.knobs),
        format!("{:?}", topo_cell.knobs),
        "collision precondition: the knobs alone cannot tell these apart"
    );
    assert_ne!(
        cell_store_key(&plain_cell),
        cell_store_key(&topo_cell),
        "store key must incorporate the [topology]"
    );
}

/// The collision, end to end: warm the store with the plain scenario,
/// then submit the topology variant — it must simulate, not be served
/// the plain scenario's cached result.
#[test]
fn topology_cells_never_hit_a_plain_cells_store_entry() {
    let dir = tmp("topology_key_collision");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskStore::open(&dir).unwrap());
    let service = Service::new(Some(Arc::clone(&store)), 2);

    let mut plain = Vec::new();
    service
        .submit("tiny", TINY, false, |m| plain.push(m.to_json()))
        .unwrap();
    let mut topo = Vec::new();
    let s = service
        .submit("tiny_topology", TINY_TOPOLOGY, false, |m| {
            topo.push(m.to_json())
        })
        .unwrap();
    assert_eq!(
        (s.cells, s.simulated, s.from_store),
        (1, 1, 0),
        "the topology cell must not be served from the plain cell's entry"
    );
    assert!(
        topo[0].contains("run.aux_ssrs_raised") && topo[0].contains("cell.topology"),
        "topology snapshot lacks its device metrics: {}",
        &topo[0]
    );
    assert_ne!(plain, topo);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every committed corruption fixture must be detected (not crash, not
/// serve garbage), counted under `bench.serve.store_invalid`, fall back
/// to a fresh simulation, and leave a healed entry behind.
#[test]
fn corrupt_store_entries_are_detected_recomputed_and_healed() {
    let fixtures_dir = repo_root().join("tests/store_fixtures");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&fixtures_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 4,
        "expected the corruption fixture set, found {fixtures:?}"
    );

    let sc = hiss_scenario::Scenario::from_str(TINY).unwrap();
    let cell = hiss_scenario::expand(&sc, false).remove(0);
    let key = cell_store_key(&cell);

    for fixture in &fixtures {
        let name = fixture.file_stem().unwrap().to_string_lossy();
        let dir = tmp(&format!("corrupt_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskStore::open(&dir).unwrap());

        // Plant the corrupt fixture where the cell's entry belongs.
        let entry = store.entry_path(&key);
        std::fs::create_dir_all(entry.parent().unwrap()).unwrap();
        std::fs::copy(fixture, &entry).unwrap();

        let service = Service::new(Some(Arc::clone(&store)), 2);
        let mut streamed = Vec::new();
        let s = service
            .submit("tiny", TINY, false, |m| streamed.push(m.to_json()))
            .unwrap();
        assert_eq!(
            (s.cells, s.simulated, s.from_store),
            (1, 1, 0),
            "{name}: corrupt entry must fall back to recompute"
        );
        assert_eq!(store.invalid_count(), 1, "{name}: not counted invalid");

        let mut reg = hiss::MetricsRegistry::new();
        service.publish(&mut reg, "bench.serve");
        assert_eq!(
            reg.counter_value("bench.serve.store_invalid"),
            Some(1),
            "{name}"
        );

        // The recompute healed the entry: a fresh store loads it clean.
        let reread = DiskStore::open(&dir).unwrap();
        assert!(
            reread.load(&key).is_some(),
            "{name}: entry not healed after recompute"
        );
        assert_eq!(reread.invalid_count(), 0, "{name}: healed entry invalid");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
