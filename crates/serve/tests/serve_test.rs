//! End-to-end tests for `nrlt-serve` over real TCP sockets and the
//! committed exemplar bundles under `results/` (plus, for the full
//! catalog, a telemetry bundle each test run writes itself).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use nrlt_serve::{Config, Server};
use nrlt_telemetry::json::{self, Value};
use nrlt_telemetry::{write_exports, Manifest, Telemetry};

fn results_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A fresh results root for the full-catalog test: copies of the
/// committed exemplars plus a telemetry bundle written by a tiny
/// in-process run. Telemetry bundles are not committed (they carry
/// host timings), so the test makes its own instead of depending on a
/// regenerated `results/telemetry/`.
fn exemplar_root() -> PathBuf {
    let root = std::env::temp_dir().join(format!("nrlt_serve_exemplars_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for rel in ["report/fig3", "observe/fig3", "engineprof/fig3"] {
        copy_dir(&results_root().join(rel), &root.join(rel));
    }
    std::fs::copy(results_root().join("history.jsonl"), root.join("history.jsonl"))
        .expect("copy history.jsonl");

    let tel = Telemetry::new();
    {
        let _run = tel.span("experiment");
        let _cell = tel.span("measure.run");
        tel.add("exec.events", 42);
    }
    write_exports(&root.join("telemetry/fig3"), &tel, &Manifest::new("serve_test"))
        .expect("write telemetry bundle");
    root
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create bundle dir");
    for entry in std::fs::read_dir(from).expect("read exemplar dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy exemplar file");
        }
    }
}

fn start(root: PathBuf) -> Server {
    let mut cfg = Config::new(root);
    cfg.allow_shutdown = true;
    Server::start(cfg).expect("bind ephemeral port")
}

/// Minimal HTTP client: one request per connection, `Connection:
/// close`, returns (status, body bytes).
fn get(addr: std::net::SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("receive");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    (status, raw[head_end..].to_vec())
}

fn get_json(addr: std::net::SocketAddr, target: &str) -> (u16, Value) {
    let (status, body) = get(addr, target);
    let text = String::from_utf8(body).expect("utf-8 body");
    (status, json::parse(&text).unwrap_or_else(|e| panic!("{target}: bad JSON ({e}): {text}")))
}

#[test]
fn every_endpoint_serves_the_committed_exemplars() {
    let root = exemplar_root();
    let server = start(root.clone());
    let addr = server.addr();

    let (status, catalog) = get_json(addr, "/bundles");
    assert_eq!(status, 200);
    let bundles = catalog.get("bundles").and_then(Value::as_arr).expect("bundles array");
    let paths: Vec<&str> =
        bundles.iter().filter_map(|b| b.get("path").and_then(Value::as_str)).collect();
    assert!(paths.contains(&"report/fig3"), "catalog misses report/fig3: {paths:?}");
    assert!(paths.contains(&"observe/fig3"), "catalog misses observe/fig3: {paths:?}");
    assert!(paths.contains(&"engineprof/fig3"), "{paths:?}");
    assert!(paths.contains(&"telemetry/fig3"), "{paths:?}");
    // The telemetry exemplar ships a manifest; the catalog embeds it.
    let telem = bundles
        .iter()
        .find(|b| b.get("path").and_then(Value::as_str) == Some("telemetry/fig3"))
        .expect("telemetry row");
    assert!(telem.get("manifest").is_some(), "manifest.json not embedded");

    let (status, sev) = get_json(addr, "/severity?bundle=report/fig3&run=MiniFE-1&top=3");
    assert_eq!(status, 200);
    let runs = sev.get("runs").and_then(Value::as_arr).expect("runs");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("name").and_then(Value::as_str), Some("MiniFE-1"));
    let hotspots = runs[0].get("hotspots").and_then(Value::as_arr).expect("hotspots");
    assert!(hotspots.len() <= 3);

    let (status, folded) = get(addr, "/flamegraph?bundle=telemetry/fig3");
    assert_eq!(status, 200);
    let folded = String::from_utf8(folded).unwrap();
    assert!(folded.lines().any(|l| l.contains(';') || l.contains(' ')), "folded stacks empty");

    let (status, obs) = get_json(addr, "/observe?bundle=observe/fig3&top=3");
    assert_eq!(status, 200);
    assert!(obs.get("text").and_then(Value::as_str).is_some_and(|t| !t.is_empty()));

    let (status, eng) = get_json(addr, "/engine?bundle=engineprof/fig3&top=3");
    assert_eq!(status, 200);
    assert!(eng.get("text").and_then(Value::as_str).is_some_and(|t| !t.is_empty()));

    let (status, trend) = get_json(addr, "/trend");
    assert_eq!(status, 200);
    assert!(trend.get("records").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    // Unknown routes and bad parameters map to JSON errors.
    let (status, err) = get_json(addr, "/nope");
    assert_eq!(status, 404);
    assert!(err.get("error").is_some());
    let (status, err) = get_json(addr, "/severity");
    assert_eq!(status, 400, "{err:?}");
    let (status, err) = get_json(addr, "/severity?bundle=../../etc");
    assert_eq!(status, 400, "{err:?}");
    let (status, err) = get_json(addr, "/severity?bundle=report/fig3&run=NoSuchRun");
    assert_eq!(status, 404, "{err:?}");

    server.shared().request_stop();
    server.join().unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn concurrent_severity_is_byte_identical_and_single_flight() {
    let server = start(results_root());
    let addr = server.addr();
    let target = "/severity?bundle=report/fig3&top=5";

    // 16 concurrent first-touch clients: same bytes, one parse.
    let responses: Vec<(u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..16).map(|_| s.spawn(move || get(addr, target))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let serial = get(addr, target);
    assert_eq!(serial.0, 200);
    for (status, body) in &responses {
        assert_eq!(*status, 200);
        assert_eq!(body, &serial.1, "concurrent response differs from serial");
    }
    assert_eq!(
        server.shared().store().parse_count(),
        1,
        "16 concurrent first-touch requests must cost exactly one parse"
    );

    server.shared().request_stop();
    server.join().unwrap();
}

#[test]
fn stats_account_for_at_least_99_percent_of_requests() {
    let server = start(results_root());
    let addr = server.addr();
    let mix = [
        "/severity?bundle=report/fig3",
        "/engine?bundle=engineprof/fig3&top=2",
        "/trend",
        "/bundles",
        "/",
    ];
    let sent = 100;
    for i in 0..sent {
        let (status, _) = get(addr, mix[i % mix.len()]);
        assert_eq!(status, 200);
    }
    let (status, stats) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    let counted = stats
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .and_then(Value::as_f64)
        .expect("serve.requests counter");
    // `counted` was snapshotted while the /stats request itself was
    // still in flight, so it covers at least the `sent` requests.
    assert!(
        counted >= 0.99 * sent as f64,
        "self-telemetry accounts for {counted} of {sent} requests"
    );
    assert!(stats.get("latency").and_then(|l| l.get("p99_ns")).is_some(), "latency percentiles");
    assert!(stats.get("cache").and_then(|c| c.get("parses")).is_some(), "cache stats");

    server.shared().request_stop();
    server.join().unwrap();
}

#[test]
fn corrupt_bundles_are_json_errors_and_the_server_survives() {
    let root = std::env::temp_dir().join("nrlt_serve_corrupt");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("bad")).unwrap();
    std::fs::write(root.join("bad/report.json"), "{\"runs\": [{\"name\": oops").unwrap();
    std::fs::write(root.join("history.jsonl"), "").unwrap();
    let server = start(root.clone());
    let addr = server.addr();

    let (status, err) = get_json(addr, "/severity?bundle=bad");
    assert_eq!(status, 500);
    let msg = err.get("error").and_then(Value::as_str).expect("error message");
    assert!(msg.contains("report.json"), "error lacks path context: {msg}");

    // The worker that hit the corrupt bundle still serves.
    let (status, _) = get_json(addr, "/stats");
    assert_eq!(status, 200);

    server.shared().request_stop();
    server.join().unwrap();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn shutdown_endpoint_drains_and_flushes_the_telemetry_bundle() {
    let export = std::env::temp_dir().join("nrlt_serve_export");
    let _ = std::fs::remove_dir_all(&export);
    let mut cfg = Config::new(results_root());
    cfg.allow_shutdown = true;
    cfg.telemetry_dir = Some(export.clone());
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let (status, _) = get_json(addr, "/severity?bundle=report/fig3");
    assert_eq!(status, 200);
    let (status, body) = get_json(addr, "/shutdown");
    assert_eq!(status, 200);
    assert_eq!(body.get("draining"), Some(&Value::Bool(true)));
    server.wait_for_stop();
    let shared = server.join().unwrap();
    assert!(shared.stopping());

    // The flushed bundle loads like any other telemetry bundle and
    // carries the request accounting.
    let bundle = nrlt_report::Bundle::load(&export).expect("exported bundle loads");
    assert!(bundle.counters.get("serve.requests").copied().unwrap_or(0) >= 2);
    assert!(bundle.hists.contains_key("serve.request_ns"), "latency histogram exported");
    let manifest = std::fs::read_to_string(export.join("manifest.json")).unwrap();
    assert!(manifest.contains("nrlt-serve"));
    std::fs::remove_dir_all(&export).unwrap();
}

#[test]
fn shutdown_is_hidden_unless_enabled() {
    let mut cfg = Config::new(results_root());
    cfg.allow_shutdown = false;
    let server = Server::start(cfg).unwrap();
    let (status, _) = get_json(server.addr(), "/shutdown");
    assert_eq!(status, 404);
    assert!(!server.shared().stopping(), "disabled /shutdown must not stop the server");
    server.shared().request_stop();
    server.join().unwrap();
}
