//! `nrlt-perfbench`: the pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! all tracing off; with `--trace 1` they are the per-layer ones from a
//! traced run. See `perfbench/README.md` for the metric table.

mod api;
mod load;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use api::{App, DEFAULT_SEED};
use spans::Recorder;
use stats::{check, fnv1a, median, proc_status_mib, tail_percentile, Metrics, Tally};

/// Fresh set-ups per run: at least `MIN_SETUPS`, and more until they
/// took `SETUP_SECONDS` together (at most `MAX_SETUPS`). `setup_s` is
/// their median; a set-up of a few milliseconds needs many to be steady.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 101;
const SETUP_SECONDS: f64 = 1.0;

/// Archived exemplars the workloads check against.
const RESULTS: &str = "results";
const ARCHIVED_REPORT: &str = "results/report/fig3/report.json";
const ARCHIVED_OBSERVE: &str = "results/observe/fig3/observe.jsonl";

/// Where traced runs write their spans and where spill segments and
/// probe bundles go while a run lasts.
const OUT_DIR: &str = "perfbench/out";

/// fig3 LULESH-1 under the paper protocol: engine events over all 19
/// cells. The count does not depend on the noise seed.
const PAPER_EVENTS: u64 = 49_542_272;

/// MiniFE-weak-10000 (one reference run, one tsc measurement): engine
/// events, recorded trace events, and the FNV-1a digest of the rendered
/// tsc profile at the default seed.
const OOC_EVENTS: u64 = 11_800_000;
const OOC_TRACE_EVENTS: u64 = 5_900_000;
const OOC_DIGEST: u64 = 0x3428_ec63_2ca7_be98;

/// Client connections (and server workers) of `query-serve`.
const CLIENTS: usize = 2;

/// Requests `query-serve` sends per second of `--seconds`: a fixed
/// count, so that the server's per-request memory growth, and with it
/// peak RSS, does not follow the host's speed. About the rate of a
/// 2-core host, so a run lasts about `--seconds`.
const REQUESTS_PER_SECOND: f64 = 10_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperProtocol,
    OutOfCore,
    ObservedProtocol,
    QueryServe,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("paper-protocol", Workload::PaperProtocol),
        ("out-of-core", Workload::OutOfCore),
        ("observed-protocol", Workload::ObservedProtocol),
        ("query-serve", Workload::QueryServe),
    ];

    fn name(self) -> &'static str {
        Workload::ALL.iter().find(|(_, w)| *w == self).map(|(n, _)| *n).expect("listed")
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| *n == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new(RESULTS).is_dir() {
        eprintln!("error: no {RESULTS}/ directory here; run from the repository root");
        return ExitCode::FAILURE;
    }
    // Spill segments and probe bundles stay inside the checkout.
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    std::env::set_var("TMPDIR", &tmp);

    let outcome = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    match outcome.and_then(|(metrics, tally)| metrics.result_line(&tally)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, tmp: &Path) -> Result<(Metrics, Tally), String> {
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let rec = Recorder::default();
    let mut tally = Tally::default();
    let metrics = match (args.workload, args.trace) {
        (Workload::QueryServe, false) => query_serve(args, &mut tally)?,
        (Workload::QueryServe, true) => query_serve_traced(args, &rec, &mut tally)?,
        (w, false) => pipeline(w, args, tmp, &mut tally)?,
        (w, true) => pipeline_traced(w, args, tmp, &rec, &mut tally)?,
    };
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
        std::fs::write(&path, rec.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    Ok((metrics, tally))
}

fn read(path: impl AsRef<Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Run `setup` repeatedly (see [`MIN_SETUPS`]), each time anew
/// after tearing the previous result down. Returns the median time and
/// the last result.
fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(f64, T), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&times).expect("MIN_SETUPS > 0");
    eprintln!("  set-up: median {setup_s:.4} s of {}", times.len());
    Ok((setup_s, last.expect("MIN_SETUPS > 0")))
}

/// Repeat `pass` until the next one would overrun `seconds` (at least
/// once). Each pass returns its work count and its failed checks.
/// Returns (wall seconds, work count) of the passes to report: the
/// first pass runs on a cold heap, so it is left out when there are
/// others.
fn timed_passes(
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut() -> Result<(u64, Vec<String>), String>,
) -> Result<Vec<(f64, u64)>, String> {
    let start = Instant::now();
    let mut out: Vec<(f64, u64)> = Vec::new();
    loop {
        let t = Instant::now();
        let (work, failures) = pass()?;
        let wall = t.elapsed().as_secs_f64();
        tally.record("pass", &failures);
        eprintln!("  pass {}: {wall:.3} s, {work} events", out.len());
        out.push((wall, work));
        if start.elapsed().as_secs_f64() + wall > seconds {
            if out.len() > 1 {
                out.remove(0);
            }
            return Ok(out);
        }
    }
}

fn app(workload: Workload) -> App {
    match workload {
        Workload::PaperProtocol => App::Lulesh1,
        Workload::ObservedProtocol => App::Minife1,
        Workload::OutOfCore => App::MinifeWeak,
        Workload::QueryServe => unreachable!("not a pipeline workload"),
    }
}

/// The checks of one paper-protocol result.
fn check_paper(events: u64, severity: &str, archived: &str, seed: u64) -> Vec<String> {
    let mut f = Vec::new();
    check(&mut f, events == PAPER_EVENTS, || format!("{events} events, expected {PAPER_EVENTS}"));
    if seed == DEFAULT_SEED {
        let ours = api::canonical_json(severity);
        check(&mut f, ours.as_deref() == Ok(archived), || {
            format!("LULESH-1 severity differs from {ARCHIVED_REPORT}")
        });
    }
    let ours = api::noise_free_columns(severity);
    let theirs = api::noise_free_columns(archived);
    check(&mut f, ours.is_ok() && ours == theirs, || {
        format!("noise-free mode columns differ from {ARCHIVED_REPORT}: {ours:?} vs {theirs:?}")
    });
    f
}

/// The checks of one out-of-core pass.
fn check_out_of_core(o: &api::OutOfCore, seed: u64) -> Vec<String> {
    let mut f = Vec::new();
    check(&mut f, o.spilled, || "trace stayed resident".into());
    let events = o.exec_events + o.measure_events;
    check(&mut f, events == OOC_EVENTS, || format!("{events} events, expected {OOC_EVENTS}"));
    check(&mut f, o.trace_events == OOC_TRACE_EVENTS, || {
        format!("{} trace events, expected {OOC_TRACE_EVENTS}", o.trace_events)
    });
    if seed == DEFAULT_SEED {
        let digest = fnv1a(o.rendered.as_bytes());
        check(&mut f, digest == OOC_DIGEST, || {
            format!("profile digest {digest:#018x}, expected {OOC_DIGEST:#018x}")
        });
    }
    f
}

/// One observed-protocol pass: probed run, render, and bundle export
/// into `dir`. Returns the result, its `severity_json`, and the observe
/// bundle's size.
fn observed_pass(
    instance: &nrlt_core::miniapps::BenchmarkInstance,
    options: &nrlt_core::ExperimentOptions,
    dir: &Path,
    rec: Option<&Recorder>,
) -> Result<(nrlt_core::ExperimentResult, String, u64), String> {
    let probes = api::Probes::new();
    let result = match rec {
        Some(r) => api::protocol_traced(instance, options, Some(&probes), r),
        None => api::protocol_probed(instance, options, &probes),
    };
    let (_text, json) = {
        let _s = rec.map(|r| r.span("report"));
        api::render(&result)
    };
    let observe_bytes = api::export(&probes, dir, rec)
        .map_err(|e| format!("cannot export bundles to {}: {e}", dir.display()))?;
    Ok((result, json, observe_bytes))
}

/// The `observe.jsonl` an observed pass wrote into `dir`.
fn written_observe(dir: &Path) -> Result<Vec<u8>, String> {
    let path = dir.join("observe/observe.jsonl");
    std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Engine events of the reference runs and of the measured runs.
fn split_events(result: &nrlt_core::ExperimentResult) -> (u64, u64) {
    (result.reference.iter().map(|r| r.events).sum(), result.modes.iter().map(|m| m.events).sum())
}

/// The checks of one observed-protocol pass. At the default seed the
/// bundle must be the archived one; at any seed, the same as the
/// first pass of the run.
fn check_observed(observe: &[u8], first: &[u8], archived: &[u8], seed: u64) -> Vec<String> {
    let mut f = Vec::new();
    if seed == DEFAULT_SEED {
        check(&mut f, observe == archived, || {
            format!("observe.jsonl differs from {ARCHIVED_OBSERVE}")
        });
    }
    check(&mut f, observe == first, || "observe.jsonl differs from the run's first pass".into());
    f
}

/// End-to-end run of a pipeline workload.
fn pipeline(w: Workload, args: &Args, tmp: &Path, tally: &mut Tally) -> Result<Metrics, String> {
    let seed = args.seed;
    let (setup_s, (instance, prep)) = timed_setups(
        || {
            let instance = api::build(app(w));
            let prep = api::prepare(&instance, seed);
            Ok((instance, prep))
        },
        |_| Ok(()),
    )?;
    let options = api::protocol_options(seed);
    let passes = match w {
        Workload::PaperProtocol => {
            drop(prep);
            let archived = api::archived_run(&read(ARCHIVED_REPORT)?, "LULESH-1")?;
            timed_passes(args.seconds, tally, || {
                let result = api::protocol(&instance, &options);
                let (_text, json) = api::render(&result);
                Ok((result.events, check_paper(result.events, &json, &archived, seed)))
            })?
        }
        Workload::OutOfCore => timed_passes(args.seconds, tally, || {
            let o = api::out_of_core(&instance, &prep, seed, None);
            Ok((o.exec_events + o.measure_events, check_out_of_core(&o, seed)))
        })?,
        Workload::ObservedProtocol => {
            drop(prep);
            let archived = std::fs::read(ARCHIVED_OBSERVE)
                .map_err(|e| format!("cannot read {ARCHIVED_OBSERVE}: {e}"))?;
            let dir = tmp.join("bundles");
            let mut first: Option<Vec<u8>> = None;
            let mut last_json = String::new();
            let passes = timed_passes(args.seconds, tally, || {
                let (result, json, _) = observed_pass(&instance, &options, &dir, None)?;
                let observe = written_observe(&dir)?;
                let first = first.get_or_insert_with(|| observe.clone());
                let failures = check_observed(&observe, first, &archived, seed);
                last_json = json;
                Ok((result.events, failures))
            })?;
            // Probes must not change the result: a plain run, untimed.
            let plain = api::protocol(&instance, &options);
            let mut f = Vec::new();
            check(&mut f, api::render(&plain).1 == last_json, || {
                "probed severity differs from the plain run's".into()
            });
            tally.record("probe transparency", &f);
            passes
        }
        Workload::QueryServe => unreachable!("handled by query_serve"),
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let rates: Vec<f64> = passes.iter().map(|&(wall, work)| work as f64 / wall).collect();
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("wall_s", median(&walls).expect("one pass"), "s");
    m.push("work_per_s", median(&rates).expect("one pass"), "1/s");
    m.push("peak_rss_mib", proc_status_mib("VmHWM"), "MiB");
    Ok(m)
}

/// Traced run of a pipeline workload: set-ups and one pass under spans,
/// then one plain pass for the tracing overhead and result identity.
fn pipeline_traced(
    w: Workload,
    args: &Args,
    tmp: &Path,
    rec: &Recorder,
    tally: &mut Tally,
) -> Result<Metrics, String> {
    let seed = args.seed;
    let (_, (instance, prep)) = timed_setups(
        || {
            let _s = rec.span("setup");
            let instance = {
                let _s = rec.span("miniapps.build");
                api::build(app(w))
            };
            rec.peak("miniapps.rss_mib", proc_status_mib("VmRSS"));
            let prep = {
                let _p = rec.span("measure.prepare");
                api::prepare(&instance, seed)
            };
            Ok((instance, prep))
        },
        |_| Ok(()),
    )?;
    let options = api::protocol_options(seed);
    let mut c = Counts::default();
    let (traced_wall, plain_wall) = match w {
        Workload::PaperProtocol => {
            drop(prep);
            let archived = api::archived_run(&read(ARCHIVED_REPORT)?, "LULESH-1")?;
            let t = Instant::now();
            let (result, json) = {
                let _s = rec.span("pass");
                let result = api::protocol_traced(&instance, &options, None, rec);
                let _r = rec.span("report");
                let (_text, json) = api::render(&result);
                (result, json)
            };
            let traced_wall = t.elapsed().as_secs_f64();
            tally.record("traced pass", &check_paper(result.events, &json, &archived, seed));
            (c.exec_events, c.measure_events) = split_events(&result);
            let t = Instant::now();
            let plain = api::protocol(&instance, &options);
            let (_text, plain_json) = api::render(&plain);
            let plain_wall = t.elapsed().as_secs_f64();
            let mut f = check_paper(plain.events, &plain_json, &archived, seed);
            check(&mut f, plain_json == json, || "traced severity differs from plain".into());
            tally.record("plain pass", &f);
            (traced_wall, plain_wall)
        }
        Workload::OutOfCore => {
            let t = Instant::now();
            let traced = {
                let _s = rec.span("pass");
                api::out_of_core(&instance, &prep, seed, Some(rec))
            };
            let traced_wall = t.elapsed().as_secs_f64();
            tally.record("traced pass", &check_out_of_core(&traced, seed));
            (c.exec_events, c.measure_events) = (traced.exec_events, traced.measure_events);
            (c.spilled_bytes, c.chunks) = (traced.spilled_bytes, traced.chunks);
            let t = Instant::now();
            let plain = api::out_of_core(&instance, &prep, seed, None);
            let plain_wall = t.elapsed().as_secs_f64();
            let mut f = check_out_of_core(&plain, seed);
            check(&mut f, plain.rendered == traced.rendered, || {
                "traced profile differs from plain".into()
            });
            tally.record("plain pass", &f);
            (traced_wall, plain_wall)
        }
        Workload::ObservedProtocol => {
            drop(prep);
            let archived = std::fs::read(ARCHIVED_OBSERVE)
                .map_err(|e| format!("cannot read {ARCHIVED_OBSERVE}: {e}"))?;
            let dir = tmp.join("traced");
            let t = Instant::now();
            let (result, json, observe_bytes) = {
                let _s = rec.span("pass");
                observed_pass(&instance, &options, &dir, Some(rec))?
            };
            let traced_wall = t.elapsed().as_secs_f64();
            let observe = written_observe(&dir)?;
            tally.record("traced pass", &check_observed(&observe, &observe, &archived, seed));
            (c.exec_events, c.measure_events) = split_events(&result);
            c.observe_bytes = observe_bytes;
            // The same cells with no probe attached, traced the same way.
            let bare = Recorder::default();
            let bare_result = {
                let _s = bare.span("pass");
                api::protocol_traced(&instance, &options, None, &bare)
            };
            let mut f = Vec::new();
            check(&mut f, api::render(&bare_result).1 == json, || {
                "probed severity differs from the unprobed run's".into()
            });
            tally.record("unprobed traced pass", &f);
            let pct = |probed: f64, bare: f64| (probed / bare - 1.0) * 100.0;
            c.probe_overhead = (
                pct(rec.total("measure"), bare.total("measure")),
                pct(rec.total("analysis"), bare.total("analysis")),
            );
            let path = Path::new(OUT_DIR).join("spans-observed-protocol-unprobed.jsonl");
            std::fs::write(&path, bare.to_jsonl())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let dir = tmp.join("plain");
            let t = Instant::now();
            let (_, plain_json, _) = observed_pass(&instance, &options, &dir, None)?;
            let plain_wall = t.elapsed().as_secs_f64();
            let mut f = check_observed(&written_observe(&dir)?, &observe, &archived, seed);
            check(&mut f, plain_json == json, || "traced severity differs from plain".into());
            tally.record("plain pass", &f);
            (traced_wall, plain_wall)
        }
        Workload::QueryServe => unreachable!("handled by query_serve_traced"),
    };
    let coverage = rec.coverage_pct("pass");
    let mut f = Vec::new();
    check(&mut f, coverage >= 95.0, || format!("layer spans cover {coverage:.1}% of the pass"));
    tally.record("span coverage", &f);
    Ok(per_layer(rec, &c, (traced_wall / plain_wall - 1.0) * 100.0, coverage))
}

/// What a traced run knows besides its spans. Fields of layers the
/// workload does not run stay 0.
#[derive(Debug, Default)]
struct Counts {
    exec_events: u64,
    measure_events: u64,
    spilled_bytes: u64,
    chunks: u64,
    observe_bytes: u64,
    /// `measure.s` and `analysis.s` with probes vs without, percent.
    probe_overhead: (f64, f64),
    parses: u64,
    query_p99_ms: f64,
}

/// `n / secs`, or 0 for a layer that did not run.
fn rate(n: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        n / secs
    } else {
        0.0
    }
}

/// Every per-layer metric, from the traced run's spans and counts.
fn per_layer(rec: &Recorder, c: &Counts, tracing_overhead_pct: f64, coverage_pct: f64) -> Metrics {
    let median_of =
        |name: &str, scale: f64| median(&rec.durations(name)).map_or(0.0, |secs| secs * scale);
    let exec_s = rec.total("exec");
    let exec_rate = rate(c.exec_events as f64, exec_s);
    let measure_s = rec.total("measure");
    let (analysis_s, replay_s) = (rec.total("analysis"), rec.total("analysis.replay"));
    let mut m = Metrics::default();
    m.push("miniapps.build_s", median_of("miniapps.build", 1.0), "s");
    m.push("miniapps.rss_mib", rec.peak_of("miniapps.rss_mib"), "MiB");
    m.push("measure.prepare_s", median_of("measure.prepare", 1.0), "s");
    m.push("exec.s", exec_s, "s");
    m.push("exec.events", c.exec_events as f64, "count");
    m.push("exec.events_per_s", exec_rate, "1/s");
    m.push("measure.s", measure_s, "s");
    m.push("measure.events", c.measure_events as f64, "count");
    m.push("measure.events_per_s", rate(c.measure_events as f64, measure_s), "1/s");
    let engine_s = if exec_rate > 0.0 { c.measure_events as f64 / exec_rate } else { measure_s };
    m.push("measure.observer_s", measure_s - engine_s, "s");
    m.push("measure.rss_mib", rec.peak_of("measure.rss_mib"), "MiB");
    m.push("trace.spilled_mib", c.spilled_bytes as f64 / (1u64 << 20) as f64, "MiB");
    m.push("trace.chunks", c.chunks as f64, "count");
    m.push("analysis.s", analysis_s, "s");
    m.push("analysis.replay_s", replay_s, "s");
    m.push("analysis.attribution_s", analysis_s - replay_s, "s");
    m.push("analysis.rss_mib", rec.peak_of("analysis.rss_mib"), "MiB");
    m.push("report.render_s", rec.total("report"), "s");
    m.push("observe.export_s", rec.total("observe.export"), "s");
    m.push("observe.bytes", c.observe_bytes as f64, "bytes");
    m.push("engineprof.export_s", rec.total("engineprof.export"), "s");
    m.push("telemetry.export_s", rec.total("telemetry.export"), "s");
    m.push("probes.measure_overhead_pct", c.probe_overhead.0, "%");
    m.push("probes.analysis_overhead_pct", c.probe_overhead.1, "%");
    for (_, _, name) in api::SERVED {
        m.push(
            &format!("serve.load_ms.{name}"),
            median_of(&format!("serve.load.{name}"), 1e3),
            "ms",
        );
    }
    for route in api::ROUTES {
        let p50 = median_of(&format!("serve.{route}"), 1e3);
        m.push(&format!("serve.route_p50_ms.{route}"), p50, "ms");
    }
    m.push("serve.parses", c.parses as f64, "count");
    m.push("serve.query_p99_ms", c.query_p99_ms, "ms");
    m.push("tracing_overhead_pct", tracing_overhead_pct, "%");
    m.push("spans.coverage_pct", coverage_pct, "%");
    m
}

/// A started, warmed server and the serial reference body of every
/// query in the mix (`None` for routes whose body changes per request).
struct Service {
    server: nrlt_serve::Server,
    reference: Vec<Option<Vec<u8>>>,
}

fn stop(server: nrlt_serve::Server) -> Result<(), String> {
    api::stop(server).map_err(|e| format!("stopping server: {e}"))
}

/// Fresh servers (see [`timed_setups`]), each started and warmed; every one but
/// the last is stopped. The last one gets its serial reference
/// responses.
fn serve_setups(rec: Option<&Recorder>) -> Result<(f64, Service), String> {
    let root = PathBuf::from(RESULTS);
    let (setup_s, server) = timed_setups(
        || {
            let _s = rec.map(|r| r.span("setup"));
            let server = {
                let _s = rec.map(|r| r.span("serve.start"));
                api::start_server(&root).map_err(|e| format!("starting server: {e}"))?
            };
            let _s = rec.map(|r| r.span("serve.warm"));
            api::warm(&server)?;
            Ok(server)
        },
        stop,
    )?;
    let mut conn = load::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut reference = Vec::new();
    for (route, target) in api::MIX {
        let mut body = Vec::new();
        let status =
            load::get(&mut conn, target, &mut body).map_err(|e| format!("{target}: {e}"))?;
        if status != 200 {
            return Err(format!("reference request {target} returned {status}"));
        }
        reference.push((!api::UNCHECKED_ROUTES.contains(route)).then_some(body));
    }
    Ok((setup_s, Service { server, reference }))
}

/// One closed-loop load phase of `seconds × REQUESTS_PER_SECOND`
/// requests: returns every sample, the 200 count, the phase's start and
/// its wall time. Failures go to `tally`.
fn load_phase(
    service: &Service,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<load::Sample>, u64, Instant, f64) {
    let addr = service.server.addr();
    let total = (seconds * REQUESTS_PER_SECOND).ceil() as u64;
    let taken = AtomicU64::new(0);
    let start = Instant::now();
    let runs: Vec<load::ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (reference, taken) = (&service.reference, &taken);
                let seed = seed ^ (i as u64 + 1);
                s.spawn(move || load::client(addr, seed, api::MIX, reference, start, taken, total))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    // Sized exactly: growing by doubling would make peak RSS jump.
    let mut samples = Vec::with_capacity(runs.iter().map(|r| r.samples.len()).sum());
    let mut ok = 0;
    for run in runs {
        for m in &run.messages {
            eprintln!("check failed (request): {m}");
        }
        tally.attempted += run.ok + run.failed;
        tally.failed += run.failed;
        ok += run.ok;
        samples.extend(run.samples);
    }
    (samples, ok, start, wall)
}

/// The store must have parsed each served bundle exactly once.
fn check_parses(server: &nrlt_serve::Server, tally: &mut Tally) -> u64 {
    let parses = api::parse_count(server);
    let mut f = Vec::new();
    check(&mut f, parses == api::SERVED.len() as u64, || {
        format!("{parses} bundle parses, expected {}", api::SERVED.len())
    });
    tally.record("parse count", &f);
    parses
}

fn latencies_s(samples: &[load::Sample]) -> Vec<f64> {
    samples.iter().map(load::Sample::latency_s).collect()
}

/// End-to-end run of `query-serve`.
fn query_serve(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let (setup_s, service) = serve_setups(None)?;
    let (samples, ok, _, wall) = load_phase(&service, args.seed, args.seconds, tally);
    check_parses(&service.server, tally);
    stop(service.server)?;
    let latencies = latencies_s(&samples);
    eprintln!("  {} requests in {wall:.2} s", samples.len());
    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("wall_s", median(&latencies).ok_or("no requests completed")?, "s");
    m.push("work_per_s", ok as f64 / wall, "1/s");
    m.push("peak_rss_mib", proc_status_mib("VmHWM"), "MiB");
    Ok(m)
}

/// Traced run of `query-serve`: set-ups and fresh-store loads under
/// spans, a plain load phase, then a load phase whose requests are
/// recorded as spans — each with half the requests.
fn query_serve_traced(args: &Args, rec: &Recorder, tally: &mut Tally) -> Result<Metrics, String> {
    let (_, service) = serve_setups(Some(rec))?;
    let root = PathBuf::from(RESULTS);
    for (kind, rel, name) in api::SERVED {
        for _ in 0..MIN_SETUPS {
            let _s = rec.span(&format!("serve.load.{name}"));
            api::load_fresh(&root, kind, rel)?;
        }
    }
    let half = args.seconds / 2.0;
    let (plain, _, _, plain_wall) = load_phase(&service, args.seed, half, tally);
    let (traced, traced_wall) = {
        let _s = rec.span("load");
        let (traced, _, start, wall) = load_phase(&service, args.seed ^ 0x5eed, half, tally);
        for s in &traced {
            let at = start + Duration::from_micros(s.start_us as u64);
            let route = api::MIX[s.target as usize].0;
            rec.record(&format!("serve.{route}"), at, Duration::from_nanos(s.latency_ns as u64));
        }
        (traced, wall)
    };
    let c = Counts {
        parses: check_parses(&service.server, tally),
        query_p99_ms: tail_percentile(&latencies_s(&plain), 0.99, 10)
            .ok_or("too few requests for a p99 with ten samples beyond it")?
            * 1e3,
        ..Counts::default()
    };
    stop(service.server)?;
    let per_request = |wall: f64, n: usize| wall / n.max(1) as f64;
    let overhead = per_request(traced_wall, traced.len()) / per_request(plain_wall, plain.len());
    // Two clients run at once: the share of client time spent inside a
    // request span.
    let busy: f64 = traced.iter().map(load::Sample::latency_s).sum();
    let coverage = busy / (CLIENTS as f64 * traced_wall) * 100.0;
    Ok(per_layer(rec, &c, (overhead - 1.0) * 100.0, coverage))
}
