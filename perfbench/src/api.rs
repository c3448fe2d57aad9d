//! Every call the benchmark makes into the pipeline lives in this file.
//! The other modules time, check and report. When a pipeline entry
//! point changes, this is the one file that has to follow it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;

use nrlt_core::analysis::{analyze_view, replay_view, AnalysisConfig};
use nrlt_core::engineprof::{EngineProf, ProfBundle, RunProf};
use nrlt_core::exec::ExecResult;
use nrlt_core::measure_sys::{
    measure_prepared_spilled, prepare_measure, reference_run, reference_run_instrumented,
    ClockMode, MeasureConfig, MeasurePrep,
};
use nrlt_core::miniapps::{lulesh_1, minife_1, BenchmarkInstance, MiniFeConfig, MiniFeCosts};
use nrlt_core::observe::export::ObserveBundle;
use nrlt_core::observe::{Observe, RunObserve};
use nrlt_core::profile::{metric_table, Profile};
use nrlt_core::prog::PhaseId;
use nrlt_core::sim::{NoiseConfig, VirtualDuration};
use nrlt_core::telemetry::json::{self, Value};
use nrlt_core::telemetry::{write_exports, Manifest, Telemetry};
use nrlt_core::trace::TraceData;
use nrlt_core::{
    exec_config_for, measure_config_for, run_experiment, run_experiment_instrumented,
    ExperimentOptions, ExperimentResult, ModeResult,
};
use nrlt_serve::{Config, Kind, Server};

use crate::spans::{Guard, Recorder};
use crate::stats::proc_status_mib;

/// Seed of the archived exemplars (`ExperimentOptions::default`).
pub const DEFAULT_SEED: u64 = 1000;

/// Hotspot depth of the archived `report.json` severity sections.
const REPORT_TOP_N: usize = 10;

/// Resident trace budget of the out-of-core workload.
pub const TRACE_BUDGET: u64 = 64 << 20;

/// Ranks of the `scale` sweep's largest MiniFE size.
const WEAK_RANKS: u32 = 10_000;

fn span<'a>(rec: Option<&'a Recorder>, name: &str) -> Option<Guard<'a>> {
    rec.map(|r| r.span(name))
}

/// The program a pipeline workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Lulesh1,
    Minife1,
    MinifeWeak,
}

/// Build the program IR of `app`.
pub fn build(app: App) -> BenchmarkInstance {
    match app {
        App::Lulesh1 => lulesh_1(),
        App::Minife1 => minife_1(),
        // The `scale` sweep's MiniFE-weak-10000: ~1728 elements per rank.
        App::MinifeWeak => {
            let nx = ((1728 * WEAK_RANKS as u64) as f64).cbrt().round() as u64;
            let mut b = MiniFeConfig {
                nx,
                ranks: WEAK_RANKS,
                threads_per_rank: 1,
                imbalance_pct: 0,
                cg_iters: 5,
                costs: MiniFeCosts::default(),
            }
            .build();
            b.name = format!("MiniFE-weak-{WEAK_RANKS}");
            b.nodes = WEAK_RANKS.div_ceil(128);
            b
        }
    }
}

/// The measurement preparation `run_experiment` builds for `seed`.
pub fn prepare(instance: &BenchmarkInstance, seed: u64) -> MeasurePrep {
    prepare_measure(&instance.program, &exec_config_for(instance, &NoiseConfig::realistic(), seed))
}

/// The paper protocol at one worker (5 reference runs, all six modes).
pub fn protocol_options(seed: u64) -> ExperimentOptions {
    ExperimentOptions { jobs: 1, base_seed: seed, ..ExperimentOptions::default() }
}

/// `(severity_text, severity_json)` of a result, as `--report` writes them.
pub fn render(result: &ExperimentResult) -> (String, String) {
    (
        nrlt_report::severity_text(result, REPORT_TOP_N),
        nrlt_report::severity_json(result, REPORT_TOP_N),
    )
}

/// The plain pipeline: `run_experiment`, every probe off.
pub fn protocol(instance: &BenchmarkInstance, options: &ExperimentOptions) -> ExperimentResult {
    run_experiment(instance, options)
}

/// The three threaded probe sinks of the observed workload.
pub struct Probes {
    tel: Telemetry,
    obs: Observe,
    prof: EngineProf,
}

impl Probes {
    pub fn new() -> Probes {
        Probes { tel: Telemetry::new(), obs: Observe::new(), prof: EngineProf::new() }
    }
}

/// The pipeline with telemetry, observe and engineprof attached.
pub fn protocol_probed(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
    probes: &Probes,
) -> ExperimentResult {
    run_experiment_instrumented(
        instance,
        options,
        Some(&probes.tel),
        Some(&probes.obs),
        Some(&probes.prof),
    )
}

/// Write the observe, engineprof and telemetry bundles under `dir`
/// (`observe/`, `engineprof/`, `telemetry/`). Returns the observe
/// bundle's size in bytes.
pub fn export(probes: &Probes, dir: &Path, rec: Option<&Recorder>) -> io::Result<u64> {
    {
        let _s = span(rec, "observe.export");
        ObserveBundle::from_observe(&probes.obs).write(&dir.join("observe"))?;
    }
    {
        let _s = span(rec, "engineprof.export");
        ProfBundle::from_prof(&probes.prof).write(&dir.join("engineprof"))?;
    }
    {
        let _s = span(rec, "telemetry.export");
        // A literal manifest: `Manifest::new` would spawn `git`.
        let manifest = Manifest {
            bin: "perfbench".to_owned(),
            argv: Vec::new(),
            git_rev: String::new(),
            started_unix: 0,
            wall_seconds: 0.0,
            runs: Vec::new(),
        };
        write_exports(&dir.join("telemetry"), &probes.tel, &manifest)?;
    }
    let mut observe_bytes = 0;
    for entry in std::fs::read_dir(dir.join("observe"))? {
        observe_bytes += entry?.metadata()?.len();
    }
    Ok(observe_bytes)
}

/// `run_experiment_instrumented` at one worker, stage by stage, with a
/// span around every call: reference runs (`exec`), then each mode's
/// repetitions (`measure`, `analysis.replay`, `analysis`), then the
/// merge. The call order, seeds, analysis configuration and probe run
/// names are those of the library, so the result is identical to
/// [`protocol`] (or [`protocol_probed`] when `probes` is set).
/// `analysis.replay` is an extra `replay_view` call that times the
/// replay half of `analyze_view` on its own.
pub fn protocol_traced(
    instance: &BenchmarkInstance,
    options: &ExperimentOptions,
    probes: Option<&Probes>,
    rec: &Recorder,
) -> ExperimentResult {
    assert!(options.jobs == 1, "the traced protocol copies the one-worker schedule");
    let program = &instance.program;
    let tel = probes.map(|p| &p.tel);
    let prep = {
        let _s = rec.span("measure.prepare");
        prepare_measure(program, &exec_config_for(instance, &options.noise, options.base_seed))
    };
    let mut reference = Vec::new();
    for rep in 0..options.repetitions.max(1) {
        let _t = tel.map(|t| t.span_cat("experiment.reference", "experiment"));
        let name = format!("{}:ref:rep{rep}", instance.name);
        let run = probes.map(|_| RunObserve::new(name.clone()));
        let prof_run = probes.map(|_| RunProf::new(name));
        let cfg = exec_config_for(instance, &options.noise, options.base_seed + 100 + rep as u64);
        let result = {
            let _s = rec.span("exec");
            reference_run_instrumented(program, &cfg, run.as_ref(), prof_run.as_ref())
        };
        reference.push(result);
        attach(probes, run, prof_run, rec);
    }
    // One worker runs the cells, so each cell's delay phase gets every core.
    let acfg = AnalysisConfig { delay_costs: true, workers: 0 };
    let mut modes = Vec::new();
    for &mode in &options.modes {
        let mcfg = measure_config_for(instance, mode);
        let reps = if mode.is_noise_free() { 1 } else { options.repetitions.max(1) };
        let (mut profiles, mut run_times, mut phase_times, mut events) =
            (Vec::new(), Vec::new(), Vec::new(), 0);
        for rep in 0..reps {
            let _t = tel.map(|t| t.span_cat(format!("mode:{}", mode.name()), "experiment"));
            let (profile, result, phases) =
                cell(instance, &prep, &mcfg, options, &acfg, rep, probes, rec);
            profiles.push(profile);
            run_times.push(result.total);
            phase_times.push(phases);
            events += result.events;
        }
        let _s = rec.span("experiment.merge");
        let mean = Profile::mean(&profiles);
        modes.push(ModeResult { mode, profiles, mean, run_times, phase_times, events });
    }
    let events = reference.iter().map(|r| r.events).sum::<u64>()
        + modes.iter().map(|m| m.events).sum::<u64>();
    ExperimentResult {
        name: instance.name.clone(),
        reference,
        phase_names: program.phases.clone(),
        modes,
        events,
    }
}

#[allow(clippy::too_many_arguments)]
fn cell(
    instance: &BenchmarkInstance,
    prep: &MeasurePrep,
    mcfg: &MeasureConfig,
    options: &ExperimentOptions,
    acfg: &AnalysisConfig,
    rep: u32,
    probes: Option<&Probes>,
    rec: &Recorder,
) -> (Profile, ExecResult, BTreeMap<String, VirtualDuration>) {
    let tel = probes.map(|p| &p.tel);
    let name = format!("{}:{}:rep{rep}", instance.name, mcfg.mode.name());
    let run = probes.map(|_| RunObserve::new(name.clone()));
    let prof_run = probes.map(|_| RunProf::new(name));
    let cfg = exec_config_for(instance, &options.noise, options.base_seed + rep as u64);
    let (trace, result) = {
        let _s = rec.span("measure");
        measure_prepared_spilled(
            &instance.program,
            prep,
            &cfg,
            mcfg,
            options.trace_budget,
            tel,
            run.as_ref(),
            prof_run.as_ref(),
        )
    };
    rec.peak("measure.rss_mib", proc_status_mib("VmRSS"));
    {
        let _s = rec.span("analysis.replay");
        black_box(replay_view(&trace.view()));
    }
    let profile = {
        let _s = rec.span("analysis");
        analyze_view(&trace.view(), acfg, tel, run.as_ref())
    };
    rec.peak("analysis.rss_mib", proc_status_mib("VmRSS"));
    {
        let _s = rec.span("measure.free");
        drop(trace);
    }
    let phases = instance
        .program
        .phases
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), result.phase_max(PhaseId(i as u32))))
        .collect();
    if let Some(t) = tel {
        t.incr("experiment.repetitions");
    }
    attach(probes, run, prof_run, rec);
    (profile, result, phases)
}

fn attach(
    probes: Option<&Probes>,
    run: Option<RunObserve>,
    prof_run: Option<RunProf>,
    rec: &Recorder,
) {
    let _s = probes.map(|_| rec.span("probes.attach"));
    if let (Some(p), Some(run)) = (probes, run) {
        p.obs.attach(run);
    }
    if let (Some(p), Some(run)) = (probes, prof_run) {
        let (name, data) = run.finish();
        p.prof.attach(name, data);
    }
}

/// What one out-of-core pass produced.
#[derive(Debug)]
pub struct OutOfCore {
    /// Engine events of the reference run.
    pub exec_events: u64,
    /// Engine events of the measured run.
    pub measure_events: u64,
    /// Events recorded in the trace.
    pub trace_events: u64,
    /// Whether the trace came back as `TraceData::Spilled`.
    pub spilled: bool,
    /// Segment file size and `SegmentIndex` chunk count (0 if resident).
    pub spilled_bytes: u64,
    pub chunks: u64,
    /// `metric_table` of the tsc profile.
    pub rendered: String,
}

/// One reference run plus one tsc measurement under [`TRACE_BUDGET`],
/// analysed from the spilled segments and rendered — the `scale`
/// sweep's pipeline for one size. With `rec`, each stage runs under a
/// span and the replay is also timed on its own.
pub fn out_of_core(
    instance: &BenchmarkInstance,
    prep: &MeasurePrep,
    seed: u64,
    rec: Option<&Recorder>,
) -> OutOfCore {
    let noise = NoiseConfig::realistic();
    let program = &instance.program;
    let reference = {
        let _s = span(rec, "exec");
        reference_run(program, &exec_config_for(instance, &noise, seed + 100))
    };
    let mcfg = measure_config_for(instance, ClockMode::Tsc);
    let (trace, result) = {
        let _s = span(rec, "measure");
        let cfg = exec_config_for(instance, &noise, seed);
        measure_prepared_spilled(program, prep, &cfg, &mcfg, Some(TRACE_BUDGET), None, None, None)
    };
    if let Some(r) = rec {
        r.peak("measure.rss_mib", proc_status_mib("VmRSS"));
    }
    let (spilled, spilled_bytes, chunks) = match &trace {
        TraceData::Spilled(s) => {
            let index = s.index();
            let chunks = (0..index.n_locations()).map(|l| index.chunks(l).len() as u64).sum();
            (true, std::fs::metadata(s.path()).map_or(0, |m| m.len()), chunks)
        }
        TraceData::Resident(_) => (false, 0, 0),
    };
    if rec.is_some() {
        let _s = span(rec, "analysis.replay");
        black_box(replay_view(&trace.view()));
    }
    let profile = {
        let _s = span(rec, "analysis");
        analyze_view(&trace.view(), &AnalysisConfig::default(), None, None)
    };
    if let Some(r) = rec {
        r.peak("analysis.rss_mib", proc_status_mib("VmRSS"));
    }
    let trace_events = trace.total_events() as u64;
    {
        let _s = span(rec, "measure.free");
        drop(trace);
    }
    let rendered = {
        let _s = span(rec, "report");
        metric_table(&profile, 0.0)
    };
    OutOfCore {
        exec_events: reference.events,
        measure_events: result.events,
        trace_events,
        spilled,
        spilled_bytes,
        chunks,
        rendered,
    }
}

/// The bundles `query-serve` serves: kind, path under `results/`.
/// All four are committed; `results/telemetry/` is not, so no query
/// names it.
pub const SERVED: [(Kind, &str, &str); 4] = [
    (Kind::Report, "report/fig3", "report"),
    (Kind::Observe, "observe/fig3", "observe"),
    (Kind::Engineprof, "engineprof/fig3", "engineprof"),
    (Kind::Ledger, "", "ledger"),
];

/// The query mix: (route, target). A client draws uniformly from it.
pub const MIX: &[(&str, &str)] = &[
    ("severity", "/severity?bundle=report/fig3"),
    ("severity", "/severity?bundle=report/fig3&run=MiniFE-1&top=5"),
    ("severity", "/severity?bundle=report/fig3&run=LULESH-1&top=5"),
    ("severity", "/severity?bundle=report/fig3&run=LULESH-2&top=5"),
    ("observe", "/observe?bundle=observe/fig3&run=MiniFE-1:tsc:rep0&top=5"),
    ("observe", "/observe?bundle=observe/fig3&run=MiniFE-1:lt_hwctr:rep2&top=3"),
    ("engine", "/engine?bundle=engineprof/fig3&top=3"),
    ("engine", "/engine?bundle=engineprof/fig3&run=LULESH-1:tsc:rep0&top=5"),
    ("trend", "/trend"),
    ("trend", "/trend?key=fig3"),
    ("bundles", "/bundles"),
    ("stats", "/stats"),
];

/// The routes of [`MIX`].
pub const ROUTES: [&str; 6] = ["severity", "observe", "engine", "trend", "bundles", "stats"];

/// Routes whose bodies change from request to request.
pub const UNCHECKED_ROUTES: [&str; 1] = ["stats"];

/// The `pct_t` columns of a severity document's metric rows that belong
/// to noise-free clock modes (`lt_1`, `lt_loop`, `lt_bb`, `lt_stmt`),
/// rendered. Logical traces do not change with the noise seed, so these
/// columns are the same for every seed.
pub fn noise_free_columns(severity: &str) -> Result<String, String> {
    let doc = json::parse(severity)?;
    let modes = doc.get("modes").and_then(Value::as_arr).ok_or("no modes")?;
    let keep: Vec<usize> = modes
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            ClockMode::ALL.iter().any(|c| c.is_noise_free() && Some(c.name()) == m.as_str())
        })
        .map(|(i, _)| i)
        .collect();
    let mut out = String::new();
    for row in doc.get("metrics").and_then(Value::as_arr).ok_or("no metrics")? {
        let name = row.get("metric").and_then(Value::as_str).ok_or("metric without name")?;
        let cols = row.get("pct_t").and_then(Value::as_arr).ok_or("metric without pct_t")?;
        let picked: Vec<String> =
            keep.iter().map(|&i| cols.get(i).map_or("-".into(), json::render)).collect();
        out.push_str(&format!("{name} {}\n", picked.join(" ")));
    }
    Ok(out)
}

/// `json` parsed and rendered again, so documents compare by content.
pub fn canonical_json(json: &str) -> Result<String, String> {
    json::parse(json).map(|v| json::render(&v))
}

/// The severity section of run `name` in an archived `report.json`,
/// as [`canonical_json`].
pub fn archived_run(report: &str, name: &str) -> Result<String, String> {
    let doc = json::parse(report)?;
    let runs = doc.get("runs").and_then(Value::as_arr).ok_or("no runs")?;
    runs.iter()
        .find(|r| r.get("name").and_then(Value::as_str) == Some(name))
        .map(json::render)
        .ok_or_else(|| format!("no run {name}"))
}

/// Start `nrlt-serve` over `root` with two workers on an ephemeral port.
pub fn start_server(root: &Path) -> io::Result<Server> {
    let mut cfg = Config::new(root.to_path_buf());
    cfg.workers = 2;
    Server::start(cfg)
}

/// First-touch load of every served bundle into the server's store.
pub fn warm(server: &Server) -> Result<(), String> {
    for (kind, rel, _) in SERVED {
        server.shared().store().get(kind, rel, None).map_err(|e| format!("{rel:?}: {e:?}"))?;
    }
    Ok(())
}

/// Artifact parses the server's store has done.
pub fn parse_count(server: &Server) -> u64 {
    server.shared().store().parse_count()
}

/// Drain and join the server's threads.
pub fn stop(server: Server) -> io::Result<()> {
    server.join().map(drop)
}

/// One `Store::get` of a bundle on a fresh store.
pub fn load_fresh(root: &Path, kind: Kind, rel: &str) -> Result<(), String> {
    let store = nrlt_serve::Store::new(root, Config::new(root.to_path_buf()).cache_budget);
    let loaded = store.get(kind, rel, None).map_err(|e| format!("{rel:?}: {e:?}"))?;
    drop(black_box(loaded));
    Ok(())
}
