//! The traced run: per-layer numbers for one workload.
//!
//! Tracing lives entirely in the benchmark. The run has two halves:
//!
//! 1. an untraced end-to-end pass (the same loop as `--trace 0`), which
//!    gives the end-to-end p50 the layers must account for and, on the
//!    serve workloads, the server's own `/metrics` counters;
//! 2. an in-process replay of the same request stream in which the
//!    benchmark calls each layer's public functions itself, in the order
//!    the solver facade and the server call them, timing every call and
//!    reading each layer's public counters.
//!
//! Re-sent bodies are skipped in the replay: the server answers them from
//! its exact-body request cache without reaching any traced layer.

use crate::check;
use crate::e2e::{self, client_count, Outcome};
use crate::stats::{median, ms};
use crate::streams::{body, Stream, Workload};
use mc3_core::json::Json;
use mc3_core::{Certificate, ClassifierUniverse, InstanceStats, Solution};
use mc3_solver::components::connected_components;
use mc3_solver::executor;
use mc3_solver::general::solve_general_scratch;
use mc3_solver::preprocess::preprocess;
use mc3_solver::reduction::ReductionScratch;
use mc3_solver::work::WorkState;
use mc3_solver::{Algorithm, Mc3Solver, SolveCache, SolverConfig};
use mc3_telemetry::{Aggregator, ScopedSession, Session, SpanData};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fewest fresh requests the replay traces, however short the run.
const MIN_REPLAYED: usize = 3;

/// Solve-cache budget of the replay: `mc3 serve`'s default `--cache-mb`.
const CACHE_MB: usize = 64;

/// One layer of the table the traced run prints: its modules, metrics,
/// and the end-to-end metric and workload each is expected to move.
pub struct Layer {
    /// The module(s) the layer is made of.
    pub modules: &'static str,
    /// Its per-layer metric names.
    pub metrics: &'static [&'static str],
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
    /// Whether the layer runs on `solve-synthetic`'s end-to-end path
    /// (every layer runs on the serve workloads' path).
    pub offline_path: bool,
}

/// The layer → end-to-end → workload table.
pub const LAYERS: &[Layer] = &[
    Layer {
        modules: "mc3-workload::io + mc3-core::json",
        metrics: &["io.decode_ms", "io.encode_ms"],
        moves: "latency_p50_ms on both serve workloads",
        offline_path: false,
    },
    Layer {
        modules: "mc3-core::universe",
        metrics: &["universe.build_ms", "universe.classifiers"],
        moves: "throughput_per_s on solve-synthetic",
        offline_path: true,
    },
    Layer {
        modules: "mc3-solver::preprocess",
        metrics: &["preprocess.ms", "preprocess.passes", "preprocess.removed"],
        moves: "throughput_per_s on solve-synthetic; latency_p50_ms on serve-private",
        offline_path: true,
    },
    Layer {
        modules: "mc3-solver::components",
        metrics: &["components.count", "components.largest_queries"],
        moves: "none (describes the work)",
        offline_path: true,
    },
    Layer {
        modules: "mc3-core::canon + mc3-solver::cache",
        metrics: &[
            "cache.overhead_ms",
            "cache.hit_ratio",
            "cache.misses",
            "cache.evictions",
            "cache.resident_mb",
        ],
        moves: "latency_p50_ms on serve-private (cost) and serve-shapes (benefit)",
        offline_path: false,
    },
    Layer {
        modules: "mc3-solver::general/k2 over mc3-setcover/mc3-lp/mc3-flow",
        metrics: &["solve_core.ms"],
        moves: "throughput_per_s on serve-shapes",
        offline_path: true,
    },
    Layer {
        modules: "mc3-solver::executor",
        metrics: &[
            "executor.tasks",
            "executor.steals",
            "executor.thread_spawns",
        ],
        moves: "throughput_per_s on serve-shapes",
        offline_path: false,
    },
    Layer {
        modules: "mc3-telemetry",
        metrics: &["telemetry.spans_per_request", "telemetry.overhead_ms"],
        moves: "latency_p50_ms on serve-shapes",
        offline_path: false,
    },
    Layer {
        modules: "mc3-core::certificate",
        metrics: &["certificate.ms"],
        moves: "latency_p50_ms on both serve workloads",
        offline_path: false,
    },
    Layer {
        modules: "mc3-server",
        metrics: &[
            "server.request_cache_hit_ratio",
            "server.dropped",
            "server.unattributed_ms",
        ],
        moves: "throughput_per_s on serve-shapes",
        offline_path: false,
    },
    Layer {
        modules: "benchmark tracing",
        metrics: &["trace.overhead_ms"],
        moves: "none (cost of the traced replay's layer-by-layer calls)",
        offline_path: true,
    },
];

/// Time metrics summed to attribute the end-to-end p50 on the serve
/// workloads' path; `solve-synthetic` sums the layers with
/// [`Layer::offline_path`] only.
const PATH_TIMES: &[&str] = &[
    "io.decode_ms",
    "universe.build_ms",
    "preprocess.ms",
    "solve_core.ms",
    "cache.overhead_ms",
    "telemetry.overhead_ms",
    "certificate.ms",
    "io.encode_ms",
];

/// What the traced run measured.
pub struct TraceReport {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The untraced end-to-end p50 the layers account for, in ms.
    pub e2e_p50_ms: f64,
    /// The traced replay's layer-by-layer path p50, in ms.
    pub traced_p50_ms: f64,
    /// The same instances through one untraced `solve_report`, p50 in ms.
    pub untraced_p50_ms: f64,
    /// Requests the replay traced.
    pub replayed: usize,
    /// The end-to-end pass, for its failure counts.
    pub e2e: Outcome,
    /// Failures found by the replay's own answer checks.
    pub replay_errors: Vec<String>,
    /// The verification set's total cost, from the set-up's warm-up pass.
    pub solution_cost: u64,
}

/// Per-request samples of every per-request metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn p50(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

fn spans_in(roots: &[SpanData]) -> u64 {
    roots.iter().map(|s| s.count + spans_in(&s.children)).sum()
}

/// Parses one un-labelled sample `name value` out of a Prometheus text
/// exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let mut parts = l.split_whitespace();
        (parts.next() == Some(name))
            .then(|| parts.next().and_then(|v| v.parse().ok()))
            .flatten()
    })
}

/// Times `f`, in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Traces one fresh request through every layer; pushes its samples.
fn replay_one(
    workload: Workload,
    wire: &[u8],
    cache: &Arc<SolveCache>,
    aggregator: &Aggregator,
    reference_first: bool,
    s: &mut Samples,
) -> Result<(), String> {
    let (decoded, t) = timed(|| mc3_workload::read_dataset_json(wire));
    let ds = decoded.map_err(|e| format!("decode: {e}"))?;
    s.push("io.decode_ms", t);
    let inst = &ds.instance;
    let cfg = SolverConfig::default();
    // The same pipeline as one untraced call. Which of the two runs first
    // alternates between requests, so warm-up order favours neither.
    let untraced = || {
        let (r, t) = timed(|| e2e::offline_solver().solve_report(inst));
        r.map(|r| (r, t))
            .map_err(|e| format!("reference solve: {e}"))
    };
    let early = if reference_first {
        Some(untraced()?)
    } else {
        None
    };

    // The facade's sequential pipeline, one layer call at a time.
    let path_t0 = Instant::now();
    // The facade's `setup` also gathers the instance statistics its
    // report carries.
    let (mut ws, t) = timed(|| {
        let kp = inst.max_query_len().max(1);
        let universe = ClassifierUniverse::build_bounded(inst, kp);
        std::hint::black_box(InstanceStats::gather_with_universe(inst, &universe));
        WorkState::new(inst, universe)
    });
    let build = t;
    s.push("universe.classifiers", ws.universe.len() as f64);
    let (stats, t) = timed(|| preprocess(&mut ws, &cfg.preprocess));
    let stats = stats.map_err(|e| format!("preprocess: {e}"))?;
    s.push("preprocess.ms", t);
    s.push("preprocess.passes", stats.passes as f64);
    s.push(
        "preprocess.removed",
        (stats.removed_by_decomposition + stats.removed_by_singleton_pruning) as f64,
    );
    let (core, t) = timed(|| -> Result<_, String> {
        let comps = connected_components(inst.queries(), &ws.alive_query_indices());
        let mut scratch = ReductionScratch::new();
        let mut picked = Vec::new();
        for comp in &comps {
            picked.extend(
                solve_general_scratch(
                    &ws,
                    comp,
                    cfg.wsc_strategy,
                    cfg.lp_limits,
                    cfg.refine_wsc,
                    &mut scratch,
                )
                .map_err(|e| format!("solve_core: {e}"))?,
            );
        }
        picked.extend(ws.selected_ids().iter().copied());
        Ok((comps, Solution::from_ids(&ws.universe, picked)))
    });
    let (comps, solution) = core?;
    s.push("solve_core.ms", t);
    // `solve_report` frees the working state and its universe before it
    // returns; that teardown is the universe's cost too.
    let ((), teardown) = timed(|| drop(ws));
    s.push("universe.build_ms", build + teardown);
    s.push("trace.path_ms", ms(path_t0.elapsed()));
    s.push("components.count", comps.len() as f64);
    s.push(
        "components.largest_queries",
        comps.iter().map(Vec::len).max().unwrap_or(0) as f64,
    );

    // The decomposition must reproduce the facade exactly.
    let (reference, t) = match early {
        Some(r) => r,
        None => untraced()?,
    };
    s.push("trace.untraced_ms", t);
    let cost = check::check_solution(inst, &solution)?;
    if cost != check::check_solution(inst, &reference.solution)? {
        return Err(format!(
            "layer-by-layer replay cost {cost} differs from solve_report's {}",
            reference.solution.cost().raw()
        ));
    }

    // The served solver configuration, first bare, then under telemetry
    // capture as the server runs it, then with the component cache.
    let served = Mc3Solver::new()
        .algorithm(Algorithm::General)
        .parallel(workload.served());
    let (bare, t_bare) = timed(|| served.solve_report(inst));
    let bare = bare.map_err(|e| format!("bare solve: {e}"))?;
    check::check_solution(inst, &bare.solution)?;

    let session = Session::begin();
    let ((traced, roots), t_tel) = timed(|| {
        let scope = ScopedSession::begin();
        let r = served.solve_report(inst);
        let roots = scope.finish();
        aggregator.absorb(&roots);
        (r, roots)
    });
    session.finish();
    let traced = traced.map_err(|e| format!("traced solve: {e}"))?;
    check::check_solution(inst, &traced.solution)?;
    s.push("telemetry.overhead_ms", t_tel - t_bare);
    s.push("telemetry.spans_per_request", spans_in(&roots) as f64);

    let (tasks0, steals0) = (executor::tasks_total(), executor::steals_total());
    let (cached, t_cached) = timed(|| served.clone().cache(Arc::clone(cache)).solve_report(inst));
    let cached = cached.map_err(|e| format!("cached solve: {e}"))?;
    check::check_solution(inst, &cached.solution)?;
    s.push("cache.overhead_ms", t_cached - t_bare);
    s.push("executor.tasks", (executor::tasks_total() - tasks0) as f64);
    s.push(
        "executor.steals",
        (executor::steals_total() - steals0) as f64,
    );

    let (cert, t) = timed(|| -> Result<bool, String> {
        let cert = Certificate::for_solution(inst, &bare.solution).map_err(|e| e.to_string())?;
        cert.verify(inst, &bare.solution)
            .map_err(|e| e.to_string())?;
        Ok(cert.proves_optimality())
    });
    let optimal = cert.map_err(|e| format!("certificate: {e}"))?;
    s.push("certificate.ms", t);

    // The response document, rendered as the server renders it.
    let (_, t) = timed(|| {
        let classifiers = Json::array(
            bare.solution
                .classifiers()
                .iter()
                .map(|c| Json::array(c.iter().map(|p| Json::Int(i128::from(p.0))))),
        );
        let doc = Json::object([
            ("dataset", Json::Str(ds.name.clone())),
            ("queries", Json::Int(inst.num_queries() as i128)),
            ("algorithm", Json::Str(Algorithm::General.name().to_owned())),
            ("cost", Json::Int(i128::from(bare.solution.cost().raw()))),
            ("classifiers", classifiers),
            ("components", Json::Int(bare.components as i128)),
            (
                "certificate",
                Json::object([
                    ("valid", Json::Bool(true)),
                    ("optimal", Json::Bool(optimal)),
                ]),
            ),
        ]);
        std::hint::black_box(doc.to_string_pretty())
    });
    s.push("io.encode_ms", t);
    Ok(())
}

/// Runs the traced run of `workload`: `seconds / 2` of untraced
/// end-to-end traffic, then `seconds / 2` of traced in-process replay.
pub fn traced_run(
    workload: Workload,
    run_seed: u64,
    mc3: &Path,
    seconds: f64,
) -> Result<TraceReport, String> {
    let stream = Stream::new(workload, run_seed);
    let half = seconds / 2.0;

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let prepared = e2e::prepare(workload, mc3, 1)?;
    let e2e_out = match &prepared.server {
        Some(server) => {
            let out = e2e::closed_loop(server.addr(), &stream, client_count(), half);
            let (status, text) = server.get("/metrics")?;
            if status != 200 {
                return Err(format!("/metrics answered {status}"));
            }
            let text = String::from_utf8_lossy(&text);
            let value =
                |name| prom_value(&text, name).ok_or_else(|| format!("/metrics has no {name}"));
            let hits = value("mc3_request_cache_hits_total")?;
            let lookups = hits + value("mc3_request_cache_misses_total")?;
            metrics.insert(
                "server.request_cache_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            );
            metrics.insert("server.dropped", value("mc3_requests_dropped_total")?);
            out
        }
        None => {
            metrics.insert("server.request_cache_hit_ratio", 0.0);
            metrics.insert("server.dropped", 0.0);
            e2e::offline_loop(&stream, client_count(), half)
        }
    };
    let solution_cost = prepared.solution_cost;
    drop(prepared);
    let e2e_p50_ms = median(&e2e_out.latencies_ms);

    let cache = Arc::new(SolveCache::with_capacity_mb(CACHE_MB));
    let aggregator = Aggregator::new();
    // Warm the replay's cache the way the server's set-up warms its own.
    let warm = Mc3Solver::new()
        .algorithm(Algorithm::General)
        .parallel(workload.served())
        .cache(Arc::clone(&cache));
    for ds in workload.verification_set() {
        warm.solve_report(&ds.instance)
            .map_err(|e| format!("cache warm-up: {e}"))?;
    }

    let mut samples = Samples::default();
    let mut replay_errors = Vec::new();
    let mut replayed = 0;
    let start = Instant::now();
    let mut i = 0;
    while replayed < MIN_REPLAYED || start.elapsed().as_secs_f64() < half {
        let req = stream.request(i);
        let ds = stream.dataset(i);
        i += 1;
        if req.repeat_of.is_some() {
            continue;
        }
        replayed += 1;
        if let Err(e) = replay_one(
            workload,
            &body(&ds),
            &cache,
            &aggregator,
            replayed % 2 == 0,
            &mut samples,
        ) {
            replay_errors.push(format!("replayed request {}: {e}", req.index));
        }
    }

    // Per-request samples: the median request. The `trace.*` samples
    // feed the tracing overhead below.
    for (&name, values) in &samples.0 {
        if !name.starts_with("trace.") {
            metrics.insert(name, median(values));
        }
    }
    let cs = cache.stats();
    let lookups = cs.hits + cs.negative_hits + cs.misses;
    metrics.insert(
        "cache.hit_ratio",
        if lookups > 0 {
            (cs.hits + cs.negative_hits) as f64 / lookups as f64
        } else {
            0.0
        },
    );
    metrics.insert("cache.misses", cs.misses as f64);
    metrics.insert("cache.evictions", cs.evictions as f64);
    metrics.insert(
        "cache.resident_mb",
        cs.resident_bytes as f64 / (1 << 20) as f64,
    );
    metrics.insert(
        "executor.thread_spawns",
        executor::thread_spawns_total() as f64,
    );

    let on_path = |name: &str| {
        workload.served()
            || LAYERS
                .iter()
                .any(|l| l.offline_path && l.metrics.contains(&name))
    };
    let attributed: f64 = PATH_TIMES
        .iter()
        .filter(|n| on_path(n))
        .map(|n| metrics[n])
        .sum();
    metrics.insert("server.unattributed_ms", e2e_p50_ms - attributed);
    let traced_p50_ms = samples.p50("trace.path_ms");
    let untraced_p50_ms = samples.p50("trace.untraced_ms");
    metrics.insert("trace.overhead_ms", traced_p50_ms - untraced_p50_ms);

    Ok(TraceReport {
        metrics,
        e2e_p50_ms,
        traced_p50_ms,
        untraced_p50_ms,
        replayed,
        e2e: e2e_out,
        replay_errors,
        solution_cost,
    })
}

/// The human-readable table the traced run prints above its result line.
pub fn render(workload: Workload, r: &TraceReport) -> String {
    let mut out = format!(
        "traced run of {} ({} requests replayed, {} end-to-end samples)\n",
        workload.name(),
        r.replayed,
        r.e2e.latencies_ms.len()
    );
    out.push_str(&format!(
        "{:<58} {:<30} {:>12}  {:<8} should move\n",
        "layer", "metric", "value", "on path"
    ));
    for layer in LAYERS {
        let on_path = workload.served() || layer.offline_path;
        for (k, name) in layer.metrics.iter().enumerate() {
            out.push_str(&format!(
                "{:<58} {:<30} {:>12.3}  {:<8} {}\n",
                if k == 0 { layer.modules } else { "" },
                name,
                r.metrics.get(name).copied().unwrap_or(f64::NAN),
                if on_path { "yes" } else { "no" },
                if k == 0 { layer.moves } else { "" },
            ));
        }
    }
    out.push_str(&format!(
        "attribution: untraced end-to-end latency_p50_ms {:.3} = sum of on-path layer p50s {:.3} + server.unattributed_ms {:.3}\n",
        r.e2e_p50_ms,
        r.e2e_p50_ms - r.metrics["server.unattributed_ms"],
        r.metrics["server.unattributed_ms"],
    ));
    out.push_str(&format!(
        "tracing overhead: traced layer-by-layer p50 {:.3} ms vs untraced solve_report p50 {:.3} ms on the same instances = {:+.3} ms\n",
        r.traced_p50_ms, r.untraced_p50_ms, r.metrics["trace.overhead_ms"],
    ));
    out
}
