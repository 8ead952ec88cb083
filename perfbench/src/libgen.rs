//! `libgen-cold`: generate a library from empty caches through one
//! `Registry` — a seeded draw of routines tuned at a fixed size class,
//! plus the two fused DAG pairs planned and tuned through `run_dag`.

use crate::report::{finish_trace, zero_unset_layers, Outcome};
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::traffic::{libgen_draw, DagShape, Kind, Req, Rng};
use crate::Args;
use oa_core::autotune::json::Json;
use oa_core::autotune::{candidates, default_params, Stage, TuneEvent};
use oa_core::blas3::{oa_scheme, routines, verify_against_reference};
use oa_core::composer::compose_on;
use oa_core::epod::{apply_lenient, Script};
use oa_core::gpusim::{evaluate, select_engine};
use oa_core::loopir::interp::Bindings;
use oa_core::loopir::transform::TileParams;
use oa_core::{DagRequest, DagStatus, DeviceSpec, Registry, RoutineId};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The size class every drawn routine is tuned at, and the DAG size.
pub const CLASS: i64 = 64;

struct Generation {
    wall_s: f64,
    item_ms: Vec<f64>,
    /// Winner GFLOPS per item label, in generation order.
    winners: Vec<(String, f64)>,
    /// Per routine: the tuner's own events (traced generation only).
    events: Vec<Vec<TuneEvent>>,
    dag_digests: Vec<u64>,
    fused_edges: usize,
    rejects: usize,
    registry: Registry,
}

fn dag_requests(seed: u64) -> Vec<DagRequest> {
    let mut rng = Rng::new(seed ^ 0xDA6);
    DagShape::ALL
        .iter()
        .map(|&s| {
            Req {
                kind: Kind::Dag(s, CLASS),
                seed: rng.input_seed(),
                tenant: 0,
                fuse: true,
            }
            .dag_request()
            .expect("generated DAG lines parse")
        })
        .collect()
}

/// One generation from a fresh registry (empty tuned table, program
/// store and fusion environment).
fn generate(
    routines: &[RoutineId],
    dags: &[DagRequest],
    tr: &mut Tracer,
    keep_events: bool,
    out: &mut Outcome,
) -> Generation {
    let registry = Registry::new(DeviceSpec::gtx285());
    let mut g = Generation {
        wall_s: 0.0,
        item_ms: Vec::new(),
        winners: Vec::new(),
        events: Vec::new(),
        dag_digests: Vec::new(),
        fused_edges: 0,
        rejects: 0,
        registry,
    };
    let root = tr.open("generation", 0);
    let t0 = Instant::now();
    for (i, &r) in routines.iter().enumerate() {
        let mut events = Vec::new();
        let mut winner = None;
        let t = Instant::now();
        let s = tr.open("autotune.tune", i as u64);
        let res = g.registry.resolve_observed(r, CLASS, &mut |e| {
            if let TuneEvent::Summary { winner_gflops, .. } = &e {
                winner = *winner_gflops;
            }
            if keep_events {
                events.push(e);
            }
        });
        tr.close(s);
        g.item_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match (res, winner) {
            (Ok(_), Some(w)) => g.winners.push((r.name(), w)),
            (Ok(_), None) => out.fail(format!("{}: tuned without a winner event", r.name())),
            (Err(e), _) => out.fail(format!("{}: {e}", r.name())),
        }
        g.events.push(events);
    }
    for (i, d) in dags.iter().enumerate() {
        let t = Instant::now();
        let s = tr.open("dag.fused_tune", (routines.len() + i) as u64);
        let o = g.registry.run_dag(d);
        tr.close(s);
        g.item_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match o.status {
            DagStatus::Ok(ok) => {
                g.winners.push((d.shape(), ok.model_gflops.unwrap_or(0.0)));
                g.dag_digests.push(ok.digest);
                g.fused_edges += ok.fused.len();
                g.rejects += ok.rejected.len();
            }
            DagStatus::Failed { class, reason } => {
                out.fail(format!("{}: {class}: {reason}", d.shape()));
                g.dag_digests.push(0);
            }
        }
    }
    g.wall_s = t0.elapsed().as_secs_f64();
    tr.close(root);
    g
}

/// Set-ups timed together as one `setup_s` sample, and samples taken
/// before each generation and after the last.  One set-up takes about
/// 0.2 ms, so a lone one is mostly timer noise.  Back-to-back samples
/// share one host state, which moves the result by up to 2x between
/// runs; samples spread over the run do not.
const SETUP_BLOCK: usize = 40;
const SETUP_SAMPLES: usize = 8;

/// Set-up: everything a fresh generation needs before its first tune
/// (registry construction, routine sources and OA schemes, DAG parsing).
fn setup_once(routines: &[RoutineId], seed: u64) {
    let registry = Registry::new(DeviceSpec::gtx285());
    let mut work = 0usize;
    for &r in routines {
        work += routines::source(r).arrays.len();
        work += oa_scheme(r).bases.len();
    }
    work += dag_requests(seed).len();
    std::hint::black_box((work, registry.engine()));
}

/// One `setup_s` sample: the mean seconds of a block of set-ups.
fn setup_sample(routines: &[RoutineId], seed: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SETUP_BLOCK {
        setup_once(routines, seed);
    }
    t0.elapsed().as_secs_f64() / SETUP_BLOCK as f64
}

/// Correctness gate: every winner against the CPU reference, and every
/// fused DAG digest against its sequenced plan.
fn gate(g: &Generation, routines: &[RoutineId], dags: &[DagRequest], seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed ^ 0x6A7E);
    for &r in routines {
        out.attempted += 1;
        let Ok(entry) = g.registry.resolve(r, CLASS) else {
            continue; // already counted as a failed tune
        };
        let src = routines::source(r);
        let checked = apply_lenient(&src, &entry.script, entry.params)
            .map_err(|e| e.to_string())
            .and_then(|o| {
                verify_against_reference(r, &o.program, CLASS, rng.input_seed(), true)
                    .map_err(|e| e.to_string())
            });
        let tol = match r {
            RoutineId::Trsm(..) => 5e-2,
            _ => 5e-3,
        };
        match checked {
            Ok(rep) if rep.max_abs_diff < tol => {}
            Ok(rep) => out.fail(format!(
                "{}: off the reference by {}",
                r.name(),
                rep.max_abs_diff
            )),
            Err(e) => out.fail(format!("{}: verification failed: {e}", r.name())),
        }
    }
    for (d, &fused) in dags.iter().zip(&g.dag_digests) {
        out.attempted += 1;
        let mut plain = d.clone();
        plain.fuse = false;
        match g.registry.run_dag(&plain).status {
            DagStatus::Ok(ok) if ok.digest == fused => {}
            DagStatus::Ok(ok) => out.fail(format!(
                "{}: fused digest {fused:016x} != sequenced {:016x}",
                d.shape(),
                ok.digest
            )),
            DagStatus::Failed { class, reason } => {
                out.fail(format!("{} sequenced: {class}: {reason}", d.shape()))
            }
        }
    }
}

/// What the benchmark's own replay of one sweep found.
struct Sweep {
    script: Script,
    params: TileParams,
    translate_calls: usize,
    evaluate_calls: usize,
    mixed: usize,
    surviving: usize,
    filter_ms: f64,
}

/// Replay the tuner's exact sweep for `r` on one thread, timing
/// `compose_on` per scheme base and `apply_lenient` / `evaluate` per
/// sweep point; the winner rule is the tuner's (last maximum).
fn replay_sweep(r: RoutineId, tr: &mut Tracer, req: u64) -> Result<Sweep, String> {
    let device = DeviceSpec::gtx285();
    let engine = select_engine();
    let scheme = oa_scheme(r);
    let src = routines::source(r);
    let root = tr.open("sweep", req);
    let mut scripts: Vec<Script> = Vec::new();
    let mut seen = HashSet::new();
    let (mut mixed, mut surviving, mut filter_ms) = (0, 0, 0.0);
    for base in &scheme.bases {
        let s = tr.open("composer.compose", req);
        let res = compose_on(
            engine,
            &src,
            base,
            &scheme.apps,
            default_params(scheme.solver),
        );
        tr.close(s);
        let (variants, stats) = res.map_err(|e| format!("compose {}: {e}", r.name()))?;
        mixed += stats.mixed;
        surviving += stats.surviving;
        filter_ms += stats.filter_ms;
        for v in variants {
            if seen.insert(v.script.clone()) {
                scripts.push(v.script);
            }
        }
    }
    let bindings = Bindings::square(CLASS);
    let flops = r.flops(CLASS);
    let params = candidates(scheme.solver);
    let (mut translate_calls, mut evaluate_calls) = (0, 0);
    let mut best: Option<(usize, TileParams, f64)> = None;
    for (si, script) in scripts.iter().enumerate() {
        for &p in &params {
            translate_calls += 1;
            let s = tr.open("epod.translate", req);
            let translated = apply_lenient(&src, script, p);
            tr.close(s);
            let Ok(o) = translated else { continue };
            evaluate_calls += 1;
            let s = tr.open("perf.evaluate", req);
            let rep = evaluate(&o.program, &bindings, &device, flops, true);
            tr.close(s);
            if let Ok(rep) = rep {
                // `>=` keeps the last maximum, the tuner's `max_by` rule.
                if rep.occupancy != 0.0 && best.is_none_or(|b| rep.gflops.total_cmp(&b.2).is_ge()) {
                    best = Some((si, p, rep.gflops));
                }
            }
        }
    }
    tr.close(root);
    let (si, params, _) = best.ok_or_else(|| format!("{}: replay found no winner", r.name()))?;
    Ok(Sweep {
        script: scripts[si].clone(),
        params,
        translate_calls,
        evaluate_calls,
        mixed,
        surviving,
        filter_ms,
    })
}

/// The tuner's reported stage totals for one sweep: `(ms, items)`.
fn stage_span(events: &[TuneEvent], stage: Stage) -> (f64, usize) {
    events
        .iter()
        .filter_map(|e| match e {
            TuneEvent::Span {
                stage: s,
                ms,
                items,
            } if *s == stage => Some((*ms, *items)),
            _ => None,
        })
        .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let routines = libgen_draw(args.seed, args.tiny);
    let dags = if args.tiny {
        Vec::new()
    } else {
        dag_requests(args.seed)
    };
    out.note(
        "routines",
        Json::Arr(routines.iter().map(|r| Json::Str(r.name())).collect()),
    );
    out.note("class", Json::Int(CLASS));

    if args.trace {
        return traced(args, &routines, &dags, out);
    }

    // Generations until the measuring time is spent (at least two),
    // with set-up samples between them.
    let mut untraced = Tracer::new(false);
    let mut setups = Vec::new();
    let sample_setups = |setups: &mut Vec<f64>| {
        setups.extend((0..SETUP_SAMPLES).map(|_| setup_sample(&routines, args.seed)));
    };
    let t0 = Instant::now();
    let mut gens: Vec<Generation> = Vec::new();
    while gens.len() < 2 || t0.elapsed().as_secs_f64() + gens[gens.len() - 1].wall_s <= args.seconds
    {
        sample_setups(&mut setups);
        let g = generate(&routines, &dags, &mut untraced, false, &mut out);
        if let Some(first) = gens.first() {
            if first.winners != g.winners {
                out.fail("tuned winners differ between two generations");
            }
        }
        gens.push(g);
    }
    sample_setups(&mut setups);
    out.set("setup_s", median(&setups));
    out.set(
        "peak_rss_mb",
        crate::server::vm_hwm_mb("/proc/self/status").unwrap_or(0.0),
    );
    let last = gens.last().expect("at least two generations");
    gate(last, &routines, &dags, args.seed, &mut out);

    let walls: Vec<f64> = gens.iter().map(|g| g.wall_s).collect();
    let items: Vec<f64> = sorted(
        &gens
            .iter()
            .flat_map(|g| g.item_ms.clone())
            .collect::<Vec<_>>(),
    );
    let per_gen = last.item_ms.len() as f64;
    out.set("wall_s", median(&walls));
    out.set(
        "model_gflops",
        geomean(&last.winners.iter().map(|w| w.1).collect::<Vec<_>>()),
    );
    out.set("p50_ms", percentile(&items, 50.0));
    out.set("p99_ms", percentile(&items, 99.0));
    out.set("max_rps", per_gen / median(&walls));
    out.note("generations", Json::Int(gens.len() as i64));
    out.note("latency_samples", Json::Int(items.len() as i64));
    out.note(
        "winners",
        Json::Obj(
            last.winners
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect::<BTreeMap<_, _>>(),
        ),
    );
    Ok(out)
}

fn traced(
    args: &Args,
    routines: &[RoutineId],
    dags: &[DagRequest],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let untraced = generate(routines, dags, &mut off, false, &mut out);
    let mut tr = Tracer::new(true);
    let g = generate(routines, dags, &mut tr, true, &mut out);
    if g.winners != untraced.winners {
        out.fail("tuned winners differ between the untraced and traced generation");
    }
    out.set("trace.overhead_frac", g.wall_s / untraced.wall_s - 1.0);

    // Tuner-reported counters.
    let (mut points, mut evaluated, mut pruned, mut errored) = (0usize, 0usize, 0usize, 0usize);
    for evs in &g.events {
        for e in evs {
            if let TuneEvent::Summary {
                points: p,
                evaluated: ev,
                pruned: pr,
                errored: er,
                ..
            } = e
            {
                points += p;
                evaluated += ev;
                pruned += pr;
                errored += er;
            }
        }
    }
    let tune_ms: Vec<f64> = g.item_ms[..routines.len()].to_vec();
    out.set(
        "autotune.tune_ms",
        tune_ms.iter().sum::<f64>() / tune_ms.len().max(1) as f64,
    );
    out.set("autotune.points", points as f64);
    out.set(
        "autotune.evaluated_ratio",
        evaluated as f64 / points.max(1) as f64,
    );
    out.set("autotune.pruned", pruned as f64);
    out.set("autotune.errored", errored as f64);
    out.set("dag.fused_edges", g.fused_edges as f64);
    out.set("dag.rejects", g.rejects as f64);

    // The benchmark's own sweep replay, cross-checked against the
    // registry's winners and the tuner's stage spans.
    let (mut mixed, mut surviving, mut filter_ms) = (0usize, 0usize, 0.0);
    let (mut tuner_ms, mut replay_calls) = (0.0, 0usize);
    for (i, &r) in routines.iter().enumerate() {
        out.attempted += 1;
        let sweep = match replay_sweep(r, &mut tr, i as u64) {
            Ok(s) => s,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        mixed += sweep.mixed;
        surviving += sweep.surviving;
        filter_ms += sweep.filter_ms;
        replay_calls += sweep.translate_calls;
        if let Ok(entry) = g.registry.resolve(r, CLASS) {
            if entry.script != sweep.script || entry.params != sweep.params {
                out.fail(format!(
                    "{}: replayed winner differs from the registry's",
                    r.name()
                ));
            }
        }
        let events = &g.events[i];
        let (t_ms, t_items) = stage_span(events, Stage::Translate);
        let (e_ms, e_items) = stage_span(events, Stage::Evaluate);
        tuner_ms += t_ms + e_ms;
        if t_items != sweep.translate_calls || e_items != sweep.evaluate_calls {
            out.fail(format!(
                "{}: tuner spans count {t_items}/{e_items} translate/evaluate, replay {}/{}",
                r.name(),
                sweep.translate_calls,
                sweep.evaluate_calls
            ));
        }
    }
    let a = tr.attribution();
    out.set("composer.compose_ms", a.ms("composer.compose") - filter_ms);
    out.set("composer.filter_ms", filter_ms);
    out.set(
        "composer.survive_ratio",
        surviving as f64 / mixed.max(1) as f64,
    );
    out.set("epod.translate_ms", a.ms("epod.translate"));
    out.set("epod.translate_calls", a.calls("epod.translate") as f64);
    out.set("perf.evaluate_ms", a.ms("perf.evaluate"));
    out.set("perf.evaluate_calls", a.calls("perf.evaluate") as f64);
    out.set("dag.fused_tune_ms", a.ms("dag.fused_tune"));
    let replay_ms = a.ms("epod.translate") + a.ms("perf.evaluate");
    // The tuner's spans sum per-candidate wall time across its worker
    // threads; the replay's are sequential.
    out.note(
        "replay_over_tuner_stage_ms",
        Json::Num(if tuner_ms > 0.0 {
            replay_ms / tuner_ms
        } else {
            0.0
        }),
    );
    out.note("replayed_points", Json::Int(replay_calls as i64));
    finish_trace(args, &tr, &mut out);
    zero_unset_layers(&mut out);
    Ok(out)
}
