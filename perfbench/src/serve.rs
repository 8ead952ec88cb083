//! `serve-steady`: drive `oa serve --listen` over loopback with an open
//! loop, then check the served outputs.

use crate::client::{closed_window, fixed_offsets, open_loop, poisson_offsets, Conn, Phase};
use crate::report::{finish_trace, zero_unset_layers, Outcome};
use crate::server::ServerProc;
use crate::stats::{geomean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::traffic::{Kind, Mix, Req, Rng, TENANTS, TENANT_QUOTA};
use crate::Args;
use oa_core::autotune::json::Json;
use oa_core::autotune::TuneEvent;
use oa_core::blas3::{prepare_buffers, routines};
use oa_core::dispatch::{digest_buffers, size_class};
use oa_core::epod::apply_lenient;
use oa_core::gpusim::{evaluate, CompiledProgram, ExecEngine};
use oa_core::loopir::interp::Bindings;
use oa_core::loopir::Program;
use oa_core::{DagStatus, DeviceSpec, Registry, RoutineId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Fixed rate ladder (requests/s): 10 to 640 in steps of sqrt(2).
fn ladder() -> Vec<f64> {
    (0..=12).map(|k| 10.0 * 2f64.powf(k as f64 / 2.0)).collect()
}

/// Geometric bisection steps between the last passing and first failing
/// rung (resolution sqrt(2)^(1/8), about 4.4%).
const BISECT: usize = 3;
/// Share of `--seconds` spent at the reference rate; the closed batches
/// and the ladder take about the rest.
const REF_SHARE: f64 = 0.8;
/// Cold set-ups per run; `setup_s` is their median and the last one
/// serves every measuring phase.
const SETUPS: usize = 3;

/// The fixed reference rate (requests/s), on the ladder.
pub const REF_RATE: f64 = 40.0;
/// The p99 latency limit the ladder's probes must meet, ms.
pub const LIMIT_MS: f64 = 250.0;
/// Closed batches per run; `wall_s` is the median of their wall times.
/// The reference phase is cut into as many parts, and a batch follows
/// each part, so both sample the host over the same stretch of the run.
const BATCHES: usize = 8;
/// Requests in each closed batch.
const BATCH: usize = 128;
/// Requests a closed batch keeps in flight (4 per tenant).
const BATCH_WINDOW: u64 = 24;
/// Seconds each ladder probe sends for.
const PROBE_SECS: f64 = 2.5;
/// The most requests a probe may leave outstanding: round-robin tenants
/// keep each tenant 4 below the server's in-flight quota, so a probe
/// stops before the server would reject anything.
const MAX_BACKLOG: u64 = (TENANTS * (TENANT_QUOTA - 4)) as u64;
/// Every served single key with n at most this is re-executed on the
/// oracle.  The n = 96 key alone takes about 3.5 s (a class-128 tune
/// plus the oracle run); n = 128 would take several more per run.
const ORACLE_MAX_N: i64 = 96;
/// Served fused DAGs re-sent with `fuse: false` per run, a seeded
/// sample (re-sending all of them, about 400, takes 8-10 s).
const FUSION_SAMPLE: usize = 64;

fn status_of(doc: &Json) -> &str {
    doc.get("status")
        .and_then(Json::as_str)
        .unwrap_or("missing")
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Count every error line, rejection and timeout of a phase as failed.
fn account(phase: &Phase, what: &str, out: &mut Outcome) {
    out.attempted += phase.samples.len() as u64;
    for s in &phase.samples {
        match &s.doc {
            None => out.fail(format!("{what}: no response (timeout)")),
            Some(d) if status_of(d) != "ok" => out.fail(format!("{what}: {}", d.compact())),
            Some(_) => {}
        }
    }
}

/// One ladder probe.
struct Probe {
    rate: f64,
    pass: bool,
    p99_ms: f64,
    growth_ms: f64,
    sent: usize,
    aborted: bool,
}

/// Judge an open-loop phase against the latency limit: no errors,
/// rejections or timeouts, p99 within the limit, and median latency not
/// growing by more than half the limit from the first third of the
/// phase to the last.  Overloaded probes grow by 180 ms or more; probes
/// near capacity that meet the limit show up to about 110 ms of noise.
fn judge(phase: &Phase) -> Probe {
    let lat = phase.latencies_ms();
    let p99 = percentile(&sorted(&lat), 99.0);
    // Backlog growth: median latency of the last third of the phase
    // minus that of the first third.
    let third = lat.len() / 3;
    let growth = if third > 0 {
        median(&lat[lat.len() - third..]) - median(&lat[..third])
    } else {
        0.0
    };
    let pass = !phase.aborted
        && phase.errors() == 0
        && phase.timeouts() == 0
        && p99 <= LIMIT_MS
        && growth <= LIMIT_MS / 2.0;
    Probe {
        rate: phase.rate,
        pass,
        p99_ms: p99,
        growth_ms: growth,
        sent: phase.samples.len(),
        aborted: phase.aborted,
    }
}

fn probe(
    conn: &mut Conn,
    mix: &mut Mix,
    rate: f64,
    secs: f64,
    served: &mut Vec<(Req, Json)>,
    out: &mut Outcome,
) -> Result<Probe, String> {
    let reqs = mix.take(((rate * secs).round() as usize).max(8));
    let lines: Vec<String> = reqs.iter().map(Req::line).collect();
    // Stop sending once the backlog passes twice what the latency limit
    // allows, or MAX_BACKLOG, whichever is smaller.
    let backlog = ((rate * LIMIT_MS / 1000.0) * 2.0).ceil() as u64 + 8;
    // Fixed spacing: the verdict should reflect the sustained rate, not
    // arrival bursts (the reference phase keeps Poisson arrivals).
    let offsets = fixed_offsets(lines.len(), rate);
    let phase = open_loop(
        conn,
        &lines,
        &offsets,
        rate,
        Some(backlog.min(MAX_BACKLOG)),
        Duration::from_secs(60),
        &mut |_| {},
    )?;
    account(&phase, &format!("probe {rate:.1}/s"), out);
    collect(&reqs, &phase, served);
    Ok(judge(&phase))
}

/// The highest ladder rate whose p99 meets the limit with no errors,
/// rejections or growing backlog.  The search starts at the highest
/// rung at or below the closed batches' throughput (the reference phase
/// stands in for the reference rung), climbs or descends the fixed
/// ladder to the first change of verdict, then bisects between the last
/// pass and the first failure.
fn max_rate(
    conn: &mut Conn,
    mix: &mut Mix,
    reference: Probe,
    batch_rps: f64,
    secs: f64,
    served: &mut Vec<(Req, Json)>,
    out: &mut Outcome,
) -> Result<(f64, Vec<Probe>), String> {
    let rungs = ladder();
    let k_ref = rungs
        .iter()
        .position(|&r| (r - REF_RATE).abs() < 1e-6)
        .expect("the reference rate is a ladder rung");
    let mut k = rungs
        .iter()
        .rposition(|&r| r <= batch_rps)
        .unwrap_or(0)
        .max(k_ref);
    let mut probes = vec![];
    // A marginal failure (not aborted, p99 within twice the limit) is
    // probed once more, so one host stall cannot decide a verdict.
    let mut run = |rate: f64, probes: &mut Vec<Probe>, mix: &mut Mix, out: &mut Outcome| {
        for _ in 0..2 {
            let p = probe(conn, mix, rate, secs, served, out)?;
            let (pass, marginal) = (p.pass, !p.aborted && p.p99_ms <= 2.0 * LIMIT_MS);
            probes.push(p);
            if pass || !marginal {
                return Ok(pass);
            }
        }
        Ok::<bool, String>(false)
    };
    let start_pass = if k == k_ref {
        let pass = reference.pass;
        probes.push(reference);
        pass
    } else {
        run(rungs[k], &mut probes, mix, out)?
    };
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    if start_pass {
        lo = Some(rungs[k]);
        while k + 1 < rungs.len() {
            k += 1;
            if run(rungs[k], &mut probes, mix, out)? {
                lo = Some(rungs[k]);
            } else {
                hi = Some(rungs[k]);
                break;
            }
        }
    } else {
        hi = Some(rungs[k]);
        while k > 0 {
            k -= 1;
            if run(rungs[k], &mut probes, mix, out)? {
                lo = Some(rungs[k]);
                break;
            }
            hi = Some(rungs[k]);
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        for _ in 0..BISECT {
            let m = (l * h).sqrt();
            if run(m, &mut probes, mix, out)? {
                l = m;
            } else {
                h = m;
            }
        }
        lo = Some(l);
    }
    match lo {
        Some(l) => Ok((l, probes)),
        None => {
            out.fail("no ladder rate met the latency limit");
            Ok((rungs[0] / 2.0, probes))
        }
    }
}

/// Pair each request with its ok response.
fn collect(reqs: &[Req], phase: &Phase, served: &mut Vec<(Req, Json)>) {
    for (r, s) in reqs.iter().zip(&phase.samples) {
        if let Some(d) = &s.doc {
            if status_of(d) == "ok" {
                served.push((r.clone(), d.clone()));
            }
        }
    }
}

fn digest_of(doc: &Json) -> Option<u64> {
    doc.get("digest")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
}

/// A fresh server after its warm-up pass.
struct Warmed {
    server: ServerProc,
    conn: Conn,
    /// Set-up wall seconds: start plus warm-up.
    secs: f64,
    /// The warm-up responses, in request order.
    resps: Vec<Option<Json>>,
}

/// Start a fresh server and warm it: every key tuned and compiled.
fn setup(args: &Args, warm: &[Req], out: &mut Outcome) -> Result<Warmed, String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(&args.oa, args.threads)?;
    let mut conn = Conn::connect(&server.addr)?;
    let lines: Vec<String> = warm.iter().map(Req::line).collect();
    let resps = conn.batch(&lines, Duration::from_secs(120))?;
    let secs = t0.elapsed().as_secs_f64();
    out.attempted += resps.len() as u64;
    for (r, d) in warm.iter().zip(&resps) {
        match d {
            Some(d) if status_of(d) == "ok" => {}
            Some(d) => out.fail(format!("warm-up {:?}: {}", r.kind, d.compact())),
            None => out.fail(format!("warm-up {:?}: no response (timeout)", r.kind)),
        }
    }
    Ok(Warmed {
        server,
        conn,
        secs,
        resps,
    })
}

/// Served/metrics-op deltas over the reference phase.
fn server_deltas(m0: &Json, m1: &Json, out: &mut Outcome) {
    let d = |k: &str| num(m1, k) - num(m0, k);
    let batches = d("batches");
    out.set(
        "serve.batch_mean",
        if batches > 0.0 {
            d("completed") / batches
        } else {
            0.0
        },
    );
    out.set("serve.rejected", d("rejected"));
    let lookups = d("lru_hits") + d("lru_misses");
    out.set(
        "dispatch.lru_hit_ratio",
        if lookups > 0.0 {
            d("lru_hits") / lookups
        } else {
            0.0
        },
    );
}

/// Close the connection and stop the server.
fn retire(server: ServerProc, conn: Conn, out: &mut Outcome) {
    conn.close();
    if let Err(e) = server.shutdown() {
        out.fail(e);
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut mix = Mix::new(args.seed, args.tiny);
    out.note(
        "routines",
        Json::Arr(mix.routines.iter().map(|r| Json::Str(r.name())).collect()),
    );
    out.note("ref_rate", Json::Num(REF_RATE));
    out.note("limit_ms", Json::Num(LIMIT_MS));
    let warm = mix.warmup();
    let t_run = Instant::now();
    let mut phases = BTreeMap::new();
    let mut lap = |name: &str| {
        phases.insert(name.to_string(), Json::Num(t_run.elapsed().as_secs_f64()));
    };

    // Cold set-ups from empty caches; the last one serves every phase.
    let setups_wanted = if args.trace || args.tiny { 1 } else { SETUPS };
    let mut setups = Vec::new();
    let mut warmed = setup(args, &warm, &mut out)?;
    setups.push(warmed.secs);
    while setups.len() < setups_wanted {
        let next = setup(args, &warm, &mut out)?;
        setups.push(next.secs);
        retire(warmed.server, warmed.conn, &mut out);
        warmed = next;
    }
    out.set("setup_s", median(&setups));
    out.note(
        "setups_s",
        Json::Arr(setups.iter().map(|&v| Json::Num(v)).collect()),
    );
    let Warmed {
        server,
        mut conn,
        resps: warm_resps,
        ..
    } = warmed;

    lap("setups_end");

    // The reference rate (Poisson arrivals) in parts, each followed by
    // a closed batch in untraced runs.
    let parts = if args.trace || args.tiny { 1 } else { BATCHES };
    let batch_len = if args.tiny { 16 } else { BATCH };
    let part_len = ((REF_RATE * args.seconds * REF_SHARE / parts as f64).round() as usize).max(4);
    let m0 = conn.op("metrics")?;
    let mut served = Vec::new();
    let (mut ref_reqs, mut samples, mut start) = (Vec::new(), Vec::new(), None);
    let mut walls = Vec::new();
    for _ in 0..parts {
        let reqs = mix.take(part_len);
        let lines: Vec<String> = reqs.iter().map(Req::line).collect();
        let offsets = poisson_offsets(lines.len(), REF_RATE, mix.rng());
        let part = open_loop(
            &mut conn,
            &lines,
            &offsets,
            REF_RATE,
            None,
            Duration::from_secs(60),
            &mut |_| {},
        )?;
        account(&part, "reference", &mut out);
        collect(&reqs, &part, &mut served);
        start.get_or_insert(part.start);
        ref_reqs.extend(reqs);
        samples.extend(part.samples);
        if args.trace {
            continue;
        }
        let reqs = mix.take(batch_len);
        let lines: Vec<String> = reqs.iter().map(Req::line).collect();
        let batch = closed_window(&mut conn, &lines, BATCH_WINDOW, Duration::from_secs(60))?;
        account(&batch, "closed batch", &mut out);
        collect(&reqs, &batch, &mut served);
        walls.push(batch.makespan_s());
    }
    let phase = Phase {
        rate: REF_RATE,
        start: start.expect("at least one reference part"),
        samples,
        aborted: false,
    };
    let m1 = conn.op("metrics")?;
    out.set("peak_rss_mb", server.peak_rss_mb().unwrap_or(0.0));
    let ok_lat: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.ok())
        .filter_map(|s| s.latency_ms())
        .collect();
    let lat = sorted(&ok_lat);
    out.set("p50_ms", percentile(&lat, 50.0));
    out.set("p99_ms", percentile(&lat, 99.0));
    out.set(
        "model_gflops",
        geomean(
            &served
                .iter()
                .map(|(_, d)| num(d, "model_gflops"))
                .collect::<Vec<_>>(),
        ),
    );
    out.note("latency_samples", Json::Int(lat.len() as i64));
    // Traced runs serve no batches, so these cover the reference phase.
    server_deltas(&m0, &m1, &mut out);
    let waits: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| s.ok())
        .filter_map(|s| Some(s.latency_ms()? - num(s.doc.as_ref()?, "ms")))
        .collect();
    let waits = sorted(&waits);
    out.set("serve.wait_ms_p50", percentile(&waits, 50.0));
    out.set("serve.wait_ms_p99", percentile(&waits, 99.0));
    let late = sorted(
        &phase
            .samples
            .iter()
            .map(|s| s.late_ms())
            .collect::<Vec<_>>(),
    );
    out.set("client.late_ms_p99", percentile(&late, 99.0));

    if args.trace {
        // The traced run needs no end-to-end numbers: replay instead.
        fusion_gate(&mut conn, &served, args.seed, &mut out)?;
        retire(server, conn, &mut out);
        let seq: Vec<(Req, Option<Json>)> = warm
            .iter()
            .cloned()
            .zip(warm_resps)
            .chain(
                ref_reqs
                    .iter()
                    .cloned()
                    .zip(phase.samples.iter().map(|s| s.doc.clone())),
            )
            .collect();
        traced(args, &seq, &mut out);
        zero_unset_layers(&mut out);
        return Ok(out);
    }

    lap("reference_and_batches_end");

    let wall_s = median(&walls);
    out.set("wall_s", wall_s);
    out.note(
        "batch_walls_s",
        Json::Arr(walls.iter().map(|&v| Json::Num(v)).collect()),
    );
    let batch_rps = batch_len as f64 / wall_s.max(1e-9);

    // The rate ladder.
    let secs = if args.tiny { 0.5 } else { PROBE_SECS };
    let reference = judge(&phase);
    let (max_rps, probes) = max_rate(
        &mut conn,
        &mut mix,
        reference,
        batch_rps,
        secs,
        &mut served,
        &mut out,
    )?;
    out.set("max_rps", max_rps);
    out.note(
        "probes",
        Json::Arr(
            probes
                .iter()
                .map(|p| {
                    Json::Str(format!(
                        "{:.1}/s {} p99 {:.1} ms growth {:.1} ms sent {}{}",
                        p.rate,
                        if p.pass { "pass" } else { "fail" },
                        p.p99_ms,
                        p.growth_ms,
                        p.sent,
                        if p.aborted { " aborted" } else { "" }
                    ))
                })
                .collect(),
        ),
    );
    lap("ladder_end");
    fusion_gate(&mut conn, &served, args.seed, &mut out)?;
    retire(server, conn, &mut out);
    lap("fusion_gate_end");
    oracle_gate(args, &served, &mut out);
    lap("oracle_gate_end");
    out.note("phases_s", Json::Obj(phases));
    Ok(out)
}

/// A seeded sample of [`FUSION_SAMPLE`] served fused DAGs against the
/// same DAGs with `fuse: false`.
fn fusion_gate(
    conn: &mut Conn,
    served: &[(Req, Json)],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut dags: Vec<&(Req, Json)> = served
        .iter()
        .filter(|(r, _)| matches!(r.kind, Kind::Dag(..)))
        .collect();
    Rng::new(seed ^ 0xF05E).shuffle(&mut dags);
    dags.truncate(FUSION_SAMPLE);
    let lines: Vec<String> = dags
        .iter()
        .map(|(r, _)| {
            Req {
                fuse: false,
                ..r.clone()
            }
            .line()
        })
        .collect();
    // In chunks, so no tenant exceeds the server's in-flight quota.
    let mut resps = Vec::new();
    for chunk in lines.chunks(16) {
        resps.extend(conn.batch(chunk, Duration::from_secs(60))?);
    }
    out.attempted += resps.len() as u64;
    for ((r, fused), plain) in dags.iter().zip(resps) {
        let (a, b) = (digest_of(fused), plain.as_ref().and_then(digest_of));
        if a.is_none() || a != b {
            out.fail(format!(
                "DAG {:?} seed {}: fused {a:?} != sequenced {b:?} ({})",
                r.kind,
                r.seed,
                plain
                    .as_ref()
                    .map_or("no response".to_string(), Json::compact)
            ));
        }
    }
    Ok(())
}

/// Oracle gate: every distinct served single key with n <= 96,
/// re-executed on the tree-walking oracle with the same tuned script and
/// parameters.  For each key, one seeded served request is checked.
fn oracle_gate(args: &Args, served: &[(Req, Json)], out: &mut Outcome) {
    let mut rng = Rng::new(args.seed ^ 0x0AC1E);
    let mut by_key: BTreeMap<(String, i64), Vec<&(Req, Json)>> = BTreeMap::new();
    for s in served {
        if let Kind::Single(r, n) = s.0.kind {
            if n <= ORACLE_MAX_N {
                by_key.entry((r.name(), n)).or_default().push(s);
            }
        }
    }
    let sample: Vec<&(Req, Json)> = by_key
        .values()
        .map(|list| list[rng.below(list.len())])
        .collect();
    out.note("oracle_keys", Json::Int(sample.len() as i64));
    let registry = Registry::new(DeviceSpec::gtx285());
    for (req, doc) in sample {
        let Kind::Single(r, n) = req.kind else {
            continue;
        };
        out.attempted += 1;
        let oracle = registry.resolve(r, n).and_then(|entry| {
            let src = routines::source(r);
            let o = apply_lenient(&src, &entry.script, entry.params).map_err(|e| e.to_string())?;
            let c = CompiledProgram::compile(ExecEngine::Oracle, &o.program, &Bindings::square(n))
                .map_err(|e| e.to_string())?;
            let mut bufs = prepare_buffers(&o.program, n, req.seed, true);
            c.execute(&mut bufs).map_err(|e| e.to_string())?;
            Ok(digest_buffers(&bufs))
        });
        match oracle {
            Ok(d) if Some(d) == digest_of(doc) => {}
            Ok(d) => out.fail(format!(
                "{} n={n} seed {}: served {:?} != oracle {d:016x}",
                r.name(),
                req.seed,
                digest_of(doc)
            )),
            Err(e) => out.fail(format!("{} n={n}: oracle run failed: {e}", r.name())),
        }
    }
}

/// Replay state: compiled programs per (routine, n), as the LRU keeps
/// them, plus the flops executed.
#[derive(Default)]
struct Replay {
    programs: HashMap<(RoutineId, i64), (Program, CompiledProgram)>,
    flops: f64,
    mismatches: Vec<String>,
}

/// Replay one single request stage by stage; returns its digest.
fn replay_single(
    registry: &Registry,
    req: &Req,
    r: RoutineId,
    n: i64,
    id: u64,
    tr: &mut Tracer,
    rp: &mut Replay,
) -> Result<u64, String> {
    let entry = tr.time("dispatch.resolve", id, || registry.resolve(r, n))?;
    let b = Bindings::square(n);
    let (p, c) = match rp.programs.entry((r, n)) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(slot) => {
            let o = tr
                .time("epod.translate", id, || {
                    apply_lenient(&routines::source(r), &entry.script, entry.params)
                })
                .map_err(|e| e.to_string())?;
            let c = tr
                .time("gpusim.lower", id, || {
                    CompiledProgram::compile(registry.engine(), &o.program, &b)
                })
                .map_err(|e| e.to_string())?;
            let _ = tr.time("perf.evaluate", id, || {
                evaluate(&o.program, &b, registry.device(), r.flops(n), true)
            });
            slot.insert((o.program, c))
        }
    };
    let mut bufs = tr.time("blas3.prep", id, || prepare_buffers(p, n, req.seed, true));
    tr.time("gpusim.exec", id, || c.execute(&mut bufs))
        .map_err(|e| e.to_string())?;
    rp.flops += r.flops(n);
    Ok(tr.time("dispatch.digest", id, || digest_buffers(&bufs)))
}

/// Replay `seq` in process on one thread, stage by stage, comparing
/// every digest with the served one.  Returns the wall seconds.
fn replay(
    registry: &Registry,
    seq: &[(Req, Option<Json>)],
    tr: &mut Tracer,
    rp: &mut Replay,
) -> f64 {
    let t0 = Instant::now();
    for (i, (req, served)) in seq.iter().enumerate() {
        let id = i as u64;
        let root = tr.open("request", id);
        let digest: Result<u64, String> = match req.kind {
            Kind::Single(r, n) => replay_single(registry, req, r, n, id, tr, rp),
            Kind::Dag(..) => {
                let d = req.dag_request().expect("generated DAG lines parse");
                match tr.time("dag.exec", id, || registry.run_dag(&d)).status {
                    DagStatus::Ok(ok) => Ok(ok.digest),
                    DagStatus::Failed { class, reason } => Err(format!("{class}: {reason}")),
                }
            }
        };
        tr.close(root);
        let want = served.as_ref().and_then(digest_of);
        match digest {
            Ok(d) if Some(d) == want => {}
            Ok(d) => rp.mismatches.push(format!(
                "{:?} seed {}: served {want:?} != replay {d:016x}",
                req.kind, req.seed
            )),
            Err(e) => rp
                .mismatches
                .push(format!("{:?}: replay failed: {e}", req.kind)),
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The traced run: tune and plan every key in process (set-up spans),
/// replay the served sequence untraced then traced, and attribute.
fn traced(args: &Args, seq: &[(Req, Option<Json>)], out: &mut Outcome) {
    let registry = Registry::new(DeviceSpec::gtx285());
    let mut tr = Tracer::new(true);
    let mut classes: Vec<(RoutineId, i64)> = Vec::new();
    for (r, _) in seq {
        if let Kind::Single(rt, n) = r.kind {
            if !classes.contains(&(rt, size_class(n))) {
                classes.push((rt, size_class(n)));
            }
        }
    }
    let mut dag_keys: Vec<&Req> = Vec::new();
    for (r, _) in seq {
        if matches!(r.kind, Kind::Dag(..)) && !dag_keys.iter().any(|k| k.kind == r.kind) {
            dag_keys.push(r);
        }
    }
    let (mut points, mut evaluated, mut pruned, mut errored) = (0usize, 0usize, 0usize, 0usize);
    let root = tr.open("setup", u64::MAX);
    for &(r, class) in &classes {
        tr.time("autotune.tune", u64::MAX, || {
            let _ = registry.resolve_observed(r, class, &mut |e| {
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
            });
        });
    }
    let (mut fused_edges, mut rejects) = (0usize, 0usize);
    for k in &dag_keys {
        let d = k.dag_request().expect("generated DAG lines parse");
        if let DagStatus::Ok(ok) = tr
            .time("dag.fused_tune", u64::MAX, || registry.run_dag(&d))
            .status
        {
            fused_edges += ok.fused.len();
            rejects += ok.rejected.len();
        }
    }
    tr.close(root);

    let mut plain = Replay::default();
    let wall_u = replay(&registry, seq, &mut Tracer::new(false), &mut plain);
    let mut rp = Replay::default();
    let wall_t = replay(&registry, seq, &mut tr, &mut rp);
    out.attempted += seq.len() as u64;
    for m in rp.mismatches.drain(..) {
        out.fail(m);
    }
    out.set("trace.overhead_frac", wall_t / wall_u - 1.0);

    let a = tr.attribution();
    let tune_calls = a.calls("autotune.tune").max(1) as f64;
    out.set("autotune.tune_ms", a.ms("autotune.tune") / tune_calls);
    out.set("autotune.points", points as f64);
    out.set(
        "autotune.evaluated_ratio",
        evaluated as f64 / points.max(1) as f64,
    );
    out.set("autotune.pruned", pruned as f64);
    out.set("autotune.errored", errored as f64);
    out.set("dag.fused_tune_ms", a.ms("dag.fused_tune"));
    out.set("dag.exec_ms", a.ms("dag.exec"));
    out.set("dag.fused_edges", fused_edges as f64);
    out.set("dag.rejects", rejects as f64);
    out.set("dispatch.resolve_ms", a.ms("dispatch.resolve"));
    out.set("dispatch.digest_ms", a.ms("dispatch.digest"));
    out.set("epod.translate_ms", a.ms("epod.translate"));
    out.set("epod.translate_calls", a.calls("epod.translate") as f64);
    out.set("perf.evaluate_ms", a.ms("perf.evaluate"));
    out.set("perf.evaluate_calls", a.calls("perf.evaluate") as f64);
    out.set("gpusim.lower_ms", a.ms("gpusim.lower"));
    out.set("blas3.prep_ms", a.ms("blas3.prep"));
    let exec_ms = a.ms("gpusim.exec");
    out.set("gpusim.exec_ms", exec_ms);
    let host_gflops = if exec_ms > 0.0 {
        rp.flops / (exec_ms * 1e-3) / 1e9
    } else {
        0.0
    };
    out.set("gpusim.exec_host_gflops", host_gflops);
    let (mut entries, mut fallbacks) = (0u64, 0u64);
    for (_, c) in rp.programs.values() {
        if let CompiledProgram::Native(np) = c {
            let (e, f) = np.runtime_stats();
            entries += e;
            fallbacks += f;
        }
    }
    out.set(
        "gpusim.native_entry_ratio",
        if entries + fallbacks > 0 {
            entries as f64 / (entries + fallbacks) as f64
        } else {
            0.0
        },
    );
    finish_trace(args, &tr, out);
    let peak = out.metrics.get("host.fma_gflops").copied().unwrap_or(0.0);
    out.set(
        "gpusim.exec_peak_frac",
        if peak > 0.0 { host_gflops / peak } else { 0.0 },
    );
}
