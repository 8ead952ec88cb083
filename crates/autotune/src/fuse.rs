//! Expression-DAG fusion: the planner, fused-program construction, the
//! fused candidate sweep, and the DAG runner shared by the serve layer,
//! the fuzzer, and the benchmark harnesses.
//!
//! A request may name a small DAG of routine calls whose operands
//! reference prior node outputs.  When a producer's register-tile output
//! feeds a consumer with compatible structure, the consumer's inner nest
//! is spliced into the producer's (the [`oa_loopir::transform`] fusion
//! splices), so the intermediate never round-trips through global memory:
//!
//! * **Epilogue** — a GEMM-family producer feeding an elementwise `ADD`:
//!   the producer's `__reg_store` becomes `D = rC + E` per element
//!   ([`oa_loopir::transform::epilogue_fuse`]).
//! * **Solver prologue** — a `SYRK` rank update feeding a left-side
//!   `TRSM`'s in-place operand: a staged accumulation after the solver's
//!   `__reg_load` reproduces the producer's ascending-k chain
//!   bit-for-bit ([`oa_loopir::transform::solver_prologue_fuse`]).
//!
//! Illegal shapes fall back to a sequenced unfused plan with a recorded
//! reject reason (the taxonomy constants below).  Legality is in two
//! layers: [`plan_dag`] checks *structural* legality (routine shapes,
//! single-consumer intermediates) which is order-stable — permuting
//! independent nodes never changes the fused edge set — and the per-point
//! *geometry* checks (tile divisibility at this `n`) run inside
//! [`build_fused_point`], so a size where no candidate is legal demotes
//! the pair to two sequenced singles.
//!
//! The fused sweep ([`tune_fused`]) evaluates **every** legal point with
//! the same `total_cmp` keep-last comparator as the exact single-routine
//! sweep; the ranked cost model is pure ordering advice and never applies
//! an early exit to fused shapes, so the winner-invariance contract holds
//! trivially.

use std::collections::HashMap;
use std::sync::Arc;

use oa_blas3::routines::source;
use oa_blas3::schemes::oa_scheme;
use oa_blas3::types::{RoutineId, Side, Trans};
use oa_epod::translator::apply_lenient;
use oa_epod::Script;
use oa_gpusim::perf::{evaluate, PerfReport};
use oa_gpusim::{CompiledProgram, DeviceSpec, ExecEngine};
use oa_loopir::expr::AffineExpr;
use oa_loopir::interp::{alloc_buffers, Bindings, Matrix};
use oa_loopir::stmt::Stmt;
use oa_loopir::transform::{
    epilogue_fuse, solver_prologue_fuse, EpilogueSpec, PrologueSpec, TileParams,
};
use oa_loopir::Program;
use rayon::prelude::*;

use crate::report::{FuseStats, TuneEvent};
use crate::space::candidates;
use crate::tuner::{compose_variants, tune_observed, TuneError};

/// One operand of a DAG node: an external buffer (by name) or a prior
/// node's output (by node index — references always point backward).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An external input buffer, filled deterministically from its name.
    Buf(String),
    /// The output of an earlier node.
    Node(usize),
}

/// One node of an expression DAG: a routine call with operand routing.
#[derive(Clone, Debug, PartialEq)]
pub struct DagNode {
    /// Stable node id (for traces, rejects, and the result digest).
    pub id: String,
    /// The routine this node runs.
    pub routine: RoutineId,
    /// First operand (`A`).
    pub a: Operand,
    /// Second operand (`B`; the solvers solve in place on a copy of it).
    pub b: Operand,
    /// Accumulator seed (`C`) for the GEMM family; `None` for `ADD`
    /// (pure output) and the solvers (in place on `b`).
    pub c: Option<Operand>,
}

impl DagNode {
    /// The program array holding this node's result.
    pub fn output_array(&self) -> &'static str {
        match self.routine {
            RoutineId::Trsm(..) => "B",
            _ => "C",
        }
    }

    /// The operands this node *reads* (`ADD`'s `C` is write-only).
    pub fn reads(&self) -> Vec<&Operand> {
        let mut v = vec![&self.a, &self.b];
        if let Some(c) = &self.c {
            if !matches!(self.routine, RoutineId::Add) {
                v.push(c);
            }
        }
        v
    }

    /// A symmetric rank update: `GEMM-NT` with both operands the same.
    pub fn is_syrk(&self) -> bool {
        self.routine == RoutineId::Gemm(Trans::N, Trans::T) && self.a == self.b
    }
}

/// How a fused pair is spliced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuseKind {
    /// Elementwise consumer folded into the producer's register store.
    Epilogue,
    /// Rank-update producer folded into the solver's register load.
    SolverPrologue,
}

impl FuseKind {
    /// Stable name for traces and stats.
    pub fn name(self) -> &'static str {
        match self {
            FuseKind::Epilogue => "epilogue",
            FuseKind::SolverPrologue => "prologue",
        }
    }
}

/// The intermediate is read by more than one operand slot.
pub const REASON_MULTI_CONSUMER: &str = "multi-consumer";
/// The producer's routine/structure has no fusion rule toward this consumer.
pub const REASON_PRODUCER_SHAPE: &str = "producer-shape";
/// The consumer's routine/operand slot has no fusion rule.
pub const REASON_CONSUMER_SHAPE: &str = "consumer-shape";
/// One endpoint already belongs to another fused pair.
pub const REASON_ALREADY_FUSED: &str = "already-fused";
/// No candidate tile shape divides this problem size.
pub const REASON_TILE_GEOMETRY: &str = "tile-geometry";
/// Script application failed at every candidate point.
pub const REASON_TRANSLATE: &str = "translate";
/// The loopir splice refused its structural precondition.
pub const REASON_SPLICE: &str = "splice";
/// No sweep point survived performance evaluation.
pub const REASON_NO_CANDIDATE: &str = "no-candidate";
/// The fused winner moves no less global-memory traffic than the
/// sequenced pair (`Tuned` mode only — profitability needs the model).
pub const REASON_UNPROFITABLE: &str = "unprofitable";

/// A producer→consumer edge that was not fused, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct FuseReject {
    /// Producer node index.
    pub producer: usize,
    /// Consumer node index.
    pub consumer: usize,
    /// Reject reason (one of the `REASON_*` constants).
    pub reason: String,
}

/// One execution unit of a planned DAG.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanUnit {
    /// Run one node's routine alone.
    Single(usize),
    /// Run a fused pair (emitted at the consumer's position, which is
    /// always valid: references point backward and the intermediate has
    /// exactly one reader).
    Fused {
        /// Producer node index.
        producer: usize,
        /// Consumer node index.
        consumer: usize,
        /// The splice used.
        kind: FuseKind,
    },
}

/// A structural fusion plan: units in execution order plus every
/// considered-but-rejected edge.
#[derive(Clone, Debug, PartialEq)]
pub struct DagPlan {
    /// Units in execution order.
    pub units: Vec<PlanUnit>,
    /// Rejected edges with reasons.
    pub rejects: Vec<FuseReject>,
}

/// How many operand slots read node `p`'s output.
fn ref_count(nodes: &[DagNode], p: usize) -> usize {
    nodes
        .iter()
        .flat_map(|n| n.reads())
        .filter(|o| **o == Operand::Node(p))
        .count()
}

/// Sink nodes: outputs no other node reads (the digest covers these).
pub fn sinks(nodes: &[DagNode]) -> Vec<usize> {
    (0..nodes.len())
        .filter(|&i| ref_count(nodes, i) == 0)
        .collect()
}

/// Structural legality of one producer→consumer edge.  All inputs are
/// order-stable properties of the DAG (never of the node *listing*), so
/// permuting independent nodes cannot change the verdict.
fn edge_kind(
    nodes: &[DagNode],
    p: usize,
    ci: usize,
    taken: &[bool],
) -> Result<FuseKind, &'static str> {
    let prod = &nodes[p];
    let cons = &nodes[ci];
    if ref_count(nodes, p) != 1 {
        return Err(REASON_MULTI_CONSUMER);
    }
    let kind = match cons.routine {
        RoutineId::Add => match prod.routine {
            RoutineId::Gemm(..) | RoutineId::Symm(..) | RoutineId::Trmm(..) => FuseKind::Epilogue,
            _ => return Err(REASON_PRODUCER_SHAPE),
        },
        RoutineId::Trsm(side, ..) => {
            if cons.b != Operand::Node(p) || side != Side::Left {
                // The triangular operand slot (or a right-side solver)
                // has no prologue rule.
                return Err(REASON_CONSUMER_SHAPE);
            }
            if !prod.is_syrk() {
                return Err(REASON_PRODUCER_SHAPE);
            }
            FuseKind::SolverPrologue
        }
        _ => return Err(REASON_CONSUMER_SHAPE),
    };
    if taken[p] || taken[ci] {
        return Err(REASON_ALREADY_FUSED);
    }
    Ok(kind)
}

/// Build the structural fusion plan for a DAG.
///
/// Fused pairs are emitted at the consumer's position; the producer's
/// slot disappears.  With `fuse` false every node becomes a single unit
/// and no rejects are recorded (fusion was never considered).
///
/// **Order stability.**  Candidate producers for one consumer are visited
/// in ascending producer-*id* order (ids are stable under permutation;
/// indices are not), and every legality input is a property of the DAG's
/// edges, so permuting independent nodes yields the same fused edge set.
pub fn plan_dag(nodes: &[DagNode], fuse: bool) -> DagPlan {
    let mut rejects = Vec::new();
    // consumer index -> (producer index, kind)
    let mut pair_of: Vec<Option<(usize, FuseKind)>> = vec![None; nodes.len()];
    let mut taken = vec![false; nodes.len()];
    if fuse {
        for ci in 0..nodes.len() {
            let mut producers: Vec<usize> = nodes[ci]
                .reads()
                .iter()
                .filter_map(|o| match o {
                    Operand::Node(p) => Some(*p),
                    Operand::Buf(_) => None,
                })
                .collect();
            producers.sort_by(|&x, &y| nodes[x].id.cmp(&nodes[y].id));
            producers.dedup();
            for p in producers {
                match edge_kind(nodes, p, ci, &taken) {
                    Ok(kind) => {
                        pair_of[ci] = Some((p, kind));
                        taken[p] = true;
                        taken[ci] = true;
                    }
                    Err(reason) => rejects.push(FuseReject {
                        producer: p,
                        consumer: ci,
                        reason: reason.to_string(),
                    }),
                }
            }
        }
    }
    let fused_producers: Vec<usize> = pair_of.iter().flatten().map(|(p, _)| *p).collect();
    let mut units = Vec::new();
    for (i, pair) in pair_of.iter().enumerate() {
        if fused_producers.contains(&i) {
            continue; // owned by its pair, emitted at the consumer slot
        }
        match pair {
            Some((p, kind)) => units.push(PlanUnit::Fused {
                producer: *p,
                consumer: i,
                kind: *kind,
            }),
            None => units.push(PlanUnit::Single(i)),
        }
    }
    DagPlan { units, rejects }
}

/// Canonical shape string of a DAG — the registry/coalescing cache key.
/// Node-output references are printed by *index* so two structurally
/// identical DAGs with different ids share plans.
pub fn shape_key(nodes: &[DagNode]) -> String {
    let op = |o: &Operand| match o {
        Operand::Buf(b) => b.clone(),
        Operand::Node(i) => format!("@{i}"),
    };
    nodes
        .iter()
        .map(|n| {
            let mut args = vec![op(&n.a), op(&n.b)];
            if let Some(c) = &n.c {
                args.push(op(c));
            }
            format!("{}({})", n.routine.name(), args.join(","))
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Short label of one fused pair (the per-pair plan cache key slot).
pub fn pair_label(nodes: &[DagNode], producer: usize, consumer: usize, kind: FuseKind) -> String {
    let order = match kind {
        FuseKind::Epilogue if nodes[consumer].a != Operand::Node(producer) => "~",
        _ => "",
    };
    format!(
        "FUSE:{}+{}{}",
        nodes[producer].routine.name(),
        order,
        nodes[consumer].routine.name()
    )
}

/// Build the fused program for one pair at one `(script, params)` sweep
/// point.  Returns the taxonomy reason on failure.
///
/// `reverse_k_chain` is the mutation-testing hazard: when set, the
/// prologue's staged k-tiles are visited in *descending* order, silently
/// breaking the chain-order legality invariant the differential battery
/// must catch (fused results stop being bit-identical to sequenced ones).
#[allow(clippy::too_many_arguments)]
pub fn build_fused_point(
    nodes: &[DagNode],
    producer: usize,
    consumer: usize,
    kind: FuseKind,
    script: &Script,
    params: TileParams,
    n: i64,
    reverse_k_chain: bool,
) -> Result<Program, &'static str> {
    match kind {
        FuseKind::Epilogue => {
            let src = source(nodes[producer].routine);
            let outcome = apply_lenient(&src, script, params).map_err(|_| REASON_TRANSLATE)?;
            let mut prog = outcome.program;
            let producer_first = nodes[consumer].a == Operand::Node(producer);
            epilogue_fuse(
                &mut prog,
                &EpilogueSpec {
                    output: "C".into(),
                    other: "E".into(),
                    dest: "D".into(),
                    producer_first,
                },
            )
            .map_err(|_| REASON_SPLICE)?;
            prog.name = pair_label(nodes, producer, consumer, kind);
            Ok(prog)
        }
        FuseKind::SolverPrologue => {
            // The staged panels have no edge guards: every tile shape must
            // divide the problem size exactly.
            if n % params.ty != 0 || n % params.tx != 0 || n % params.kb != 0 {
                return Err(REASON_TILE_GEOMETRY);
            }
            let src = source(nodes[consumer].routine);
            let outcome = apply_lenient(&src, script, params).map_err(|_| REASON_TRANSLATE)?;
            let mut prog = outcome.program;
            solver_prologue_fuse(
                &mut prog,
                &PrologueSpec {
                    output: "B".into(),
                    source: "F0".into(),
                    extent: "M".into(),
                    pkb: params.kb,
                },
            )
            .map_err(|_| REASON_SPLICE)?;
            if reverse_k_chain {
                let tiles = n / params.kb;
                let kb = params.kb;
                prog.rewrite_loop("Lpfk", &mut |mut l| {
                    for s in &mut l.body {
                        if let Stmt::Stage(st) = s {
                            st.src_col0 = AffineExpr::cst((tiles - 1) * kb)
                                .sub(&AffineExpr::term("pf_kk", kb));
                        }
                    }
                    vec![Stmt::Loop(Box::new(l))]
                });
            }
            prog.name = pair_label(nodes, producer, consumer, kind);
            Ok(prog)
        }
    }
}

/// The winning fused sweep point for one pair.
#[derive(Clone, Debug)]
pub struct FusedTuned {
    /// Pair label (`FUSE:SYRK-ish+TRSM-LL-N` style).
    pub label: String,
    /// The splice used.
    pub kind: FuseKind,
    /// Winning anchor script.
    pub script: Script,
    /// Winning tile parameters.
    pub params: TileParams,
    /// Performance report of the fused program (combined useful flops).
    pub report: PerfReport,
    /// The fused program itself.
    pub program: Program,
    /// Points that ranked.
    pub evaluated: usize,
    /// Points rejected by the geometry check.
    pub geometry_rejected: usize,
}

/// Most frequent build-failure reason, with a fixed tie-break priority so
/// the demotion reason is deterministic.
fn dominant_reason(fails: &[&'static str]) -> &'static str {
    let priority = [
        REASON_TILE_GEOMETRY,
        REASON_SPLICE,
        REASON_TRANSLATE,
        REASON_NO_CANDIDATE,
    ];
    priority
        .iter()
        .max_by_key(|r| fails.iter().filter(|f| *f == *r).count())
        .copied()
        .filter(|r| fails.iter().any(|f| f == r))
        .unwrap_or(REASON_NO_CANDIDATE)
}

/// One evaluated point of the fused sweep: `(script index, tile params,
/// program, report)` or the reject reason.
type SweepPoint = Result<(usize, TileParams, Program, PerfReport), &'static str>;

/// Sweep the anchor routine's candidate grid for one fused pair and keep
/// the best fused program (same order, same `total_cmp` keep-last
/// comparator as the single-routine sweep — winner-invariant by
/// construction since every legal point is evaluated).
///
/// The anchor is the node whose tuned nest hosts the splice: the producer
/// for an epilogue, the consumer (solver) for a prologue.
#[allow(clippy::too_many_arguments)]
pub fn tune_fused(
    engine: ExecEngine,
    nodes: &[DagNode],
    producer: usize,
    consumer: usize,
    kind: FuseKind,
    device: &DeviceSpec,
    n: i64,
    reverse_k_chain: bool,
) -> Result<FusedTuned, FuseReject> {
    let anchor = match kind {
        FuseKind::Epilogue => nodes[producer].routine,
        FuseKind::SolverPrologue => nodes[consumer].routine,
    };
    let solver = oa_scheme(anchor).solver;
    let reject = |reason: &str| FuseReject {
        producer,
        consumer,
        reason: reason.to_string(),
    };
    let (scripts, _stats, _ms) =
        compose_variants(engine, anchor).map_err(|_| reject(REASON_NO_CANDIDATE))?;
    let grid: Vec<(usize, TileParams)> = scripts
        .iter()
        .enumerate()
        .flat_map(|(si, _)| candidates(solver).into_iter().map(move |p| (si, p)))
        .collect();
    let flops = nodes[producer].routine.flops(n) + nodes[consumer].routine.flops(n);
    let bindings = Bindings::square(n);

    let results: Vec<SweepPoint> = grid
        .par_iter()
        .map(|(si, params)| {
            let prog = build_fused_point(
                nodes,
                producer,
                consumer,
                kind,
                &scripts[*si],
                *params,
                n,
                reverse_k_chain,
            )?;
            match evaluate(&prog, &bindings, device, flops, true) {
                Ok(report) if report.occupancy > 0.0 => Ok((*si, *params, prog, report)),
                _ => Err(REASON_NO_CANDIDATE),
            }
        })
        .collect();

    let mut fails = Vec::new();
    let mut geometry_rejected = 0usize;
    let mut evaluated = 0usize;
    let mut best: Option<(usize, TileParams, Program, PerfReport)> = None;
    for r in results {
        match r {
            Ok(point) => {
                evaluated += 1;
                // Keep-last on ties: identical to the exact sweep's
                // comparator, so the winner never depends on evaluation
                // order or count.
                let better = best
                    .as_ref()
                    .map(|(_, _, _, b)| point.3.gflops.total_cmp(&b.gflops).is_ge())
                    .unwrap_or(true);
                if better {
                    best = Some(point);
                }
            }
            Err(reason) => {
                if reason == REASON_TILE_GEOMETRY {
                    geometry_rejected += 1;
                }
                fails.push(reason);
            }
        }
    }
    match best {
        Some((si, params, program, report)) => Ok(FusedTuned {
            label: pair_label(nodes, producer, consumer, kind),
            kind,
            script: scripts[si].clone(),
            params,
            report,
            program,
            evaluated,
            geometry_rejected,
        }),
        None => Err(reject(dominant_reason(&fails))),
    }
}

/// The cheap resolution: the first sweep point that builds, unevaluated
/// (the fuzzer's differential mode — correctness is point-independent).
pub fn first_legal_fused(
    engine: ExecEngine,
    nodes: &[DagNode],
    producer: usize,
    consumer: usize,
    kind: FuseKind,
    n: i64,
    reverse_k_chain: bool,
) -> Result<Program, FuseReject> {
    let anchor = match kind {
        FuseKind::Epilogue => nodes[producer].routine,
        FuseKind::SolverPrologue => nodes[consumer].routine,
    };
    let solver = oa_scheme(anchor).solver;
    let reject = |reason: &str| FuseReject {
        producer,
        consumer,
        reason: reason.to_string(),
    };
    let (scripts, _, _) =
        compose_variants(engine, anchor).map_err(|_| reject(REASON_NO_CANDIDATE))?;
    let mut fails = Vec::new();
    for script in &scripts {
        for params in candidates(solver) {
            match build_fused_point(
                nodes,
                producer,
                consumer,
                kind,
                script,
                params,
                n,
                reverse_k_chain,
            ) {
                Ok(p) => return Ok(p),
                Err(reason) => fails.push(reason),
            }
        }
    }
    Err(reject(dominant_reason(&fails)))
}

/// FNV-1a over a matrix's dimensions and element bit patterns.
pub fn matrix_digest(m: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for d in [m.rows, m.cols] {
        for b in d.to_le_bytes() {
            eat(b);
        }
    }
    for c in 0..m.cols {
        for r in 0..m.rows {
            for b in m.get(r, c).to_bits().to_le_bytes() {
                eat(b);
            }
        }
    }
    h
}

fn fnv_str(seed: u64, s: &str) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How the runner resolves per-unit programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolveMode {
    /// First legal point, no performance evaluation (differential mode:
    /// bit-identity is point-independent, so the cheapest point serves).
    Fast,
    /// Full tuned resolution: singles through [`tune_observed`] (cache
    /// aware), fused pairs through the [`tune_fused`] sweep.
    Tuned,
}

/// A resolved unit program and its modeled report (`Tuned` mode only),
/// shared by every plan that uses it.
#[derive(Debug)]
struct Resolved {
    program: Program,
    report: Option<PerfReport>,
}

/// One executable unit of a [`CompiledDag`]: the resolved program (its
/// array declarations shape the run's buffers), its compiled form, and
/// the operand routing.
#[derive(Debug)]
struct ExecUnit {
    label: String,
    resolved: Arc<Resolved>,
    compiled: Arc<CompiledProgram>,
    /// `(program array, operand supplying its initial contents)`.
    inputs: Vec<(&'static str, Operand)>,
    /// `(program array, node whose output it holds afterwards)`.
    outputs: Vec<(&'static str, usize)>,
}

/// The result of one DAG execution.
#[derive(Clone, Debug)]
pub struct DagRun {
    /// Combined digest over the sink outputs (sorted by node id).
    pub digest: u64,
    /// Per-sink digests, sorted by node id.
    pub sinks: Vec<(String, u64)>,
    /// Fused edges `(producer id, consumer id, kind name)`.
    pub fused: Vec<(String, String, &'static str)>,
    /// Rejected/demoted edges `(producer id, consumer id, reason)`.
    pub rejects: Vec<(String, String, String)>,
    /// Units executed.
    pub units: usize,
    /// Modeled global-memory traffic summed over units (`Tuned` mode).
    pub gmem_bytes: Option<f64>,
    /// Combined useful GFLOPS over modeled time (`Tuned` mode).
    pub gflops: Option<f64>,
}

/// A DAG planned, resolved and compiled once for one `(shape, n, fuse)`:
/// immutable, so any number of threads may [`run`](CompiledDag::run) it
/// at once against their own buffers.  Edges are kept by node index (the
/// shape key prints references by index), so every request of the same
/// shape shares the plan whatever its node ids.
#[derive(Debug)]
pub struct CompiledDag {
    shape: String,
    n: i64,
    units: Vec<ExecUnit>,
    /// Fused edges `(producer, consumer, kind)`.
    fused: Vec<(usize, usize, FuseKind)>,
    /// Rejected/demoted edges `(producer, consumer, reason)`.
    rejects: Vec<(usize, usize, String)>,
    gmem_bytes: Option<f64>,
    gflops: Option<f64>,
}

impl CompiledDag {
    /// Execute the plan for `nodes` (a DAG of the planned shape) against
    /// deterministic name-seeded external buffers, digest the sink
    /// outputs, and emit one [`TuneEvent::Fuse`] with the per-edge
    /// decisions.
    pub fn run(
        &self,
        nodes: &[DagNode],
        seed: u64,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> Result<DagRun, String> {
        debug_assert_eq!(shape_key(nodes), self.shape, "plan run on another shape");
        let n = self.n;
        let bindings = Bindings::square(n);
        let mut externals: HashMap<String, Matrix> = HashMap::new();
        let mut outs: HashMap<usize, Matrix> = HashMap::new();
        for unit in &self.units {
            let program = &unit.resolved.program;
            let mut bufs = alloc_buffers(program, &bindings, seed);
            for (arr, op) in &unit.inputs {
                let mut m = match op {
                    Operand::Buf(name) => external_buffer(&mut externals, name, n, seed).clone(),
                    Operand::Node(i) => outs
                        .get(i)
                        .ok_or_else(|| format!("intermediate @{i} never materialized"))?
                        .clone(),
                };
                if let Some(decl) = program.array(arr) {
                    if decl.blank_is_zero {
                        m.zero_blank(decl.fill);
                    }
                }
                bufs.insert((*arr).to_string(), m);
            }
            unit.compiled
                .execute(&mut bufs)
                .map_err(|e| format!("{}: {} ({e})", unit.label, e.class()))?;
            for (arr, node) in &unit.outputs {
                let m = bufs
                    .remove(*arr)
                    .ok_or_else(|| format!("{}: output array {arr} missing", unit.label))?;
                outs.insert(*node, m);
            }
        }

        let mut sink_digests: Vec<(String, u64)> = sinks(nodes)
            .into_iter()
            .map(|i| {
                let m = &outs[&i];
                (nodes[i].id.clone(), matrix_digest(m))
            })
            .collect();
        sink_digests.sort();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (id, d) in &sink_digests {
            digest = fnv_str(digest, id) ^ d.rotate_left(17);
        }

        let id = |i: usize| nodes[i].id.clone();
        let fused: Vec<(String, String, &'static str)> = self
            .fused
            .iter()
            .map(|&(p, c, kind)| (id(p), id(c), kind.name()))
            .collect();
        let rejects: Vec<(String, String, String)> = self
            .rejects
            .iter()
            .map(|(p, c, reason)| (id(*p), id(*c), reason.clone()))
            .collect();
        obs(TuneEvent::Fuse(FuseStats {
            shape: self.shape.clone(),
            n,
            nodes: nodes.len(),
            fused: fused
                .iter()
                .map(|(p, c, k)| (p.clone(), c.clone(), k.to_string()))
                .collect(),
            rejected: rejects.clone(),
            units: self.units.len(),
        }));

        Ok(DagRun {
            digest,
            sinks: sink_digests,
            fused,
            rejects,
            units: self.units.len(),
            gmem_bytes: self.gmem_bytes,
            gflops: self.gflops,
        })
    }
}

/// Memoized fused-pair resolutions, keyed by `(pair label, n)`.
type FusedCache = HashMap<(String, i64), Result<Arc<Resolved>, FuseReject>>;

/// The DAG planner-runner: resolves per-unit programs (memoized), plans
/// and compiles DAGs into [`CompiledDag`]s, and runs them.
///
/// One environment caches per-routine programs and per-pair fused plans,
/// so repeated DAGs (a fuzz campaign, a serve session) pay resolution
/// once per shape.
pub struct FuseEnv {
    /// Engine behind the composer's legality filter *and* the executor.
    pub engine: ExecEngine,
    /// Device for performance evaluation (`Tuned` mode).
    pub device: DeviceSpec,
    /// Resolution mode.
    pub mode: ResolveMode,
    /// Mutation-testing hazard: break the prologue's k-chain order (see
    /// [`build_fused_point`]).  Never set outside mutation tests.
    pub hazard_reverse_k: bool,
    singles: HashMap<(String, i64), Arc<Resolved>>,
    fused: FusedCache,
}

impl FuseEnv {
    /// A fresh environment.
    pub fn new(engine: ExecEngine, device: DeviceSpec, mode: ResolveMode) -> Self {
        FuseEnv {
            engine,
            device,
            mode,
            hazard_reverse_k: false,
            singles: HashMap::new(),
            fused: HashMap::new(),
        }
    }

    /// Resolve one routine's program (memoized per `(routine, n)`).
    fn resolve_single(&mut self, r: RoutineId, n: i64) -> Result<Arc<Resolved>, String> {
        let key = (r.name().to_string(), n);
        if let Some(hit) = self.singles.get(&key) {
            return Ok(hit.clone());
        }
        let entry = match self.mode {
            ResolveMode::Fast => {
                let (scripts, _, _) = compose_variants(self.engine, r)
                    .map_err(|e: TuneError| format!("{}: {e}", r.name()))?;
                let params = crate::space::default_params(oa_scheme(r).solver);
                // First *launchable* variant: some routines' leading
                // variant has no thread mapping (a host-side reference
                // shape), which every engine rejects at launch.
                let bindings = Bindings::square(n);
                let program = scripts
                    .iter()
                    .filter_map(|script| {
                        let outcome = apply_lenient(&source(r), script, params).ok()?;
                        oa_gpusim::launch::extract_launch(&outcome.program, &bindings).ok()?;
                        Some(outcome.program)
                    })
                    .next()
                    .ok_or_else(|| format!("{}: no launchable variant", r.name()))?;
                Resolved {
                    program,
                    report: None,
                }
            }
            ResolveMode::Tuned => {
                let t = tune_observed(r, &self.device, n, &mut |_| {})
                    .map_err(|e| format!("{}: {e}", r.name()))?;
                Resolved {
                    program: t.program,
                    report: Some(t.report),
                }
            }
        };
        let entry = Arc::new(entry);
        self.singles.insert(key, entry.clone());
        Ok(entry)
    }

    /// Resolve one fused pair (memoized per `(pair label, n)`).
    fn resolve_fused(
        &mut self,
        nodes: &[DagNode],
        producer: usize,
        consumer: usize,
        kind: FuseKind,
        n: i64,
    ) -> Result<Arc<Resolved>, FuseReject> {
        let key = (pair_label(nodes, producer, consumer, kind), n);
        if let Some(hit) = self.fused.get(&key) {
            return hit.clone();
        }
        let entry = match self.mode {
            ResolveMode::Fast => first_legal_fused(
                self.engine,
                nodes,
                producer,
                consumer,
                kind,
                n,
                self.hazard_reverse_k,
            )
            .map(|program| Resolved {
                program,
                report: None,
            }),
            ResolveMode::Tuned => tune_fused(
                self.engine,
                nodes,
                producer,
                consumer,
                kind,
                &self.device,
                n,
                self.hazard_reverse_k,
            )
            .map(|t| Resolved {
                program: t.program,
                report: Some(t.report),
            }),
        }
        .map(Arc::new);
        self.fused.insert(key, entry.clone());
        entry
    }

    /// Plan and execute one DAG.  See [`FuseEnv::run_dag_observed`].
    pub fn run_dag(
        &mut self,
        nodes: &[DagNode],
        n: i64,
        seed: u64,
        fuse: bool,
    ) -> Result<DagRun, String> {
        self.run_dag_observed(nodes, n, seed, fuse, &mut |_| {})
    }

    /// Plan and execute one DAG ([`FuseEnv::plan`], then
    /// [`CompiledDag::run`]), emitting one [`TuneEvent::Fuse`] with the
    /// per-edge decisions.
    pub fn run_dag_observed(
        &mut self,
        nodes: &[DagNode],
        n: i64,
        seed: u64,
        fuse: bool,
        obs: &mut dyn FnMut(TuneEvent),
    ) -> Result<DagRun, String> {
        self.plan(nodes, n, fuse)?.run(nodes, seed, obs)
    }

    /// Plan one DAG at size `n`: resolve every unit's program (memoized)
    /// and compile each distinct one once on this environment's engine.
    ///
    /// Pairs whose sweep finds no legal point are demoted to two sequenced
    /// singles with the dominant reject reason recorded — the "illegal
    /// shapes fall back" contract.
    pub fn plan(&mut self, nodes: &[DagNode], n: i64, fuse: bool) -> Result<CompiledDag, String> {
        // Legality is size-uniform: a node that cannot launch standalone
        // (an off-tile solver size, say) fails the whole DAG with the
        // same error whether or not one of its edges would fuse —
        // otherwise a fused plan could "run" work the sequenced fallback
        // must reject, and the two plans would stop being comparable.
        for nd in nodes {
            self.resolve_single(nd.routine, n)?;
        }
        let plan = plan_dag(nodes, fuse);
        let mut rejects: Vec<(usize, usize, String)> = plan
            .rejects
            .iter()
            .map(|r| (r.producer, r.consumer, r.reason.clone()))
            .collect();
        let mut fused: Vec<(usize, usize, FuseKind)> = Vec::new();
        let mut units = UnitBuilder::new(self.engine, n);
        for unit in &plan.units {
            match unit {
                PlanUnit::Single(i) => units.single(self, nodes, *i)?,
                PlanUnit::Fused {
                    producer,
                    consumer,
                    kind,
                } => match self.resolve_fused(nodes, *producer, *consumer, *kind, n) {
                    Ok(resolved) => {
                        // Profitability gate (`Tuned` mode): fusing exists to
                        // cut global-memory round trips, so a fused winner
                        // that moves no less modeled traffic than the
                        // sequenced pair is demoted, not celebrated.  A
                        // prologue splice recomputes the intermediate tile
                        // per column block; past a crossover size those
                        // re-reads swallow the round-trip saving.
                        let unprofitable = match &resolved.report {
                            Some(rep) => {
                                let p = self.resolve_single(nodes[*producer].routine, n)?;
                                let c = self.resolve_single(nodes[*consumer].routine, n)?;
                                match (&p.report, &c.report) {
                                    (Some(p), Some(c)) => {
                                        rep.counters.gmem_bytes
                                            >= p.counters.gmem_bytes + c.counters.gmem_bytes
                                    }
                                    _ => false,
                                }
                            }
                            None => false,
                        };
                        if unprofitable {
                            rejects.push((*producer, *consumer, REASON_UNPROFITABLE.to_string()));
                            units.single(self, nodes, *producer)?;
                            units.single(self, nodes, *consumer)?;
                            continue;
                        }
                        fused.push((*producer, *consumer, *kind));
                        units.fused(nodes, *producer, *consumer, *kind, resolved)?;
                    }
                    Err(rej) => {
                        // Demotion: the sequenced fallback, reason recorded.
                        rejects.push((*producer, *consumer, rej.reason.clone()));
                        units.single(self, nodes, *producer)?;
                        units.single(self, nodes, *consumer)?;
                    }
                },
            }
        }
        let units = units.units;

        let reports: Vec<&PerfReport> = units
            .iter()
            .filter_map(|u| u.resolved.report.as_ref())
            .collect();
        let (gmem_bytes, gflops) = if reports.len() == units.len() && !units.is_empty() {
            let bytes: f64 = reports.iter().map(|r| r.counters.gmem_bytes).sum();
            let time: f64 = reports.iter().map(|r| r.total_time_s).sum();
            let flops: f64 = nodes.iter().map(|nd| nd.routine.flops(n)).sum();
            (Some(bytes), (time > 0.0).then(|| flops / time / 1.0e9))
        } else {
            (None, None)
        };

        Ok(CompiledDag {
            shape: shape_key(nodes),
            n,
            units,
            fused,
            rejects,
            gmem_bytes,
            gflops,
        })
    }
}

/// Accumulates a plan's units, compiling each distinct resolved program
/// once (two nodes of one routine share their compiled form).
struct UnitBuilder {
    engine: ExecEngine,
    n: i64,
    bindings: Bindings,
    compiled: HashMap<String, Arc<CompiledProgram>>,
    units: Vec<ExecUnit>,
}

impl UnitBuilder {
    fn new(engine: ExecEngine, n: i64) -> Self {
        UnitBuilder {
            engine,
            n,
            bindings: Bindings::square(n),
            compiled: HashMap::new(),
            units: Vec::new(),
        }
    }

    fn push(
        &mut self,
        label: String,
        resolved: Arc<Resolved>,
        inputs: Vec<(&'static str, Operand)>,
        outputs: Vec<(&'static str, usize)>,
    ) -> Result<(), String> {
        let compiled = match self.compiled.get(&label) {
            Some(c) => c.clone(),
            None => {
                let c = CompiledProgram::compile(self.engine, &resolved.program, &self.bindings)
                    .map_err(|e| format!("{label}: {} ({e})", e.class()))?;
                let c = Arc::new(c);
                self.compiled.insert(label.clone(), c.clone());
                c
            }
        };
        self.units.push(ExecUnit {
            label,
            resolved,
            compiled,
            inputs,
            outputs,
        });
        Ok(())
    }

    fn single(&mut self, env: &mut FuseEnv, nodes: &[DagNode], i: usize) -> Result<(), String> {
        let node = &nodes[i];
        let resolved = env.resolve_single(node.routine, self.n)?;
        let mut inputs = vec![("A", node.a.clone()), ("B", node.b.clone())];
        if let Some(c) = &node.c {
            if !matches!(node.routine, RoutineId::Add) {
                inputs.push(("C", c.clone()));
            }
        }
        self.push(
            node.routine.name().to_string(),
            resolved,
            inputs,
            vec![(node.output_array(), i)],
        )
    }

    fn fused(
        &mut self,
        nodes: &[DagNode],
        producer: usize,
        consumer: usize,
        kind: FuseKind,
        resolved: Arc<Resolved>,
    ) -> Result<(), String> {
        let prod = &nodes[producer];
        let cons = &nodes[consumer];
        let label = pair_label(nodes, producer, consumer, kind);
        let (inputs, outputs) = match kind {
            FuseKind::Epilogue => {
                let other = if cons.a == Operand::Node(producer) {
                    cons.b.clone()
                } else {
                    cons.a.clone()
                };
                (
                    vec![
                        ("A", prod.a.clone()),
                        ("B", prod.b.clone()),
                        (
                            "C",
                            prod.c.clone().expect("gemm-family producer has a seed"),
                        ),
                        ("E", other),
                    ],
                    vec![("D", consumer)],
                )
            }
            FuseKind::SolverPrologue => (
                vec![
                    ("A", cons.a.clone()),
                    (
                        "B",
                        prod.c.clone().expect("rank-update producer has a seed"),
                    ),
                    ("F0", prod.a.clone()),
                ],
                vec![("B", consumer)],
            ),
        };
        self.push(label, resolved, inputs, outputs)
    }
}

/// Deterministic external buffer: pseudo-random from the request seed and
/// the buffer *name*, diagonal strengthened so solves stay
/// well-conditioned (mirrors `oa_blas3::verify::prepare_buffers`).
fn external_buffer<'a>(
    pool: &'a mut HashMap<String, Matrix>,
    name: &str,
    n: i64,
    seed: u64,
) -> &'a Matrix {
    pool.entry(name.to_string()).or_insert_with(|| {
        let mut m = Matrix::zeros(n, n);
        m.fill_pseudo(fnv_str(seed, name));
        for i in 0..n {
            let v = m.get(i, i);
            m.set(i, i, v.signum() * (v.abs() + 2.0));
        }
        m
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(s: &str) -> Operand {
        Operand::Buf(s.into())
    }

    fn gemm_add(n_id: &str) -> Vec<DagNode> {
        vec![
            DagNode {
                id: "mm".into(),
                routine: RoutineId::Gemm(Trans::N, Trans::N),
                a: buf("A"),
                b: buf("B"),
                c: Some(buf("C")),
            },
            DagNode {
                id: n_id.into(),
                routine: RoutineId::Add,
                a: Operand::Node(0),
                b: buf("E"),
                c: None,
            },
        ]
    }

    fn syrk_trsm() -> Vec<DagNode> {
        vec![
            DagNode {
                id: "rk".into(),
                routine: RoutineId::Gemm(Trans::N, Trans::T),
                a: buf("F"),
                b: buf("F"),
                c: Some(buf("S")),
            },
            DagNode {
                id: "solve".into(),
                routine: RoutineId::parse("TRSM-LL-N").unwrap(),
                a: buf("L"),
                b: Operand::Node(0),
                c: None,
            },
        ]
    }

    fn env() -> FuseEnv {
        FuseEnv::new(
            ExecEngine::Bytecode,
            DeviceSpec::gtx285(),
            ResolveMode::Fast,
        )
    }

    #[test]
    fn plan_pairs_gemm_into_add_epilogue() {
        let nodes = gemm_add("sum");
        let plan = plan_dag(&nodes, true);
        assert_eq!(
            plan.units,
            vec![PlanUnit::Fused {
                producer: 0,
                consumer: 1,
                kind: FuseKind::Epilogue
            }]
        );
        assert!(plan.rejects.is_empty());
        // fuse=false: sequenced, no rejects (fusion never considered).
        let off = plan_dag(&nodes, false);
        assert_eq!(off.units, vec![PlanUnit::Single(0), PlanUnit::Single(1)]);
    }

    #[test]
    fn multi_consumer_intermediate_is_rejected() {
        let mut nodes = gemm_add("sum");
        nodes.push(DagNode {
            id: "sum2".into(),
            routine: RoutineId::Add,
            a: Operand::Node(0),
            b: buf("G"),
            c: None,
        });
        let plan = plan_dag(&nodes, true);
        assert_eq!(plan.units.len(), 3, "all sequenced");
        assert_eq!(plan.rejects.len(), 2);
        assert!(plan
            .rejects
            .iter()
            .all(|r| r.reason == REASON_MULTI_CONSUMER));
    }

    #[test]
    fn fused_gemm_add_matches_sequenced_bit_for_bit() {
        let nodes = gemm_add("sum");
        let mut e = env();
        for n in [24, 64] {
            let fused = e.run_dag(&nodes, n, 7, true).unwrap();
            let plain = e.run_dag(&nodes, n, 7, false).unwrap();
            assert_eq!(fused.fused.len(), 1, "n={n}: epilogue expected");
            assert_eq!(fused.units, 1);
            assert_eq!(plain.units, 2);
            assert_eq!(fused.digest, plain.digest, "n={n}: fusion changed bits");
        }
    }

    #[test]
    fn fused_syrk_trsm_matches_sequenced_bit_for_bit() {
        let nodes = syrk_trsm();
        let mut e = env();
        let fused = e.run_dag(&nodes, 64, 11, true).unwrap();
        let plain = e.run_dag(&nodes, 64, 11, false).unwrap();
        assert_eq!(fused.fused, vec![("rk".into(), "solve".into(), "prologue")]);
        assert_eq!(fused.digest, plain.digest, "prologue fusion changed bits");
    }

    #[test]
    fn indivisible_solver_size_rejects_with_tile_geometry() {
        // 40 is divisible by no solver candidate's column tile, so every
        // fused point fails the staging divisibility check and the
        // pair-level resolution surfaces the geometry reason.  (Such
        // sizes cannot launch the solver *at all* — serve admission
        // rejects them before planning; this pins the reason the planner
        // would record.)
        let nodes = syrk_trsm();
        let err = first_legal_fused(
            ExecEngine::Bytecode,
            &nodes,
            0,
            1,
            FuseKind::SolverPrologue,
            40,
            false,
        )
        .unwrap_err();
        assert_eq!(err.reason, REASON_TILE_GEOMETRY);
    }

    #[test]
    fn compiled_plan_runs_from_many_threads_like_run_dag() {
        // One immutable plan, run concurrently on several seeds: every
        // run equals the plan-and-run path, and units sharing a program
        // share one compiled form.
        let mut e = env();
        let nodes = gemm_add("sum");
        let plan = e.plan(&nodes, 64, true).unwrap();
        assert_eq!(plan.units.len(), 1);
        let want: Vec<u64> = (0..4)
            .map(|seed| e.run_dag(&nodes, 64, seed, true).unwrap().digest)
            .collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (plan, nodes, want, start) = (&plan, &nodes, &want, &start);
                s.spawn(move || {
                    start.wait();
                    for seed in 0..4u64 {
                        let got = plan.run(nodes, seed, &mut |_| {}).unwrap();
                        assert_eq!(got.digest, want[seed as usize], "thread {t} seed {seed}");
                    }
                });
            }
        });

        let twins = vec![
            nodes[0].clone(),
            DagNode {
                id: "mm2".into(),
                ..nodes[0].clone()
            },
        ];
        let plan = e.plan(&twins, 64, true).unwrap();
        assert_eq!(plan.units.len(), 2);
        assert!(Arc::ptr_eq(
            &plan.units[0].compiled,
            &plan.units[1].compiled
        ));
    }

    #[test]
    fn unfusable_reference_slot_demotes_and_matches() {
        // A GEMM intermediate feeding the solver's *triangular* operand
        // slot has no fusion rule: the plan records consumer-shape, runs
        // the sequenced fallback, and still matches the unfused run.
        let nodes = vec![
            DagNode {
                id: "mm".into(),
                routine: RoutineId::Gemm(Trans::N, Trans::N),
                a: buf("A"),
                b: buf("B"),
                c: Some(buf("C")),
            },
            DagNode {
                id: "solve".into(),
                routine: RoutineId::parse("TRSM-LL-N").unwrap(),
                a: Operand::Node(0),
                b: buf("R"),
                c: None,
            },
        ];
        let mut e = env();
        let fused = e.run_dag(&nodes, 64, 9, true).unwrap();
        let plain = e.run_dag(&nodes, 64, 9, false).unwrap();
        assert!(fused.fused.is_empty());
        assert_eq!(fused.units, 2);
        assert!(
            fused
                .rejects
                .iter()
                .any(|(_, _, r)| r == REASON_CONSUMER_SHAPE),
            "rejects: {:?}",
            fused.rejects
        );
        assert_eq!(fused.digest, plain.digest);
    }

    #[test]
    fn reversed_k_chain_hazard_is_caught_by_the_differential() {
        // The mutation: break the prologue's chain-order legality.  The
        // fused result must stop matching the sequenced one — proving the
        // differential battery detects a silently-wrong fusion.
        let nodes = syrk_trsm();
        let mut broken = env();
        broken.hazard_reverse_k = true;
        let fused = broken.run_dag(&nodes, 64, 11, true).unwrap();
        let plain = broken.run_dag(&nodes, 64, 11, false).unwrap();
        assert_eq!(fused.fused.len(), 1, "hazard must not block fusion");
        assert_ne!(
            fused.digest, plain.digest,
            "reversed accumulation chain went undetected"
        );
    }

    #[test]
    fn plan_is_stable_under_independent_node_permutation() {
        // Two independent chains, interleaved two ways: the fused edge
        // set (by node id) must be identical.
        let mk = |order: &[usize]| -> Vec<DagNode> {
            // Chain 1: g1 -> ADD(s1); Chain 2: rk -> TRSM(solve).
            let mut base = gemm_add("sum");
            base.extend(syrk_trsm());
            // base indices: 0=mm, 1=sum(@0), 2=rk, 3=solve(@2) — rebase
            // the solver's reference from its standalone index.
            base[3].b = Operand::Node(2);
            let remap: HashMap<usize, usize> = order
                .iter()
                .enumerate()
                .map(|(new, &old)| (old, new))
                .collect();
            let mut out: Vec<DagNode> = order.iter().map(|&i| base[i].clone()).collect();
            for nd in &mut out {
                for op in [&mut nd.a, &mut nd.b] {
                    if let Operand::Node(i) = op {
                        *i = remap[i];
                    }
                }
                if let Some(Operand::Node(i)) = &mut nd.c {
                    *i = remap[i];
                }
            }
            out
        };
        let edges = |nodes: &[DagNode]| {
            let plan = plan_dag(nodes, true);
            let mut es: Vec<(String, String)> = plan
                .units
                .iter()
                .filter_map(|u| match u {
                    PlanUnit::Fused {
                        producer, consumer, ..
                    } => Some((nodes[*producer].id.clone(), nodes[*consumer].id.clone())),
                    _ => None,
                })
                .collect();
            es.sort();
            es
        };
        let a = mk(&[0, 1, 2, 3]);
        let b = mk(&[2, 0, 3, 1]);
        assert_eq!(edges(&a), edges(&b));
        assert_eq!(edges(&a).len(), 2);
        // And the executed results agree too.
        let mut e = env();
        let ra = e.run_dag(&a, 64, 5, true).unwrap();
        let rb = e.run_dag(&b, 64, 5, true).unwrap();
        assert_eq!(ra.digest, rb.digest, "permutation changed results");
    }

    #[test]
    fn tuned_fused_pair_lowers_global_traffic() {
        // The tentpole's core economic claim, at sweep level: the fused
        // winner's modeled global traffic is strictly below the summed
        // traffic of the two tuned singles — for both chain shapes.
        let device = DeviceSpec::gtx285();
        let n = 128;
        for nodes in [gemm_add("sum"), syrk_trsm()] {
            let plan = plan_dag(&nodes, true);
            let (producer, consumer, kind) = match plan.units[0] {
                PlanUnit::Fused {
                    producer,
                    consumer,
                    kind,
                } => (producer, consumer, kind),
                _ => panic!("expected a fused pair"),
            };
            let fused = tune_fused(
                ExecEngine::Bytecode,
                &nodes,
                producer,
                consumer,
                kind,
                &device,
                n,
                false,
            )
            .unwrap();
            let mut e = FuseEnv::new(ExecEngine::Bytecode, device.clone(), ResolveMode::Tuned);
            let mut unfused_bytes = 0.0;
            for nd in &nodes {
                let single = e.resolve_single(nd.routine, n).unwrap();
                unfused_bytes += single.report.as_ref().unwrap().counters.gmem_bytes;
            }
            assert!(
                fused.report.counters.gmem_bytes < unfused_bytes,
                "{}: fused traffic {} !< unfused {}",
                fused.label,
                fused.report.counters.gmem_bytes,
                unfused_bytes
            );
        }
    }
}
