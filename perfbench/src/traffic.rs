//! Seeded inputs: the routine draws and request streams every workload
//! generates from `--seed`.  The program only ever sees the generated
//! requests.

use oa_core::RoutineId;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A non-negative input seed that survives the JSON `i64` round trip.
    pub fn input_seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }
}

fn routine(name: &str) -> RoutineId {
    RoutineId::parse(name).unwrap_or_else(|| panic!("unknown routine {name}"))
}

/// The two fused shapes the planner supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DagShape {
    /// GEMM-NN whose product feeds an ADD (epilogue fusion).
    GemmAdd,
    /// SYRK feeding a TRSM-LL-N solve (prologue fusion).
    SyrkTrsm,
}

impl DagShape {
    pub const ALL: [DagShape; 2] = [DagShape::GemmAdd, DagShape::SyrkTrsm];

    fn nodes_json(self) -> &'static str {
        match self {
            DagShape::GemmAdd => {
                r#"[{"id":"mm","routine":"GEMM-NN","a":"A","b":"B","c":"C"},{"id":"sum","routine":"ADD","a":"@mm","b":"E"}]"#
            }
            DagShape::SyrkTrsm => {
                r#"[{"id":"rk","routine":"SYRK","a":"F","c":"S"},{"id":"tri","routine":"TRSM-LL-N","a":"L","b":"@rk"}]"#
            }
        }
    }
}

/// What one request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Single(RoutineId, i64),
    Dag(DagShape, i64),
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub kind: Kind,
    pub seed: u64,
    pub tenant: usize,
    /// `false` asks for the sequenced DAG plan (the fusion gate).
    pub fuse: bool,
}

/// Tenants the served traffic is spread over, round-robin.  With the
/// server's per-tenant in-flight quota of [`TENANT_QUOTA`], this many
/// tenants can hold the backlog the latency limit allows at the top of
/// the rate ladder.
pub const TENANTS: usize = 6;
/// `oa serve`'s default per-tenant in-flight quota.
pub const TENANT_QUOTA: usize = 32;

impl Req {
    /// The JSONL line `oa serve` reads.
    pub fn line(&self) -> String {
        let tenant = format!("t{}", self.tenant);
        match self.kind {
            Kind::Single(r, n) => format!(
                r#"{{"routine":"{}","n":{n},"seed":{},"tenant":"{tenant}"}}"#,
                r.name(),
                self.seed
            ),
            Kind::Dag(shape, n) => format!(
                r#"{{"dag":{},"n":{n},"seed":{},"tenant":"{tenant}","fuse":{}}}"#,
                shape.nodes_json(),
                self.seed,
                self.fuse
            ),
        }
    }

    /// The same request parsed the way the server parses it.
    pub fn dag_request(&self) -> Option<oa_core::DagRequest> {
        let doc = oa_core::autotune::json::parse(&self.line())?;
        oa_core::DagRequest::from_json(&doc).ok()
    }
}

/// `libgen-cold`: eight routines, two per family, in seeded order —
/// GEMM-NN (the base scheme) and GEMM-TN, then one left- and one
/// right-side variant of SYMM, TRMM and TRSM, with seeded triangles and
/// TRSM transpositions.  TRMM is transposed on the left side only: the
/// transposed sweeps are the longest items, and the side changes their
/// cost by a quarter, so fixing it keeps every draw's work alike.
pub fn libgen_draw(seed: u64, tiny: bool) -> Vec<RoutineId> {
    let mut rng = Rng::new(seed);
    let ul = |rng: &mut Rng| *rng.pick(&["L", "U"]);
    let mut names = vec![
        "GEMM-NN".to_string(),
        "GEMM-TN".to_string(),
        format!("SYMM-L{}", ul(&mut rng)),
        format!("SYMM-R{}", ul(&mut rng)),
        format!("TRMM-L{}-T", ul(&mut rng)),
        format!("TRMM-R{}-N", ul(&mut rng)),
        format!("TRSM-L{}-{}", ul(&mut rng), rng.pick(&["N", "T"])),
        format!("TRSM-R{}-{}", ul(&mut rng), rng.pick(&["N", "T"])),
    ];
    if tiny {
        names.retain(|n| n.starts_with("GEMM-NN") || n.starts_with("TRSM-L"));
    }
    let mut out: Vec<RoutineId> = names.iter().map(|n| routine(n)).collect();
    rng.shuffle(&mut out);
    out
}

/// The served traffic mix: the drawn routines, the requests that warm a
/// fresh server, and an endless seeded request stream.
pub struct Mix {
    pub routines: Vec<RoutineId>,
    rng: Rng,
    /// The keys every block of the stream serves once.
    block: Vec<Kind>,
    pending: Vec<Kind>,
    /// Requests generated so far (picks the next tenant).
    count: usize,
}

/// Served sizes: a fixed set, so a warm-up pass compiles every key.
/// GEMM-NN spans n in 32..=128 (size classes 64 and 128, with partial
/// tiles at 40 and 56); SYMM and TRMM stay in class 64 and TRSM at
/// n = 64.  A run sets up three fresh servers, and class-128 tunes of
/// every family would double each cold set-up (9-13 s instead of 5 s).
pub const GEMM_SIZES: [i64; 7] = [32, 40, 48, 56, 64, 96, 128];
pub const SIZES: [i64; 5] = [32, 40, 48, 56, 64];
pub const TRSM_SIZES: [i64; 1] = [64];
/// Size of every DAG request (both shapes tune once per server).
pub const DAG_N: i64 = 64;

impl Mix {
    pub fn new(seed: u64, tiny: bool) -> Mix {
        let mut rng = Rng::new(seed ^ 0x5EED_0001);
        // Served draws stay on the left side: right-side SYMM and TRMM
        // kernels run up to 1.7x slower at n = 128, which would make the
        // latency figures depend on the draw more than on the program.
        // `libgen-cold` draws from both sides.
        let uplo = |rng: &mut Rng| *rng.pick(&["L", "U"]);
        let mut names = vec![
            "GEMM-NN".to_string(),
            format!("SYMM-L{}", uplo(&mut rng)),
            format!("TRMM-L{}-N", uplo(&mut rng)),
            format!("TRSM-L{}-{}", uplo(&mut rng), rng.pick(&["N", "T"])),
        ];
        if tiny {
            names.retain(|n| n == "GEMM-NN" || n.starts_with("TRSM"));
        }
        let routines: Vec<RoutineId> = names.iter().map(|n| routine(n)).collect();
        let mut block = Vec::new();
        for &r in &routines {
            let sizes: &[i64] = match r {
                RoutineId::Trsm(..) => &TRSM_SIZES,
                RoutineId::Gemm(..) => &GEMM_SIZES,
                _ => &SIZES,
            };
            block.extend(sizes.iter().map(|&n| Kind::Single(r, n)));
        }
        if !tiny {
            block.extend(DagShape::ALL.iter().map(|&s| Kind::Dag(s, DAG_N)));
        }
        Mix {
            routines,
            rng,
            block,
            pending: Vec::new(),
            count: 0,
        }
    }

    fn request(&mut self, kind: Kind) -> Req {
        self.count += 1;
        Req {
            kind,
            seed: self.rng.input_seed(),
            tenant: self.count % TENANTS,
            fuse: true,
        }
    }

    /// One request per key: what a fresh server must tune and compile
    /// before the timed window.
    pub fn warmup(&mut self) -> Vec<Req> {
        let keys = self.block.clone();
        keys.into_iter().map(|k| self.request(k)).collect()
    }

    /// The next request of the endless stream: shuffled blocks, each
    /// serving every key once (2 of each block's 20 requests are DAGs).
    pub fn next(&mut self) -> Req {
        if self.pending.is_empty() {
            let mut b = self.block.clone();
            self.rng.shuffle(&mut b);
            b.reverse();
            self.pending = b;
        }
        let k = self.pending.pop().expect("non-empty block");
        self.request(k)
    }

    /// The mix's generator, for arrival times drawn from the same seed.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// `count` requests from the stream.
    pub fn take(&mut self, count: usize) -> Vec<Req> {
        (0..count).map(|_| self.next()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(libgen_draw(7, false), libgen_draw(7, false));
        let a = Mix::new(3, false).take(50);
        let b = Mix::new(3, false).take(50);
        assert_eq!(a, b);
    }

    #[test]
    fn libgen_draw_covers_all_families() {
        for seed in 0..20 {
            let d = libgen_draw(seed, false);
            assert_eq!(d.len(), 8);
            for fam in ["GEMM", "SYMM", "TRMM", "TRSM"] {
                assert!(d.iter().any(|r| r.family() == fam), "{fam} missing");
            }
        }
    }

    #[test]
    fn steady_blocks_are_about_ten_percent_dag() {
        let mut m = Mix::new(1, false);
        let reqs = m.take(200);
        let dags = reqs
            .iter()
            .filter(|r| matches!(r.kind, Kind::Dag(..)))
            .count();
        assert_eq!(dags, 20);
        assert!(reqs.iter().any(|r| matches!(r.kind, Kind::Single(_, 128))));
        let mut tenants: Vec<usize> = reqs[..TENANTS].iter().map(|r| r.tenant).collect();
        tenants.sort();
        assert_eq!(tenants, (0..TENANTS).collect::<Vec<_>>(), "round-robin");
        assert!(reqs.iter().all(|r| match r.kind {
            Kind::Single(RoutineId::Trsm(..), n) => n % 64 == 0,
            _ => true,
        }));
        let warm: HashSet<Kind> = m.warmup().into_iter().map(|r| r.kind).collect();
        assert!(
            reqs.iter().all(|r| warm.contains(&r.kind)),
            "steady serves warm keys only"
        );
    }

    #[test]
    fn dag_lines_parse_as_dag_requests() {
        let r = Req {
            kind: Kind::Dag(DagShape::SyrkTrsm, 64),
            seed: 5,
            tenant: 1,
            fuse: false,
        };
        let d = r.dag_request().expect("parses");
        assert!(!d.fuse);
        assert_eq!(d.nodes.len(), 2);
    }
}
