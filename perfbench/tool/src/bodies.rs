//! Seeded request sets. Everything a workload sends is a function of
//! the benchmark seed and a request count; nothing depends on timing.

use impact_cache::{Associativity, CacheConfig};
use impact_support::json::Json;

/// The benchmark's own generator (SplitMix64), so request sets do not
/// shift when the program's RNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed and stream label.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Streams of [`Rng`], one per use, so adding a use never shifts another.
pub mod stream {
    /// Seeds of measured cold simulate requests.
    pub const COLD: u64 = 1;
    /// Seeds of warm-up requests.
    pub const WARMUP: u64 = 2;
    /// Order of warm replays.
    pub const WARM_ORDER: u64 = 3;
    /// Seeds of bodies stored before a restart.
    pub const RESTART: u64 = 4;
}

/// One request: its target and JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Body {
    /// Request path.
    pub target: &'static str,
    /// Body bytes (compact JSON).
    pub json: String,
}

impl Body {
    /// The full HTTP/1.1 request frame.
    #[must_use]
    pub fn frame(&self) -> Vec<u8> {
        let mut f = format!(
            "POST {} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.target,
            self.json.len()
        )
        .into_bytes();
        f.extend_from_slice(self.json.as_bytes());
        f
    }
}

/// The ten paper programs as impact-asm text, in `impact_workloads`
/// order.
#[must_use]
pub fn programs() -> Vec<(&'static str, String)> {
    impact_workloads::all()
        .into_iter()
        .map(|w| (w.name, impact_asm::print_program(&w.program)))
        .collect()
}

/// Table 6's direct-mapped sizes at 64-byte blocks plus a 2 KB 2-way
/// cache; index 2 is the 2 KB direct-mapped column.
pub const CONFIG_SIZES: [u64; 5] = [8192, 4096, 2048, 1024, 512];
/// Index of the 2 KB direct-mapped config in a simulate response.
pub const DM_2K: usize = 2;

fn configs() -> Json {
    let mut cs: Vec<Json> = CONFIG_SIZES
        .iter()
        .map(|&s| obj(vec![("size", num(s)), ("block", num(64))]))
        .collect();
    cs.push(obj(vec![
        ("size", num(2048)),
        ("block", num(64)),
        ("assoc", num(2)),
    ]));
    Json::Arr(cs)
}

/// The configs of [`configs`] as the server decodes them.
#[must_use]
pub fn cache_configs() -> Vec<CacheConfig> {
    let mut cs: Vec<CacheConfig> = CONFIG_SIZES
        .iter()
        .map(|&s| CacheConfig::direct_mapped(s, 64))
        .collect();
    cs.push(CacheConfig::direct_mapped(2048, 64).with_associativity(Associativity::Ways(2)));
    cs
}

fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A `/v1/simulate` body: natural layout, the six configs.
#[must_use]
pub fn simulate(program: &str, seed: u64, max_instrs: u64) -> Body {
    let doc = obj(vec![
        ("program", Json::Str(program.to_string())),
        ("layout", Json::Str("natural".to_string())),
        ("seed", num(seed)),
        ("max_instrs", num(max_instrs)),
        ("configs", configs()),
    ]);
    Body {
        target: "/v1/simulate",
        json: doc.to_string(),
    }
}

/// Distinct simulate seeds for requests `0..count` of one stream: a
/// seeded base plus the request index, so no two requests of a stream
/// share a memo key. Stays below 2^53 so JSON carries it exactly.
fn seeds(seed: u64, stream: u64, count: usize) -> impl Iterator<Item = u64> {
    let base = Rng::new(seed, stream).below(1 << 30) << 20;
    (0..count as u64).map(move |k| base + k)
}

/// `count` simulate bodies cycling round-robin over the programs, each
/// with its own input seed.
#[must_use]
pub fn simulate_set(
    programs: &[(&'static str, String)],
    seed: u64,
    stream: u64,
    count: usize,
    max_instrs: u64,
) -> Vec<Body> {
    seeds(seed, stream, count)
        .enumerate()
        .map(|(k, s)| simulate(&programs[k % programs.len()].1, s, max_instrs))
        .collect()
}

/// Dynamic-instruction cap of cold simulate requests.
pub const COLD_MAX_INSTRS: u64 = 2_000_000;
/// Profiling runs of warm layout and lint bodies.
pub const WARM_RUNS: u64 = 2;
/// Dynamic-instruction cap of warm layout and lint bodies.
pub const WARM_MAX_INSTRS: u64 = 200_000;
/// Evaluation seed of the warm simulate bodies.
pub const WARM_SIM_SEED: u64 = 1_000_003;

/// The 50 warm bodies: simulate, layout, lint, analyze and advise for
/// each program. Fixed; only their replay order is seeded.
#[must_use]
pub fn warm_set(programs: &[(&'static str, String)]) -> Vec<Body> {
    let mut out = Vec::new();
    for (name, text) in programs {
        out.push(simulate(text, WARM_SIM_SEED, COLD_MAX_INSTRS));
        let prog = || Json::Str(text.clone());
        let named = |extra: Vec<(&str, Json)>| {
            let mut f = vec![
                ("program", prog()),
                ("name", Json::Str((*name).to_string())),
            ];
            f.extend(extra);
            obj(f).to_string()
        };
        let profiled = || {
            vec![
                ("runs", num(WARM_RUNS)),
                ("max_instrs", num(WARM_MAX_INSTRS)),
            ]
        };
        let geometry = || vec![("cache", num(2048)), ("block", num(64))];
        out.push(Body {
            target: "/v1/layout",
            json: named(profiled()),
        });
        out.push(Body {
            target: "/v1/lint",
            json: named(profiled()),
        });
        out.push(Body {
            target: "/v1/analyze",
            json: named(geometry()),
        });
        out.push(Body {
            target: "/v1/advise",
            json: named(geometry()),
        });
    }
    out
}

/// Replay order for the warm set: `laps` back-to-back seeded
/// permutations of `0..n`, so every body is sent equally often.
#[must_use]
pub fn warm_order(seed: u64, n: usize, laps: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream::WARM_ORDER);
    let mut order = Vec::with_capacity(n * laps);
    for _ in 0..laps {
        let mut lap: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut lap);
        order.extend(lap);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_programs() -> Vec<(&'static str, String)> {
        programs().into_iter().take(3).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_bodies() {
        let p = small_programs();
        let a = simulate_set(&p, 7, stream::COLD, 12, COLD_MAX_INSTRS);
        let b = simulate_set(&p, 7, stream::COLD, 12, COLD_MAX_INSTRS);
        assert_eq!(a, b);
        let frames = |v: &[Body]| v.iter().map(Body::frame).collect::<Vec<_>>();
        assert_eq!(frames(&a), frames(&b));
        assert_eq!(warm_order(7, 50, 3), warm_order(7, 50, 3));
        assert_eq!(warm_set(&p), warm_set(&p));
    }

    #[test]
    fn seeds_and_streams_separate_request_sets() {
        let p = small_programs();
        let a = simulate_set(&p, 7, stream::COLD, 12, COLD_MAX_INSTRS);
        assert_ne!(a, simulate_set(&p, 8, stream::COLD, 12, COLD_MAX_INSTRS));
        assert_ne!(a, simulate_set(&p, 7, stream::WARMUP, 12, COLD_MAX_INSTRS));
        assert_ne!(warm_order(7, 50, 1), warm_order(8, 50, 1));
    }

    #[test]
    fn every_request_of_a_stream_is_distinct() {
        let p = small_programs();
        let set = simulate_set(&p, 3, stream::COLD, 40, COLD_MAX_INSTRS);
        let mut bodies: Vec<&str> = set.iter().map(|b| b.json.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 40);
    }

    #[test]
    fn bodies_parse_and_carry_the_seed_exactly() {
        let p = small_programs();
        let body = &simulate_set(&p, u64::MAX, stream::COLD, 1, 5)[0];
        let doc = impact_support::json::parse(&body.json).unwrap();
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap();
        assert!(seed < 1 << 53);
        assert_eq!(doc.get("configs").and_then(Json::as_arr).unwrap().len(), 6);
    }

    #[test]
    fn warm_order_visits_every_body_once_per_lap() {
        let order = warm_order(11, 50, 4);
        assert_eq!(order.len(), 200);
        for lap in order.chunks(50) {
            let mut l = lap.to_vec();
            l.sort_unstable();
            assert_eq!(l, (0..50).collect::<Vec<_>>());
        }
    }
}
