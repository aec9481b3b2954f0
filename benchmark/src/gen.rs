//! Input generation.  Everything a trial feeds the program is built here
//! from `(seed, trial)` before the clock starts; the program under test only
//! ever sees the generated inputs.

use std::collections::HashMap;

use crate::rng::Rng;

/// Labels for [`Rng::fork`], one per purpose, so the streams are independent.
const KV_STREAM: u64 = 1 << 32;
const JOINER_STREAM: u64 = 2 << 32;
const OPEN_LOOP_STREAM: u64 = 3 << 32;
const FAILOVER_STREAM: u64 = 4 << 32;

/// One request line and the exact reply the server must give.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRequest {
    pub line: String,
    pub expect: String,
}

const KV_KEYS: u64 = 1_000;
const KV_COUNTERS: u64 = 50;
const VALUE_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

fn kv_value(rng: &mut Rng) -> String {
    let len = rng.range(16, 512) as usize;
    (0..len)
        .map(|_| VALUE_ALPHABET[(rng.next_u64() % VALUE_ALPHABET.len() as u64) as usize] as char)
        .collect()
}

/// The request streams of one `kv-closed` trial: `connections` streams of
/// `per_connection` requests with expected replies from a model of the
/// store.  The first connection opens by SETting every one of the 1,000
/// keys, so every later GET returns a stored value; after that the mix is
/// 65% GET, 15% SET (16–512-byte values), 10% INCR, 10% PING.  (GETs are a
/// clear majority on purpose: request kinds have distinct latencies, and a
/// median sitting on the boundary between two kinds flips between them from
/// run to run.)  The connections are served one after another by the same
/// server, so the model carries across them.
pub fn kv_trial(
    seed: u64,
    trial: u64,
    connections: usize,
    per_connection: usize,
) -> Vec<Vec<KvRequest>> {
    let mut rng = Rng::fork(seed, KV_STREAM | trial);
    let mut strings: HashMap<String, String> = HashMap::new();
    let mut counters: HashMap<String, i64> = HashMap::new();
    let mut prefill = 0..KV_KEYS;
    let set = |key: String, rng: &mut Rng, strings: &mut HashMap<String, String>| {
        let value = kv_value(rng);
        let line = format!("SET {key} {value}\n");
        strings.insert(key, value);
        KvRequest {
            line,
            expect: "+OK".into(),
        }
    };
    (0..connections)
        .map(|_| {
            (0..per_connection)
                .map(|_| {
                    if let Some(key) = prefill.next() {
                        return set(format!("k:{key}"), &mut rng, &mut strings);
                    }
                    let key = format!("k:{}", rng.range(0, KV_KEYS - 1));
                    match rng.range(0, 19) {
                        0..=12 => KvRequest {
                            expect: match strings.get(&key) {
                                Some(value) => format!("${value}"),
                                None => "$-1".into(),
                            },
                            line: format!("GET {key}\n"),
                        },
                        13..=15 => set(key, &mut rng, &mut strings),
                        16..=17 => {
                            let key = format!("c:{}", rng.range(0, KV_COUNTERS - 1));
                            let value = counters.entry(key.clone()).or_insert(0);
                            *value += 1;
                            KvRequest {
                                line: format!("INCR {key}\n"),
                                expect: format!(":{value}"),
                            }
                        }
                        _ => KvRequest {
                            line: "PING\n".into(),
                            expect: "+PONG".into(),
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Event counts at which the `payload-journaled` joiner loop attaches:
/// `joiners` points spread evenly over `total_events`, each jittered by up
/// to ±20% of the spacing, none in the first or last tenth of a spacing.
pub fn joiner_points(seed: u64, trial: u64, total_events: u64, joiners: u64) -> Vec<u64> {
    let mut rng = Rng::fork(seed, JOINER_STREAM | trial);
    let spacing = total_events / (joiners + 1);
    (1..=joiners)
        .map(|i| {
            let jitter = rng.range(0, spacing * 2 / 5) as i64 - (spacing / 5) as i64;
            (i * spacing).saturating_add_signed(jitter)
        })
        .collect()
}

/// One planned open-loop request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Intended send time, nanoseconds from the start of the schedule.
    pub at_ns: u64,
    /// Index into the rate list.
    pub phase: usize,
}

/// A Poisson arrival schedule: for each `(rate, duration_ns)` phase,
/// exponential inter-arrival gaps with mean `1 / rate`; phases follow each
/// other without a pause.
pub fn open_loop_schedule(seed: u64, trial: u64, phases: &[(u64, u64)]) -> Vec<Planned> {
    let mut rng = Rng::fork(seed, OPEN_LOOP_STREAM | trial);
    let mut plan = Vec::new();
    let mut start = 0u64;
    for (phase, &(rate, duration_ns)) in phases.iter().enumerate() {
        let end = start + duration_ns;
        let mean_gap_ns = 1e9 / rate as f64;
        let mut at = start as f64;
        loop {
            // 53 uniform bits in (0, 1]; -ln(u) is exponential with mean 1.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() * mean_gap_ns;
            if at >= end as f64 {
                break;
            }
            plan.push(Planned {
                at_ns: at as u64,
                phase,
            });
        }
        start = end;
    }
    plan
}

/// Requests per `kv-failover` round (warm SETs + the trigger + PINGs).
pub const FAILOVER_ROUND_REQUESTS: usize = 81;

/// Where in each round the crash-triggering `HMGET` falls: after 8–16 warm
/// SETs; PINGs fill the round up to [`FAILOVER_ROUND_REQUESTS`].  At least
/// 64 of the 81 requests are answered by the promoted follower, which puts
/// the median latency near the middle of the post-failover requests (with a
/// 41-request round it sat in their thin upper tail and wandered ±8%).
pub fn crash_points(seed: u64, trial: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::fork(seed, FAILOVER_STREAM | trial);
    (0..rounds).map(|_| rng.range(8, 16) as usize).collect()
}

/// The request script of one failover round.
pub fn failover_round(round: usize, crash_at: usize) -> Vec<KvRequest> {
    (0..FAILOVER_ROUND_REQUESTS)
        .map(|i| match i.cmp(&crash_at) {
            std::cmp::Ordering::Less => KvRequest {
                line: format!("SET warm:{round}:{i} value-{i}\n"),
                expect: "+OK".into(),
            },
            // The buggy revision dereferences a missing hash here; a healthy
            // one (and the promoted follower) answers `*-1`.
            std::cmp::Ordering::Equal => KvRequest {
                line: "HMGET missing field\n".into(),
                expect: "*-1".into(),
            },
            std::cmp::Ordering::Greater => KvRequest {
                line: "PING\n".into(),
                expect: "+PONG".into(),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let bytes = |seed, trial| -> Vec<u8> {
            kv_trial(seed, trial, 2, 500)
                .iter()
                .flatten()
                .flat_map(|r| r.line.bytes().chain(r.expect.bytes()))
                .collect()
        };
        assert_eq!(bytes(42, 0), bytes(42, 0));
        assert_ne!(bytes(42, 0), bytes(43, 0));
        assert_ne!(bytes(42, 0), bytes(42, 1));
        assert_eq!(
            joiner_points(42, 3, 400_000, 8),
            joiner_points(42, 3, 400_000, 8)
        );
        assert_ne!(
            joiner_points(42, 3, 400_000, 8),
            joiner_points(7, 3, 400_000, 8)
        );
        assert_eq!(crash_points(42, 1, 400), crash_points(42, 1, 400));
        assert_eq!(
            open_loop_schedule(42, 0, &[(2_000, 50_000_000), (4_000, 50_000_000)]),
            open_loop_schedule(42, 0, &[(2_000, 50_000_000), (4_000, 50_000_000)])
        );
    }

    #[test]
    fn kv_model_predicts_replies() {
        let streams = kv_trial(1, 0, 2, 2_000);
        let mut store: HashMap<&str, &str> = HashMap::new();
        for request in streams.iter().flatten() {
            let parts: Vec<&str> = request.line.trim_end().splitn(3, ' ').collect();
            match parts[0] {
                "SET" => {
                    assert!((16..=512).contains(&parts[2].len()));
                    store.insert(parts[1], parts[2]);
                }
                "GET" => match store.get(parts[1]) {
                    Some(value) => assert_eq!(request.expect, format!("${value}")),
                    None => assert_eq!(request.expect, "$-1"),
                },
                _ => {}
            }
        }
        // After the prefill every GET hits.
        let gets: Vec<_> = streams
            .iter()
            .flatten()
            .filter(|r| r.line.starts_with("GET"))
            .collect();
        assert!(gets.len() > 1_000 && gets.iter().all(|r| r.expect != "$-1"));
    }

    #[test]
    fn schedules_stay_in_bounds() {
        let points = joiner_points(9, 0, 400_000, 8);
        assert_eq!(points.len(), 8);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        assert!(*points.last().unwrap() < 400_000);

        let plan = open_loop_schedule(9, 0, &[(2_000, 1_000_000_000), (8_000, 1_000_000_000)]);
        assert!(plan.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        let first = plan.iter().filter(|p| p.phase == 0).count() as f64;
        let second = plan.iter().filter(|p| p.phase == 1).count() as f64;
        assert!((first - 2_000.0).abs() < 200.0, "{first}");
        assert!((second - 8_000.0).abs() < 400.0, "{second}");
        assert!(plan
            .iter()
            .all(|p| p.at_ns / 1_000_000_000 == p.phase as u64));

        for crash_at in crash_points(9, 0, 100) {
            let round = failover_round(0, crash_at);
            assert_eq!(round.len(), FAILOVER_ROUND_REQUESTS);
            assert_eq!(round[crash_at].line, "HMGET missing field\n");
        }
    }
}
