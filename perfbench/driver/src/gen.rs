//! `gen`: seeded workload inputs.
//!
//! A workload's input is one `key value` line per record. Values are
//! uniform over `[0, n)`, so on every workload each tester reject is a
//! false alarm. Keys come from one of two samplers ([`Keys`]). Next to the
//! lines goes a JSON sidecar that says what the program must report for
//! them: each stream's record count in debut order, and for every window
//! the program must complete, the record (index and byte offset) that
//! completes it. `run.py` checks window counts against the first and
//! starts its latency clocks from the second.

use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

use crate::{to_json, Flags};

/// Seed of every workload's key schedule (which key arrives when). It is
/// part of the workload, the same for every `--seed`, which draws only the
/// values: runs on different seeds differ in data, not in traffic shape or
/// in how many windows finish together.
const KEY_SEED: u64 = 1;

/// How records pick their stream key.
#[derive(Debug, Clone, PartialEq)]
pub enum Keys {
    /// Uniform over `count` keys: evenly used streams, whose windows
    /// complete at about the same time.
    Even {
        /// Number of keys.
        count: usize,
    },
    /// Zipf(`exponent`) over key ranks, on a universe that grows linearly
    /// from `start` to `total` keys over the run: a rank can be drawn only
    /// once the universe has reached it, so new keys keep debuting until
    /// the end.
    Zipf {
        /// Keys eligible from the first record.
        start: usize,
        /// Keys eligible at the last record.
        total: usize,
        /// The exponent `s`: rank `i` (from 0) weighs `(i + 1)^-s`.
        exponent: f64,
    },
}

impl Keys {
    /// Parses `even:COUNT` or `zipf:START:TOTAL:EXPONENT`.
    pub fn parse(spec: &str) -> Result<Keys, String> {
        let bad = || format!("bad --keys {spec}: want even:COUNT or zipf:START:TOTAL:EXPONENT");
        let parts: Vec<&str> = spec.split(':').collect();
        let keys = match parts.as_slice() {
            ["even", count] => Keys::Even {
                count: count.parse().map_err(|_| bad())?,
            },
            ["zipf", start, total, exponent] => Keys::Zipf {
                start: start.parse().map_err(|_| bad())?,
                total: total.parse().map_err(|_| bad())?,
                exponent: exponent.parse().map_err(|_| bad())?,
            },
            _ => return Err(bad()),
        };
        let valid = match keys {
            Keys::Even { count } => count > 0,
            Keys::Zipf {
                start,
                total,
                exponent,
            } => start > 0 && start <= total && exponent.is_finite(),
        };
        if valid {
            Ok(keys)
        } else {
            Err(bad())
        }
    }

    /// Keys that can ever be drawn.
    fn universe(&self) -> usize {
        match *self {
            Keys::Even { count } => count,
            Keys::Zipf { total, .. } => total,
        }
    }
}

/// Draws the key rank of each record of a run.
pub struct KeySampler {
    keys: Keys,
    records: usize,
    /// Zipf only: `cdf[i]` is the total weight of ranks `0..=i`.
    cdf: Vec<f64>,
}

impl KeySampler {
    /// A sampler for a run of `records` records.
    pub fn new(keys: &Keys, records: usize) -> KeySampler {
        let cdf = match *keys {
            Keys::Even { .. } => Vec::new(),
            Keys::Zipf {
                total, exponent, ..
            } => (1..=total)
                .scan(0.0, |sum, rank| {
                    *sum += (rank as f64).powf(-exponent);
                    Some(*sum)
                })
                .collect(),
        };
        KeySampler {
            keys: keys.clone(),
            records,
            cdf,
        }
    }

    /// Keys eligible at record `t`.
    pub fn universe_at(&self, t: usize) -> usize {
        match self.keys {
            Keys::Even { count } => count,
            Keys::Zipf { start, total, .. } => start + (total - start) * t / self.records.max(1),
        }
    }

    /// The key rank of record `t` (rank 0 is the most popular).
    pub fn sample(&self, t: usize, rng: &mut StdRng) -> usize {
        match self.keys {
            Keys::Even { count } => rng.random_range(0..count),
            Keys::Zipf { .. } => {
                let live = self.universe_at(t);
                let limit = self.cdf.get(live - 1).copied().unwrap_or_default();
                let u = rng.random::<f64>() * limit;
                self.cdf.partition_point(|&c| c <= u).min(live - 1)
            }
        }
    }
}

/// A window the program must complete, and the record that completes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Index of the completing record in the input.
    pub record: u64,
    /// Byte offset just past the completing record's line.
    pub byte_end: u64,
    /// The stream's debut index.
    pub stream: usize,
    /// The window's id within its stream.
    pub window: u64,
}

/// A generated input and what the program must report for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// The `key value` lines.
    pub bytes: Vec<u8>,
    /// `(key, records)` per stream, in debut order.
    pub streams: Vec<(String, u64)>,
    /// Every window the program must complete, in input order.
    pub completions: Vec<Completion>,
}

/// Generates `records` records for windows of `every` records: keys
/// drawn from `key_seed`, values over `[0, n)` from `seed`.
///
/// Keeping the two apart lets a workload fix its traffic shape (which key
/// arrives when, hence how windows finish together) while the seed varies
/// the data.
pub fn generate(
    seed: u64,
    key_seed: u64,
    records: usize,
    n: usize,
    every: u64,
    keys: &Keys,
) -> Generated {
    let mut rng = StdRng::seed_from_u64(key_seed);
    let mut values = StdRng::seed_from_u64(seed);
    let universe = keys.universe();
    // Key names follow a seeded shuffle of the ranks, so a key's place in
    // lexicographic order (the engine's per-call output order) says
    // nothing about its popularity.
    let mut ids: Vec<usize> = (0..universe).collect();
    for i in (1..universe).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    let width = universe.saturating_sub(1).to_string().len();
    let names: Vec<String> = ids.iter().map(|id| format!("k{id:0width$}")).collect();
    let sampler = KeySampler::new(keys, records);
    let mut debut: Vec<Option<usize>> = vec![None; universe];
    let mut streams: Vec<(String, u64)> = Vec::new();
    let mut completions = Vec::new();
    let mut bytes = Vec::with_capacity(records * (width + 6));
    for t in 0..records {
        let rank = sampler.sample(t, &mut rng);
        let value = values.random_range(0..n);
        let name = &names[rank];
        writeln!(bytes, "{name} {value}").expect("writing to a Vec cannot fail");
        let stream = match debut[rank] {
            Some(stream) => stream,
            None => {
                streams.push((name.clone(), 0));
                debut[rank] = Some(streams.len() - 1);
                streams.len() - 1
            }
        };
        let count = &mut streams[stream].1;
        *count += 1;
        if count.is_multiple_of(every) {
            completions.push(Completion {
                record: t as u64,
                byte_end: bytes.len() as u64,
                stream,
                window: *count / every - 1,
            });
        }
    }
    Generated {
        bytes,
        streams,
        completions,
    }
}

impl Generated {
    /// The sidecar: `{"records", "bytes", "every", "streams": [[key,
    /// records], …], "completions": [[record, byte_end, stream, window],
    /// …]}`.
    pub fn meta(&self, every: u64) -> Value {
        let pair = |key: &String, count: u64| Value::Seq(vec![key.serialize(), count.serialize()]);
        Value::map([
            (
                "records",
                self.streams.iter().map(|s| s.1).sum::<u64>().serialize(),
            ),
            ("bytes", (self.bytes.len() as u64).serialize()),
            ("every", every.serialize()),
            (
                "streams",
                Value::Seq(self.streams.iter().map(|(k, c)| pair(k, *c)).collect()),
            ),
            (
                "completions",
                Value::Seq(
                    self.completions
                        .iter()
                        .map(|c| {
                            Value::Seq(vec![
                                c.record.serialize(),
                                c.byte_end.serialize(),
                                c.stream.serialize(),
                                c.window.serialize(),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `gen`: writes the input (`--out`) and its sidecar (`--meta`), and
/// prints a one-line summary.
pub fn run(flags: &Flags) -> Result<String, String> {
    let every: u64 = flags.value("every")?;
    let n: usize = flags.value("n")?;
    if every == 0 || n == 0 {
        return Err("--every and --n must be positive".into());
    }
    let keys = Keys::parse(flags.text("keys")?)?;
    let generated = generate(
        flags.value("seed")?,
        KEY_SEED,
        flags.value("records")?,
        n,
        every,
        &keys,
    );
    let out = flags.text("out")?;
    std::fs::write(out, &generated.bytes).map_err(|e| format!("{out}: {e}"))?;
    let meta = flags.text("meta")?;
    std::fs::write(meta, to_json(&generated.meta(every))?).map_err(|e| format!("{meta}: {e}"))?;
    to_json(&Value::map([
        ("bytes", (generated.bytes.len() as u64).serialize()),
        ("streams", (generated.streams.len() as u64).serialize()),
        ("windows", (generated.completions.len() as u64).serialize()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn zipf(start: usize, total: usize) -> Keys {
        Keys::Zipf {
            start,
            total,
            exponent: 1.0,
        }
    }

    fn lines(g: &Generated) -> Vec<(&str, usize)> {
        std::str::from_utf8(&g.bytes)
            .unwrap()
            .lines()
            .map(|line| {
                let (key, value) = line.split_once(' ').unwrap();
                (key, value.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_input() {
        let keys = zipf(50, 400);
        let a = generate(7, 1, 20_000, 256, 200, &keys);
        assert_eq!(a, generate(7, 1, 20_000, 256, 200, &keys));
        assert!(lines(&a).iter().all(|&(_, value)| value < 256));
        // The seed draws the values; the key seed draws which key comes when.
        let b = generate(8, 1, 20_000, 256, 200, &keys);
        assert_ne!(a.bytes, b.bytes);
        assert_eq!(a.streams, b.streams);
        let due = |g: &Generated| {
            g.completions
                .iter()
                .map(|c| (c.record, c.window))
                .collect::<Vec<_>>()
        };
        assert_eq!(due(&a), due(&b));
        let keys_of = |g: &Generated| {
            lines(g)
                .iter()
                .map(|&(k, _)| k.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys_of(&a), keys_of(&b));
        assert_ne!(
            keys_of(&a),
            keys_of(&generate(7, 2, 20_000, 256, 200, &keys))
        );
    }

    #[test]
    fn zipf_ranks_follow_the_power_law() {
        let sampler = KeySampler::new(&zipf(20, 20), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 20];
        for _ in 0..400_000 {
            counts[sampler.sample(0, &mut rng)] += 1;
        }
        // Rank i weighs 1/(i+1): rank 0 is drawn twice as often as rank 1
        // and ten times as often as rank 9.
        let ratio = |a: usize, b: usize| f64::from(counts[a]) / f64::from(counts[b]);
        assert!((ratio(0, 1) - 2.0).abs() < 0.1, "{counts:?}");
        assert!((ratio(0, 9) - 10.0).abs() < 0.8, "{counts:?}");
    }

    #[test]
    fn a_growing_universe_keeps_new_keys_debuting() {
        let records = 100_000;
        let g = generate(11, 11, records, 256, 200, &zipf(100, 20_000));
        let mut seen = BTreeSet::new();
        let late = lines(&g)
            .iter()
            .enumerate()
            .filter(|&(t, &(key, _))| seen.insert(key) && t >= records * 3 / 4)
            .count();
        assert!(
            late * 20 > g.streams.len(),
            "{late} of {} debut late",
            g.streams.len()
        );
        // A rank beyond the live universe is never drawn.
        let sampler = KeySampler::new(&zipf(10, 1_000), 1_000);
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..5_000).all(|_| sampler.sample(0, &mut rng) < 10));
    }

    #[test]
    fn even_keys_are_evenly_used() {
        let g = generate(5, 5, 48_000, 256, 1000, &Keys::Even { count: 24 });
        assert_eq!(g.streams.len(), 24);
        assert!(
            g.streams.iter().all(|(_, c)| (1_800..=2_200).contains(c)),
            "{:?}",
            g.streams
        );
    }

    #[test]
    fn completions_match_the_stream_counts() {
        let every = 200;
        let g = generate(9, 9, 50_000, 256, every, &zipf(30, 3_000));
        assert_eq!(g.streams.iter().map(|s| s.1).sum::<u64>(), 50_000);
        let windows: u64 = g.streams.iter().map(|(_, c)| c / every).sum();
        assert_eq!(g.completions.len() as u64, windows);
        let records = lines(&g);
        for c in &g.completions {
            let end = c.byte_end as usize;
            assert_eq!(g.bytes[end - 1], b'\n');
            let (key, _) = records[c.record as usize];
            assert_eq!(key, g.streams[c.stream].0);
            let before = records[..=c.record as usize]
                .iter()
                .filter(|(k, _)| *k == key)
                .count() as u64;
            assert_eq!(before, (c.window + 1) * every);
        }
    }

    #[test]
    fn key_specs_parse_and_reject_nonsense() {
        assert_eq!(Keys::parse("even:24"), Ok(Keys::Even { count: 24 }));
        assert_eq!(
            Keys::parse("zipf:4:16:1.5"),
            Ok(Keys::Zipf {
                start: 4,
                total: 16,
                exponent: 1.5
            })
        );
        for bad in [
            "even:0",
            "zipf:0:10:1",
            "zipf:20:10:1",
            "uniform:3",
            "zipf:1:2",
        ] {
            assert!(Keys::parse(bad).is_err(), "{bad}");
        }
    }
}
