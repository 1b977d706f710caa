//! Fixed reference loops that measure the host's speed in the same run
//! as the engine. On a shared host the speed of the whole machine drifts
//! by a third within minutes; a latency divided by the time of a
//! reference loop that does the same kind of work, measured beside it,
//! does not.

use crate::stats::us;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys one `Hash` iteration hashes: a working set of about 200 KiB.
const KEYS: usize = 4096;

/// Bytes one `Stream` iteration allocates, fills and sums: about the
/// size of `cold_start`'s image.
const STREAM_BYTES: usize = 8 << 20;

/// What a workload's reference loop exercises. Neither uses engine code,
/// so no change to the engine moves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Insert `KEYS` xorshift keys into a hash map with fixed hash keys
    /// and look each one up, on buffers allocated once: the cache-bound
    /// work of a search on small data.
    Hash,
    /// Allocate, fill and sum a fresh `STREAM_BYTES` buffer: the memory
    /// path of opening a snapshot image, whose time follows the host's
    /// page-fault and memory speed rather than its CPU speed.
    Stream,
}

impl Kind {
    /// A reference iteration runs between requests once this much time
    /// has passed since the last one, so the samples spread over a pass
    /// the way its requests do: the host's speed changes within seconds.
    /// A `Stream` iteration takes milliseconds and allocates as much as an
    /// image, so it runs only where a pass ends.
    pub fn every(self) -> Duration {
        match self {
            Kind::Hash => Duration::from_millis(10),
            Kind::Stream => Duration::MAX,
        }
    }
}

/// A reference loop and its reusable buffers.
pub struct Loop {
    kind: Kind,
    keys: Vec<u64>,
    map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
    stream: Vec<u8>,
}

impl Loop {
    pub fn new(kind: Kind) -> Self {
        let (keys, bytes) = if kind == Kind::Hash { (KEYS, 0) } else { (0, STREAM_BYTES) };
        Loop {
            kind,
            keys: Vec::with_capacity(keys),
            map: HashMap::with_capacity_and_hasher(keys, Default::default()),
            stream: vec![0; bytes],
        }
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// One iteration; returns a checksum that depends on all its work.
    fn work(&mut self) -> u64 {
        match self.kind {
            Kind::Hash => {
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                self.keys.clear();
                self.keys.extend((0..KEYS).map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                }));
                self.map.clear();
                self.map.extend(self.keys.iter().enumerate().map(|(i, &k)| (k, i)));
                self.keys.iter().fold(0u64, |acc, k| {
                    acc.wrapping_mul(31).wrapping_add(self.map[k] as u64)
                })
            }
            Kind::Stream => {
                self.stream.fill(1);
                black_box(&mut self.stream).iter().map(|&b| u64::from(b)).sum()
            }
        }
    }

    /// The time of one iteration, in microseconds.
    pub fn time_us(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        us(t.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_deterministic_and_timed() {
        for kind in [Kind::Hash, Kind::Stream] {
            let mut l = Loop::new(kind);
            let first = l.work();
            assert_eq!(first, l.work());
            assert_eq!(first, Loop::new(kind).work());
            assert!(l.time_us() > 0.0);
        }
        assert_eq!(Loop::new(Kind::Stream).work(), STREAM_BYTES as u64);
    }
}
