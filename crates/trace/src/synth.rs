//! Parameterized synthetic reference generators.
//!
//! These are not paper workloads — the paper's workloads are instrumented
//! kernels in `unicache-workloads` — but the test suites and ablation
//! benches need address streams with *known* statistical structure:
//! a uniform stream must produce near-zero kurtosis, a single-hotspot
//! stream must produce extreme kurtosis, a power-of-two stride must slam a
//! subset of sets, and so on.

use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use unicache_core::{Addr, BlockAddr, MemRecord};

/// Uniformly random reads over `[base, base + span)`.
pub fn uniform(seed: u64, n: usize, base: Addr, span: u64) -> Trace {
    assert!(span > 0, "span must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| MemRecord::read(base + rng.gen_range(0..span)))
        .collect()
}

/// A constant-stride sweep: `base, base+stride, base+2*stride, ...`,
/// wrapping after `footprint` bytes. Power-of-two strides larger than the
/// line size exercise only a fraction of a conventionally indexed cache —
/// the canonical conflict-miss generator.
pub fn strided(n: usize, base: Addr, stride: u64, footprint: u64) -> Trace {
    assert!(footprint > 0, "footprint must be positive");
    (0..n as u64)
        .map(|i| MemRecord::read(base + (i * stride) % footprint))
        .collect()
}

/// Zipfian-distributed reads over `items` line-sized objects: item `k`
/// (1-based rank) is chosen with probability ∝ `1 / k^s`. Models the
/// few-hot-many-cold pattern behind the paper's Figure 1.
pub fn zipfian(seed: u64, n: usize, base: Addr, items: usize, line: u64, s: f64) -> Trace {
    assert!(items > 0, "need at least one item");
    let mut rng = StdRng::seed_from_u64(seed);
    // Precompute the CDF once; sampling is a binary search.
    let mut cdf = Vec::with_capacity(items);
    let mut acc = 0.0f64;
    for k in 1..=items {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..total);
            let idx = cdf.partition_point(|&c| c < u).min(items - 1);
            MemRecord::read(base + idx as u64 * line)
        })
        .collect()
}

/// A two-population stream: `hot_frac` of references hit a small hot
/// region of `hot_bytes`, the rest spread uniformly over `cold_bytes`.
pub fn hotspot(
    seed: u64,
    n: usize,
    base: Addr,
    hot_bytes: u64,
    cold_bytes: u64,
    hot_frac: f64,
) -> Trace {
    assert!(hot_bytes > 0 && cold_bytes > 0);
    assert!((0.0..=1.0).contains(&hot_frac));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(hot_frac) {
                MemRecord::read(base + rng.gen_range(0..hot_bytes))
            } else {
                MemRecord::read(base + hot_bytes + rng.gen_range(0..cold_bytes))
            }
        })
        .collect()
}

/// A pointer-chase over a random Hamiltonian cycle of `nodes` records of
/// `node_bytes` each — dependent loads with no spatial locality, the
/// classic linked-list traversal pattern (mcf-like).
pub fn pointer_chase(seed: u64, n: usize, base: Addr, nodes: usize, node_bytes: u64) -> Trace {
    assert!(nodes > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    // Sattolo's algorithm: a uniform random single cycle.
    let mut next: Vec<usize> = (0..nodes).collect();
    for i in (1..nodes).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let mut cur = 0usize;
    (0..n)
        .map(|_| {
            let r = MemRecord::read(base + cur as u64 * node_bytes);
            cur = next[cur];
            r
        })
        .collect()
}

/// Mixed read/write uniform stream with the given write ratio — used to
/// exercise write-allocation and write-back paths.
pub fn uniform_rw(seed: u64, n: usize, base: Addr, span: u64, write_ratio: f64) -> Trace {
    assert!(span > 0);
    assert!((0.0..=1.0).contains(&write_ratio));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let addr = base + rng.gen_range(0..span);
            if rng.gen_bool(write_ratio) {
                MemRecord::write(addr)
            } else {
                MemRecord::read(addr)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(7, 100, 0, 4096), uniform(7, 100, 0, 4096));
        assert_ne!(uniform(7, 100, 0, 4096), uniform(8, 100, 0, 4096));
        assert_eq!(
            zipfian(1, 50, 0, 64, 32, 1.0),
            zipfian(1, 50, 0, 64, 32, 1.0)
        );
        assert_eq!(
            pointer_chase(3, 50, 0, 16, 64),
            pointer_chase(3, 50, 0, 16, 64)
        );
    }

    #[test]
    fn uniform_stays_in_range() {
        let t = uniform(1, 1000, 0x1000, 256);
        assert_eq!(t.len(), 1000);
        for r in &t {
            assert!(r.addr >= 0x1000 && r.addr < 0x1100);
        }
    }

    #[test]
    fn stride_wraps_at_footprint() {
        let t = strided(10, 0, 64, 256);
        let addrs: Vec<Addr> = t.iter().map(|r| r.addr).collect();
        assert_eq!(addrs[..5], [0, 64, 128, 192, 0]);
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let t = zipfian(42, 20_000, 0, 1000, 32, 1.2);
        let first_item = t.iter().filter(|r| r.addr == 0).count();
        // Rank-1 probability for s=1.2 over 1000 items is ≈ 0.27; the count
        // must dwarf the uniform expectation of 20.
        assert!(first_item > 2000, "rank-1 hits: {first_item}");
    }

    #[test]
    fn hotspot_ratio_approximate() {
        let t = hotspot(5, 50_000, 0, 64, 1 << 20, 0.9);
        let hot = t.iter().filter(|r| r.addr < 64).count();
        let frac = hot as f64 / t.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn pointer_chase_visits_every_node() {
        let nodes = 64;
        let t = pointer_chase(9, nodes, 0, nodes, 128);
        let distinct: HashSet<Addr> = t.iter().map(|r| r.addr).collect();
        // One full lap of a Hamiltonian cycle touches every node exactly
        // once.
        assert_eq!(distinct.len(), nodes);
    }

    #[test]
    fn rw_ratio_approximate() {
        let t = uniform_rw(11, 20_000, 0, 1 << 16, 0.3);
        let frac = t.write_count() as f64 / t.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    #[should_panic]
    fn zero_span_panics() {
        uniform(0, 1, 0, 0);
    }
}

/// A synthetic instruction-fetch stream: `functions` routines laid out in
/// the text segment, executed as mostly-sequential fetches with taken
/// branches (loop back-edges) and call/return transfers driven by an
/// explicit call stack — the access structure an L1I cache sees.
///
/// Knobs follow typical integer-code statistics: ~70% fall-through, ~20%
/// short backward branch (loops), ~10% call or return.
pub fn instruction_stream(seed: u64, n: usize, functions: usize, func_bytes: u64) -> Trace {
    instruction_fetches(seed, n, functions, func_bytes).collect()
}

/// The fetches of [`instruction_stream`], generated one at a time, for
/// consumers that need not hold the whole stream.
pub fn instruction_fetches(
    seed: u64,
    n: usize,
    functions: usize,
    func_bytes: u64,
) -> InstructionFetches {
    assert!(functions > 0 && func_bytes >= 64);
    InstructionFetches {
        rng: StdRng::seed_from_u64(seed),
        remaining: n,
        functions,
        func_bytes,
        stack: Vec::new(),
        func: 0,
        pc: InstructionFetches::TEXT_BASE,
    }
}

/// Iterator returned by [`instruction_fetches`].
#[derive(Debug, Clone)]
pub struct InstructionFetches {
    rng: StdRng,
    remaining: usize,
    functions: usize,
    func_bytes: u64,
    /// (function, return pc) of each pending call.
    stack: Vec<(usize, Addr)>,
    func: usize,
    pc: Addr,
}

/// `ceil(p · 2^53)`: a draw `x` has `(x >> 11) as f64 / 2^53 < p`
/// exactly when `(x >> 11) < roll_threshold(p)`, since both sides are
/// exact (`x >> 11` has 53 bits and scaling by a power of two is exact).
const fn roll_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl InstructionFetches {
    const TEXT_BASE: Addr = 0x0040_0000;

    fn func_base(&self, f: usize) -> Addr {
        Self::TEXT_BASE + f as u64 * self.func_bytes
    }

    /// The current fetch address; then moves the pc on to the next one.
    /// The branch roll is the top 53 bits of one draw, compared against
    /// the 70/90/97% thresholds as integers.
    #[inline]
    fn advance(&mut self) -> Addr {
        let pc = self.pc;
        const FALL_THROUGH: u64 = roll_threshold(0.70);
        const LOOP: u64 = roll_threshold(0.90);
        const CALL: u64 = roll_threshold(0.97);
        let roll = self.rng.next_u64() >> 11;
        if roll < FALL_THROUGH {
            self.pc += 4;
        } else if roll < LOOP {
            // Loop back-edge: jump back a short distance.
            let back = self.rng.gen_range(1..=16) * 4;
            self.pc = self.pc.saturating_sub(back).max(self.func_base(self.func));
        } else if roll < CALL && self.stack.len() < 64 {
            // Call a random function.
            self.stack.push((self.func, self.pc + 4));
            self.func = self.rng.gen_range(0..self.functions);
            self.pc = self.func_base(self.func);
        } else if let Some((f, ret)) = self.stack.pop() {
            self.func = f;
            self.pc = ret;
        } else {
            self.pc += 4;
        }
        // Keep the pc inside the function body.
        if self.pc >= self.func_base(self.func) + self.func_bytes {
            self.pc = self.func_base(self.func);
        }
        pc
    }

    /// Generates the next fetches straight into `blocks` as block
    /// addresses (`addr >> shift`), the decoded form a cache chunk step
    /// consumes, and returns how many it wrote: `blocks.len()`, or fewer
    /// once the stream runs out.
    pub fn fill_blocks(&mut self, shift: u32, blocks: &mut [BlockAddr]) -> usize {
        let n = blocks.len().min(self.remaining);
        for b in &mut blocks[..n] {
            *b = self.advance() >> shift;
        }
        self.remaining -= n;
        n
    }
}

impl Iterator for InstructionFetches {
    type Item = MemRecord;

    fn next(&mut self) -> Option<MemRecord> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(MemRecord::fetch(self.advance()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod instruction_tests {
    use super::*;
    use unicache_core::AccessKind;

    #[test]
    fn stream_is_all_fetches_in_text() {
        let t = instruction_stream(1, 5000, 16, 1024);
        assert_eq!(t.len(), 5000);
        for r in &t {
            assert_eq!(r.kind, AccessKind::InstFetch);
            assert!(r.addr >= 0x40_0000);
            assert!(r.addr < 0x40_0000 + 16 * 1024);
            assert_eq!(r.addr % 4, 0, "instruction alignment");
        }
    }

    #[test]
    fn stream_is_mostly_sequential() {
        let t = instruction_stream(2, 20_000, 8, 2048);
        let seq = t
            .records()
            .windows(2)
            .filter(|w| w[1].addr == w[0].addr + 4)
            .count();
        let frac = seq as f64 / (t.len() - 1) as f64;
        assert!((0.5..0.9).contains(&frac), "sequential fraction {frac}");
    }

    #[test]
    fn integer_roll_equals_the_float_roll_at_each_threshold() {
        for p in [0.70, 0.90, 0.97] {
            let t = roll_threshold(p);
            for k in [t - 1, t, t + 1] {
                // The draw whose top 53 bits are k, as `gen::<f64>()`
                // turns it into a float.
                let float: f64 = (k as f64) * (1.0 / (1u64 << 53) as f64);
                assert_eq!(k < t, float < p, "p {p} k {k}");
            }
        }
    }

    #[test]
    fn filled_blocks_equal_the_materialised_stream() {
        // Not a multiple of the fill size, so the last fill is ragged.
        let n = 3 * 1024 + 517;
        let shift = 5;
        let trace = instruction_stream(9, n, 64, 2048);
        let mut fetches = instruction_fetches(9, n, 64, 2048);
        let mut blocks = Vec::new();
        let mut buf = [0; 1024];
        loop {
            let got = fetches.fill_blocks(shift, &mut buf);
            if got == 0 {
                break;
            }
            blocks.extend_from_slice(&buf[..got]);
        }
        let expect: Vec<BlockAddr> = trace.iter().map(|r| r.addr >> shift).collect();
        assert_eq!(blocks, expect);
    }

    #[test]
    fn deterministic_and_covers_functions() {
        assert_eq!(
            instruction_stream(3, 1000, 4, 512),
            instruction_stream(3, 1000, 4, 512)
        );
        let t = instruction_stream(4, 50_000, 8, 1024);
        let funcs: std::collections::HashSet<u64> =
            t.iter().map(|r| (r.addr - 0x40_0000) / 1024).collect();
        assert!(funcs.len() >= 6, "only {} functions visited", funcs.len());
    }
}
