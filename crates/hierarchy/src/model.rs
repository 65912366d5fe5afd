//! Bounded model checking of the MESI + victim-buffer protocol.
//!
//! Same discipline, and the same explorer, as the once-cell checker
//! (`unicache_exec::model::explore`): an abstract model of the protocol
//! small enough to explore exhaustively-ish, a seeded DFS over every
//! interleaving of core steps within bounds, invariants checked after
//! *every* step (coherence bugs live in transient states, not just
//! terminal ones), and seeded [`CoherenceMutation`]s proving the checker
//! actually catches each bug class it claims to.
//!
//! The model abstracts data as *version numbers*: every committed store
//! bumps a per-block `latest` counter, and every copy — L1 line, victim
//! entry, L2 entry, memory — remembers which version it holds. The
//! invariants:
//!
//! * **SWMR** — if any core holds a block Modified *or Exclusive*, it is
//!   the only core with a valid copy;
//! * **data-value** — every valid private copy holds the latest
//!   committed version, and when no Modified owner exists the L2 (or,
//!   absent there, memory) holds it too;
//! * **inclusion** — every valid private copy's block is present in the
//!   L2;
//! * **victim-no-alias** — no core holds a block in its L1 and its
//!   victim buffer simultaneously.
//!
//! Unlike the simulator — which serializes the bus in trace order — the
//! model lets transactions interleave at every protocol phase (request,
//! per-peer snoop, fill), so the DFS covers the orderings a real
//! weakly-ordered bus could produce. The simulator's canonical order is
//! one of them; the checker shows *all* of them keep the invariants.

use crate::mesi::{fill_state, transition, LineEvent, Mesi};
use unicache_exec::model::{explore, splitmix64, InvariantResult};
pub use unicache_exec::model::{Bounds, Explored, Violation};

/// A seeded protocol bug for checker validation. Each mutation disables
/// or corrupts exactly one protocol obligation; the tests assert the DFS
/// reports a violation (with a witness schedule) for every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceMutation {
    /// Faithful protocol.
    #[default]
    None,
    /// Snooped write intents downgrade remote copies instead of
    /// invalidating them — a stale Shared copy survives the store.
    DroppedInvalidation,
    /// Fills always read memory, ignoring a newer version held by the
    /// L2 (e.g. one flushed there by a previous owner).
    StaleFill,
    /// A modified line spilled from a full victim buffer is dropped
    /// instead of written back.
    LostWriteback,
    /// Read fills install Exclusive even when the snoop saw sharers.
    DoubleOwner,
    /// A victim-buffer hit copies the line into the L1 without removing
    /// the buffer entry (two aliased copies in one core).
    VictimAliasing,
    /// The bus arbiter grants a request while another transaction is
    /// still in flight (grant order decoupled from completion order).
    ReorderedBusGrant,
}

/// One model configuration: topology, per-core scripts, bounds, mutation.
#[derive(Debug, Clone)]
pub struct CoherenceConfig {
    /// Core count.
    pub cores: usize,
    /// Distinct block addresses (all mapping to the single L1 set).
    pub blocks: usize,
    /// L1 ways per core (single set).
    pub ways: usize,
    /// Victim-buffer entries per core.
    pub victim_depth: usize,
    /// L2 capacity in blocks (0 = unbounded, inclusion never pressured).
    pub l2_capacity: usize,
    /// Per-core operation scripts: `(block, is_write)`.
    pub scripts: Vec<Vec<(usize, bool)>>,
    /// Exploration bounds.
    pub bounds: Bounds,
    /// Seeded bug, if any.
    pub mutation: CoherenceMutation,
}

impl CoherenceConfig {
    /// The canonical racing configuration: 2 cores, 3 blocks, 1-way L1s
    /// and depth-1 victim buffers, with hand-crafted scripts that force
    /// every race the mutations need — store/load sharing, upgrades,
    /// victim swaps, dirty spills and refetches.
    pub fn racing() -> Self {
        CoherenceConfig {
            cores: 2,
            blocks: 3,
            ways: 1,
            victim_depth: 1,
            l2_capacity: 0,
            scripts: vec![
                // store b0; conflict-evict it; spill it dirty; refetch it.
                vec![(0, true), (1, false), (2, false), (0, false)],
                // share b0; upgrade it; conflict-evict; victim-swap back.
                vec![(0, false), (0, true), (1, false), (0, false)],
            ],
            bounds: Bounds::default(),
            mutation: CoherenceMutation::None,
        }
    }

    /// A seeded litmus configuration: `cores` cores issuing `ops`
    /// pseudo-random mixed loads/stores over 3 hot blocks.
    pub fn litmus(cores: usize, ops: usize, seed: u64) -> Self {
        let mut rng = seed;
        let scripts = (0..cores)
            .map(|_| {
                (0..ops)
                    .map(|_| {
                        let r = splitmix64(&mut rng);
                        ((r % 3) as usize, (r >> 8) & 1 == 1)
                    })
                    .collect()
            })
            .collect();
        CoherenceConfig {
            cores,
            blocks: 3,
            ways: 1,
            victim_depth: 1,
            l2_capacity: 0,
            scripts,
            bounds: Bounds::default(),
            mutation: CoherenceMutation::None,
        }
    }
}

// ---------------------------------------------------------------------
// Model state
// ---------------------------------------------------------------------

/// Bus transaction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bus {
    Read,
    ReadX,
    Upgrade,
}

/// Per-core protocol automaton position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// Dispatch the next scripted op (local hits complete here).
    Ready,
    /// Miss/upgrade issued, waiting for the bus.
    WaitBus(Bus),
    /// Holding the bus, snooping peer `1` (an index into `0..cores`).
    Snoop(Bus, usize),
    /// Snoops done: fetch data, install, commit, release the bus.
    Fill(Bus),
    /// Script exhausted.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    block: usize,
    state: Mesi,
    version: u64,
}

#[derive(Debug, Clone)]
struct CoreState {
    l1: Vec<Line>,
    /// (block, state, version), oldest first.
    victim: Vec<(usize, Mesi, u64)>,
    pc: Pc,
    ip: usize,
}

#[derive(Debug, Clone)]
struct State {
    cores: Vec<CoreState>,
    /// Per-block L2 entry version (None = absent).
    l2: Vec<Option<u64>>,
    /// L2 residents in insertion order (capacity eviction is FIFO).
    l2_order: Vec<usize>,
    /// Per-block memory version.
    memory: Vec<u64>,
    /// Per-block latest committed version.
    latest: Vec<u64>,
    bus_busy: bool,
}

impl State {
    fn new(cfg: &CoherenceConfig) -> State {
        State {
            cores: (0..cfg.cores)
                .map(|_| CoreState {
                    l1: vec![
                        Line {
                            block: 0,
                            state: Mesi::Invalid,
                            version: 0,
                        };
                        cfg.ways
                    ],
                    victim: Vec::new(),
                    pc: Pc::Ready,
                    ip: 0,
                })
                .collect(),
            l2: vec![None; cfg.blocks],
            l2_order: Vec::new(),
            memory: vec![0; cfg.blocks],
            latest: vec![0; cfg.blocks],
            bus_busy: false,
        }
    }

    fn op(&self, cfg: &CoherenceConfig, core: usize) -> (usize, bool) {
        cfg.scripts[core][self.cores[core].ip]
    }

    fn l1_way(&self, core: usize, block: usize) -> Option<usize> {
        self.cores[core]
            .l1
            .iter()
            .position(|l| l.state.is_valid() && l.block == block)
    }

    fn victim_pos(&self, core: usize, block: usize) -> Option<usize> {
        self.cores[core]
            .victim
            .iter()
            .position(|&(b, _, _)| b == block)
    }

    /// Any valid copy of `block` at a core other than `except`?
    fn other_copies(&self, except: usize, block: usize) -> bool {
        self.cores.iter().enumerate().any(|(c, core)| {
            c != except
                && (core
                    .l1
                    .iter()
                    .any(|l| l.state.is_valid() && l.block == block)
                    || core.victim.iter().any(|&(b, _, _)| b == block))
        })
    }

    /// Inserts/updates `block` in the L2, evicting (FIFO) and
    /// back-invalidating under capacity pressure.
    fn l2_insert(&mut self, cfg: &CoherenceConfig, block: usize, version: u64) {
        if self.l2[block].is_some() {
            self.l2[block] = Some(version);
            return;
        }
        if cfg.l2_capacity > 0 && self.l2_order.len() == cfg.l2_capacity {
            let evicted = self.l2_order.remove(0);
            // The L2 copy may be newer than memory (it absorbed earlier
            // writebacks); eviction writes it down before dropping it.
            if let Some(v) = self.l2[evicted] {
                self.memory[evicted] = v;
            }
            self.l2[evicted] = None;
            // Back-invalidate: private copies die; dirty ones flush to
            // memory (the line just left the L2).
            for core in &mut self.cores {
                for l in core.l1.iter_mut() {
                    if l.state.is_valid() && l.block == evicted {
                        if l.state.is_dirty() {
                            self.memory[evicted] = l.version;
                        }
                        l.state = Mesi::Invalid;
                    }
                }
                core.victim.retain(|&(b, st, v)| {
                    if b == evicted {
                        if st.is_dirty() {
                            self.memory[evicted] = v;
                        }
                        false
                    } else {
                        true
                    }
                });
            }
        }
        self.l2[block] = Some(version);
        self.l2_order.push(block);
    }

    /// Moves an evicted L1 line into the victim buffer; the spill (the
    /// line itself at depth 0, else the oldest entry when full) is
    /// written back to the L2 if dirty — unless the `LostWriteback`
    /// mutation drops it.
    fn stash_victim(&mut self, cfg: &CoherenceConfig, core: usize, line: Line) {
        let spill = if cfg.victim_depth == 0 {
            Some((line.block, line.state, line.version))
        } else {
            let spill = if self.cores[core].victim.len() == cfg.victim_depth {
                Some(self.cores[core].victim.remove(0))
            } else {
                None
            };
            self.cores[core]
                .victim
                .push((line.block, line.state, line.version));
            spill
        };
        if let Some((b, st, v)) = spill {
            if st.is_dirty() && cfg.mutation != CoherenceMutation::LostWriteback {
                self.l2_insert(cfg, b, v);
            }
        }
    }

    /// Installs `line` into the core's L1 (first invalid way, else way
    /// 0), routing any evicted line through the victim buffer.
    fn install(&mut self, cfg: &CoherenceConfig, core: usize, line: Line) {
        let way = self.cores[core]
            .l1
            .iter()
            .position(|l| !l.state.is_valid())
            .unwrap_or(0);
        let old = self.cores[core].l1[way];
        self.cores[core].l1[way] = line;
        if old.state.is_valid() {
            self.stash_victim(cfg, core, old);
        }
    }
}

// ---------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------

fn runnable(cfg: &CoherenceConfig, s: &State) -> Vec<usize> {
    (0..cfg.cores)
        .filter(|&c| match s.cores[c].pc {
            Pc::Ready => s.cores[c].ip < cfg.scripts[c].len(),
            Pc::WaitBus(_) => !s.bus_busy || cfg.mutation == CoherenceMutation::ReorderedBusGrant,
            Pc::Snoop(..) | Pc::Fill(_) => true,
            Pc::Done => false,
        })
        .collect()
}

fn advance_ip(cfg: &CoherenceConfig, s: &mut State, core: usize) {
    s.cores[core].ip += 1;
    s.cores[core].pc = if s.cores[core].ip == cfg.scripts[core].len() {
        Pc::Done
    } else {
        Pc::Ready
    };
}

fn step(cfg: &CoherenceConfig, s: &mut State, core: usize) -> &'static str {
    match s.cores[core].pc {
        Pc::Ready => {
            let (block, is_write) = s.op(cfg, core);
            if let Some(way) = s.l1_way(core, block) {
                let st = s.cores[core].l1[way].state;
                if is_write {
                    if st == Mesi::Shared {
                        s.cores[core].pc = Pc::WaitBus(Bus::Upgrade);
                        return "need-upgrade";
                    }
                    // M/E: silent upgrade + atomic commit.
                    s.latest[block] += 1;
                    s.cores[core].l1[way].state = Mesi::Modified;
                    s.cores[core].l1[way].version = s.latest[block];
                    advance_ip(cfg, s, core);
                    return "store-hit";
                }
                advance_ip(cfg, s, core);
                return "load-hit";
            }
            if let Some(pos) = s.victim_pos(core, block) {
                // Victim hit: swap the line back into the L1 (no bus).
                let (b, st, v) = s.cores[core].victim[pos];
                if cfg.mutation != CoherenceMutation::VictimAliasing {
                    s.cores[core].victim.remove(pos);
                }
                s.install(
                    cfg,
                    core,
                    Line {
                        block: b,
                        state: st,
                        version: v,
                    },
                );
                // ip not advanced: the next Ready step is an L1 hit (a
                // store to a rescued Shared copy still needs its BusUpgr).
                return "victim-swap";
            }
            s.cores[core].pc = Pc::WaitBus(if is_write { Bus::ReadX } else { Bus::Read });
            "miss"
        }
        Pc::WaitBus(kind) => {
            s.bus_busy = true;
            s.cores[core].pc = Pc::Snoop(kind, 0);
            "bus-grant"
        }
        Pc::Snoop(kind, peer) => {
            let (block, _) = s.op(cfg, core);
            if peer != core {
                snoop_peer(cfg, s, peer, block, kind);
            }
            s.cores[core].pc = if peer + 1 == cfg.cores {
                Pc::Fill(kind)
            } else {
                Pc::Snoop(kind, peer + 1)
            };
            if peer == core {
                "snoop-self"
            } else {
                "snoop"
            }
        }
        Pc::Fill(kind) => {
            let (block, _) = s.op(cfg, core);
            let label = match kind {
                Bus::Upgrade => {
                    if let Some(way) = s.l1_way(core, block) {
                        s.latest[block] += 1;
                        s.cores[core].l1[way].state = Mesi::Modified;
                        s.cores[core].l1[way].version = s.latest[block];
                    } else {
                        // Upgrade race: the copy was invalidated while we
                        // waited. Degrade to a ReadX-style install.
                        s.latest[block] += 1;
                        let v = s.latest[block];
                        s.l2_insert(cfg, block, v);
                        s.install(
                            cfg,
                            core,
                            Line {
                                block,
                                state: Mesi::Modified,
                                version: v,
                            },
                        );
                    }
                    "upgrade"
                }
                Bus::Read | Bus::ReadX => {
                    // Data source: the L2 if present (snoop flushes land
                    // there), else memory. StaleFill ignores the L2.
                    let source = if cfg.mutation == CoherenceMutation::StaleFill {
                        s.memory[block]
                    } else {
                        s.l2[block].unwrap_or(s.memory[block])
                    };
                    if s.l2[block].is_none() {
                        s.l2_insert(cfg, block, source);
                    }
                    let (state, version) = if kind == Bus::ReadX {
                        s.latest[block] += 1;
                        (Mesi::Modified, s.latest[block])
                    } else {
                        let sharers = s.other_copies(core, block);
                        let st = if cfg.mutation == CoherenceMutation::DoubleOwner {
                            Mesi::Exclusive
                        } else {
                            fill_state(false, sharers)
                        };
                        (st, source)
                    };
                    s.install(
                        cfg,
                        core,
                        Line {
                            block,
                            state,
                            version,
                        },
                    );
                    "fill"
                }
            };
            s.bus_busy = false;
            advance_ip(cfg, s, core);
            label
        }
        Pc::Done => unreachable!("done cores are not runnable"),
    }
}

/// Applies one snoop to `peer`'s copies of `block`.
fn snoop_peer(cfg: &CoherenceConfig, s: &mut State, peer: usize, block: usize, kind: Bus) {
    let exclusive = kind != Bus::Read;
    let dropped = cfg.mutation == CoherenceMutation::DroppedInvalidation;
    if let Some(way) = s.l1_way(peer, block) {
        let line = s.cores[peer].l1[way];
        let ev = if exclusive {
            LineEvent::SnoopWrite
        } else {
            LineEvent::SnoopRead
        };
        if let Some(t) = transition(line.state, ev) {
            if t.flush {
                s.l2_insert(cfg, block, line.version);
            }
            let next = if exclusive && dropped {
                // Bug: downgrade instead of invalidating.
                Mesi::Shared
            } else {
                t.next
            };
            s.cores[peer].l1[way].state = next;
        }
    } else if let Some(pos) = s.victim_pos(peer, block) {
        let (_, st, v) = s.cores[peer].victim[pos];
        if st.is_dirty() {
            s.l2_insert(cfg, block, v);
        }
        if exclusive && !dropped {
            s.cores[peer].victim.remove(pos);
        } else {
            s.cores[peer].victim[pos].1 = Mesi::Shared;
        }
    }
}

// ---------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------

fn check_invariants(cfg: &CoherenceConfig, s: &State) -> InvariantResult {
    // victim-no-alias: a block lives in a core's L1 or its victim
    // buffer, never both.
    for (c, core) in s.cores.iter().enumerate() {
        for &(b, _, _) in &core.victim {
            if core.l1.iter().any(|l| l.state.is_valid() && l.block == b) {
                return Err((
                    "victim-no-alias",
                    format!("core {c} holds block {b} in both L1 and victim buffer"),
                ));
            }
        }
    }
    for block in 0..cfg.blocks {
        // Collect every valid private copy of this block.
        let mut copies: Vec<(usize, Mesi, u64)> = Vec::new();
        for (c, core) in s.cores.iter().enumerate() {
            for l in &core.l1 {
                if l.state.is_valid() && l.block == block {
                    copies.push((c, l.state, l.version));
                }
            }
            for &(b, st, v) in &core.victim {
                if b == block {
                    copies.push((c, st, v));
                }
            }
        }
        // data-value (copies): every valid copy holds the latest version.
        for &(c, st, v) in &copies {
            if v != s.latest[block] {
                return Err((
                    "data-value",
                    format!(
                        "core {c} holds block {block} {st:?} at version {v}, latest is {}",
                        s.latest[block]
                    ),
                ));
            }
        }
        // swmr: an M or E copy excludes every other copy.
        if copies.iter().any(|&(_, st, _)| st.is_exclusive()) && copies.len() > 1 {
            return Err((
                "swmr",
                format!("block {block} has an exclusive owner among {copies:?}"),
            ));
        }
        // data-value (downstream): with no modified owner, the L2 — or
        // memory if the L2 dropped the line — must hold the latest data.
        let has_owner = copies.iter().any(|&(_, st, _)| st.is_dirty());
        if !has_owner {
            let downstream = s.l2[block].unwrap_or(s.memory[block]);
            if downstream != s.latest[block] {
                return Err((
                    "data-value",
                    format!(
                        "no modified owner of block {block} but downstream holds \
                         {downstream}, latest is {}",
                        s.latest[block]
                    ),
                ));
            }
        }
        // inclusion: private copies imply an L2 entry.
        if !copies.is_empty() && s.l2[block].is_none() {
            return Err((
                "inclusion",
                format!("block {block} cached privately but absent from the L2"),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------

/// Explores interleavings of the coherence protocol under `cfg`,
/// checking SWMR, data-value, inclusion and victim-no-alias after every
/// step. Returns exploration statistics, or the first [`Violation`]
/// found with its witness schedule.
pub fn check_coherence_protocol(cfg: &CoherenceConfig) -> Result<Explored, Violation> {
    assert_eq!(cfg.scripts.len(), cfg.cores, "one script per core");
    assert!(cfg.ways >= 1 && cfg.blocks >= 1 && cfg.cores >= 1);
    for script in &cfg.scripts {
        for &(b, _) in script {
            assert!(b < cfg.blocks, "script touches out-of-range block");
        }
    }
    let state = State::new(cfg);
    check_invariants(cfg, &state).map_err(|(invariant, detail)| Violation {
        invariant,
        detail,
        schedule: Vec::new(),
    })?;
    explore(
        cfg.bounds,
        state,
        &|s| runnable(cfg, s),
        &|s, core| step(cfg, s, core),
        &|s| check_invariants(cfg, s),
        &|s| {
            // Terminal: every core must have drained its script.
            if s.cores.iter().any(|c| c.pc != Pc::Done) {
                return Err((
                    "no-deadlock",
                    "no runnable core but scripts are not drained".into(),
                ));
            }
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_bounds(mut cfg: CoherenceConfig, max: u64) -> CoherenceConfig {
        cfg.bounds.max_interleavings = max;
        cfg.bounds.max_depth = 128;
        cfg
    }

    #[test]
    fn faithful_racing_protocol_is_clean() {
        let cfg = with_bounds(CoherenceConfig::racing(), 30_000);
        let explored = check_coherence_protocol(&cfg).expect("faithful protocol must hold");
        assert!(explored.interleavings > 0);
    }

    /// The acceptance bar: >= 10k distinct interleavings with zero
    /// SWMR / data-value / inclusion violations.
    #[test]
    #[cfg_attr(miri, ignore)] // pure compute; ~100x slower interpreted
    fn faithful_protocol_holds_over_10k_interleavings() {
        let cfg = with_bounds(CoherenceConfig::racing(), 25_000);
        let explored = check_coherence_protocol(&cfg).expect("faithful protocol must hold");
        assert!(
            explored.interleavings >= 10_000,
            "explored only {} interleavings",
            explored.interleavings
        );
    }

    /// Pins the full exploration result of one small config, exhaustive
    /// and depth-capped, so a change to the explorer's branch order, caps
    /// or counting shows up here rather than as a drifted `uca check`
    /// report. The capped run's `deepest` sits one below the cap: a
    /// schedule that reaches the cap is pruned before the terminal test.
    #[test]
    fn small_exploration_is_pinned() {
        let mut cfg = CoherenceConfig::racing();
        cfg.scripts = vec![
            vec![(0, true), (1, false)],
            vec![(0, false), (0, true), (1, false)],
        ];
        cfg.bounds.max_interleavings = 0;
        let exhaustive = Explored {
            interleavings: 1678,
            deepest: 25,
            capped: false,
        };
        assert_eq!(check_coherence_protocol(&cfg), Ok(exhaustive));
        cfg.bounds.max_depth = 22;
        let depth_capped = Explored {
            interleavings: 594,
            deepest: 21,
            capped: true,
        };
        assert_eq!(check_coherence_protocol(&cfg), Ok(depth_capped));
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn three_core_litmus_sweep_is_clean() {
        for seed in 0..4u64 {
            let mut cfg = CoherenceConfig::litmus(3, 3, seed);
            cfg.bounds.max_interleavings = 5_000;
            cfg.bounds.max_depth = 128;
            let explored =
                check_coherence_protocol(&cfg).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
            assert!(explored.interleavings > 0);
        }
    }

    #[test]
    fn seeds_permute_exploration_but_not_the_verdict() {
        for seed in [1u64, 0xDEAD_BEEF, u64::MAX] {
            let mut cfg = with_bounds(CoherenceConfig::racing(), 2_000);
            cfg.bounds.seed = seed;
            assert!(check_coherence_protocol(&cfg).is_ok(), "seed {seed}");
        }
    }

    fn assert_caught(mutation: CoherenceMutation, invariants: &[&str]) {
        let mut cfg = with_bounds(CoherenceConfig::racing(), 200_000);
        cfg.mutation = mutation;
        if mutation == CoherenceMutation::VictimAliasing {
            // Depth-1 buffers make the alias transient: the evicted L1
            // line spills the duplicate straight back out within the
            // same victim-swap step. Depth 2 lets it persist.
            cfg.victim_depth = 2;
        }
        let v = check_coherence_protocol(&cfg)
            .expect_err(&format!("{mutation:?} must violate an invariant"));
        assert!(
            invariants.contains(&v.invariant),
            "{mutation:?} fired {} ({}), expected one of {invariants:?}",
            v.invariant,
            v.detail
        );
        assert!(!v.schedule.is_empty(), "witness schedule must be non-empty");
    }

    #[test]
    fn mutation_dropped_invalidation_is_caught() {
        assert_caught(
            CoherenceMutation::DroppedInvalidation,
            &["data-value", "swmr"],
        );
    }

    #[test]
    fn mutation_stale_fill_is_caught() {
        assert_caught(CoherenceMutation::StaleFill, &["data-value"]);
    }

    #[test]
    fn mutation_lost_writeback_is_caught() {
        assert_caught(CoherenceMutation::LostWriteback, &["data-value"]);
    }

    #[test]
    fn mutation_double_owner_is_caught() {
        assert_caught(CoherenceMutation::DoubleOwner, &["swmr"]);
    }

    #[test]
    fn mutation_victim_aliasing_is_caught() {
        assert_caught(CoherenceMutation::VictimAliasing, &["victim-no-alias"]);
    }

    #[test]
    fn mutation_reordered_bus_grant_is_caught() {
        assert_caught(
            CoherenceMutation::ReorderedBusGrant,
            &["swmr", "data-value", "victim-no-alias"],
        );
    }

    #[test]
    fn l2_capacity_pressure_keeps_inclusion() {
        // A 1-entry L2 back-invalidates constantly; inclusion and
        // data-value must still hold on every interleaving.
        let mut cfg = with_bounds(CoherenceConfig::racing(), 10_000);
        cfg.l2_capacity = 1;
        let explored = check_coherence_protocol(&cfg).expect("inclusion must survive pressure");
        assert!(explored.interleavings > 0);
    }

    #[test]
    fn witness_schedule_replays_to_the_violation() {
        // The reported schedule must actually drive the model into the
        // violating state when replayed step by step.
        let mut cfg = with_bounds(CoherenceConfig::racing(), 200_000);
        cfg.mutation = CoherenceMutation::DoubleOwner;
        let v = check_coherence_protocol(&cfg).expect_err("must be caught");
        let mut s = State::new(&cfg);
        let (last, prefix) = v.schedule.split_last().expect("non-empty witness");
        for &(core, label) in prefix {
            assert_eq!(step(&cfg, &mut s, core), label);
            assert!(
                check_invariants(&cfg, &s).is_ok(),
                "violation before the end"
            );
        }
        assert_eq!(step(&cfg, &mut s, last.0), last.1);
        assert!(check_invariants(&cfg, &s).is_err(), "replay must reproduce");
    }
}
