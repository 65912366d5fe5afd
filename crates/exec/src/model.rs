//! Bounded model checking for the workspace's concurrency protocols.
//!
//! The byte-identity CI job proves the experiment sweeps *were*
//! deterministic on the schedules a particular machine happened to
//! produce; it cannot distinguish "correct" from "racy but lucky". This
//! module closes that gap dynamically: a protocol is re-expressed as an
//! explicit state machine and [`explore`] **exhaustively walks its
//! bounded interleavings** with a deterministic scheduler — a
//! dependency-free, loom-style shim.
//!
//! * [`check_once_cell_protocol`] — the `TraceStore`/`SimStore`
//!   memoization protocol: a once-cell claimed by the first arriver,
//!   computed once, published, and read by every later arriver.
//!   Invariants: **the value is computed exactly once**, **every worker
//!   observes the published value**, and **no worker blocks forever**.
//! * `unicache_hierarchy::check_coherence_protocol` runs the MESI +
//!   victim-buffer model on the same [`explore`], checking its
//!   invariants after every step.
//!
//! ## How the exploration works
//!
//! Every *yield point* of the real code — one lock-protected
//! transition, one unsynchronized execution step — becomes one atomic
//! step of a worker automaton. [`explore`] runs a depth-first search
//! over "which runnable worker steps next", cloning the model state at
//! each branch. Each root-to-terminal path is one distinct
//! interleaving; the DFS is **depth-capped** and **interleaving-capped**
//! so the worst case stays bounded, and the per-node branch order is
//! **seeded** so capped runs can sample different regions of the
//! schedule space across seeds.
//!
//! What this does and does not prove: within the configured bounds the
//! exploration is exhaustive over *schedules*, but the model inherits
//! the atomicity the implementation gets from its locks — it verifies
//! the protocol logic (no doubled computation, no lost wakeups), not
//! the memory-model correctness of the primitives themselves. Miri and
//! ThreadSanitizer cover that side (see DESIGN §13).
//!
//! [`Mutation`] seeds protocol bugs (a once-cell that computes without
//! claiming, a claimer that never publishes) so tests can prove the
//! checker actually fails on the classes of bug it exists to catch.

/// Outcome of an exploration that found no violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Distinct complete interleavings whose terminal state was checked.
    pub interleavings: u64,
    /// Length of the longest schedule explored.
    pub deepest: usize,
    /// True when a cap (depth or interleaving budget) pruned the search;
    /// false means the bounded space was covered exhaustively.
    pub capped: bool,
}

/// A protocol invariant broken on some explored schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that failed, e.g. `exactly-once`.
    pub invariant: &'static str,
    /// What the terminal state looked like.
    pub detail: String,
    /// The schedule that got there: `(worker, step)` in execution order.
    pub schedule: Vec<(usize, &'static str)>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} after {} steps",
            self.invariant,
            self.detail,
            self.schedule.len()
        )
    }
}

/// A protocol bug seeded into the model, for mutation tests proving the
/// checker can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful model of the shipped protocol.
    #[default]
    None,
    /// A once-cell arriver that finds the cell claimed computes anyway
    /// instead of waiting (double compute).
    ComputeWithoutClaim,
    /// The once-cell claimer finishes without publishing (lost wakeup:
    /// every waiter blocks forever).
    ForgetPublish,
}

/// Exploration bounds shared by every protocol checker.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Stop after this many complete interleavings (0 = unlimited).
    pub max_interleavings: u64,
    /// Prune any schedule longer than this many steps.
    pub max_depth: usize,
    /// Seed permuting the per-node branch order, so capped runs sample
    /// different schedule regions. The explored *set* is identical for
    /// every seed when the search is not capped.
    pub seed: u64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_interleavings: 100_000,
            max_depth: 256,
            seed: 0xB0D1_CAFE,
        }
    }
}

/// Splitmix64 — the deterministic per-node branch-order shuffler, also
/// used by models that derive seeded scripts.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates over the runnable-worker list.
fn shuffle(choices: &mut [usize], rng: &mut u64) {
    for i in (1..choices.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        choices.swap(i, j);
    }
}

// ---------------------------------------------------------------------
// Once-cell (TraceStore / SimStore) protocol
// ---------------------------------------------------------------------

/// Configuration of one once-cell exploration.
#[derive(Debug, Clone, Copy)]
pub struct OnceConfig {
    /// Racing workers, all requesting the same key.
    pub workers: usize,
    /// Exploration bounds.
    pub bounds: Bounds,
    /// Seeded protocol bug, [`Mutation::None`] for the faithful model.
    pub mutation: Mutation,
}

/// The memoization cell, as in `TraceStore`: a per-key `OnceLock` behind
/// a brief map lock (the fetch), claimed by the first `get_or_init`
/// arriver while later arrivers block until publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellState {
    Empty,
    Claimed,
    Ready(u64),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OncePc {
    /// Lock the cell map, fetch-or-insert the per-key cell.
    Fetch,
    /// Atomically: read the cell state; claim it if empty.
    TryClaim,
    /// Run the (expensive) init body — outside every lock.
    Compute,
    /// Publish the computed value into the cell.
    Publish {
        value: u64,
    },
    /// Blocked on a claimed cell; runnable only once it is `Ready`.
    Wait,
    Done,
}

#[derive(Clone)]
struct OnceState {
    cell: CellState,
    computes: u32,
    observed: Vec<Option<u64>>,
    pcs: Vec<OncePc>,
}

/// The deterministic "expensive computation" all workers race to run.
const ONCE_VALUE: u64 = 0x5EED;

impl OnceState {
    fn initial(cfg: &OnceConfig) -> Self {
        OnceState {
            cell: CellState::Empty,
            computes: 0,
            observed: vec![None; cfg.workers],
            pcs: vec![OncePc::Fetch; cfg.workers],
        }
    }

    fn step(&mut self, w: usize, cfg: &OnceConfig) -> &'static str {
        match self.pcs[w] {
            OncePc::Fetch => {
                self.pcs[w] = OncePc::TryClaim;
                "fetch-cell"
            }
            OncePc::TryClaim => match self.cell {
                CellState::Ready(v) => {
                    self.observed[w] = Some(v);
                    self.pcs[w] = OncePc::Done;
                    "read-ready"
                }
                CellState::Empty => {
                    self.cell = CellState::Claimed;
                    self.pcs[w] = OncePc::Compute;
                    "claim"
                }
                CellState::Claimed => {
                    self.pcs[w] = if cfg.mutation == Mutation::ComputeWithoutClaim {
                        OncePc::Compute
                    } else {
                        OncePc::Wait
                    };
                    "observe-claimed"
                }
            },
            OncePc::Compute => {
                self.computes += 1;
                self.pcs[w] = if cfg.mutation == Mutation::ForgetPublish {
                    // The claimer walks away without publishing.
                    self.observed[w] = Some(ONCE_VALUE);
                    OncePc::Done
                } else {
                    OncePc::Publish { value: ONCE_VALUE }
                };
                "compute"
            }
            OncePc::Publish { value } => {
                self.cell = CellState::Ready(value);
                self.observed[w] = Some(value);
                self.pcs[w] = OncePc::Done;
                "publish"
            }
            OncePc::Wait => match self.cell {
                CellState::Ready(v) => {
                    self.observed[w] = Some(v);
                    self.pcs[w] = OncePc::Done;
                    "wake-read"
                }
                _ => unreachable!("waiters are runnable only once the cell is ready"),
            },
            OncePc::Done => unreachable!("done workers are never scheduled"),
        }
    }

    /// Runnable = not done and not blocked: a `Wait` worker models a
    /// thread parked inside `OnceLock::get_or_init`, so it can only be
    /// scheduled after publication.
    fn runnable(&self) -> Vec<usize> {
        (0..self.pcs.len())
            .filter(|&w| match self.pcs[w] {
                OncePc::Done => false,
                OncePc::Wait => matches!(self.cell, CellState::Ready(_)),
                _ => true,
            })
            .collect()
    }

    fn check(&self, all_done: bool) -> InvariantResult {
        if !all_done {
            let parked: Vec<usize> = (0..self.pcs.len())
                .filter(|&w| self.pcs[w] != OncePc::Done)
                .collect();
            return Err((
                "no-lost-wakeup",
                format!("workers {parked:?} blocked forever on an unpublished cell"),
            ));
        }
        if self.computes != 1 {
            return Err((
                "compute-once",
                format!("init body ran {} times (want exactly 1)", self.computes),
            ));
        }
        for (w, v) in self.observed.iter().enumerate() {
            if *v != Some(ONCE_VALUE) {
                return Err((
                    "published-value",
                    format!("worker {w} observed {v:?} (want Some({ONCE_VALUE}))"),
                ));
            }
        }
        Ok(())
    }
}

/// Explores bounded interleavings of the `TraceStore`/`SimStore`
/// once-cell protocol: N workers race one key; the init body must run
/// exactly once, every worker must observe the published value, and no
/// worker may block forever.
pub fn check_once_cell_protocol(cfg: &OnceConfig) -> Result<Explored, Violation> {
    assert!(cfg.workers >= 1, "degenerate model");
    explore(
        cfg.bounds,
        OnceState::initial(cfg),
        &|s| s.runnable(),
        &|s, w| s.step(w, cfg),
        &|_| Ok(()),
        &|s| s.check(s.pcs.iter().all(|&pc| pc == OncePc::Done)),
    )
}

// ---------------------------------------------------------------------
// The generic seeded, bounded DFS
// ---------------------------------------------------------------------

/// `Err((invariant, detail))` when a state breaks an invariant.
pub type InvariantResult = Result<(), (&'static str, String)>;

/// Explores bounded interleavings of a protocol model from `initial`.
///
/// `runnable` lists the workers that may step next; `step` advances one
/// worker by one atomic step and returns its label for the witness
/// schedule. `after_step` checks the invariants that must hold in every
/// reachable state (a no-op for models whose invariants are terminal
/// only); `at_terminal` checks a state with no runnable worker — all
/// done *or* deadlocked, which is for the model to tell apart. Returns
/// the exploration statistics, or the first [`Violation`] with the
/// schedule that reached it.
pub fn explore<S: Clone>(
    bounds: Bounds,
    initial: S,
    runnable: &dyn Fn(&S) -> Vec<usize>,
    step: &dyn Fn(&mut S, usize) -> &'static str,
    after_step: &dyn Fn(&S) -> InvariantResult,
    at_terminal: &dyn Fn(&S) -> InvariantResult,
) -> Result<Explored, Violation> {
    let mut explorer = Explorer {
        bounds,
        runnable,
        step,
        after_step,
        at_terminal,
        explored: Explored {
            interleavings: 0,
            deepest: 0,
            capped: false,
        },
    };
    explorer.dfs(&initial, &mut Vec::new())?;
    Ok(explorer.explored)
}

struct Explorer<'a, S> {
    bounds: Bounds,
    runnable: &'a dyn Fn(&S) -> Vec<usize>,
    step: &'a dyn Fn(&mut S, usize) -> &'static str,
    after_step: &'a dyn Fn(&S) -> InvariantResult,
    at_terminal: &'a dyn Fn(&S) -> InvariantResult,
    explored: Explored,
}

impl<S: Clone> Explorer<'_, S> {
    /// Depth-first over scheduler choices. A state with no runnable
    /// worker is terminal and counts as one interleaving; a schedule
    /// that reaches the depth cap is pruned before that test.
    fn dfs(
        &mut self,
        state: &S,
        schedule: &mut Vec<(usize, &'static str)>,
    ) -> Result<(), Violation> {
        let bounds = self.bounds;
        let e = &mut self.explored;
        if (bounds.max_interleavings != 0 && e.interleavings >= bounds.max_interleavings)
            || schedule.len() >= bounds.max_depth
        {
            e.capped = true;
            return Ok(());
        }
        let violation = |(invariant, detail), schedule: &[(usize, &'static str)]| Violation {
            invariant,
            detail,
            schedule: schedule.to_vec(),
        };
        let mut choices = (self.runnable)(state);
        if choices.is_empty() {
            e.interleavings += 1;
            e.deepest = e.deepest.max(schedule.len());
            return (self.at_terminal)(state).map_err(|v| violation(v, schedule));
        }
        // Seeded branch order: deterministic for a (seed, path) pair, so
        // runs are reproducible, but different seeds walk the capped
        // space in different orders.
        let mut rng = bounds
            .seed
            .wrapping_add((schedule.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(e.interleavings);
        shuffle(&mut choices, &mut rng);
        for w in choices {
            let mut next = state.clone();
            let label = (self.step)(&mut next, w);
            schedule.push((w, label));
            (self.after_step)(&next).map_err(|v| violation(v, schedule))?;
            self.dfs(&next, schedule)?;
            schedule.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(max_interleavings: u64) -> Bounds {
        Bounds {
            max_interleavings,
            ..Bounds::default()
        }
    }

    #[test]
    fn faithful_once_cell_protocol_is_exhaustively_clean() {
        for workers in 2..=4 {
            let cfg = OnceConfig {
                workers,
                bounds: bounds(0),
                mutation: Mutation::None,
            };
            let explored = check_once_cell_protocol(&cfg).expect("faithful protocol must verify");
            assert!(!explored.capped, "workers={workers} must be exhaustive");
            assert!(explored.interleavings >= 2, "workers={workers}");
        }
    }

    #[test]
    fn once_cell_mutations_are_detected() {
        let cfg = OnceConfig {
            workers: 3,
            bounds: bounds(0),
            mutation: Mutation::ComputeWithoutClaim,
        };
        let v = check_once_cell_protocol(&cfg).expect_err("double compute must be detected");
        assert_eq!(v.invariant, "compute-once", "{v}");

        let cfg = OnceConfig {
            workers: 3,
            bounds: bounds(0),
            mutation: Mutation::ForgetPublish,
        };
        let v = check_once_cell_protocol(&cfg).expect_err("lost wakeup must be detected");
        assert_eq!(v.invariant, "no-lost-wakeup", "{v}");
    }

    #[test]
    fn single_worker_degenerate_cases_hold() {
        let cfg = OnceConfig {
            workers: 1,
            bounds: bounds(0),
            mutation: Mutation::None,
        };
        let explored = check_once_cell_protocol(&cfg).expect("serial schedule is trivially clean");
        assert_eq!(explored.interleavings, 1, "one worker, one schedule");
    }
}
