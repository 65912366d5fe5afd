//! The closed registries of countable events and histogram series.
//!
//! Every mechanism counter the simulators emit is declared here, in one
//! flat enum, so the storage for *all* counters is a fixed-size array —
//! no allocation, no hashing, no locks on the hot path — and a snapshot
//! can enumerate every counter without consulting the emitting crates.

/// One countable hot-path event.
///
/// Naming convention: `<scheme>.<mechanism>` (the dotted form returned by
/// [`Event::name`] is the stable key used in `--metrics-json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Column-associative: first-probe lookup (one per access).
    ColumnProbe,
    /// Column-associative: second probe of the alternate ("column") set.
    ColumnSecondProbe,
    /// Column-associative: secondary hit swapped the pair of lines.
    ColumnSwap,
    /// Column-associative: rehashed resident reclaimed by its
    /// conventional owner without a second probe.
    ColumnReclaim,
    /// Column-associative: miss in both sets displaced the primary
    /// resident into the alternate set (rehash bit set).
    ColumnDisplace,
    /// Partner engine — the partner-index cache (one-link chains) and
    /// partner chains alike: primary-set lookup (one per access).
    PartnerProbe,
    /// Partner engine: walk of the hot set's chain after a primary miss
    /// (one per walk, however many links it probes).
    PartnerSecondProbe,
    /// Partner engine: a probed miss lent (spilled) the valid primary
    /// resident into the chain.
    PartnerLend,
    /// Partner engine: epoch boundary re-ran the hot/cold chaining.
    PartnerRepartner,
    /// Partner engine: chains formed (hot sets linked) across all
    /// re-chainings.
    PartnerPairFormed,
    /// B-cache: cluster lookup (one per access).
    BcacheProbe,
    /// B-cache: programmable-decoder line comparisons performed.
    BcacheLineCompare,
    /// B-cache: a miss fill reprogrammed a line's decoder.
    BcacheDecoderReprogram,
    /// Adaptive SHT/OUT engine — the group-associative cache and the
    /// adaptive partitioned cache alike: primary-set lookup (one per
    /// access).
    AdaptiveProbe,
    /// Adaptive SHT/OUT engine: miss whose victim the SHT marked
    /// non-disposable (the set-reference history protected it).
    AdaptiveShtHit,
    /// Adaptive SHT/OUT engine: hit served through the OUT directory.
    AdaptiveOutHit,
    /// Adaptive SHT/OUT engine: block moved out of (or back into) its
    /// primary position.
    AdaptiveRelocation,
    /// Skewed cache: dual-bank lookup (one per access).
    SkewedProbe,
    /// Conventional set-associative cache: lookup (one per access).
    CacheProbe,
    /// Belady MIN: clairvoyant eviction performed.
    BeladyEvict,
    /// Hierarchy: L1 primary hit.
    HierL1Hit,
    /// Hierarchy: L1 secondary (second-probe / OUT-directory) hit.
    HierL1SecondaryHit,
    /// Hierarchy: demand fetch issued to the L2.
    HierL2Access,
    /// Hierarchy: demand fetch hit in the L2.
    HierL2Hit,
    /// Hierarchy: demand fetch missed the L2 and paid the memory latency.
    HierMemoryAccess,
    /// Hierarchy: dirty L1 victim written back into the L2.
    HierWriteback,
    /// Fused kernel: one multi-lane pass over a decoded block stream
    /// (the per-scheme probe counters above still attribute each access
    /// to its own scheme inside the pass).
    FusedPass,
    /// Coherent hierarchy: BusRd transaction (read miss broadcast).
    CohBusRead,
    /// Coherent hierarchy: BusRdX transaction (write miss broadcast).
    CohBusReadX,
    /// Coherent hierarchy: BusUpgr transaction (S -> M without data).
    CohBusUpgrade,
    /// Coherent hierarchy: a remote copy (L1 or victim buffer) was
    /// invalidated by a snoop.
    CohInvalidation,
    /// Coherent hierarchy: a modified owner supplied the data for a
    /// remote miss (cache-to-cache intervention).
    CohIntervention,
    /// Coherent hierarchy: a modified line was written back downstream
    /// (snoop flush, victim-buffer spill, or back-invalidation flush).
    CohWriteback,
    /// Coherent hierarchy: an L2 eviction back-invalidated private
    /// copies to preserve inclusion.
    CohBackInvalidation,
    /// Coherent hierarchy: an L1 miss was rescued by the core's own
    /// victim buffer (no bus transaction).
    CohVictimHit,
    /// Chunked coherent kernel: one fused multi-hierarchy pass over a
    /// raw record trace (the coherent counterpart of `FusedPass`) —
    /// emitted once per fuse-group with pending work, whether or not the
    /// hierarchies run the chunked kernel, so metrics do not depend on
    /// `HierarchyBuilder::chunked`.
    CohFusedPass,
    /// Analytical model: one-pass workload summary computed (shared by
    /// the model, Givargis training and characterization stats).
    ModelSummaryBuild,
    /// Analytical model: closed-form prediction produced for one
    /// (scheme, geometry, workload) combination.
    ModelPredict,
    /// Analytical model: a scheme without a closed form reported
    /// `Unsupported` (never a guessed prediction).
    ModelUnsupported,
}

impl Event {
    /// Number of declared events (the counter-array length).
    pub const COUNT: usize = 39;

    /// Every event, in declaration order.
    pub const ALL: [Event; Event::COUNT] = [
        Event::ColumnProbe,
        Event::ColumnSecondProbe,
        Event::ColumnSwap,
        Event::ColumnReclaim,
        Event::ColumnDisplace,
        Event::PartnerProbe,
        Event::PartnerSecondProbe,
        Event::PartnerLend,
        Event::PartnerRepartner,
        Event::PartnerPairFormed,
        Event::BcacheProbe,
        Event::BcacheLineCompare,
        Event::BcacheDecoderReprogram,
        Event::AdaptiveProbe,
        Event::AdaptiveShtHit,
        Event::AdaptiveOutHit,
        Event::AdaptiveRelocation,
        Event::SkewedProbe,
        Event::CacheProbe,
        Event::BeladyEvict,
        Event::HierL1Hit,
        Event::HierL1SecondaryHit,
        Event::HierL2Access,
        Event::HierL2Hit,
        Event::HierMemoryAccess,
        Event::HierWriteback,
        Event::FusedPass,
        Event::CohBusRead,
        Event::CohBusReadX,
        Event::CohBusUpgrade,
        Event::CohInvalidation,
        Event::CohIntervention,
        Event::CohWriteback,
        Event::CohBackInvalidation,
        Event::CohVictimHit,
        Event::CohFusedPass,
        Event::ModelSummaryBuild,
        Event::ModelPredict,
        Event::ModelUnsupported,
    ];

    /// Position in the counter array.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable dotted name used as the metrics-JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Event::ColumnProbe => "column.probe",
            Event::ColumnSecondProbe => "column.second_probe",
            Event::ColumnSwap => "column.swap",
            Event::ColumnReclaim => "column.reclaim",
            Event::ColumnDisplace => "column.displace",
            Event::PartnerProbe => "partner.probe",
            Event::PartnerSecondProbe => "partner.second_probe",
            Event::PartnerLend => "partner.lend",
            Event::PartnerRepartner => "partner.repartner",
            Event::PartnerPairFormed => "partner.pair_formed",
            Event::BcacheProbe => "bcache.probe",
            Event::BcacheLineCompare => "bcache.line_compare",
            Event::BcacheDecoderReprogram => "bcache.decoder_reprogram",
            Event::AdaptiveProbe => "adaptive.probe",
            Event::AdaptiveShtHit => "adaptive.sht_hit",
            Event::AdaptiveOutHit => "adaptive.out_hit",
            Event::AdaptiveRelocation => "adaptive.relocation",
            Event::SkewedProbe => "skewed.probe",
            Event::CacheProbe => "cache.probe",
            Event::BeladyEvict => "belady.evict",
            Event::HierL1Hit => "hier.l1_hit",
            Event::HierL1SecondaryHit => "hier.l1_secondary_hit",
            Event::HierL2Access => "hier.l2_access",
            Event::HierL2Hit => "hier.l2_hit",
            Event::HierMemoryAccess => "hier.memory_access",
            Event::HierWriteback => "hier.writeback",
            Event::FusedPass => "fused.pass",
            Event::CohBusRead => "coh.bus_read",
            Event::CohBusReadX => "coh.bus_readx",
            Event::CohBusUpgrade => "coh.bus_upgrade",
            Event::CohInvalidation => "coh.invalidation",
            Event::CohIntervention => "coh.intervention",
            Event::CohWriteback => "coh.writeback",
            Event::CohBackInvalidation => "coh.back_invalidation",
            Event::CohVictimHit => "coh.victim_hit",
            Event::CohFusedPass => "coh.fused_pass",
            Event::ModelSummaryBuild => "model.summary_build",
            Event::ModelPredict => "model.predict",
            Event::ModelUnsupported => "model.unsupported",
        }
    }
}

/// One histogram series (distributions, not totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistEvent {
    /// B-cache: lines examined per cluster walk.
    BcacheWalk,
    /// Adaptive SHT/OUT engine: distance (sets) from the primary set to
    /// the relocation host found — nearest within the window for the
    /// group-associative cache, first clockwise for the partitioned one.
    AdaptiveRelocSearch,
    /// Partner engine: chains formed per re-chaining decision.
    PartnerEpochPairs,
    /// Fused kernel: lanes (schemes) driven per fused pass — the
    /// distribution shows how much sharing the fuse-grouping achieves.
    FusedGroupLanes,
    /// Chunked coherent kernel: hierarchies (schemes) driven per fused
    /// coherent pass — the sharing the `xp coherent` fuse-grouping
    /// achieves.
    CohGroupLanes,
}

impl HistEvent {
    /// Number of declared histogram series.
    pub const COUNT: usize = 5;

    /// Every series, in declaration order.
    pub const ALL: [HistEvent; HistEvent::COUNT] = [
        HistEvent::BcacheWalk,
        HistEvent::AdaptiveRelocSearch,
        HistEvent::PartnerEpochPairs,
        HistEvent::FusedGroupLanes,
        HistEvent::CohGroupLanes,
    ];

    /// Position in the histogram array.
    #[inline(always)]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable dotted name used as the metrics-JSON key.
    pub fn name(self) -> &'static str {
        match self {
            HistEvent::BcacheWalk => "bcache.walk",
            HistEvent::AdaptiveRelocSearch => "adaptive.reloc_search",
            HistEvent::PartnerEpochPairs => "partner.epoch_pairs",
            HistEvent::FusedGroupLanes => "fused.group_lanes",
            HistEvent::CohGroupLanes => "coh.group_lanes",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_every_event_exactly_once() {
        assert_eq!(Event::ALL.len(), Event::COUNT);
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?} out of declaration order");
        }
        let mut names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Event::COUNT, "duplicate event name");
    }

    #[test]
    fn hist_registry_is_consistent() {
        assert_eq!(HistEvent::ALL.len(), HistEvent::COUNT);
        for (i, h) in HistEvent::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        let mut names: Vec<&str> = HistEvent::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HistEvent::COUNT);
    }
}
