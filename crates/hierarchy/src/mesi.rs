//! The MESI state machine.
//!
//! One closed transition table drives both the simulator
//! ([`crate::CoherentHierarchy`]) and the bounded model checker
//! ([`crate::model`]), and `uca check` verifies its closure: every
//! (valid state, event) pair yields a defined successor, invalid lines
//! accept no events, and the flush/upgrade side-conditions appear
//! exactly where the protocol requires them.

/// Per-line coherence state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Sole valid copy, dirty: must be written back or supplied on snoop.
    Modified,
    /// Sole valid copy, clean: may upgrade to M silently.
    Exclusive,
    /// One of possibly many clean copies.
    Shared,
    /// No valid copy.
    Invalid,
}

impl Mesi {
    /// Every state, in a fixed order (for the closure check).
    pub const ALL: [Mesi; 4] = [Mesi::Modified, Mesi::Exclusive, Mesi::Shared, Mesi::Invalid];

    /// Is the line present?
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Mesi::Invalid
    }

    /// Must the line be written back when dropped?
    #[inline]
    pub fn is_dirty(self) -> bool {
        self == Mesi::Modified
    }

    /// Does holding this state exclude any other core holding a valid
    /// copy? (The SWMR invariant extends to E: an exclusive copy is the
    /// *sole* copy even though it is clean.)
    #[inline]
    pub fn is_exclusive(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }
}

/// An event applied to one *valid* line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineEvent {
    /// The owning core loads and the line is present.
    LoadHit,
    /// The owning core stores and the line is present.
    StoreHit,
    /// Another core's read (BusRd) is snooped.
    SnoopRead,
    /// Another core's write intent (BusRdX / BusUpgr) is snooped.
    SnoopWrite,
    /// The line leaves this cache (capacity eviction or back-invalidation).
    Evict,
}

impl LineEvent {
    /// Every event, in a fixed order (for the closure check).
    pub const ALL: [LineEvent; 5] = [
        LineEvent::LoadHit,
        LineEvent::StoreHit,
        LineEvent::SnoopRead,
        LineEvent::SnoopWrite,
        LineEvent::Evict,
    ];
}

/// The defined outcome of applying a [`LineEvent`] to a valid state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The state the line moves to.
    pub next: Mesi,
    /// The move needs a BusUpgr transaction first (S -> M store: other
    /// shared copies must be invalidated before writing).
    pub bus_upgrade: bool,
    /// The holder must supply/write back its dirty data (M lines on
    /// snoop or eviction).
    pub flush: bool,
}

/// The MESI transition table. Returns `None` for any event applied to an
/// [`Mesi::Invalid`] line — invalid lines are not resident, so no event
/// can reach them (fills are a separate path: [`fill_state`]).
pub fn transition(state: Mesi, event: LineEvent) -> Option<Transition> {
    use LineEvent::*;
    use Mesi::*;
    let t = |next, bus_upgrade, flush| {
        Some(Transition {
            next,
            bus_upgrade,
            flush,
        })
    };
    match (state, event) {
        (Invalid, _) => None,
        (Modified, LoadHit) => t(Modified, false, false),
        (Modified, StoreHit) => t(Modified, false, false),
        (Modified, SnoopRead) => t(Shared, false, true),
        (Modified, SnoopWrite) => t(Invalid, false, true),
        (Modified, Evict) => t(Invalid, false, true),
        (Exclusive, LoadHit) => t(Exclusive, false, false),
        // Silent upgrade: no other copy exists, so no bus traffic.
        (Exclusive, StoreHit) => t(Modified, false, false),
        (Exclusive, SnoopRead) => t(Shared, false, false),
        (Exclusive, SnoopWrite) => t(Invalid, false, false),
        (Exclusive, Evict) => t(Invalid, false, false),
        (Shared, LoadHit) => t(Shared, false, false),
        // Other shared copies must die first: BusUpgr.
        (Shared, StoreHit) => t(Modified, true, false),
        (Shared, SnoopRead) => t(Shared, false, false),
        (Shared, SnoopWrite) => t(Invalid, false, false),
        (Shared, Evict) => t(Invalid, false, false),
    }
}

/// The state a freshly fetched line installs in: stores take ownership
/// (M); loads take E when no other core holds a copy after the snoop,
/// else S.
#[inline]
pub fn fill_state(is_write: bool, other_sharers: bool) -> Mesi {
    if is_write {
        Mesi::Modified
    } else if other_sharers {
        Mesi::Shared
    } else {
        Mesi::Exclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_closed_over_valid_states() {
        for &s in &Mesi::ALL {
            for &e in &LineEvent::ALL {
                let t = transition(s, e);
                if s == Mesi::Invalid {
                    assert!(t.is_none(), "invalid lines accept no events");
                } else {
                    assert!(t.is_some(), "({s:?}, {e:?}) must be defined");
                }
            }
        }
    }

    #[test]
    fn only_modified_flushes() {
        for &s in &Mesi::ALL {
            for &e in &LineEvent::ALL {
                if let Some(t) = transition(s, e) {
                    assert_eq!(t.flush, s == Mesi::Modified && t.next != Mesi::Modified);
                }
            }
        }
    }

    #[test]
    fn only_shared_store_upgrades_on_bus() {
        for &s in &Mesi::ALL {
            for &e in &LineEvent::ALL {
                if let Some(t) = transition(s, e) {
                    assert_eq!(t.bus_upgrade, s == Mesi::Shared && e == LineEvent::StoreHit);
                }
            }
        }
    }

    #[test]
    fn snoop_write_always_invalidates() {
        for &s in &Mesi::ALL {
            if let Some(t) = transition(s, LineEvent::SnoopWrite) {
                assert_eq!(t.next, Mesi::Invalid);
            }
        }
    }

    #[test]
    fn stores_end_modified() {
        for &s in &Mesi::ALL {
            if let Some(t) = transition(s, LineEvent::StoreHit) {
                assert_eq!(t.next, Mesi::Modified);
            }
        }
    }

    #[test]
    fn fill_states() {
        assert_eq!(fill_state(true, false), Mesi::Modified);
        assert_eq!(fill_state(true, true), Mesi::Modified);
        assert_eq!(fill_state(false, false), Mesi::Exclusive);
        assert_eq!(fill_state(false, true), Mesi::Shared);
    }
}
