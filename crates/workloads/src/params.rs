//! Workload sizing.

/// How big a trace a kernel should generate.
///
/// * `Tiny` — unit tests (sub-millisecond, thousands of references);
/// * `Small` — default for experiment runs and Criterion benches
///   (hundreds of thousands of references: enough to warm a 32 KB L1 well
///   past its capacity and expose steady-state conflict behaviour);
/// * `Large` — closer-to-paper runs for the `xp --large` flag (millions of
///   references).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Unit-test sized.
    Tiny,
    /// Experiment default.
    #[default]
    Small,
    /// Paper-faithful length.
    Large,
}

impl Scale {
    /// A generic multiplier many kernels use to scale iteration counts.
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 8,
            Scale::Large => 32,
        }
    }

    /// Pick among three explicit values.
    pub fn pick<T>(self, tiny: T, small: T, large: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Large => large,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_factors() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Large.factor());
    }

    #[test]
    fn pick_selects() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Large.pick(1, 2, 3), 3);
        assert_eq!(Scale::default(), Scale::Small);
    }
}
