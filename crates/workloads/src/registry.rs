//! The workload registry: every benchmark the paper's figures sweep.

use crate::params::Scale;
use crate::{mibench, spec};
use unicache_trace::Trace;

/// Every workload in the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    // -- MiBench-like (paper Figs. 1, 4, 6, 7, 9-12) --
    /// ADPCM speech codec.
    Adpcm,
    /// Cubic roots / isqrt / angle conversions.
    Basicmath,
    /// Four bit-counting strategies.
    Bitcount,
    /// Table-driven CRC-32.
    Crc,
    /// Dense-matrix Dijkstra.
    Dijkstra,
    /// Radix-2 FFT (the paper's Figure 1 subject).
    Fft,
    /// PATRICIA trie routing table.
    Patricia,
    /// Quicksort.
    Qsort,
    /// AES-128 ECB.
    Rijndael,
    /// SHA-1.
    Sha,
    /// SUSAN image smoothing.
    Susan,
    // -- SPEC-like (paper Fig. 8) --
    /// A* grid pathfinding.
    Astar,
    /// BWT + MTF + RLE compression.
    Bzip2,
    /// Dense LU solver.
    Calculix,
    /// All-pairs Lennard-Jones MD.
    Gromacs,
    /// Profile-HMM Viterbi.
    Hmmer,
    /// Quantum register simulation.
    Libquantum,
    /// Bellman-Ford arc relaxation.
    Mcf,
    /// 4-D lattice field sweeps.
    Milc,
    /// Cell-list MD.
    Namd,
    /// Alpha-beta search + transposition table.
    Sjeng,
}

impl Workload {
    /// The eleven MiBench-like workloads in the paper's figure order.
    pub fn mibench() -> Vec<Workload> {
        vec![
            Workload::Adpcm,
            Workload::Basicmath,
            Workload::Bitcount,
            Workload::Crc,
            Workload::Dijkstra,
            Workload::Fft,
            Workload::Patricia,
            Workload::Qsort,
            Workload::Rijndael,
            Workload::Sha,
            Workload::Susan,
        ]
    }

    /// The ten SPEC-like workloads in Fig. 8's order.
    pub fn spec() -> Vec<Workload> {
        vec![
            Workload::Astar,
            Workload::Bzip2,
            Workload::Calculix,
            Workload::Gromacs,
            Workload::Hmmer,
            Workload::Libquantum,
            Workload::Mcf,
            Workload::Milc,
            Workload::Namd,
            Workload::Sjeng,
        ]
    }

    /// All 21 workloads.
    pub fn all() -> Vec<Workload> {
        let mut v = Self::mibench();
        v.extend(Self::spec());
        v
    }

    /// The lowercase display name the paper uses on its x-axes.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Adpcm => "adpcm",
            Workload::Basicmath => "basicmath",
            Workload::Bitcount => "bitcount",
            Workload::Crc => "crc",
            Workload::Dijkstra => "dijkstra",
            Workload::Fft => "fft",
            Workload::Patricia => "patricia",
            Workload::Qsort => "qsort",
            Workload::Rijndael => "rijndael",
            Workload::Sha => "sha",
            Workload::Susan => "susan",
            Workload::Astar => "astar",
            Workload::Bzip2 => "bzip2",
            Workload::Calculix => "calculix",
            Workload::Gromacs => "gromacs",
            Workload::Hmmer => "hmmer",
            Workload::Libquantum => "libquantum",
            Workload::Mcf => "mcf",
            Workload::Milc => "milc",
            Workload::Namd => "namd",
            Workload::Sjeng => "sjeng",
        }
    }

    /// Parses a display name back to a workload.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name() == name)
    }

    /// Generates this workload's data-reference trace at the given scale.
    /// Deterministic: the same `(workload, scale)` always produces the
    /// identical trace.
    pub fn generate(&self, scale: Scale) -> Trace {
        match self {
            Workload::Adpcm => mibench::adpcm::trace(scale),
            Workload::Basicmath => mibench::basicmath::trace(scale),
            Workload::Bitcount => mibench::bitcount::trace(scale),
            Workload::Crc => mibench::crc::trace(scale),
            Workload::Dijkstra => mibench::dijkstra::trace(scale),
            Workload::Fft => mibench::fft::trace(scale),
            Workload::Patricia => mibench::patricia::trace(scale),
            Workload::Qsort => mibench::qsort::trace(scale),
            Workload::Rijndael => mibench::rijndael::trace(scale),
            Workload::Sha => mibench::sha::trace(scale),
            Workload::Susan => mibench::susan::trace(scale),
            Workload::Astar => spec::astar::trace(scale),
            Workload::Bzip2 => spec::bzip2::trace(scale),
            Workload::Calculix => spec::calculix::trace(scale),
            Workload::Gromacs => spec::gromacs::trace(scale),
            Workload::Hmmer => spec::hmmer::trace(scale),
            Workload::Libquantum => spec::libquantum::trace(scale),
            Workload::Mcf => spec::mcf::trace(scale),
            Workload::Milc => spec::milc::trace(scale),
            Workload::Namd => spec::namd::trace(scale),
            Workload::Sjeng => spec::sjeng::trace(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes() {
        assert_eq!(Workload::mibench().len(), 11);
        assert_eq!(Workload::spec().len(), 10);
        assert_eq!(Workload::all().len(), 21);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::all() {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("not_a_workload"), None);
    }

    #[test]
    fn figure_order_matches_paper_axes() {
        let names: Vec<&str> = Workload::mibench().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "adpcm",
                "basicmath",
                "bitcount",
                "crc",
                "dijkstra",
                "fft",
                "patricia",
                "qsort",
                "rijndael",
                "sha",
                "susan"
            ]
        );
        let spec_names: Vec<&str> = Workload::spec().iter().map(|w| w.name()).collect();
        assert_eq!(
            spec_names,
            [
                "astar",
                "bzip2",
                "calculix",
                "gromacs",
                "hmmer",
                "libquantum",
                "mcf",
                "milc",
                "namd",
                "sjeng"
            ]
        );
    }

    #[test]
    fn every_workload_generates_a_nonempty_data_trace() {
        for w in Workload::all() {
            let t = w.generate(Scale::Tiny);
            assert!(!t.is_empty(), "{} produced an empty trace", w.name());
            assert!(
                t.iter().all(|r| r.kind.is_data()),
                "{} emitted non-data refs",
                w.name()
            );
            assert!(
                t.unique_addrs().len() > 64,
                "{} touches too few addresses",
                w.name()
            );
        }
    }
}
