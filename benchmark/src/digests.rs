//! Frozen FNV-1a digests of every experiment's rendered bytes (`xp
//! <name>` text output, Fig. 1 on fft), at the two scales the benchmark
//! runs. They are the correctness oracle of the paper workloads: a
//! rendered figure whose digest differs counts as a failed operation.
//!
//! After an intentional output change, regenerate the tables with
//! `benchmark digests --scale small` and `--scale tiny` and paste them
//! here.

use unicache_workloads::Scale;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The frozen digest of experiment `name` at `scale`, if there is one.
pub fn expected(scale: Scale, name: &str) -> Option<u64> {
    let table = match scale {
        Scale::Tiny => TINY,
        Scale::Small => SMALL,
        Scale::Large => return None,
    };
    table.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

const SMALL: &[(&str, u64)] = &[
    ("fig1", 0x3ae609980b134996),
    ("fig4", 0xcc7137363f423865),
    ("fig6", 0xd3d03cfe384823b7),
    ("fig7", 0x4013103c182ee2e7),
    ("fig8", 0x017b9b0e9a262261),
    ("fig9", 0x85e6b2c954769458),
    ("fig10", 0x745259b0faad5723),
    ("fig11", 0x94bff65c6410b4ca),
    ("fig12", 0x6a2f376c9a8bdddc),
    ("fig13", 0x25a0db72b961cde9),
    ("fig14", 0xa9e047b81fc6fac0),
    ("classify", 0x8fb005e9b1e2b8f5),
    ("patel", 0xfe042c48817024ba),
    ("belady", 0xc1a24398e5ed7798),
    ("generalize", 0xba29e1dc6510e31f),
    ("idx-amat", 0x4cbd527442bd2ae5),
    ("assoc-sweep", 0x3d13d9453a915c59),
    ("hierarchy", 0xca23b98d9eec5536),
    ("icache", 0x78e108a4987be904),
    ("online", 0x4c344906b3146cae),
    ("workloads", 0xf7dcd52008dd6d7a),
    ("phases", 0x8ed1ff9a48eab189),
    ("select", 0x4be4723c41466740),
    ("coherent", 0xbe1f5e94d6c16237),
    ("model", 0x227b74fa94a412f6),
];

const TINY: &[(&str, u64)] = &[
    ("fig1", 0x37217494b9c5b4c5),
    ("fig4", 0x35f9398e2d3c5c36),
    ("fig6", 0x080cf7d228991b85),
    ("fig7", 0xd985fb78d77b6fab),
    ("fig8", 0x99b8befc8dfae420),
    ("fig9", 0x5d6c45926b016fcd),
    ("fig10", 0xb521b3c035864721),
    ("fig11", 0x1a52fae89dc0299d),
    ("fig12", 0x94e3aee010299cc8),
    ("fig13", 0xf4a1dc7c9ff34e03),
    ("fig14", 0x985acae3e2d88a0e),
    ("classify", 0x4a86fb78918fb834),
    ("patel", 0x3eb753d8e7851d80),
    ("belady", 0x2b5d2dd38c95a4da),
    ("generalize", 0x9d5a2404319abbe9),
    ("idx-amat", 0x6e0e56d391dc56dd),
    ("assoc-sweep", 0x49e045f0fc727ccc),
    ("hierarchy", 0x5da4544fdd1603cb),
    ("icache", 0x78e108a4987be904),
    ("online", 0x65c7bb5a0b088405),
    ("workloads", 0xef3ab2e3a357dbe2),
    ("phases", 0xbca60051ba48475d),
    ("select", 0x8a187de510430715),
    ("coherent", 0x9afac2105cfac0fe),
    ("model", 0x2dd5a0642a044ec1),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_experiment_has_a_digest_at_both_scales() {
        for scale in [Scale::Tiny, Scale::Small] {
            for name in unicache_experiments::ALL_EXPERIMENTS {
                assert!(expected(scale, name).is_some(), "{name} at {scale:?}");
            }
            let table = if scale == Scale::Tiny { TINY } else { SMALL };
            assert_eq!(table.len(), unicache_experiments::ALL_EXPERIMENTS.len());
        }
    }
}
