//! The built-in data-sheet database.
//!
//! Twenty-four consumer GPUs spanning Pascal, Turing, and Ampere. The four
//! evaluation parts of the paper's Table 1 (Titan Xp, RTX 2070 Super,
//! RTX 2080 Ti, RTX 3090) are included verbatim; the remaining twenty serve
//! as the meta-training population for the Blueprint PCA, the prior
//! generator `H`, and the hardware-aware explorer (§3.1–3.2 train across
//! "various hardware and networks").
//!
//! Numbers are transcribed from the public data sheets / the "List of Nvidia
//! graphics processing units" the paper cites as \[12\].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::generation::Generation;
use crate::spec::GpuSpec;
use std::sync::OnceLock;

/// The four target GPUs of the paper's evaluation (Table 1).
pub const EVALUATION_GPUS: [&str; 4] = ["Titan Xp", "RTX 2070 Super", "RTX 2080 Ti", "RTX 3090"];

struct Row {
    name: &'static str,
    generation: Generation,
    sm_count: u32,
    cores_per_sm: u32,
    base_mhz: f64,
    boost_mhz: f64,
    bandwidth_gb_s: f64,
    bus_bits: u32,
    mem_gib: f64,
    l2_kib: u32,
    tdp_w: f64,
}

const ROWS: &[Row] = &[
    // Pascal (sm_61)
    Row {
        name: "GTX 1050 Ti",
        generation: Generation::Pascal,
        sm_count: 6,
        cores_per_sm: 128,
        base_mhz: 1290.0,
        boost_mhz: 1392.0,
        bandwidth_gb_s: 112.1,
        bus_bits: 128,
        mem_gib: 4.0,
        l2_kib: 1024,
        tdp_w: 75.0,
    },
    Row {
        name: "GTX 1060 6GB",
        generation: Generation::Pascal,
        sm_count: 10,
        cores_per_sm: 128,
        base_mhz: 1506.0,
        boost_mhz: 1708.0,
        bandwidth_gb_s: 192.2,
        bus_bits: 192,
        mem_gib: 6.0,
        l2_kib: 1536,
        tdp_w: 120.0,
    },
    Row {
        name: "GTX 1070",
        generation: Generation::Pascal,
        sm_count: 15,
        cores_per_sm: 128,
        base_mhz: 1506.0,
        boost_mhz: 1683.0,
        bandwidth_gb_s: 256.3,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 2048,
        tdp_w: 150.0,
    },
    Row {
        name: "GTX 1070 Ti",
        generation: Generation::Pascal,
        sm_count: 19,
        cores_per_sm: 128,
        base_mhz: 1607.0,
        boost_mhz: 1683.0,
        bandwidth_gb_s: 256.3,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 2048,
        tdp_w: 180.0,
    },
    Row {
        name: "GTX 1080",
        generation: Generation::Pascal,
        sm_count: 20,
        cores_per_sm: 128,
        base_mhz: 1607.0,
        boost_mhz: 1733.0,
        bandwidth_gb_s: 320.3,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 2048,
        tdp_w: 180.0,
    },
    Row {
        name: "GTX 1080 Ti",
        generation: Generation::Pascal,
        sm_count: 28,
        cores_per_sm: 128,
        base_mhz: 1480.0,
        boost_mhz: 1582.0,
        bandwidth_gb_s: 484.4,
        bus_bits: 352,
        mem_gib: 11.0,
        l2_kib: 2816,
        tdp_w: 250.0,
    },
    Row {
        name: "Titan X (Pascal)",
        generation: Generation::Pascal,
        sm_count: 28,
        cores_per_sm: 128,
        base_mhz: 1417.0,
        boost_mhz: 1531.0,
        bandwidth_gb_s: 480.4,
        bus_bits: 384,
        mem_gib: 12.0,
        l2_kib: 3072,
        tdp_w: 250.0,
    },
    Row {
        name: "Titan Xp",
        generation: Generation::Pascal,
        sm_count: 30,
        cores_per_sm: 128,
        base_mhz: 1405.0,
        boost_mhz: 1582.0,
        bandwidth_gb_s: 547.6,
        bus_bits: 384,
        mem_gib: 12.0,
        l2_kib: 3072,
        tdp_w: 250.0,
    },
    // Turing (sm_75)
    Row {
        name: "GTX 1650",
        generation: Generation::Turing,
        sm_count: 14,
        cores_per_sm: 64,
        base_mhz: 1485.0,
        boost_mhz: 1665.0,
        bandwidth_gb_s: 128.1,
        bus_bits: 128,
        mem_gib: 4.0,
        l2_kib: 1024,
        tdp_w: 75.0,
    },
    Row {
        name: "GTX 1660",
        generation: Generation::Turing,
        sm_count: 22,
        cores_per_sm: 64,
        base_mhz: 1530.0,
        boost_mhz: 1785.0,
        bandwidth_gb_s: 192.1,
        bus_bits: 192,
        mem_gib: 6.0,
        l2_kib: 1536,
        tdp_w: 120.0,
    },
    Row {
        name: "GTX 1660 Ti",
        generation: Generation::Turing,
        sm_count: 24,
        cores_per_sm: 64,
        base_mhz: 1500.0,
        boost_mhz: 1770.0,
        bandwidth_gb_s: 288.0,
        bus_bits: 192,
        mem_gib: 6.0,
        l2_kib: 1536,
        tdp_w: 120.0,
    },
    Row {
        name: "RTX 2060",
        generation: Generation::Turing,
        sm_count: 30,
        cores_per_sm: 64,
        base_mhz: 1365.0,
        boost_mhz: 1680.0,
        bandwidth_gb_s: 336.0,
        bus_bits: 192,
        mem_gib: 6.0,
        l2_kib: 3072,
        tdp_w: 160.0,
    },
    Row {
        name: "RTX 2060 Super",
        generation: Generation::Turing,
        sm_count: 34,
        cores_per_sm: 64,
        base_mhz: 1470.0,
        boost_mhz: 1650.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 175.0,
    },
    Row {
        name: "RTX 2070",
        generation: Generation::Turing,
        sm_count: 36,
        cores_per_sm: 64,
        base_mhz: 1410.0,
        boost_mhz: 1620.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 175.0,
    },
    Row {
        name: "RTX 2070 Super",
        generation: Generation::Turing,
        sm_count: 40,
        cores_per_sm: 64,
        base_mhz: 1605.0,
        boost_mhz: 1770.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 215.0,
    },
    Row {
        name: "RTX 2080",
        generation: Generation::Turing,
        sm_count: 46,
        cores_per_sm: 64,
        base_mhz: 1515.0,
        boost_mhz: 1710.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 215.0,
    },
    Row {
        name: "RTX 2080 Super",
        generation: Generation::Turing,
        sm_count: 48,
        cores_per_sm: 64,
        base_mhz: 1650.0,
        boost_mhz: 1815.0,
        bandwidth_gb_s: 496.1,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 250.0,
    },
    Row {
        name: "RTX 2080 Ti",
        generation: Generation::Turing,
        sm_count: 68,
        cores_per_sm: 64,
        base_mhz: 1350.0,
        boost_mhz: 1545.0,
        bandwidth_gb_s: 616.0,
        bus_bits: 352,
        mem_gib: 11.0,
        l2_kib: 5632,
        tdp_w: 250.0,
    },
    Row {
        name: "Titan RTX",
        generation: Generation::Turing,
        sm_count: 72,
        cores_per_sm: 64,
        base_mhz: 1350.0,
        boost_mhz: 1770.0,
        bandwidth_gb_s: 672.0,
        bus_bits: 384,
        mem_gib: 24.0,
        l2_kib: 6144,
        tdp_w: 280.0,
    },
    // Ampere (sm_86)
    Row {
        name: "RTX 3060",
        generation: Generation::Ampere,
        sm_count: 28,
        cores_per_sm: 128,
        base_mhz: 1320.0,
        boost_mhz: 1777.0,
        bandwidth_gb_s: 360.0,
        bus_bits: 192,
        mem_gib: 12.0,
        l2_kib: 3072,
        tdp_w: 170.0,
    },
    Row {
        name: "RTX 3060 Ti",
        generation: Generation::Ampere,
        sm_count: 38,
        cores_per_sm: 128,
        base_mhz: 1410.0,
        boost_mhz: 1665.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 200.0,
    },
    Row {
        name: "RTX 3070",
        generation: Generation::Ampere,
        sm_count: 46,
        cores_per_sm: 128,
        base_mhz: 1500.0,
        boost_mhz: 1725.0,
        bandwidth_gb_s: 448.0,
        bus_bits: 256,
        mem_gib: 8.0,
        l2_kib: 4096,
        tdp_w: 220.0,
    },
    Row {
        name: "RTX 3080",
        generation: Generation::Ampere,
        sm_count: 68,
        cores_per_sm: 128,
        base_mhz: 1440.0,
        boost_mhz: 1710.0,
        bandwidth_gb_s: 760.3,
        bus_bits: 320,
        mem_gib: 10.0,
        l2_kib: 5120,
        tdp_w: 320.0,
    },
    Row {
        name: "RTX 3090",
        generation: Generation::Ampere,
        sm_count: 82,
        cores_per_sm: 128,
        base_mhz: 1395.0,
        boost_mhz: 1695.0,
        bandwidth_gb_s: 936.2,
        bus_bits: 384,
        mem_gib: 24.0,
        l2_kib: 6144,
        tdp_w: 350.0,
    },
];

fn expand(row: &Row) -> GpuSpec {
    // Per-generation SM limits come from the CUDA occupancy tables rather
    // than the marketing sheet, keyed on compute capability.
    let (shared_per_sm, shared_per_block, threads_per_sm, blocks_per_sm) = match row.generation {
        Generation::Pascal => (96, 48, 2048, 32),
        Generation::Turing => (64, 64, 1024, 16),
        Generation::Ampere => (128, 100, 1536, 16),
    };
    let total_cores = f64::from(row.sm_count * row.cores_per_sm);
    GpuSpec {
        name: row.name.to_owned(),
        generation: row.generation,
        sm_arch: row.generation.default_sm_arch(),
        sm_count: row.sm_count,
        cores_per_sm: row.cores_per_sm,
        base_clock_mhz: row.base_mhz,
        boost_clock_mhz: row.boost_mhz,
        mem_bandwidth_gb_s: row.bandwidth_gb_s,
        mem_bus_bits: row.bus_bits,
        mem_size_gib: row.mem_gib,
        l2_cache_kib: row.l2_kib,
        shared_mem_per_sm_kib: shared_per_sm,
        max_shared_mem_per_block_kib: shared_per_block,
        registers_per_sm: 65_536,
        max_threads_per_sm: threads_per_sm,
        max_threads_per_block: 1024,
        max_blocks_per_sm: blocks_per_sm,
        warp_size: 32,
        fp32_gflops: 2.0 * total_cores * row.boost_mhz / 1000.0,
        tdp_w: row.tdp_w,
    }
}

fn table() -> &'static [GpuSpec] {
    static TABLE: OnceLock<Vec<GpuSpec>> = OnceLock::new();
    TABLE.get_or_init(|| ROWS.iter().map(expand).collect())
}

/// All 24 GPUs in the database, Pascal first, in release order.
#[must_use]
pub fn all() -> &'static [GpuSpec] {
    table()
}

/// Looks up a GPU by exact marketing name.
#[must_use]
pub fn find(name: &str) -> Option<&'static GpuSpec> {
    table().iter().find(|g| g.name == name)
}

/// The four evaluation GPUs of Table 1, in the paper's order.
#[must_use]
pub fn evaluation_gpus() -> Vec<&'static GpuSpec> {
    EVALUATION_GPUS.iter().filter_map(|n| find(n)).collect()
}

/// Every database entry except `excluded`, used for leave-one-out
/// meta-training (§3.1: `H` is trained on other hardware).
#[must_use]
pub fn training_gpus(excluded: &str) -> Vec<&'static GpuSpec> {
    table().iter().filter(|g| g.name != excluded).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_has_24_entries() {
        assert_eq!(all().len(), 24);
    }

    #[test]
    fn evaluation_gpus_match_table1() {
        let gpus = evaluation_gpus();
        assert_eq!(gpus.len(), 4);
        assert_eq!(gpus[0].sm_arch.to_string(), "sm_61");
        assert_eq!(gpus[1].sm_arch.to_string(), "sm_75");
        assert_eq!(gpus[2].sm_arch.to_string(), "sm_75");
        assert_eq!(gpus[3].sm_arch.to_string(), "sm_86");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all().iter().map(|g| g.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all().len());
    }

    #[test]
    fn find_is_exact() {
        assert!(find("RTX 2080 Ti").is_some());
        assert!(find("rtx 2080 ti").is_none());
        assert!(find("RTX 4090").is_none());
    }

    #[test]
    fn leave_one_out_excludes_exactly_one() {
        let rest = training_gpus("RTX 3090");
        assert_eq!(rest.len(), all().len() - 1);
        assert!(rest.iter().all(|g| g.name != "RTX 3090"));
    }

    #[test]
    fn known_headline_numbers() {
        let titan = find("Titan Xp").unwrap();
        assert_eq!(titan.total_cores(), 3840);
        let ti = find("RTX 2080 Ti").unwrap();
        assert_eq!(ti.total_cores(), 4352);
        let amp = find("RTX 3090").unwrap();
        assert_eq!(amp.total_cores(), 10496);
        assert!((amp.fp32_gflops - 35_581.0).abs() < 100.0);
    }

    #[test]
    fn generations_cover_all_three() {
        use crate::Generation;
        for generation in Generation::ALL {
            assert!(all().iter().any(|g| g.generation == generation));
        }
    }
}
