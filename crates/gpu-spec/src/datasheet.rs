//! Parsing textual data sheets into [`GpuSpec`] records.
//!
//! Glimpse's premise is that hardware knowledge arrives as *public data
//! sheets* (§3.1). This module accepts a simple `key: value` sheet format —
//! the kind of text a vendor page or the Wikipedia GPU list reduces to — so
//! downstream users can add GPUs without recompiling the built-in database.
//!
//! ```text
//! name: RTX 4070
//! generation: Ampere        # closest supported generation
//! sm_count: 46
//! cores_per_sm: 128
//! base_clock_mhz: 1920
//! boost_clock_mhz: 2475
//! mem_bandwidth_gb_s: 504
//! mem_bus_bits: 192
//! mem_size_gib: 12
//! l2_cache_kib: 36864
//! tdp_w: 200
//! ```
//!
//! Per-SM limits (shared memory, resident threads/blocks) are filled from
//! the generation's occupancy table, exactly like the built-in database;
//! peak GFLOPS is derived as `2 × cores × boost` when not given.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::generation::Generation;
use crate::spec::GpuSpec;
#[allow(
    clippy::disallowed_types,
    reason = "D2 does not apply: a string-keyed scratch map inside a parser, never iterated for output"
)]
use std::collections::HashMap;
use std::fmt;

/// Error parsing a textual data sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseSheetError {
    line: Option<usize>,
    reason: String,
}

impl ParseSheetError {
    fn at(line: usize, reason: impl Into<String>) -> Self {
        Self {
            line: Some(line),
            reason: reason.into(),
        }
    }

    fn general(reason: impl Into<String>) -> Self {
        Self {
            line: None,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseSheetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "data sheet line {line}: {}", self.reason),
            None => write!(f, "data sheet: {}", self.reason),
        }
    }
}

impl std::error::Error for ParseSheetError {}

/// Parses one `key: value` sheet into a validated [`GpuSpec`].
///
/// Comments start with `#`; blank lines are ignored. Required keys:
/// `name`, `generation`, `sm_count`, `cores_per_sm`, `base_clock_mhz`,
/// `boost_clock_mhz`, `mem_bandwidth_gb_s`, `mem_bus_bits`, `mem_size_gib`,
/// `l2_cache_kib`, `tdp_w`. Optional: `fp32_gflops` (derived otherwise).
///
/// # Errors
///
/// Returns [`ParseSheetError`] for malformed lines, missing/duplicate keys,
/// unknown generations, or a sheet that fails [`GpuSpec::validate`].
pub fn parse_sheet(text: &str) -> Result<GpuSpec, ParseSheetError> {
    #[allow(clippy::disallowed_types, reason = "D2 does not apply: point lookups only, never iterated")]
    let mut fields: HashMap<String, String> = HashMap::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Err(ParseSheetError::at(i + 1, format!("expected `key: value`, got {line:?}")));
        };
        let key = key.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if value.is_empty() {
            return Err(ParseSheetError::at(i + 1, format!("empty value for {key:?}")));
        }
        if fields.insert(key.clone(), value).is_some() {
            return Err(ParseSheetError::at(i + 1, format!("duplicate key {key:?}")));
        }
    }

    let take = |key: &str| -> Result<String, ParseSheetError> {
        fields
            .get(key)
            .cloned()
            .ok_or_else(|| ParseSheetError::general(format!("missing required key {key:?}")))
    };
    let num = |key: &str| -> Result<f64, ParseSheetError> {
        let value = take(key)?
            .parse::<f64>()
            .map_err(|_| ParseSheetError::general(format!("{key:?} is not a number")))?;
        // `f64::parse` happily accepts "NaN" and "inf"; one such field
        // poisons every derived quantity and blueprint PCA downstream.
        if !value.is_finite() {
            return Err(ParseSheetError::general(format!("{key:?} must be finite, got {value}")));
        }
        Ok(value)
    };
    let int = |key: &str| -> Result<u32, ParseSheetError> {
        take(key)?
            .parse::<u32>()
            .map_err(|_| ParseSheetError::general(format!("{key:?} is not an integer")))
    };

    let generation: Generation = take("generation")?.parse().map_err(|e| ParseSheetError::general(format!("{e}")))?;
    let (shared_per_sm, shared_per_block, threads_per_sm, blocks_per_sm) = match generation {
        Generation::Pascal => (96, 48, 2048, 32),
        Generation::Turing => (64, 64, 1024, 16),
        Generation::Ampere => (128, 100, 1536, 16),
    };
    let sm_count = int("sm_count")?;
    let cores_per_sm = int("cores_per_sm")?;
    let boost = num("boost_clock_mhz")?;
    let derived_gflops = 2.0 * f64::from(sm_count * cores_per_sm) * boost / 1000.0;
    let fp32_gflops = match fields.get("fp32_gflops") {
        Some(_) => num("fp32_gflops")?,
        None => derived_gflops,
    };

    let spec = GpuSpec {
        name: take("name")?,
        generation,
        sm_arch: generation.default_sm_arch(),
        sm_count,
        cores_per_sm,
        base_clock_mhz: num("base_clock_mhz")?,
        boost_clock_mhz: boost,
        mem_bandwidth_gb_s: num("mem_bandwidth_gb_s")?,
        mem_bus_bits: int("mem_bus_bits")?,
        mem_size_gib: num("mem_size_gib")?,
        l2_cache_kib: int("l2_cache_kib")?,
        shared_mem_per_sm_kib: shared_per_sm,
        max_shared_mem_per_block_kib: shared_per_block,
        registers_per_sm: 65_536,
        max_threads_per_sm: threads_per_sm,
        max_threads_per_block: 1024,
        max_blocks_per_sm: blocks_per_sm,
        warp_size: 32,
        fp32_gflops,
        tdp_w: num("tdp_w")?,
    };
    spec.validate().map_err(|e| ParseSheetError::general(e.to_string()))?;
    Ok(spec)
}

/// Renders a spec back into the sheet format accepted by [`parse_sheet`].
#[must_use]
pub fn to_sheet(spec: &GpuSpec) -> String {
    format!(
        "name: {}\ngeneration: {}\nsm_count: {}\ncores_per_sm: {}\nbase_clock_mhz: {}\nboost_clock_mhz: {}\nmem_bandwidth_gb_s: {}\nmem_bus_bits: {}\nmem_size_gib: {}\nl2_cache_kib: {}\nfp32_gflops: {}\ntdp_w: {}\n",
        spec.name,
        spec.generation,
        spec.sm_count,
        spec.cores_per_sm,
        spec.base_clock_mhz,
        spec.boost_clock_mhz,
        spec.mem_bandwidth_gb_s,
        spec.mem_bus_bits,
        spec.mem_size_gib,
        spec.l2_cache_kib,
        spec.fp32_gflops,
        spec.tdp_w,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database;

    const SHEET: &str = "\
# a hypothetical part
name: RTX 4070
generation: Ampere
sm_count: 46
cores_per_sm: 128
base_clock_mhz: 1920
boost_clock_mhz: 2475
mem_bandwidth_gb_s: 504
mem_bus_bits: 192
mem_size_gib: 12
l2_cache_kib: 36864
tdp_w: 200
";

    #[test]
    fn parses_a_complete_sheet() {
        let spec = parse_sheet(SHEET).unwrap();
        assert_eq!(spec.name, "RTX 4070");
        assert_eq!(spec.total_cores(), 5888);
        // GFLOPS derived from cores x boost.
        assert!((spec.fp32_gflops - 2.0 * 5888.0 * 2475.0 / 1000.0).abs() < 1.0);
        assert_eq!(spec.shared_mem_per_sm_kib, 128); // Ampere occupancy table
        spec.validate().unwrap();
    }

    #[test]
    fn roundtrips_every_database_entry() {
        for gpu in database::all() {
            let sheet = to_sheet(gpu);
            let parsed = parse_sheet(&sheet).unwrap();
            assert_eq!(&parsed, gpu, "{}", gpu.name);
        }
    }

    #[test]
    fn reports_missing_keys() {
        let err = parse_sheet("name: X\ngeneration: Turing\n").unwrap_err();
        assert!(err.to_string().contains("missing required key"));
    }

    #[test]
    fn reports_malformed_lines_with_line_numbers() {
        let err = parse_sheet("name: X\nnot a kv pair\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_duplicate_keys() {
        let text = format!("{SHEET}sm_count: 50\n");
        let err = parse_sheet(&text).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_unknown_generation() {
        let text = SHEET.replace("Ampere", "Hopper");
        let err = parse_sheet(&text).unwrap_err();
        assert!(err.to_string().contains("Hopper"));
    }

    #[test]
    fn rejects_nan_and_infinite_numeric_fields() {
        // "NaN" and "inf" parse as f64 values; the loader must refuse them
        // with a typed error instead of poisoning PCA downstream.
        for (key, bad) in [
            ("base_clock_mhz: 1920", "base_clock_mhz: NaN"),
            ("mem_bandwidth_gb_s: 504", "mem_bandwidth_gb_s: inf"),
            ("mem_size_gib: 12", "mem_size_gib: -NaN"),
            ("tdp_w: 200", "tdp_w: -inf"),
        ] {
            let text = SHEET.replace(key, bad);
            let err = parse_sheet(&text).unwrap_err();
            assert!(err.to_string().contains("finite"), "{bad}: {err}");
        }
        let text = format!("{SHEET}fp32_gflops: NaN\n");
        assert!(parse_sheet(&text).unwrap_err().to_string().contains("finite"));
    }

    #[test]
    fn rejects_negative_fields() {
        let text = SHEET.replace("mem_size_gib: 12", "mem_size_gib: -12");
        assert!(parse_sheet(&text).is_err());
        let text = SHEET.replace("tdp_w: 200", "tdp_w: 0");
        assert!(parse_sheet(&text).is_err());
    }

    #[test]
    fn rejects_inconsistent_sheets() {
        // Claimed GFLOPS wildly off from cores x clock fails validation.
        let text = format!("{SHEET}fp32_gflops: 1.0\n");
        assert!(parse_sheet(&text).is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("\n# leading comment\n\n{SHEET}\n# trailing\n");
        assert!(parse_sheet(&text).is_ok());
    }
}
