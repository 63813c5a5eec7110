//! `linx-bench` — experiment harnesses and micro-benchmarks for the LINX reproduction.
//!
//! Each table and figure of the paper's evaluation (§7) has a dedicated binary in
//! `src/bin/` that regenerates it (see the experiment index in docs/ARCHITECTURE.md,
//! "Reproduction substitutions"); Criterion
//! micro-benchmarks in `benches/` cover the performance claims of §7.4 (the LDX
//! verification engine and the compliance reward add negligible overhead to session
//! generation).

#![forbid(unsafe_code)]

use linx_cdrl::CdrlConfig;

/// Read an experiment scale parameter from the environment with a default, so every
/// harness can be scaled up toward paper-scale budgets (`LINX_TRAIN_EPISODES`,
/// `LINX_DATA_ROWS`, ...) without recompiling.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default CDRL configuration used by the experiment harnesses: the full variant
/// with a budget that finishes in minutes on a laptop. Override the episode budget with
/// `LINX_TRAIN_EPISODES`.
pub fn harness_cdrl_config(seed: u64) -> CdrlConfig {
    CdrlConfig {
        episodes: env_usize("LINX_TRAIN_EPISODES", 350),
        seed,
        ..CdrlConfig::default()
    }
}

/// Format a floating point cell the way the paper's tables do (two decimals).
pub fn cell(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_usize_falls_back_to_default() {
        assert_eq!(env_usize("LINX_SURELY_UNSET_VARIABLE", 42), 42);
    }

    #[test]
    fn harness_config_uses_full_variant() {
        let cfg = harness_cdrl_config(1);
        assert_eq!(cfg.variant, linx_cdrl::CdrlVariant::Full);
        assert_eq!(cell(1.234), "1.23");
    }
}
