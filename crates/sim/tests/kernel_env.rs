//! `DF_SIM_KERNEL` handling at the configuration boundary.
//!
//! The only test in its own binary: it sets the process environment, which
//! would leak into any concurrently running test that builds a
//! configuration.

use df_sim::{ConfigError, KernelMode, SimulationConfig};

#[test]
fn unknown_env_kernels_are_config_errors_unless_the_builder_names_one() {
    for bad in ["legacy", "paralel:2"] {
        std::env::set_var("DF_SIM_KERNEL", bad);
        match SimulationConfig::builder().build() {
            Err(ConfigError::Kernel(msg)) => assert!(msg.contains(bad), "{msg}"),
            other => panic!("DF_SIM_KERNEL={bad:?} must be rejected, got {other:?}"),
        }
        // an explicit kernel overrides the environment entirely
        let cfg = SimulationConfig::builder()
            .kernel(KernelMode::Optimized)
            .build()
            .expect("explicit kernel ignores the environment");
        assert_eq!(cfg.kernel, KernelMode::Optimized);
    }
    std::env::set_var("DF_SIM_KERNEL", "parallel:3");
    let cfg = SimulationConfig::builder().build().expect("valid kernel");
    assert_eq!(cfg.kernel, KernelMode::Parallel { workers: 3 });
    std::env::remove_var("DF_SIM_KERNEL");
    let cfg = SimulationConfig::builder().build().expect("unset is valid");
    assert_eq!(cfg.kernel, KernelMode::Optimized);
}
