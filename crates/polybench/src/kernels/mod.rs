//! The 30 kernels of PolyBench/C 4.2, expressed as data-flow graphs with the
//! Table-1 metadata of the paper.

pub mod blas;
pub mod misc;
pub mod solvers;
pub mod stencils;

use crate::meta::Kernel;
use iolb_core::{PreparedWorkload, Workload, WorkloadError};

/// One registry entry: a kernel name and its constructor.
type KernelBuilder = (&'static str, fn() -> Kernel);

/// The name → constructor registry, in Table-1 order. Each entry's name
/// must equal the `Kernel::name` its builder produces (asserted by a test),
/// so a single kernel can be built without constructing the whole suite.
const REGISTRY: &[KernelBuilder] = &[
    // Division 1: tileable, non-trivial bound.
    ("2mm", blas::two_mm),
    ("3mm", blas::three_mm),
    ("cholesky", solvers::cholesky),
    ("correlation", misc::correlation),
    ("covariance", misc::covariance),
    ("doitgen", blas::doitgen),
    ("fdtd-2d", stencils::fdtd_2d),
    ("floyd-warshall", misc::floyd_warshall),
    ("gemm", blas::gemm),
    ("heat-3d", stencils::heat_3d),
    ("jacobi-1d", stencils::jacobi_1d),
    ("jacobi-2d", stencils::jacobi_2d),
    ("lu", solvers::lu),
    ("ludcmp", solvers::ludcmp),
    ("seidel-2d", stencils::seidel_2d),
    ("symm", blas::symm),
    ("syr2k", blas::syr2k),
    ("syrk", blas::syrk),
    ("trmm", blas::trmm),
    // Division 2: streaming (constant ops/input ratio).
    ("atax", blas::atax),
    ("bicg", blas::bicg),
    ("deriche", misc::deriche),
    ("gemver", blas::gemver),
    ("gesummv", blas::gesummv),
    ("mvt", blas::mvt),
    ("trisolv", blas::trisolv),
    // Division 3: provably not tileable (wavefront-bounded).
    ("adi", stencils::adi),
    ("durbin", solvers::durbin),
    // Division 4: known open gap.
    ("gramschmidt", solvers::gramschmidt),
    ("nussinov", misc::nussinov),
];

/// Returns every kernel of the suite, in the order of Table 1.
pub fn all_kernels() -> Vec<Kernel> {
    REGISTRY.iter().map(|(_, build)| build()).collect()
}

/// The kernel names in Table-1 order, without building any kernel.
pub fn kernel_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _)| *name).collect()
}

/// Looks a kernel up by its PolyBench name, building only that kernel.
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    KernelName::lookup(name).map(KernelName::build)
}

/// A built-in kernel resolved by name alone: a handle into the registry
/// that builds nothing until [`Workload::prepare`] runs, inside the
/// analysis session. [`Kernel`]'s own `Workload` impl delegates here, so
/// both key and prepare through this one path.
#[derive(Clone, Copy, Debug)]
pub struct KernelName {
    entry: &'static KernelBuilder,
}

impl KernelName {
    /// Finds a kernel by its PolyBench name without building it.
    pub fn lookup(name: &str) -> Option<KernelName> {
        REGISTRY
            .iter()
            .find(|(n, _)| *n == name)
            .map(|entry| KernelName { entry })
    }

    /// The kernel's PolyBench name.
    pub fn name(self) -> &'static str {
        self.entry.0
    }

    /// Builds the kernel; its DFG binds to the calling thread's ambient
    /// engine session.
    pub fn build(self) -> Kernel {
        (self.entry.1)()
    }
}

impl Workload for KernelName {
    fn prepare(&self) -> Result<PreparedWorkload, WorkloadError> {
        let kernel = self.build();
        Ok(PreparedWorkload {
            name: kernel.name.to_string(),
            params: kernel.params.iter().map(|p| p.to_string()).collect(),
            options: Some(kernel.analysis_options()),
            ops: Some(kernel.ops),
            dfg: kernel.dfg,
            source: None,
        })
    }

    /// Built-in kernels are canonical by name: `prepare` rebuilds the DFG
    /// and tuned options purely from it, so the name alone is a sound
    /// content-address component.
    fn cache_key(&self) -> Option<String> {
        Some(format!("kernel:{}", self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_core::Analyzer;
    use iolb_poly::EngineCtx;
    use std::collections::BTreeSet;

    #[test]
    fn the_suite_has_thirty_kernels() {
        assert_eq!(all_kernels().len(), 30);
        assert_eq!(kernel_names().len(), 30);
    }

    #[test]
    fn registry_names_match_the_built_kernels() {
        for (name, build) in super::REGISTRY {
            assert_eq!(*name, build().name, "registry entry out of sync");
        }
    }

    #[test]
    fn kernel_names_are_unique() {
        let names: BTreeSet<&str> = all_kernels().iter().map(|k| k.name).collect();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("gemm").is_some());
        assert!(kernel_by_name("floyd-warshall").is_some());
        assert!(kernel_by_name("spmv").is_none());
    }

    #[test]
    fn name_only_handles_key_and_prepare_like_built_kernels() {
        for name in kernel_names() {
            let handle = KernelName::lookup(name).expect("registered kernel");
            assert_eq!(handle.name(), name);
            EngineCtx::new().scope(|| {
                let kernel = handle.build();
                assert_eq!(handle.cache_key(), kernel.cache_key(), "{name}");
                let analyzer = Analyzer::new();
                let fingerprint = analyzer.fingerprint(&handle);
                assert!(fingerprint.is_some(), "{name}");
                assert_eq!(fingerprint, analyzer.fingerprint(&kernel), "{name}");

                let prepared = handle.prepare().expect("built-in kernel prepares");
                assert_eq!(prepared.name, kernel.name);
                assert_eq!(prepared.params, kernel.params, "{name}");
                assert_eq!(prepared.ops.as_ref(), Some(&kernel.ops), "{name}");
                let options = prepared.options.expect("tuned options");
                let tuned = kernel.analysis_options();
                assert_eq!(
                    options.max_parametrization_depth, tuned.max_parametrization_depth,
                    "{name}"
                );
                assert_eq!(options.instances, tuned.instances, "{name}");
                assert_eq!(prepared.dfg.nodes().len(), kernel.dfg.nodes().len());
                assert_eq!(prepared.dfg.edges().len(), kernel.dfg.edges().len());
            });
        }
        assert!(KernelName::lookup("spmv").is_none());
    }

    #[test]
    fn every_kernel_has_large_sizes_for_all_params() {
        for k in all_kernels() {
            for p in k.params {
                assert!(
                    k.large.iter().any(|(name, _)| name == p),
                    "{}: parameter {p} missing from LARGE sizes",
                    k.name
                );
            }
        }
    }
}
