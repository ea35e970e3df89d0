// Map-scope restructuring transformations (Section 3.1 passes 1 and 3).
#pragma once

#include "transforms/pass.hpp"

namespace dace::xf {

/// Collapse one pair of perfectly nested maps into a multidimensional map
/// (increases parallelism; a by-product is larger GPU kernels).
bool map_collapse(ir::SDFG& sdfg);

/// Tile one parallel map whose only output is a WCR write to a scalar:
/// each tile accumulates privately in a register and commits once,
/// drastically reducing atomic updates (Section 3.1 pass 3).
bool tile_wcr_map(ir::SDFG& sdfg, int64_t tile_size = 1024);

/// Permute each top-level map's parameters so that those indexing every
/// WCR store to memory come first and the reduced ones last, keeping the
/// order stable otherwise (CPU device specialization).  The split
/// parameter then owns its output rows, so the stores need no atomics,
/// and the reduction runs innermost where the Tier-1 planner sinks it
/// into a register.  Returns true when some map changed.
bool order_reduced_params_last(ir::SDFG& sdfg);

/// Set every top-level map's schedule (CPU_Multicore / GPU_Device /
/// FPGA_Pipeline) and mark CPU maps for OpenMP collapse.
void set_toplevel_schedules(ir::SDFG& sdfg, ir::Schedule schedule,
                            bool omp_collapse);

}  // namespace dace::xf
