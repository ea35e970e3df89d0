#include "transforms/auto_optimize.hpp"

#include "transforms/loop_to_map.hpp"
#include "transforms/map_fusion.hpp"
#include "transforms/map_transforms.hpp"
#include "transforms/memory.hpp"
#include "transforms/pass.hpp"
#include "transforms/simplify.hpp"

namespace dace::xf {

// Registered by the device modules (gpu/fpga).
void gpu_transform_sdfg(ir::SDFG& sdfg);   // gpu_transform.cpp
void fpga_transform_sdfg(ir::SDFG& sdfg);  // fpga_transform.cpp

void auto_optimize(ir::SDFG& sdfg, ir::DeviceType device,
                   const AutoOptOptions& opts) {
  Pipeline pipe("auto_optimize");
  if (opts.verify.has_value()) pipe.set_verify(*opts.verify);

  // Dataflow coarsening ("-O1").
  if (opts.coarsen) {
    pipe.add("coarsen", [](ir::SDFG& g) {
      simplify(g);
      return true;
    });
  }

  // (1)+(2) Map-scope cleanup and greedy subgraph fusion. LoopToMap needs
  // fused single-map loop bodies; fusion needs the states LoopToMap and
  // state fusion produce -- iterate the passes jointly to fixpoint.
  pipe.add_fixpoint("trivial-map-elimination", trivial_map_elimination);
  // Captures are by value: with a pass timeout the body runs on a worker
  // thread that may outlive this frame if abandoned.
  pipe.add("fusion+loop-to-map", [opts](ir::SDFG& g) {
    bool any = false;
    bool changed = true;
    while (changed) {
      changed = false;
      if (opts.fusion) changed |= apply_repeated(g, map_fusion) > 0;
      if (opts.coarsen && changed) simplify(g);
      if (opts.loop_to_map) {
        bool converted = apply_repeated(g, loop_to_map) > 0;
        changed |= converted;
        if (opts.coarsen && converted) simplify(g);
      }
      any |= changed;
    }
    return any;
  });
  if (opts.collapse) pipe.add_fixpoint("map-collapse", map_collapse);

  // (3) Tile WCR maps to reduce atomic updates.
  if (opts.tile_wcr) {
    pipe.add("wcr-tiling", [tile_size = opts.wcr_tile_size,
                            device](ir::SDFG& g) {
      // Schedules must be known before tiling decides atomicity; set the
      // target schedule first.
      ir::Schedule sched = ir::Schedule::CPUParallel;
      if (device == ir::DeviceType::GPU) sched = ir::Schedule::GPUDevice;
      if (device == ir::DeviceType::FPGA) sched = ir::Schedule::FPGAPipeline;
      set_toplevel_schedules(g, sched, device == ir::DeviceType::CPU);
      apply_repeated(g, [&](ir::SDFG& gg) {
        return tile_wcr_map(gg, tile_size);
      });
      return true;
    });
  }

  // (4) Transient allocation mitigation.
  if (opts.transient_mitigation) {
    pipe.add("transient-mitigation", [](ir::SDFG& g) {
      mitigate_transient_allocation(g);
      return true;
    });
  }

  // Injected passes (tests, fuzzer fault injection).
  for (const Pass& p : opts.extra_passes) pipe.add(p.name, p.apply);

  // Device specialization.
  pipe.add("device-specialize", [device](ir::SDFG& g) {
    switch (device) {
      case ir::DeviceType::CPU:
        order_reduced_params_last(g);
        set_toplevel_schedules(g, ir::Schedule::CPUParallel,
                               /*omp_collapse=*/true);
        break;
      case ir::DeviceType::GPU:
        set_toplevel_schedules(g, ir::Schedule::GPUDevice, false);
        gpu_transform_sdfg(g);
        break;
      case ir::DeviceType::FPGA:
        set_toplevel_schedules(g, ir::Schedule::FPGAPipeline, false);
        fpga_transform_sdfg(g);
        break;
    }
    return true;
  });

  PassReport report = pipe.run_transactional(sdfg);
  if (opts.report) *opts.report = std::move(report);
  sdfg.validate();
}

}  // namespace dace::xf
