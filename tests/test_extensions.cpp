// Tests for the extensions beyond the fat-kernel pipeline: OpenCL emission,
// the separate-kernels-per-region execution mode (the design the paper
// rejects) and the CPU index-set-splitting backend, plus the sparse-stencil
// support the paper lists as future work.
#include <gtest/gtest.h>

#include "codegen/cpp_printer.hpp"
#include "dsl/runtime.hpp"
#include "filters/filters.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"

namespace ispb {
namespace {

// ---- OpenCL emission ---------------------------------------------------------

TEST(OpenClPrinter, NaiveKernelStructure) {
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kNaive;
  const std::string cl = codegen::emit_opencl(filters::gaussian_spec(3), opt);
  EXPECT_NE(cl.find("__kernel void"), std::string::npos);
  EXPECT_NE(cl.find("get_global_id(0)"), std::string::npos);
  EXPECT_NE(cl.find("__global const float"), std::string::npos);
  EXPECT_EQ(cl.find("goto TL"), std::string::npos);
}

TEST(OpenClPrinter, IspKernelHasRegionSwitch) {
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIsp;
  const std::string cl = codegen::emit_opencl(filters::gaussian_spec(3), opt);
  EXPECT_NE(cl.find("get_group_id(0)"), std::string::npos);
  EXPECT_NE(cl.find("goto TL;"), std::string::npos);
  EXPECT_NE(cl.find("goto Body;"), std::string::npos);
  for (Region r : kAllRegions) {
    EXPECT_NE(cl.find(std::string(to_string(r)) + ": {"), std::string::npos)
        << to_string(r);
  }
}

TEST(OpenClPrinter, WarpVariantUsesLocalId) {
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kIspWarp;
  const std::string cl = codegen::emit_opencl(filters::laplace_spec(5), opt);
  EXPECT_NE(cl.find("get_local_id(0)"), std::string::npos);
  EXPECT_NE(cl.find("w_l"), std::string::npos);
}

TEST(OpenClPrinter, PatternsRender) {
  codegen::CodegenOptions opt;
  opt.variant = codegen::Variant::kNaive;
  opt.pattern = BorderPattern::kClamp;
  EXPECT_NE(codegen::emit_opencl(filters::gaussian_spec(3), opt).find("clamp("),
            std::string::npos);
  opt.pattern = BorderPattern::kRepeat;
  EXPECT_NE(codegen::emit_opencl(filters::gaussian_spec(3), opt).find("while ("),
            std::string::npos);
}

// ---- separate kernels per region ----------------------------------------------

TEST(RegionKernels, GeneratedProgramShape) {
  codegen::CodegenOptions opt;
  opt.pattern = BorderPattern::kClamp;
  const ir::Program prog = codegen::generate_region_kernel(
      filters::gaussian_spec(3), opt, Region::kTL);
  EXPECT_NO_THROW((void)prog.param_reg("boff_x"));
  EXPECT_NO_THROW((void)prog.param_reg("boff_y"));
  EXPECT_THROW((void)prog.param_reg("bh_l"), ContractError);  // no switch
  EXPECT_NO_THROW((void)prog.marker_pc("TL"));
}

TEST(RegionKernels, PerRegionLaunchMatchesFatKernel) {
  const codegen::StencilSpec spec = filters::laplace_spec(5);
  const Size2 size{70, 52};
  const auto src = make_noise_image(size, 17);
  const Image<f32>* inputs[] = {&src};

  for (BorderPattern pattern : kAllBorderPatterns) {
    codegen::CodegenOptions options;
    options.pattern = pattern;
    options.variant = codegen::Variant::kIsp;
    options.border_constant = 5.0f;

    const dsl::CompiledKernel fat = dsl::compile_kernel(spec, options);
    Image<f32> out_fat(size);
    (void)dsl::launch_on_sim(sim::make_gtx680(), fat, {inputs, 1}, out_fat,
                             {32, 4});

    Image<f32> out_regions(size);
    const dsl::PerRegionRun run =
        dsl::launch_per_region(sim::make_gtx680(), spec, options, {inputs, 1},
                               out_regions, {32, 4});
    EXPECT_GT(run.launches, 1);
    EXPECT_EQ(compare(out_regions, out_fat).max_abs, 0.0)
        << to_string(pattern);
  }
}

TEST(RegionKernels, NineLaunchesOnTypicalGeometry) {
  const codegen::StencilSpec spec = filters::laplace_spec(5);
  const Size2 size{256, 128};
  const auto src = make_gradient_image(size);
  const Image<f32>* inputs[] = {&src};
  Image<f32> out(size);
  codegen::CodegenOptions options;
  options.pattern = BorderPattern::kClamp;
  const dsl::PerRegionRun run = dsl::launch_per_region(
      sim::make_gtx680(), spec, options, {inputs, 1}, out, {32, 4});
  EXPECT_EQ(run.launches, 9);
  // Every launch pays overhead: at tiny per-region work, the fixed costs
  // dominate — the paper's Section III-C argument.
  EXPECT_GE(run.total_time_ms,
            9 * sim::make_gtx680().launch_overhead_us * 1e-3);
}

TEST(RegionKernels, DegenerateGeometryRejected) {
  const codegen::StencilSpec spec = filters::atrous_spec(17);
  const Size2 size{12, 64};
  const auto src = make_noise_image(size, 1);
  const Image<f32>* inputs[] = {&src};
  Image<f32> out(size);
  codegen::CodegenOptions options;
  options.pattern = BorderPattern::kClamp;
  EXPECT_THROW((void)dsl::launch_per_region(sim::make_gtx680(), spec, options,
                                            {inputs, 1}, out, {32, 4}),
               ContractError);
}

// ---- CPU index-set splitting ---------------------------------------------------

TEST(CpuIss, BitIdenticalToPlainReference) {
  const auto src = make_noise_image({61, 47}, 9);
  const Image<f32>* inputs[] = {&src};
  for (BorderPattern pattern : kAllBorderPatterns) {
    for (const auto& spec :
         {filters::gaussian_spec(5), filters::sobel_dx_spec(),
          filters::atrous_spec(9)}) {
      const Image<f32> plain =
          dsl::run_reference(spec, pattern, 3.0f, {inputs, 1});
      const Image<f32> partitioned =
          dsl::run_reference_partitioned(spec, pattern, 3.0f, {inputs, 1});
      EXPECT_EQ(compare(partitioned, plain).max_abs, 0.0)
          << spec.name << "/" << to_string(pattern);
    }
  }
}

TEST(CpuIss, HandlesWindowLargerThanImage) {
  // Degenerate: no body rectangle at all; everything goes the checked path.
  const auto src = make_noise_image({6, 6}, 2);
  const Image<f32>* inputs[] = {&src};
  const auto spec = filters::atrous_spec(17);
  const Image<f32> plain =
      dsl::run_reference(spec, BorderPattern::kRepeat, 0.0f, {inputs, 1});
  const Image<f32> partitioned = dsl::run_reference_partitioned(
      spec, BorderPattern::kRepeat, 0.0f, {inputs, 1});
  EXPECT_EQ(compare(partitioned, plain).max_abs, 0.0);
}

// ---- sparse stencils (paper future work) ----------------------------------------

TEST(SparseStencils, SparseDomainSkipsDisabledTaps) {
  // A cross-shaped 5x5 stencil: only the axes are enabled.
  dsl::Mask mask(5, 5);
  dsl::Domain dom(5, 5);
  for (i32 dy = -2; dy <= 2; ++dy) {
    for (i32 dx = -2; dx <= 2; ++dx) {
      if (dx != 0 && dy != 0) {
        dom.disable(dx, dy);
      } else {
        mask.at(dx, dy) = 1.0f / 9.0f;
      }
    }
  }
  EXPECT_EQ(dom.enabled_count(), 9);

  Image<f32> dummy(1, 1);
  Image<f32> out_img(1, 1);
  const dsl::BoundaryCondition bc(dummy, mask, BorderPattern::kClamp);
  dsl::Accessor acc(bc);
  dsl::IterationSpace is(out_img);

  class CrossKernel : public dsl::Kernel {
   public:
    CrossKernel(dsl::IterationSpace& s, dsl::Accessor& a, dsl::Mask& m,
                dsl::Domain& d)
        : Kernel(s, "cross"), a_(a), m_(m), d_(d) {
      add_accessor(&a_);
    }
    void kernel() override {
      output() = convolve(m_, d_, dsl::Reduce::kSum,
                          [&] { return m_(d_) * a_(d_); });
    }

   private:
    dsl::Accessor& a_;
    dsl::Mask& m_;
    dsl::Domain& d_;
  };
  CrossKernel k(is, acc, mask, dom);
  const codegen::StencilSpec spec = k.trace();
  EXPECT_EQ(spec.read_count(), 9);  // not 25
  EXPECT_EQ(spec.window(), (Window{5, 5}));

  // And it runs end-to-end on the simulator, matching the reference.
  const auto src = make_noise_image({40, 30}, 4);
  const Image<f32>* inputs[] = {&src};
  const Image<f32> expect =
      dsl::run_reference(spec, BorderPattern::kMirror, 0.0f, {inputs, 1});
  codegen::CodegenOptions options;
  options.pattern = BorderPattern::kMirror;
  options.variant = codegen::Variant::kIsp;
  const dsl::CompiledKernel kernel = dsl::compile_kernel(spec, options);
  Image<f32> out(40, 30);
  (void)dsl::launch_on_sim(sim::make_gtx680(), kernel, {inputs, 1}, out,
                           {32, 4});
  EXPECT_EQ(compare(out, expect).max_abs, 0.0);
}

}  // namespace
}  // namespace ispb
