// Emitter sweep: the CUDA and OpenCL printers must produce structurally
// complete source for every filter x pattern x variant combination — same
// region labels, same parameter lists, no throws — and that source must
// parse. This guards the source-to-source surface that users actually read.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sys/wait.h>

#include "codegen/cpp_printer.hpp"
#include "filters/filters.hpp"

namespace ispb::codegen {
namespace {

std::vector<StencilSpec> sweep_specs() {
  return {filters::gaussian_spec(3), filters::laplace_spec(5),
          filters::bilateral_spec(13), filters::sobel_dx_spec(),
          filters::sobel_magnitude_spec(), filters::atrous_spec(9),
          filters::tonemap_spec()};
}

constexpr Variant kSweepVariants[] = {Variant::kNaive, Variant::kIsp,
                                      Variant::kIspWarp, Variant::kIspTiled};

std::size_t count(const std::string& text, const std::string& needle,
                  std::size_t from, std::size_t to) {
  std::size_t n = 0;
  for (auto at = text.find(needle, from); at < to;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(PrinterSweep, CudaAndOpenClAgreeOnStructure) {
  for (const StencilSpec& spec : sweep_specs()) {
    const Window w = spec.window();
    for (BorderPattern pattern : kAllBorderPatterns) {
      for (Variant variant : kSweepVariants) {
        CodegenOptions opt;
        opt.pattern = pattern;
        opt.variant = variant;
        opt.border_constant = 1.5f;
        const std::string cuda = emit_cuda(spec, opt);
        const std::string cl = emit_opencl(spec, opt);
        ASSERT_FALSE(cuda.empty());
        ASSERT_FALSE(cl.empty());
        // Both declare every input and the output.
        for (i32 i = 0; i < spec.num_inputs; ++i) {
          const std::string in_name = "in" + std::to_string(i);
          ASSERT_NE(cuda.find(in_name), std::string::npos) << spec.name;
          ASSERT_NE(cl.find(in_name), std::string::npos) << spec.name;
        }
        // ISP variants carry the full region structure in both backends.
        if (variant != Variant::kNaive) {
          for (Region r : kAllRegions) {
            const std::string label = std::string(to_string(r)) + ": {";
            ASSERT_NE(cuda.find(label), std::string::npos)
                << spec.name << "/" << to_string(pattern);
            ASSERT_NE(cl.find(label), std::string::npos)
                << spec.name << "/" << to_string(pattern);
          }
        }
        // Warp variant parameters appear in both.
        if (variant == Variant::kIspWarp) {
          ASSERT_NE(cuda.find("w_l"), std::string::npos);
          ASSERT_NE(cl.find("w_l"), std::string::npos);
        }
        // kIspTiled stages a halo tile in the Body section: the barrier is
        // there and nowhere else, and no border section touches the tile.
        // The shared tile itself is declared once at kernel scope, ahead of
        // the region switch (OpenCL admits __local variables only there).
        const bool staged = variant == Variant::kIspTiled &&
                            (w.radius_x() > 0 || w.radius_y() > 0);
        const struct {
          const std::string& src;
          const char* qualifier;
          const char* barrier;
        } dialects[] = {{cuda, "__shared__", "__syncthreads();"},
                        {cl, "__local", "barrier(CLK_LOCAL_MEM_FENCE);"}};
        for (const auto& d : dialects) {
          const auto body = d.src.find("Body: {");
          const auto tl = d.src.find("TL: {");
          const auto all = std::string::npos;
          const std::string where = spec.name + "/" +
                                    std::string(to_string(pattern)) + "/" +
                                    std::string(to_string(variant));
          if (!staged) {
            EXPECT_EQ(count(d.src, d.qualifier, 0, all), 0U) << where;
            EXPECT_EQ(count(d.src, d.barrier, 0, all), 0U) << where;
            continue;
          }
          EXPECT_EQ(count(d.src, d.barrier, body, all), 1U) << where;
          EXPECT_EQ(count(d.src, d.barrier, 0, body), 0U) << where;
          EXPECT_EQ(count(d.src, d.qualifier, 0, tl), 1U) << where;
          EXPECT_EQ(count(d.src, d.qualifier, tl, all), 0U) << where;
          EXPECT_EQ(count(d.src, "tile[", tl, body), 0U) << where;
          EXPECT_GT(count(d.src, "tile[", body, all), 0U) << where;
        }
      }
    }
  }
}

// Host stand-ins for the CUDA and OpenCL keywords, index builtins and
// helpers the printers use, so the system C++ compiler can parse the
// emitted kernels. Only syntax and types are checked, nothing runs.
constexpr const char* kCudaShim = R"(#include <math.h>
#define __global__
#define __shared__
#define __restrict__ __restrict
#define __syncthreads() ((void)0)
struct shim_uint3 { unsigned x, y, z; };
extern shim_uint3 blockIdx, blockDim, threadIdx;
inline int max(int a, int b) { return a > b ? a : b; }
inline int min(int a, int b) { return a < b ? a : b; }
)";

constexpr const char* kOpenClShim = R"(#include <math.h>
#include <stddef.h>
#define __kernel
#define __global
#define __local
#define restrict __restrict
#define CLK_LOCAL_MEM_FENCE 1
size_t get_global_id(unsigned dim);
size_t get_group_id(unsigned dim);
size_t get_local_id(unsigned dim);
void barrier(int flags);
inline int clamp(int v, int lo, int hi) {
  return v < lo ? lo : v > hi ? hi : v;
}
)";

/// Pipes `source` into the host C++ compiler (resolved as the native JIT
/// resolves it) with -fsyntax-only; true when it parses cleanly.
bool parses(const std::string& source) {
  std::string cxx = "c++";
  for (const char* var : {"CXX", "ISPB_NATIVE_CXX"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') cxx = v;
  }
  const std::string cmd =
      cxx + " -x c++ -std=c++17 -fsyntax-only -w -fmax-errors=5 -";
  FILE* pipe = popen(cmd.c_str(), "w");
  if (pipe == nullptr) return false;
  const std::size_t written =
      std::fwrite(source.data(), 1, source.size(), pipe);
  const int status = pclose(pipe);
  return written == source.size() && status != -1 && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

TEST(PrinterSweep, EmittedGpuSourcesParse) {
  // One translation unit per dialect x pattern: kernel names are unique
  // across specs and variants, so every sweep kernel of a pattern fits in it.
  for (BorderPattern pattern : kAllBorderPatterns) {
    std::string cuda = kCudaShim;
    std::string cl = kOpenClShim;
    for (const StencilSpec& spec : sweep_specs()) {
      for (Variant variant : kSweepVariants) {
        CodegenOptions opt;
        opt.pattern = pattern;
        opt.variant = variant;
        opt.border_constant = 1.5f;
        cuda += emit_cuda(spec, opt);
        cl += emit_opencl(spec, opt);
      }
    }
    EXPECT_TRUE(parses(cuda)) << "CUDA, " << to_string(pattern);
    EXPECT_TRUE(parses(cl)) << "OpenCL, " << to_string(pattern);
  }
}

TEST(PrinterSweep, GeneratedIrMatchesEmittedRegionCount) {
  // The IR program and the emitted source must agree on which sections
  // exist (markers vs labels).
  for (const StencilSpec& spec : sweep_specs()) {
    CodegenOptions opt;
    opt.variant = Variant::kIsp;
    const ir::Program prog = generate_kernel(spec, opt);
    const std::string cuda = emit_cuda(spec, opt);
    for (Region r : kAllRegions) {
      EXPECT_NO_THROW((void)prog.marker_pc(to_string(r))) << spec.name;
      EXPECT_NE(cuda.find(std::string(to_string(r)) + ": {"),
                std::string::npos)
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace ispb::codegen
