// C-family source printer: lowers a StencilSpec to CUDA, OpenCL C or a
// standalone host C++ translation unit.
//
// Hipacc is a source-to-source compiler: one stencil description becomes
// CUDA and OpenCL kernels (paper Section II). Every dialect here shares one
// border read (Listing 1's per-pattern re-indexing on the sides a section
// checks, or the staged `tile[...]` read of a kIspTiled Body) and one DAG
// lowering (a single-operation float statement per node, in node order,
// float constants as C99 hex literals, which round-trip exactly). A fixed
// Dialect table per target spells the rest: entry qualifiers, parameter
// types, thread/block indices, the clamp idiom, libm float names, the
// shared-memory qualifier and the barrier. Only the frame differs:
//
//  - GPU (emit_cuda, emit_opencl): a thread per pixel; the ISP variants
//    jump into nine labelled region sections (Listing 3, warp-refined for
//    kIspWarp as in Listing 5); kIspTiled's Body stages its halo tile in
//    shared memory and must be launched with block opt.tile_block. The
//    simulator executes the IR form of the same kernels (kernel_gen.hpp).
//  - Host (emit_cpp): compiled by the native backend (src/exec) with FP
//    contraction off, so with StencilSpec::evaluate's libm entry points it
//    is bit-identical to the CPU reference and the simulator. The ISP
//    variants keep the 9-way partition at pixel granularity, computed in
//    the function from the compile-time radii, so the Body loop nest carries
//    no border guards; kIspWarp lowers like kIsp; an image smaller than
//    twice the radius takes an all-checks fallback loop, as
//    dsl::launch_on_sim's naive fallback does.
//
// ABI of the host entry point (see cpp_kernel_symbol):
//
//   extern "C" void <sym>(const float* const* in, const int* pitch_in,
//                         float* out, int pitch_out, int sx, int sy,
//                         int y_begin, int y_end);
//
// `in`/`pitch_in` hold num_inputs image base pointers and element pitches;
// the function writes output rows [y_begin, y_end) only, so the host can
// split an image into row bands and run them on a thread pool.
#pragma once

#include <string>

#include "codegen/kernel_gen.hpp"
#include "codegen/stencil_spec.hpp"

namespace ispb::codegen {

/// Renders a __global__ CUDA kernel for the spec/pattern/variant.
[[nodiscard]] std::string emit_cuda(const StencilSpec& spec,
                                    const CodegenOptions& options);

/// Renders the CUDA host-side launch snippet (grid math of Eq. (7), index
/// bounds of Eq. (2), warp bounds, kernel call).
[[nodiscard]] std::string emit_cuda_host(const StencilSpec& spec,
                                         const CodegenOptions& options);

/// Renders a __kernel OpenCL C function for the spec/pattern/variant.
[[nodiscard]] std::string emit_opencl(const StencilSpec& spec,
                                      const CodegenOptions& options);

/// Emits the full host translation unit (includes + one extern "C"
/// function).
[[nodiscard]] std::string emit_cpp(const StencilSpec& spec,
                                   const CodegenOptions& options);

/// The entry-point symbol `emit_cpp` declares. Canonical in the variant:
/// kIsp and kIspWarp share one symbol (and one module) since they lower to
/// identical code.
[[nodiscard]] std::string cpp_kernel_symbol(const StencilSpec& spec,
                                            const CodegenOptions& options);

}  // namespace ispb::codegen
