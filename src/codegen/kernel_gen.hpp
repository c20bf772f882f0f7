// Kernel generation: StencilSpec x BorderPattern x Variant -> IR program.
//
// This is the Rewrite stage of the Hipacc-style workflow (paper Section V):
// given the traced stencil computation, it emits
//  - kNaive:   one code path with every applicable border check per tap
//              (Listing 1 semantics),
//  - kIsp:     the fat kernel of Listing 3 — block-granular region switch
//              into nine specialized sections,
//  - kIspWarp: the warp-refined switch of Listing 5 (warp index may redirect
//              corner/edge warps into cheaper regions),
//  - kIspTiled: kIsp with a shared-memory Body section — each Body block
//              cooperatively stages its halo-extended input tile into smem
//              once, barriers, and computes every tap from the tile. Border
//              sections are unchanged; Body blocks have their whole halo in
//              bounds by Eq. (2), so the staging loop needs no border
//              remapping and no guards (overhanging lanes re-stage the tile
//              edge via min-clamps, keeping the section branch-free and the
//              addresses piecewise-affine for the static analyzer).
//
// Checks follow Listing 1's generic border functions: a section flagged for
// a side applies that side's remap to EVERY access of the axis (remaps are
// the identity on in-bounds coordinates, so this is always correct, and a
// real compiler cannot drop them because image extents are runtime values).
// The IR pass pipeline then merges checks of taps sharing a coordinate —
// the NVCC CSE effect the paper discusses in Section IV-A1.
#pragma once

#include <optional>
#include <string_view>

#include "border/border.hpp"
#include "codegen/stencil_spec.hpp"
#include "core/partition.hpp"
#include "ir/program.hpp"

namespace ispb::codegen {

/// Implementation variants (isp+m is a planner decision between kNaive and
/// kIsp, not a distinct kernel).
enum class Variant : u8 { kNaive, kIsp, kIspWarp, kIspTiled };

[[nodiscard]] std::string_view to_string(Variant v);

/// Parses "naive" / "isp" / "isp-warp" / "isp-tiled" (case-sensitive), the
/// names to_string(Variant) prints.
[[nodiscard]] std::optional<Variant> parse_variant(std::string_view name);

/// Code-generation options.
struct CodegenOptions {
  BorderPattern pattern = BorderPattern::kClamp;
  Variant variant = Variant::kNaive;
  f32 border_constant = 0.0f;  ///< kConstant pattern's fill value
  bool optimize = true;        ///< run the IR pass pipeline (the NVCC stand-in)
  /// Model the rolled mask loop of real generated kernels: a basic-block
  /// boundary per window row, so border checks merge within a row but are
  /// re-evaluated across rows — the per-tap check cost the paper's Eq. (3)
  /// charges. Disabling it fully unrolls into one block, letting CSE merge
  /// checks across the whole window (an ablation of the Table I effect).
  bool row_blocks = true;
  i32 warp_width = 32;         ///< for kIspWarp's warp-index computation
  /// kIspTiled bakes the block extent into the unrolled staging loop (the
  /// tile size and trip counts are compile-time constants, as in real CUDA
  /// smem kernels). The launch helper rejects a kIspTiled program launched
  /// with any other block shape.
  BlockSize tile_block{32, 4};
};

/// Kernel parameter names the generated program declares. The launch helper
/// (dsl/runtime) fills them; listed here so benches can build ParamMaps.
///  always:    sx, sy, pitch_out, ntid.x, ntid.y, pitch_in<i> per input
///  kIsp/Warp/Tiled: bh_l, bh_r, bh_t, bh_b
///  kIspWarp:  w_l, w_r
///  kIspTiled: no extra parameters; the staged tile extent is baked in and
///             Program::smem_words carries the per-block smem footprint
///  kConstant: border_const is baked as an immediate (not a parameter)
///
/// Buffers: inputs 0..num_inputs-1, output = num_inputs.

/// Generates and (optionally) optimizes the kernel. Region sections carry
/// markers named after the regions ("TL", ..., "Body"; naive uses "Naive").
[[nodiscard]] ir::Program generate_kernel(const StencilSpec& spec,
                                          const CodegenOptions& options);

/// Generates ONE region's kernel as a standalone program — the
/// separate-kernels-per-region alternative the paper discusses and rejects
/// in Section III-C (per-launch overhead, host-side partitioning). The
/// program has no region switch; it declares the extra parameters `boff_x`
/// and `boff_y` (block offsets of the region's sub-grid within the full
/// grid) and computes gx = (ctaid.x + boff_x) * ntid.x + tid.x. The launch
/// helper dsl::launch_per_region drives the nine sub-launches.
[[nodiscard]] ir::Program generate_region_kernel(const StencilSpec& spec,
                                                 const CodegenOptions& options,
                                                 Region region);

/// Measured analytic-model inputs (Section IV): per-tap kernel cost and
/// per-side check cost derived from generated IR rather than hand estimates.
struct MeasuredCosts {
  f64 kernel_per_tap = 0.0;   ///< arithmetic + address cost per tap, no checks
  f64 check_per_side = 0.0;   ///< incremental cost of one side's check per tap
  f64 switch_per_test = 2.0;  ///< region-switch cost per Listing 3 test
};
[[nodiscard]] MeasuredCosts measure_costs(const StencilSpec& spec,
                                          BorderPattern pattern);

}  // namespace ispb::codegen
