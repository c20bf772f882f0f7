#include "codegen/cpp_printer.hpp"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "core/region.hpp"

namespace ispb::codegen {

namespace {

enum class ClampStyle : u8 {
  kIf,      ///< `if (x < 0) x = 0;` per side
  kMinMax,  ///< `x = max(x, 0);` per side
  kClamp,   ///< `x = clamp(x, 0, sx - 1);` per axis
};

/// Libm float entry points, one per unary/binary DAG operation.
struct Libm {
  const char* min;
  const char* max;
  const char* abs;
  const char* exp2;
  const char* log2;
  const char* sqrt;
};

/// What differs in spelling between the C-family targets. The border read
/// and DAG lowering are shared; the host frame leaves the GPU fields empty.
struct Dialect {
  const char* name;   ///< backend tag of the header comment
  const char* entry;  ///< everything in front of the kernel name
  ClampStyle clamp;
  Libm libm;
  const char* in_ptr = "";     ///< input pointer parameter type
  const char* out_ptr = "";    ///< output pointer parameter type
  const char* gid[2] = {};     ///< global pixel coordinate (x, y)
  const char* bid[2] = {};     ///< block / work-group index (x, y)
  const char* lid[2] = {};     ///< thread / work-item index within the block
  const char* shared = "";     ///< qualifier of the staged Body tile
  const char* barrier = "";    ///< block-wide barrier statement
};

constexpr Libm kLibmF{"fminf", "fmaxf", "fabsf", "exp2f", "log2f", "sqrtf"};

constexpr Dialect kCuda{"CUDA",
                        "extern \"C\" __global__ void ",
                        ClampStyle::kMinMax,
                        kLibmF,
                        "const float* __restrict__",
                        "float* __restrict__",
                        {"blockIdx.x * blockDim.x + threadIdx.x",
                         "blockIdx.y * blockDim.y + threadIdx.y"},
                        {"blockIdx.x", "blockIdx.y"},
                        {"threadIdx.x", "threadIdx.y"},
                        "__shared__",
                        "__syncthreads();"};

constexpr Dialect kOpenCl{"OpenCL",
                          "__kernel void ",
                          ClampStyle::kClamp,
                          {"fmin", "fmax", "fabs", "exp2", "log2", "sqrt"},
                          "__global const float* restrict",
                          "__global float* restrict",
                          {"(int)get_global_id(0)", "(int)get_global_id(1)"},
                          {"(int)get_group_id(0)", "(int)get_group_id(1)"},
                          {"(int)get_local_id(0)", "(int)get_local_id(1)"},
                          "__local",
                          "barrier(CLK_LOCAL_MEM_FENCE);"};

constexpr Dialect kHost{"host C++", "extern \"C\" void ", ClampStyle::kIf,
                        kLibmF};

/// C99 hex-float literal: round-trips the exact f32 bit pattern (the f32 ->
/// double promotion is exact, %a prints the double exactly, and the `f`
/// suffix converts back without rounding).
std::string float_lit(f32 v) {
  ISPB_EXPECTS(std::isfinite(v));
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%af", static_cast<double>(v));
  return std::string(buf);
}

/// The one symbol builder of every dialect: joins `parts` with '_' and maps
/// each character that may not appear in a C identifier to '_'.
std::string symbol(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) {
    if (!out.empty()) out.push_back('_');
    for (char c : part) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out.push_back(ok ? c : '_');
    }
  }
  return out;
}

/// Staged-tile dimensions of the kIspTiled Body (words per row and per
/// input slab); reads then index the `tile` buffer via lx/ly.
struct TileDims {
  i32 tw = 0;
  i32 slab = 0;
};

/// The Body tile kIspTiled stages; none for other variants or a window
/// without halo (nothing to share between neighbouring pixels).
std::optional<TileDims> staged_tile(const StencilSpec& spec,
                                    const CodegenOptions& opt) {
  const Window w = spec.window();
  const bool halo = w.radius_x() > 0 || w.radius_y() > 0;
  if (opt.variant != Variant::kIspTiled || !halo) return std::nullopt;
  const i32 tw = opt.tile_block.tx + 2 * w.radius_x();
  return TileDims{tw, tw * (opt.tile_block.ty + 2 * w.radius_y())};
}

std::string offset(const std::string& base, i32 d) {
  if (d > 0) return base + " + " + std::to_string(d);
  if (d < 0) return base + " - " + std::to_string(-d);
  return base;
}

/// The one border read: input `input` at (gx + dx, gy + dy) re-indexed on
/// the `sides` this section checks (Listing 1's sign-agnostic functions; the
/// centered (0, 0) read is in bounds by construction and never checked).
/// Multi-statement patterns append lines to `os`; returns the value
/// expression. With `tile` set (the kIspTiled Body), the tap reads the
/// staged buffer instead — the staged values are exact copies, so the
/// computed bits are unchanged.
std::string emit_read_expr(std::ostringstream& os, const Dialect& d,
                           const CodegenOptions& opt, Side sides, i32 input,
                           i32 dx, i32 dy, int* temp, const std::string& pad,
                           const TileDims* tile) {
  if (tile != nullptr) {
    // (ly + dy) * tw + (lx + dx) + input * slab, constants folded.
    const i32 off = dy * tile->tw + dx + input * tile->slab;
    return offset("tile[ly * " + std::to_string(tile->tw) + " + lx", off) +
           "]";
  }
  const bool center = dx == 0 && dy == 0;
  const std::string id = std::to_string((*temp)++);
  const std::string xi = "x" + id;
  const std::string yi = "y" + id;
  os << pad << "int " << xi << " = " << offset("gx", dx) << ";\n";
  os << pad << "int " << yi << " = " << offset("gy", dy) << ";\n";

  struct Axis {
    const std::string& v;
    std::string s;  // extent
    Side lo, hi;
  };
  std::string guard;  // kConstant: the in-bounds condition of the load
  for (const Axis& a : {Axis{xi, "sx", Side::kLeft, Side::kRight},
                        Axis{yi, "sy", Side::kTop, Side::kBottom}}) {
    const bool lo = !center && has_side(sides, a.lo);
    const bool hi = !center && has_side(sides, a.hi);
    const std::string& v = a.v;
    const auto line = [&](const std::string& stmt) {
      os << pad << stmt << "\n";
    };
    switch (opt.pattern) {
      case BorderPattern::kClamp:
        if (d.clamp == ClampStyle::kClamp) {
          if (lo || hi) line(v + " = clamp(" + v + ", 0, " + a.s + " - 1);");
        } else if (d.clamp == ClampStyle::kMinMax) {
          if (lo) line(v + " = max(" + v + ", 0);");
          if (hi) line(v + " = min(" + v + ", " + a.s + " - 1);");
        } else {
          if (lo) line("if (" + v + " < 0) " + v + " = 0;");
          if (hi) {
            line("if (" + v + " > " + a.s + " - 1) " + v + " = " + a.s +
                 " - 1;");
          }
        }
        break;
      case BorderPattern::kMirror:
        // Single reflection (edge included); valid because launch
        // validation rejects radii larger than the image extent.
        if (lo) line("if (" + v + " < 0) " + v + " = -" + v + " - 1;");
        if (hi) {
          line("if (" + v + " >= " + a.s + ") " + v + " = 2 * " + a.s +
               " - " + v + " - 1;");
        }
        break;
      case BorderPattern::kRepeat:
        if (lo) line("while (" + v + " < 0) " + v + " += " + a.s + ";");
        if (hi) {
          line("while (" + v + " >= " + a.s + ") " + v + " -= " + a.s + ";");
        }
        break;
      case BorderPattern::kConstant:
        if (lo) guard += " && " + v + " >= 0";
        if (hi) guard += " && " + v + " < " + a.s;
        break;
    }
  }
  const std::string in = "in" + std::to_string(input);
  const std::string load = in + "[" + yi + " * pitch_" + in + " + " + xi + "]";
  if (guard.empty()) return load;
  const std::string vi = "v" + id;
  os << pad << "float " << vi << " = " << float_lit(opt.border_constant)
     << ";\n";
  os << pad << "if (1" << guard << ") " << vi << " = " << load << ";\n";
  return vi;
}

/// C spelling of a constant or operation node over its operand names.
std::string spell_op(const Libm& m, const Node& n, const std::string& a,
                     const std::string& b) {
  const auto call = [](const char* fn, const std::string& args) {
    return std::string(fn) + "(" + args + ")";
  };
  switch (n.kind) {
    case NodeKind::kConst:
      return float_lit(n.value);
    case NodeKind::kAdd:
      return a + " + " + b;
    case NodeKind::kSub:
      return a + " - " + b;
    case NodeKind::kMul:
      return a + " * " + b;
    case NodeKind::kDiv:
      return a + " / " + b;
    case NodeKind::kMin:
      return call(m.min, a + ", " + b);
    case NodeKind::kMax:
      return call(m.max, a + ", " + b);
    case NodeKind::kNeg:
      return "-" + a;
    case NodeKind::kAbs:
      return call(m.abs, a);
    case NodeKind::kExp2:
      return call(m.exp2, a);
    case NodeKind::kLog2:
      return call(m.log2, a);
    case NodeKind::kSqrt:
      return call(m.sqrt, a);
    case NodeKind::kRcp:
      return "1.0f / " + a;
    case NodeKind::kRead:
      break;
  }
  throw ContractError("spell_op: reads lower through emit_read_expr");
}

/// The one DAG lowering: a `float tN = <single op>;` statement per node, in
/// node order — StencilSpec::evaluate's exact operation sequence — then the
/// store of the output pixel.
void emit_dag(std::ostringstream& os, const Dialect& d,
              const StencilSpec& spec, const CodegenOptions& opt, Side sides,
              const std::string& pad, const TileDims* tile = nullptr) {
  int temp = 0;
  i32 id = 0;
  // Appended rather than `"t" + ...`: GCC 12 reports a false -Wrestrict on
  // the inlined operator+ here.
  const auto name = [](i32 node) {
    std::string s = "t";
    s += std::to_string(node);
    return s;
  };
  for (const Node& n : spec.nodes) {
    const std::string expr =
        n.kind == NodeKind::kRead
            ? emit_read_expr(os, d, opt, sides, n.input, n.dx, n.dy, &temp,
                             pad, tile)
            : spell_op(d.libm, n, name(n.lhs), name(n.rhs));
    os << pad << "float " << name(id++) << " = " << expr << ";\n";
  }
  os << pad << "out[gy * pitch_out + gx] = " << name(spec.output) << ";\n";
}

// ---- GPU frame: a thread per pixel, goto region switch ----------------------

/// kIspTiled Body prologue: the block's threads copy its halo-extended input
/// patch into the shared tile with a strided loop over the local ids, then
/// meet at the barrier. Body blocks have their whole halo in bounds by
/// Eq. (2), so staging needs no border handling.
void emit_gpu_staging(std::ostringstream& os, const Dialect& d,
                      const StencilSpec& spec, const CodegenOptions& opt,
                      const TileDims& t) {
  const Window w = spec.window();
  os << "        // stage the halo tile, then compute from it\n";
  os << "        const int lx = " << d.lid[0] << " + " << w.radius_x()
     << ", ly = " << d.lid[1] << " + " << w.radius_y() << ";\n";
  os << "        const int ox = gx - lx, oy = gy - ly;\n";
  os << "        for (int j = " << d.lid[1] << "; j < " << t.slab / t.tw
     << "; j += " << opt.tile_block.ty << ") {\n";
  os << "            for (int i = " << d.lid[0] << "; i < " << t.tw
     << "; i += " << opt.tile_block.tx << ") {\n";
  for (i32 k = 0; k < spec.num_inputs; ++k) {
    os << "                tile[" << k * t.slab << " + j * " << t.tw
       << " + i] = in" << k << "[(oy + j) * pitch_in" << k << " + ox + i];\n";
  }
  os << "            }\n";
  os << "        }\n";
  os << "        " << d.barrier << "\n";
}

/// One section: `head`, the staging prologue when `tile` is set, the
/// lowered DAG and `return;`.
void emit_section(std::ostringstream& os, const Dialect& d,
                  const StencilSpec& spec, const CodegenOptions& opt,
                  const std::string& head, Side sides,
                  const TileDims* tile = nullptr) {
  os << head << "\n";
  if (tile != nullptr) emit_gpu_staging(os, d, spec, opt, *tile);
  emit_dag(os, d, spec, opt, sides, "        ", tile);
  os << "        return;\n";
  os << "    }\n";
}

std::string emit_gpu(const Dialect& d, const StencilSpec& spec,
                     const CodegenOptions& opt) {
  spec.validate();
  const bool isp = opt.variant != Variant::kNaive;
  const bool warp = opt.variant == Variant::kIspWarp;
  const std::optional<TileDims> tile = staged_tile(spec, opt);

  std::ostringstream os;
  os << "// generated by ispborder (" << to_string(opt.variant) << ", "
     << to_string(opt.pattern) << " border handling, " << d.name
     << " backend)\n";
  os << d.entry << symbol({spec.name, to_string(opt.variant)}) << "(\n";
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    os << "    " << d.in_ptr << " in" << i << ", int pitch_in" << i << ",\n";
  }
  os << "    " << d.out_ptr << " out, int pitch_out,\n";
  os << "    int sx, int sy";
  if (isp) os << ",\n    int bh_l, int bh_r, int bh_t, int bh_b";
  if (warp) os << ", int w_l, int w_r";
  os << ")\n{\n";
  os << "    const int gx = " << d.gid[0] << ";\n";
  os << "    const int gy = " << d.gid[1] << ";\n";
  os << "    if (gx >= sx || gy >= sy) return;\n";

  if (!isp) {
    os << "    // naive: all border checks on every access\n";
    emit_section(os, d, spec, opt, "    {", kAllSides);
    os << "}\n";
    return os.str();
  }

  // Local-memory variables live at kernel scope (an OpenCL rule).
  if (tile) {
    os << "    " << d.shared << " float tile[" << tile->slab * spec.num_inputs
       << "];  // staged by Body; block must be " << opt.tile_block.tx << "x"
       << opt.tile_block.ty << "\n";
  }
  if (warp) {
    os << "    const int wx = " << d.lid[0] << " / " << opt.warp_width
       << ";\n";
  }
  // Listing 3: the first region whose block-index tests hold; Body falls
  // through. kIspWarp sends warps clear of the left/right border to the
  // region without that side (Listing 5).
  const std::pair<Side, std::string> tests[] = {
      {Side::kLeft, std::string(d.bid[0]) + " < bh_l"},
      {Side::kRight, std::string(d.bid[0]) + " >= bh_r"},
      {Side::kTop, std::string(d.bid[1]) + " < bh_t"},
      {Side::kBottom, std::string(d.bid[1]) + " >= bh_b"}};
  os << "    // region switch (iteration space partitioning)\n";
  for (Region reg : kAllRegions) {
    const Side sides = region_sides(reg);
    if (sides == Side::kNone) continue;
    std::string cond;
    for (const auto& [side, test] : tests) {
      if (has_side(sides, side)) cond += (cond.empty() ? "" : " && ") + test;
    }
    const char* refine = has_side(sides, Side::kLeft)    ? "wx >= w_l"
                         : has_side(sides, Side::kRight) ? "wx < w_r"
                                                         : nullptr;
    os << "    if (" << cond << ") ";
    if (warp && refine != nullptr) {
      const Region inner =
          region_from_sides(sides & (Side::kTop | Side::kBottom));
      os << "{ if (" << refine << ") goto " << to_string(inner) << "; ";
    }
    os << "goto " << to_string(reg) << ";" << (warp && refine ? " }" : "")
       << "\n";
  }
  os << "    goto Body;\n\n";

  for (Region reg : kAllRegions) {
    const std::string head = std::string(to_string(reg)) + ": {";
    const bool staged = reg == Region::kBody && tile;
    emit_section(os, d, spec, opt, head, region_sides(reg),
                 staged ? &*tile : nullptr);
  }
  os << "}\n";
  return os.str();
}

// ---- host frame: region loops over row bands --------------------------------

/// A doubly-nested pixel loop over x in [x_lo, x_hi), y in [y_lo, y_hi)
/// clipped to the caller's [y_begin, y_end) row band, with `sides` checks;
/// every line is prefixed with `ind`.
void emit_loop(std::ostringstream& os, const StencilSpec& spec,
               const CodegenOptions& opt, Side sides, std::string_view label,
               const std::string& x_lo, const std::string& x_hi,
               const std::string& y_lo, const std::string& y_hi,
               const std::string& ind = "") {
  os << ind << "  { // " << label << "\n";
  os << ind << "    int ys = " << y_lo << " > y_begin ? " << y_lo
     << " : y_begin;\n";
  os << ind << "    int ye = " << y_hi << " < y_end ? " << y_hi
     << " : y_end;\n";
  os << ind << "    for (int gy = ys; gy < ye; ++gy) {\n";
  os << ind << "      for (int gx = " << x_lo << "; gx < " << x_hi
     << "; ++gx) {\n";
  emit_dag(os, kHost, spec, opt, sides, ind + "        ");
  os << ind << "      }\n";
  os << ind << "    }\n";
  os << ind << "  }\n";
}

/// The kIspTiled Body: walk the pixel-granular Body rectangle in tiles of
/// tile_block extent, stage each tile's halo-extended input patch into a
/// local buffer (the CPU stand-in for the per-block smem tile — one copy per
/// word, same load/compute phase split), then compute every tile pixel from
/// the buffer. Body windows are in bounds by construction, so staging needs
/// no border handling, and staged values are exact copies, so outputs are
/// bit-identical to the untiled Body loop.
void emit_tiled_body(std::ostringstream& os, const StencilSpec& spec,
                     const CodegenOptions& opt, const TileDims& dims) {
  const Window w = spec.window();
  const i32 rx = w.radius_x();
  const i32 ry = w.radius_y();
  const i32 tbx = opt.tile_block.tx;
  const i32 tby = opt.tile_block.ty;
  os << "  { // Body (tiled): stage the halo tile, compute from the tile\n";
  os << "    int ys = by0 > y_begin ? by0 : y_begin;\n";
  os << "    int ye = by1 < y_end ? by1 : y_end;\n";
  os << "    float tile[" << dims.slab * spec.num_inputs << "];\n";
  os << "    for (int ty0 = ys; ty0 < ye; ty0 += " << tby << ") {\n";
  os << "      int ty1 = ty0 + " << tby << " < ye ? ty0 + " << tby
     << " : ye;\n";
  os << "      for (int tx0 = bx0; tx0 < bx1; tx0 += " << tbx << ") {\n";
  os << "        int tx1 = tx0 + " << tbx << " < bx1 ? tx0 + " << tbx
     << " : bx1;\n";
  os << "        int sh = (ty1 - ty0) + " << 2 * ry << ";\n";
  os << "        int sw = (tx1 - tx0) + " << 2 * rx << ";\n";
  os << "        for (int j = 0; j < sh; ++j) {\n";
  os << "          for (int i = 0; i < sw; ++i) {\n";
  for (i32 k = 0; k < spec.num_inputs; ++k) {
    os << "            tile[" << k * dims.slab << " + j * " << dims.tw
       << " + i] = in" << k << "[(ty0 - " << ry << " + j) * pitch_in" << k
       << " + (tx0 - " << rx << " + i)];\n";
  }
  os << "          }\n";
  os << "        }\n";
  os << "        for (int gy = ty0; gy < ty1; ++gy) {\n";
  os << "          int ly = gy - ty0 + " << ry << ";\n";
  os << "          for (int gx = tx0; gx < tx1; ++gx) {\n";
  os << "            int lx = gx - tx0 + " << rx << ";\n";
  emit_dag(os, kHost, spec, opt, Side::kNone, "            ", &dims);
  os << "          }\n";
  os << "        }\n";
  os << "      }\n";
  os << "    }\n";
  os << "  }\n";
}

}  // namespace

std::string emit_cuda(const StencilSpec& spec, const CodegenOptions& opt) {
  return emit_gpu(kCuda, spec, opt);
}

std::string emit_opencl(const StencilSpec& spec, const CodegenOptions& opt) {
  return emit_gpu(kOpenCl, spec, opt);
}

std::string emit_cuda_host(const StencilSpec& spec,
                           const CodegenOptions& opt) {
  const Window w = spec.window();
  std::ostringstream os;
  os << "// host-side launch for '" << spec.name << "' ("
     << to_string(opt.variant) << ")\n";
  os << "void " << symbol({"launch", spec.name})
     << "(dim3 block, int sx, int sy, /* buffers... */ cudaStream_t s)\n{\n";
  os << "    const dim3 grid((sx + block.x - 1) / block.x,\n";
  os << "                    (sy + block.y - 1) / block.y);\n";
  os << "    const int rx = " << w.radius_x() << ", ry = " << w.radius_y()
     << ";  // window " << w.m << "x" << w.n << "\n";
  if (opt.variant != Variant::kNaive) {
    os << "    // index bounds, Eq. (2)\n";
    os << "    const int bh_l = (rx + block.x - 1) / block.x;\n";
    os << "    const int bh_r = rx == 0 ? grid.x : (sx - rx) / block.x;\n";
    os << "    const int bh_t = (ry + block.y - 1) / block.y;\n";
    os << "    const int bh_b = ry == 0 ? grid.y : (sy - ry) / block.y;\n";
  }
  if (opt.variant == Variant::kIspWarp) {
    os << "    // warp bounds (Listing 5)\n";
    os << "    const int w_l = (rx + " << opt.warp_width - 1 << ") / "
       << opt.warp_width << ";\n";
    os << "    const int w_r = ((sx - rx) - (grid.x - 1) * block.x) / "
       << opt.warp_width << ";\n";
  }
  os << "    " << symbol({spec.name, to_string(opt.variant)})
     << "<<<grid, block, 0, s>>>(/* ... */);\n";
  os << "}\n";
  return os.str();
}

std::string cpp_kernel_symbol(const StencilSpec& spec,
                              const CodegenOptions& options) {
  const char* token = options.variant == Variant::kNaive     ? "naive"
                      : options.variant == Variant::kIspTiled ? "isptiled"
                                                              : "isp";
  return symbol({"ispb", spec.name, token, to_string(options.pattern)});
}

std::string emit_cpp(const StencilSpec& spec, const CodegenOptions& opt) {
  spec.validate();
  const Window w = spec.window();
  const bool isp = opt.variant != Variant::kNaive;

  std::ostringstream os;
  os << "// generated by ispborder native backend: " << spec.name << " ("
     << (isp ? "isp" : "naive") << ", " << to_string(opt.pattern)
     << " border handling, window " << w.m << "x" << w.n << ")\n";
  os << "#include <math.h>\n\n";
  os << kHost.entry << cpp_kernel_symbol(spec, opt) << "(\n";
  os << "    const float* const* in, const int* pitch_in_v,\n";
  os << "    float* out, int pitch_out, int sx, int sy,\n";
  os << "    int y_begin, int y_end)\n{\n";
  for (i32 i = 0; i < spec.num_inputs; ++i) {
    os << "  const float* in" << i << " = in[" << i << "];\n";
    os << "  const int pitch_in" << i << " = pitch_in_v[" << i << "];\n";
  }

  if (!isp) {
    emit_loop(os, spec, opt, kAllSides, "naive: all checks everywhere", "0",
              "sx", "0", "sy");
    os << "}\n";
    return os.str();
  }

  os << "  const int rx = " << w.radius_x() << ", ry = " << w.radius_y()
     << ";\n";
  os << "  if (sx < 2 * rx || sy < 2 * ry) {\n";
  // Degenerate partition (opposing sides would overlap): serve the
  // all-checks loop, as launch_on_sim's naive fallback does.
  emit_loop(os, spec, opt, kAllSides, "degenerate: all checks", "0", "sx",
            "0", "sy", "  ");
  os << "    return;\n";
  os << "  }\n";
  os << "  // pixel-granular ISP bounds (paper Eq. (1), CPU flavor)\n";
  os << "  const int bx0 = rx < sx ? rx : sx;\n";
  os << "  const int bx1 = sx - rx > bx0 ? sx - rx : bx0;\n";
  os << "  const int by0 = ry < sy ? ry : sy;\n";
  os << "  const int by1 = sy - ry > by0 ? sy - ry : by0;\n";

  // A region's interval on one axis: [0, b0) when it checks the low side,
  // [b1, s) when it checks the high side, [b0, b1) otherwise.
  const auto interval = [](Side sides, Side lo, Side hi,
                           const std::string& axis) {
    using Span = std::pair<std::string, std::string>;
    const std::string b0 = "b" + axis + "0";
    const std::string b1 = "b" + axis + "1";
    return has_side(sides, lo)   ? Span{"0", b0}
           : has_side(sides, hi) ? Span{b1, "s" + axis}
                                 : Span{b0, b1};
  };
  const std::optional<TileDims> tile = staged_tile(spec, opt);
  for (Region r : kAllRegions) {
    if (r == Region::kBody && tile) {
      emit_tiled_body(os, spec, opt, *tile);
      continue;
    }
    const Side sides = region_sides(r);
    const auto [x_lo, x_hi] = interval(sides, Side::kLeft, Side::kRight, "x");
    const auto [y_lo, y_hi] = interval(sides, Side::kTop, Side::kBottom, "y");
    emit_loop(os, spec, opt, sides, to_string(r), x_lo, x_hi, y_lo, y_hi);
  }
  os << "}\n";
  return os.str();
}

}  // namespace ispb::codegen
