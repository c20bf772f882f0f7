// The Hipacc-style user API (paper Listing 4).
//
// Users describe a local operator by deriving from `Kernel` and implementing
// `kernel()` over traced `Value`s; masks, domains, boundary conditions,
// accessors and iteration spaces mirror Hipacc's vocabulary:
//
//   Mask mask(coeffs);                       // filter coefficients
//   Domain dom(mask);                        // iteration domain (may be sparse)
//   BoundaryCondition bound(in, mask, BorderPattern::kClamp);
//   Accessor acc(bound);
//   IterationSpace iter(out);
//   MyFilter k(iter, acc, mask, dom);
//   auto report = k.execute(cfg);            // reference or simulated GPU
//
// The compiler workflow (trace -> Analyze -> Rewrite -> launch) runs inside
// execute(); with cfg.use_model the analytic model picks naive vs ISP
// (the paper's isp+m).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsl/compile.hpp"
#include "dsl/runtime.hpp"
#include "dsl/trace.hpp"

namespace ispb::dsl {

class Domain;
class Mask;
enum class Reduce : u8;
void iterate(Domain& dom, const std::function<void()>& body);
Value convolve(Mask& mask, Domain& dom, Reduce mode,
               const std::function<Value()>& body);

/// Filter coefficients, odd extents, centered.
class Mask {
 public:
  Mask(i32 m, i32 n);
  /// Row-major initializer: {{a,b,c},{d,e,f},{g,h,i}} for a 3x3 mask.
  Mask(std::initializer_list<std::initializer_list<f32>> rows);

  [[nodiscard]] i32 size_x() const { return m_; }
  [[nodiscard]] i32 size_y() const { return n_; }
  [[nodiscard]] i32 radius_x() const { return m_ / 2; }
  [[nodiscard]] i32 radius_y() const { return n_ / 2; }

  [[nodiscard]] f32& at(i32 dx, i32 dy);
  [[nodiscard]] f32 at(i32 dx, i32 dy) const;

  /// Traced coefficient at the domain's current offset (inside iterate()).
  [[nodiscard]] Value operator()(const Domain& dom) const;

 private:
  i32 m_;
  i32 n_;
  std::vector<f32> coeffs_;
};

/// Iteration domain: the window offsets a kernel visits. Supports sparse
/// stencils (the paper's future-work extension) via disable().
class Domain {
 public:
  explicit Domain(const Mask& mask);
  Domain(i32 m, i32 n);

  [[nodiscard]] i32 size_x() const { return m_; }
  [[nodiscard]] i32 size_y() const { return n_; }
  [[nodiscard]] i32 radius_x() const { return m_ / 2; }
  [[nodiscard]] i32 radius_y() const { return n_ / 2; }

  void disable(i32 dx, i32 dy);
  void enable(i32 dx, i32 dy);
  [[nodiscard]] bool enabled(i32 dx, i32 dy) const;
  [[nodiscard]] i32 enabled_count() const;

  /// Current offset while iterate()/convolve() runs.
  [[nodiscard]] Index2 offset() const { return offset_; }

 private:
  friend void iterate(Domain&, const std::function<void()>&);
  friend Value convolve(Mask&, Domain&, Reduce, const std::function<Value()>&);
  i32 m_;
  i32 n_;
  std::vector<u8> enabled_;
  Index2 offset_{};
};

/// Out-of-bounds policy attached to an image for a window extent.
class BoundaryCondition {
 public:
  BoundaryCondition(const Image<f32>& image, const Mask& mask,
                    BorderPattern pattern, f32 constant = 0.0f);
  BoundaryCondition(const Image<f32>& image, i32 m, i32 n,
                    BorderPattern pattern, f32 constant = 0.0f);

  [[nodiscard]] const Image<f32>& image() const { return *image_; }
  [[nodiscard]] BorderPattern pattern() const { return pattern_; }
  [[nodiscard]] f32 constant() const { return constant_; }

 private:
  const Image<f32>* image_;
  BorderPattern pattern_;
  f32 constant_;
};

/// Read access to an input image inside kernel().
class Accessor {
 public:
  explicit Accessor(const BoundaryCondition& bc);
  /// Accessor without border handling (point reads only, e.g. the Sobel
  /// magnitude kernel); offset reads via this accessor are rejected.
  explicit Accessor(const Image<f32>& image);

  /// Traced read at the current domain offset.
  [[nodiscard]] Value operator()(const Domain& dom) const;
  /// Traced read at a fixed offset (0,0 = center).
  [[nodiscard]] Value operator()(i32 dx = 0, i32 dy = 0) const;

  [[nodiscard]] const Image<f32>& image() const { return *image_; }
  [[nodiscard]] bool has_boundary() const { return has_bc_; }
  [[nodiscard]] BorderPattern pattern() const { return pattern_; }
  [[nodiscard]] f32 constant() const { return constant_; }

 private:
  friend class Kernel;
  const Image<f32>* image_;
  bool has_bc_ = false;
  BorderPattern pattern_ = BorderPattern::kClamp;
  f32 constant_ = 0.0f;
  mutable i32 input_index_ = -1;  // assigned by Kernel::add_accessor
};

/// The output image and its iteration space.
class IterationSpace {
 public:
  explicit IterationSpace(Image<f32>& image) : image_(&image) {}
  [[nodiscard]] Image<f32>& image() const { return *image_; }

 private:
  Image<f32>* image_;
};

/// Reduction modes for convolve().
enum class Reduce : u8 { kSum, kMin, kMax };  // NOLINT(performance-enum-size)

/// Execution configuration for Kernel::execute().
struct ExecConfig {
  enum class Backend : u8 { kReference, kSimulator };
  Backend backend = Backend::kReference;
  sim::DeviceSpec device = sim::make_gtx680();
  BlockSize block{32, 4};
  codegen::Variant variant = codegen::Variant::kIsp;
  /// isp+m: let the analytic model choose between naive and `variant`.
  bool use_model = false;
  /// Sampled simulation (timing only; output incomplete).
  bool sampled = false;
};

/// What execute() did and measured.
struct ExecutionReport {
  codegen::Variant variant_used = codegen::Variant::kNaive;
  bool degenerate_fallback = false;
  std::optional<PlanDecision> plan;      ///< present when use_model
  std::optional<sim::LaunchStats> stats; ///< present on the simulator backend
  codegen::StencilSpec spec;             ///< the traced computation
};

/// Base class for user-defined local operators.
class Kernel {
 public:
  explicit Kernel(IterationSpace& is, std::string name = "kernel");
  virtual ~Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// The user's stencil computation, written over Values.
  virtual void kernel() = 0;

  /// Traces kernel(), compiles, runs on the selected backend, and writes the
  /// result into the iteration space image.
  ExecutionReport execute(const ExecConfig& cfg = ExecConfig{});

  /// Traces kernel() and returns the spec without executing (inspection,
  /// the C-family printer's emit_cuda/emit_opencl/emit_cpp, benches).
  [[nodiscard]] codegen::StencilSpec trace();

 protected:
  /// Registers an input accessor; call from the subclass constructor in
  /// declaration order.
  void add_accessor(Accessor* acc);

  /// Assignment target for the output pixel: `output() = expr;`.
  class OutputProxy {
   public:
    // NOLINTNEXTLINE(misc-unconventional-assign-operator): sink, not chain
    void operator=(const Value& v) const;
  };
  [[nodiscard]] OutputProxy output() { return OutputProxy{}; }

 private:
  IterationSpace* is_;
  std::string name_;
  std::vector<Accessor*> accessors_;
};

}  // namespace ispb::dsl
