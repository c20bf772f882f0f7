// StencilSpec: the compute DAG the compiler lowers.
//
// The DSL layer traces a user kernel (Hipacc-style `kernel()` body) into
// this representation: leaves are border-handled input reads at fixed window
// offsets and float constants; interior nodes are f32 arithmetic. The code
// generator consumes a spec plus a border pattern and a variant to produce
// IR fat kernels (src/codegen/kernel_gen.hpp) and CUDA, OpenCL and host C++
// source text (src/codegen/cpp_printer.hpp: one printer, a dialect table).
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/partition.hpp"

namespace ispb::codegen {

/// DAG node kinds. All values are f32.
enum class NodeKind : u8 {
  kRead,   ///< input[img](x + dx, y + dy), border-handled
  kConst,  ///< immediate f32
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMin,
  kMax,
  kNeg,
  kAbs,
  kExp2,  ///< 2^x (lowered to the SFU ex2)
  kLog2,
  kSqrt,
  kRcp,
};

/// Operand count of a node kind (0 for leaves).
[[nodiscard]] i32 node_arity(NodeKind kind);

/// One DAG node. Operand ids must be smaller than the node's own id
/// (topological order by construction).
struct Node {
  NodeKind kind = NodeKind::kConst;
  f32 value = 0.0f;  ///< kConst
  i32 input = 0;     ///< kRead: input image index
  i32 dx = 0;        ///< kRead: window offset x
  i32 dy = 0;        ///< kRead: window offset y
  i32 lhs = -1;      ///< operand node id
  i32 rhs = -1;      ///< operand node id
};

/// A complete stencil computation: out(x, y) = f(reads around (x, y)).
struct StencilSpec {
  std::string name;
  i32 num_inputs = 1;
  std::vector<Node> nodes;
  i32 output = -1;  ///< node producing the output pixel value

  /// Smallest centered odd window covering every read offset.
  [[nodiscard]] Window window() const;

  /// Number of distinct (input, dx, dy) read sites.
  [[nodiscard]] i32 read_count() const;

  /// Structural checks: topological operand order, valid output id, read
  /// inputs within num_inputs. Throws ContractError on violation.
  void validate() const;

  /// Evaluates the DAG for one output pixel with `read` supplying
  /// border-handled input values: read(input, dx, dy) -> f32. The evaluation
  /// order and operations match the generated IR exactly, so a CPU reference
  /// built on this function is bit-identical to the simulated kernel.
  template <typename ReadFn>
  [[nodiscard]] f32 evaluate(const ReadFn& read) const;
};

/// Convenience builder for specs (used by filters and tests; the DSL tracer
/// builds specs through the same interface).
class SpecBuilder {
 public:
  explicit SpecBuilder(std::string name, i32 num_inputs = 1);

  [[nodiscard]] i32 read(i32 input, i32 dx, i32 dy);
  [[nodiscard]] i32 constant(f32 v);
  [[nodiscard]] i32 unary(NodeKind kind, i32 a);
  [[nodiscard]] i32 binary(NodeKind kind, i32 a, i32 b);

  /// Finalizes with `output` as the result node.
  [[nodiscard]] StencilSpec finish(i32 output);

 private:
  StencilSpec spec_;
};

// ---- template definitions ---------------------------------------------------

template <typename ReadFn>
f32 StencilSpec::evaluate(const ReadFn& read) const {
  // Scratch per call; specs are small (<= a few thousand nodes).
  std::vector<f32> values(nodes.size(), 0.0f);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    const f32 a = n.lhs >= 0 ? values[static_cast<std::size_t>(n.lhs)] : 0.0f;
    const f32 b = n.rhs >= 0 ? values[static_cast<std::size_t>(n.rhs)] : 0.0f;
    switch (n.kind) {
      case NodeKind::kRead:
        values[i] = read(n.input, n.dx, n.dy);
        break;
      case NodeKind::kConst:
        values[i] = n.value;
        break;
      case NodeKind::kAdd:
        values[i] = a + b;
        break;
      case NodeKind::kSub:
        values[i] = a - b;
        break;
      case NodeKind::kMul:
        values[i] = a * b;
        break;
      case NodeKind::kDiv:
        values[i] = a / b;
        break;
      case NodeKind::kMin:
        values[i] = std::fmin(a, b);
        break;
      case NodeKind::kMax:
        values[i] = std::fmax(a, b);
        break;
      case NodeKind::kNeg:
        values[i] = -a;
        break;
      case NodeKind::kAbs:
        values[i] = std::fabs(a);
        break;
      case NodeKind::kExp2:
        values[i] = std::exp2(a);
        break;
      case NodeKind::kLog2:
        values[i] = std::log2(a);
        break;
      case NodeKind::kSqrt:
        values[i] = std::sqrt(a);
        break;
      case NodeKind::kRcp:
        values[i] = 1.0f / a;
        break;
    }
  }
  return values[static_cast<std::size_t>(output)];
}

}  // namespace ispb::codegen
