// KernelGraph: a MultiKernelApp as a validated list of stages over image ids.
//
// filters::MultiKernelApp orders stages linearly and encodes data flow in
// input_bindings (image 0 is the source, image k > 0 the output of stage
// k-1). The graph keeps that form, and the data flow is explicit in each
// stage's input_images: Sobel's dx and dy kernels both read the source and
// the magnitude stage reads both outputs; Night's Atrous chain reads one
// image back each step; Gaussian/Laplace/Bilateral are single stages.
//
// Stage indices are a topological order by construction (a stage may only
// read images produced by earlier stages), which validate() re-checks; the
// executor runs stages in that order.
#pragma once

#include <string>
#include <vector>

#include "filters/filters.hpp"

namespace ispb::pipeline {

/// Stages over one source image. Image ids follow the MultiKernelApp
/// convention: 0 is the source, stage i writes image i + 1.
struct KernelGraph {
  struct Stage {
    codegen::StencilSpec spec;
    std::vector<i32> input_images;  ///< image ids read, in accessor order
  };

  std::string name;
  std::vector<Stage> stages;

  /// Source + one output per stage.
  [[nodiscard]] i32 image_count() const {
    return static_cast<i32>(stages.size()) + 1;
  }

  /// Structural checks: nonempty, one bound image per spec input, every
  /// input image id in [0, stage image). Throws ContractError on violation.
  void validate() const;
};

/// Builds the graph from the linear app form.
[[nodiscard]] KernelGraph build_graph(const filters::MultiKernelApp& app);

}  // namespace ispb::pipeline
