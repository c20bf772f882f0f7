#include "pipeline/kernel_graph.hpp"

#include "common/error.hpp"

namespace ispb::pipeline {

void KernelGraph::validate() const {
  if (stages.empty()) throw ContractError("KernelGraph '" + name + "' is empty");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& stage = stages[i];
    stage.spec.validate();
    if (static_cast<i32>(stage.input_images.size()) != stage.spec.num_inputs) {
      throw ContractError("stage '" + stage.spec.name + "' binds " +
                          std::to_string(stage.input_images.size()) +
                          " images but the spec reads " +
                          std::to_string(stage.spec.num_inputs));
    }
    for (i32 img : stage.input_images) {
      // A stage may only read the source or an earlier stage's output —
      // this is what makes stage order a topological order.
      if (img < 0 || img > static_cast<i32>(i)) {
        throw ContractError("stage '" + stage.spec.name +
                            "' reads image " + std::to_string(img) +
                            " which no earlier stage produces");
      }
    }
  }
}

KernelGraph build_graph(const filters::MultiKernelApp& app) {
  ISPB_EXPECTS(!app.stages.empty());
  KernelGraph graph;
  graph.name = app.name;
  graph.stages.reserve(app.stages.size());
  for (const auto& stage : app.stages) {
    graph.stages.push_back({stage.spec, stage.input_bindings});
  }
  graph.validate();
  return graph;
}

}  // namespace ispb::pipeline
