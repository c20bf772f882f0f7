// Compiler explorer: shows what the source-to-source compiler generates for
// a chosen filter, border pattern and variant — the CUDA source (with the
// Listing 3/5 region switch, or the staged Body tile of isp-tiled) and the
// PTX-like IR listing, plus the compiler statistics the analytic model
// consumes. An unknown --pattern or --variant exits 1.
//
//   ./compiler_explorer [--filter=gaussian] [--pattern=clamp]
//                       [--variant=isp] [--ptx]
#include <iostream>

#include "codegen/cpp_printer.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "dsl/runtime.hpp"
#include "filters/filters.hpp"
#include "ir/printer.hpp"

using namespace ispb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("filter", "gaussian|laplace|bilateral|sobel_dx|atrous (default gaussian)");
  cli.option("pattern", "border pattern (default clamp)");
  cli.option("variant", "naive|isp|isp-warp|isp-tiled (default isp)");
  cli.option("ptx", "also print the PTX-like IR listing");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }

  const std::string filter = cli.get_string("filter", "gaussian");
  codegen::StencilSpec spec = [&] {
    if (filter == "gaussian") return filters::gaussian_spec(3);
    if (filter == "laplace") return filters::laplace_spec(5);
    if (filter == "bilateral") return filters::bilateral_spec(13);
    if (filter == "sobel_dx") return filters::sobel_dx_spec();
    if (filter == "atrous") return filters::atrous_spec(9);
    throw IoError("unknown --filter " + filter);
  }();

  const auto pattern = parse_border_pattern(cli.get_string("pattern", "clamp"));
  if (!pattern.has_value()) {
    std::cerr << "unknown pattern\n";
    return 1;
  }
  const std::string vname = cli.get_string("variant", "isp");
  const auto variant = codegen::parse_variant(vname);
  if (!variant.has_value()) {
    std::cerr << "unknown --variant '" << vname
              << "' (naive|isp|isp-warp|isp-tiled)\n";
    return 1;
  }
  codegen::CodegenOptions options;
  options.pattern = *pattern;
  options.variant = *variant;

  std::cout << "==== generated CUDA source ====\n";
  std::cout << codegen::emit_cuda(spec, options);
  std::cout << "\n==== host launch snippet ====\n";
  std::cout << codegen::emit_cuda_host(spec, options);

  const dsl::CompiledKernel kernel = dsl::compile_kernel(spec, options);
  const codegen::MeasuredCosts costs = codegen::measure_costs(spec, *pattern);

  std::cout << "\n==== compiler statistics ====\n";
  AsciiTable table("analysis of " + kernel.program.name);
  table.set_header({"metric", "value"});
  const Window w = spec.window();
  table.add_row({"window", std::to_string(w.m) + "x" + std::to_string(w.n)});
  table.add_row({"read sites", std::to_string(spec.read_count())});
  table.add_row({"IR instructions", std::to_string(kernel.program.code.size())});
  table.add_row({"estimated registers/thread",
                 std::to_string(kernel.regs_per_thread)});
  table.add_row({"kernel cost / tap", AsciiTable::num(costs.kernel_per_tap, 2)});
  table.add_row({"check cost / side / tap",
                 AsciiTable::num(costs.check_per_side, 2)});
  table.add_row({"switch cost / test", AsciiTable::num(costs.switch_per_test, 2)});
  table.print(std::cout);

  std::cout << "\ninstruction inventory (top 12):\n";
  int shown = 0;
  for (const auto& [kw, count] : kernel.program.static_inventory().nonzero()) {
    if (shown++ >= 12) break;
    std::cout << "  " << kw << ": " << count << "\n";
  }

  if (cli.get_flag("ptx")) {
    std::cout << "\n==== PTX-like listing ====\n";
    std::cout << ir::to_ptx(kernel.program);
  }
  return 0;
}
