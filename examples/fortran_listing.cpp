// The paper's motivating workflow (§3–§4): produce a paginated listing of a
// Fortran program, comments stripped, on a printer — then show why the
// read-only discipline is the cheap way to do it by building the identical
// pipeline conventionally (with Unix-style passive buffers) and comparing
// the message bill.
//
//   $ ./fortran_listing [lines]
#include <cstdio>
#include <cstdlib>

#include "src/core/framing.h"
#include "src/core/pipeline.h"
#include "src/devices/devices.h"
#include "src/eden/random.h"
#include "src/filters/transforms.h"
#include "src/fs/unix_fs.h"

namespace {

std::string MakeProgram(int lines) {
  eden::Rng rng(1983);
  std::string text;
  for (int i = 0; i < lines; ++i) {
    if (rng.Chance(0.3)) {
      text += "C " + rng.Word(4, 10) + " " + rng.Word(3, 8) + "\n";
    } else {
      text += "      " + rng.Word(1, 4) + std::to_string(i) + " = " +
              rng.Word(1, 6) + "\n";
    }
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  int lines = argc > 1 ? std::atoi(argv[1]) : 40;

  // ---------------- The Eden way (Figure 2): printer pumps the paginator,
  // the paginator pumps the stripper, the stripper pumps the file.
  eden::Kernel kernel;
  eden::HostFs host;
  host.Put("/usr/src/prog.f", MakeProgram(lines));
  eden::UnixFileSystemEject& ufs =
      kernel.CreateLocal<eden::UnixFileSystemEject>(host);

  eden::InvokeResult opened = kernel.InvokeAndRun(
      ufs.uid(), "NewStream", eden::Value().Set("path", eden::Value("/usr/src/prog.f")));
  eden::Uid stream = *opened.value().Field("stream").AsUid();

  eden::ReadOnlyFilter::Options strip_options;
  strip_options.source = stream;
  eden::ReadOnlyFilter& strip = kernel.CreateLocal<eden::ReadOnlyFilter>(
      std::make_unique<eden::StripPrefixTransform>("C"), strip_options);

  eden::ReadOnlyFilter::Options paginate_options;
  paginate_options.source = strip.uid();
  eden::ReadOnlyFilter& paginate = kernel.CreateLocal<eden::ReadOnlyFilter>(
      std::make_unique<eden::PaginateTransform>(10, "prog.f"), paginate_options);

  eden::PrinterSink& printer = kernel.CreateLocal<eden::PrinterSink>();
  eden::Stats before = kernel.stats();
  printer.Print(paginate.uid(), eden::Value(std::string(eden::kChanOut)));
  kernel.RunUntil([&] { return printer.idle(); });
  eden::Stats eden_bill = kernel.stats() - before;

  std::printf("printed %zu page(s); first page:\n", printer.pages().size());
  for (const std::string& line : printer.pages().front()) {
    std::printf("  | %s\n", line.c_str());
  }

  // ---------------- The Unix way (Figure 1): same filters, active output,
  // passive buffers at every junction.
  eden::Kernel unix_kernel;
  eden::PipelineOptions unix_options;
  unix_options.discipline = eden::Discipline::kConventional;
  std::vector<eden::TransformFactory> stages = {
      [] { return std::make_unique<eden::StripPrefixTransform>("C"); },
      [] { return std::make_unique<eden::PaginateTransform>(10, "prog.f"); },
  };
  eden::ValueList input;
  for (const eden::Value& v : eden::SplitLines(MakeProgram(lines))) {
    input.push_back(v);
  }
  size_t n_items = input.size();
  eden::Stats unix_before = unix_kernel.stats();
  eden::ValueList unix_output =
      eden::RunPipeline(unix_kernel, std::move(input), stages, unix_options);
  eden::Stats unix_bill = unix_kernel.stats() - unix_before;

  std::printf("\n--- the §4 comparison (%zu input lines, 2 filters) ---\n", n_items);
  std::printf("%-22s %12s %12s\n", "", "read-only", "conventional");
  std::printf("%-22s %12llu %12llu\n", "invocations",
              static_cast<unsigned long long>(eden_bill.invocations_sent),
              static_cast<unsigned long long>(unix_bill.invocations_sent));
  std::printf("%-22s %12llu %12llu\n", "ejects created",
              static_cast<unsigned long long>(kernel.stats().ejects_created),
              static_cast<unsigned long long>(unix_kernel.stats().ejects_created));
  std::printf("%-22s %12llu %12llu\n", "context switches",
              static_cast<unsigned long long>(eden_bill.context_switches),
              static_cast<unsigned long long>(unix_bill.context_switches));
  std::printf("(predicted per-datum: n+1 = 3 vs 2n+2 = 6)\n");
  return 0;
}
