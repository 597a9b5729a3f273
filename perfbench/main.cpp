// ftspm_perfbench: the benchmark binary behind perfbench/run.py.
//
//   ftspm_perfbench --workload W --seed N --seconds S --trace 0|1
//                   --pinned perfbench/pinned.json [--scratch DIR]
//                   [--smoke] [--git-sha SHA] [--source-digest HEX]
//   ftspm_perfbench --print-pinned
//
// Prints a run manifest, a human-readable metric table, and as its last
// line one JSON object {correct, attempted, failed, metrics}. Exits 1
// when any output check failed, 2 on bad usage or a build that must
// not be timed.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "perfbench.h"

#include "ftspm/ecc/secded_codec.h"
#include "ftspm/util/version.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "ftspm_perfbench: " << why
            << "\nusage: ftspm_perfbench --workload "
               "bulk_static|bulk_recovery|served_small|paper_pipeline "
               "--seed N --seconds S --trace 0|1 --pinned FILE "
               "[--scratch DIR] [--smoke] [--git-sha SHA] "
               "[--source-digest HEX]\n"
               "       ftspm_perfbench --print-pinned\n";
  return 2;
}

std::uint64_t parse_u64(std::string_view flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used, 0);
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::invalid_argument(std::string(flag) + " needs an unsigned integer");
  return v;
}

void print_manifest(const Options& opts) {
  ftspm::JsonWriter w;
  w.begin_object()
      .field("git_sha", opts.git_sha)
      .field("source_digest", opts.source_digest)
      .field("library_version", ftspm::kLibraryVersion)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("fold_backend", ftspm::SecDedCodec::fold_backend())
      .field("workload", opts.workload)
      .field("seed", opts.seed)
      .field("seconds", opts.seconds)
      .field("trace", opts.trace)
      .field("smoke", opts.smoke)
      .end_object();
  std::cout << "manifest " << w.str() << '\n';
}

void print_result(const Report& report) {
  for (const Report::Metric& m : report.metrics())
    std::cout << "  " << m.name << " = " << ftspm::JsonWriter::number(m.value)
              << ' ' << m.unit << '\n';
  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted(), 1);
  std::cout << "error_rate = "
            << static_cast<double>(report.failed()) /
                   static_cast<double>(attempted)
            << " (" << report.failed() << " of " << attempted << ")\n";
  for (const std::string& f : report.failures())
    std::cout << "  FAILED: " << f << '\n';

  ftspm::JsonWriter w;
  w.begin_object()
      .field("correct", report.failed() == 0)
      .field("attempted", attempted)
      .field("failed", report.failed());
  w.begin_object("metrics");
  for (const Report::Metric& m : report.metrics()) {
    w.begin_object(m.name)
        .field("value", std::isfinite(m.value) ? m.value : 0.0)
        .field("unit", m.unit)
        .end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool print_pins = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(std::string(arg) + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = parse_u64(arg, value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
        if (!(opts.seconds > 0.0 && opts.seconds <= 600.0))
          throw std::invalid_argument("--seconds must be in (0, 600]");
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1")
          throw std::invalid_argument("--trace takes 0 or 1");
        opts.trace = t == "1";
      } else if (arg == "--pinned") {
        opts.pinned_path = value();
      } else if (arg == "--scratch") {
        opts.scratch_dir = value();
      } else if (arg == "--git-sha") {
        opts.git_sha = value();
      } else if (arg == "--source-digest") {
        opts.source_digest = value();
      } else if (arg == "--smoke") {
        opts.smoke = true;
      } else if (arg == "--print-pinned") {
        print_pins = true;
      } else {
        throw std::invalid_argument(
            std::string("unknown argument '").append(arg).append("'"));
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

#ifndef NDEBUG
  // Assertions on means an unoptimised or debug configuration: its
  // times would mislead any comparison.
  std::cerr << "ftspm_perfbench: refusing to time a build with assertions "
               "enabled (build type "
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 2;
#endif

  if (print_pins) {
    print_pinned();
    return 0;
  }
  if (opts.workload.empty()) return usage("--workload is required");
  if (opts.pinned_path.empty()) return usage("--pinned is required");

  try {
    print_manifest(opts);
    const Pinned pinned(opts.pinned_path);
    Report report;
    run_benchmark(opts, pinned, report);
    print_result(report);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "ftspm_perfbench: " << e.what() << '\n';
    return 1;
  }
}
