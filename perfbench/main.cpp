// bsrbench — the broker-pipeline benchmark binary. run.py drives it:
//
//   bsrbench gen --seed N --dir D [--stress]
//       writes the seed's inputs into D (skipping files already there)
//   bsrbench run --workload W --seed N --seconds T --trace 0|1 --inputs D
//                [--out D]
//       runs workload W on those inputs; prints progress, then one JSON
//       result line last. Exit 0 = ran and every check passed, 1 = an
//       output check failed (the result line says which counts), 2 = bad
//       usage or an error before any result.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "inputs.hpp"
#include "pipeline.hpp"

namespace {

int usage() {
  std::cerr << "usage: bsrbench gen --seed N --dir D [--stress]\n"
               "       bsrbench run --workload W --seed N --seconds T --trace 0|1 "
               "--inputs D [--out D]\n";
  return 2;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("bad value for " + flag + ": " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  bool stress = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stress") {
      stress = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return usage();
    }
  }
  const auto need = [&](const char* flag) -> const std::string& {
    const auto it = flags.find(flag);
    if (it == flags.end()) throw std::invalid_argument(std::string("missing ") + flag);
    return it->second;
  };
  try {
    if (cmd == "gen") {
      bsr::perfbench::generate_inputs(need("--dir"), parse_u64("--seed", need("--seed")),
                                      stress);
      return 0;
    }
    if (cmd != "run") return usage();
    bsr::perfbench::RunConfig config;
    config.workload = need("--workload");
    config.seed = parse_u64("--seed", need("--seed"));
    const auto seconds = parse_u64("--seconds", need("--seconds"));
    const std::string trace = need("--trace");
    if (trace != "0" && trace != "1") return usage();
    config.sizes = bsr::perfbench::sizes_for(config.workload, static_cast<int>(seconds));
    config.inputs = bsr::perfbench::input_files(need("--inputs"));
    if (flags.count("--out") != 0) config.out_dir = flags["--out"];
    const auto result = bsr::perfbench::run_workload(config, trace == "1", std::cout);
    bsr::perfbench::write_result_line(std::cout, result);
    std::cout.flush();
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "bsrbench: " << e.what() << "\n";
    return 2;
  }
}
