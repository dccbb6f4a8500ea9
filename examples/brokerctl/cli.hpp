// Shared plumbing of the brokerctl subcommands: the flag parser, the
// output-file helper, numeric operands, artifact loaders and the selection
// front end. main.cpp dispatches to one file per command group.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <list>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/broker_set.hpp"
#include "broker/maxsg.hpp"
#include "graph/fault_plane.hpp"
#include "io/env.hpp"
#include "io/table.hpp"
#include "obs/export.hpp"
#include "topology/serialization.hpp"

namespace brokerctl {

using bsr::broker::BrokerSet;

/// A bad command line: dispatch() prints it with the synopsis and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One subcommand's flags (by name, without "--"; a switch maps to "") and
/// operands. After a stop_at_operand parse, `rest` is the argv index of the
/// first operand (argc if none).
struct Args {
  std::vector<std::string> operands;
  std::map<std::string, std::string, std::less<>> flags;
  int rest = 0;

  /// The value of `--flag`, or "" when it was not given.
  [[nodiscard]] std::string value(std::string_view flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? std::string() : it->second;
  }
  [[nodiscard]] bool has(std::string_view flag) const {
    return flags.contains(flag);
  }
};

/// Parses argv[first, argc). A value flag takes `--name=value` or
/// `--name value`; a switch takes no value. An unknown flag, or a value flag
/// whose value is missing or empty, throws UsageError naming the flag. With
/// `stop_at_operand` (the stats and record wrappers) parsing ends at the
/// first operand; otherwise flags and operands may mix.
Args parse_args(int argc, char** argv, int first,
                std::initializer_list<std::string_view> value_flags,
                std::initializer_list<std::string_view> switches = {},
                bool stop_at_operand = false);

/// The files one subcommand writes. open() creates each requested path
/// before the run, so an unwritable path fails fast; close() flushes and
/// checks them all after it.
class OutputFiles {
 public:
  explicit OutputFiles(std::string cmd) : cmd_(std::move(cmd)) {}
  /// nullptr for an empty path; throws std::runtime_error("cannot open ...").
  std::ostream* open(const std::string& path) {
    if (path.empty()) return nullptr;
    File& file = files_.emplace_back();
    file.path = path;
    file.out.open(path, std::ios::trunc);
    if (!file.out) throw std::runtime_error("cannot open " + path);
    return &file.out;
  }
  /// A failed write prints "failed writing <path>" and turns rc 0 into 1;
  /// an earlier nonzero rc is never masked.
  int close(int rc) {
    for (File& file : files_) {
      file.out.flush();
      if (!file.out) {
        std::cerr << "brokerctl " << cmd_ << ": failed writing " << file.path
                  << '\n';
        if (rc == 0) rc = 1;
      } else {
        std::cerr << cmd_ << ": wrote " << file.path << '\n';
      }
    }
    return rc;
  }

 private:
  struct File {
    std::string path;
    std::ofstream out;
  };
  std::string cmd_;
  std::list<File> files_;
};

/// Reads a recorded artifact back with `read` (bsr::obs::read_events_jsonl or
/// read_qtrace_jsonl). Throws std::runtime_error naming the path and, for a
/// malformed file, the line: both exit 1.
template <class Reader>
auto load_artifact(const std::string& path, Reader read) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  try {
    return read(in);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

/// Parses a positive integer operand; throws with the operand's name and the
/// offending text (stoul alone would accept "12abc" and wrap "-5").
std::uint32_t parse_u32(const std::string& what, const std::string& text);
/// Parses a floating-point operand in (0, hi]; same diagnostics contract.
double parse_positive_double(const std::string& what, const std::string& text,
                             double hi);

BrokerSet run_algorithm(const bsr::topology::InternetTopology& topo,
                        const std::string& algo, std::uint32_t k,
                        std::uint64_t seed);
/// Verdict block shared by the live (`serve --slo`) and offline (`slo`)
/// evaluators.
void print_slo_summary(const bsr::obs::SloReport& report);

int usage();
[[nodiscard]] bool known_subcommand(std::string_view cmd);
/// Runs the subcommand named by argv[first], which sees it as argv[1].
int dispatch(int argc, char** argv, int first = 1);

// Subcommands, by file; each sees argv[1] = its own name.
int cmd_gen(int argc, char** argv);  // topology.cpp
int cmd_import_caida(int argc, char** argv);
int cmd_export_dot(int argc, char** argv);
int cmd_dataset_stats(const std::string& path);
int cmd_topo(int argc, char** argv);
int cmd_select(int argc, char** argv, bool full_eval);  // selection.cpp
int cmd_faults(int argc, char** argv);
int cmd_robust(int argc, char** argv);
int cmd_serve(int argc, char** argv);  // serve.cpp
int cmd_health(int argc, char** argv);
int cmd_stats(int argc, char** argv);  // telemetry.cpp
int cmd_record(int argc, char** argv);
int cmd_report(int argc, char** argv);
int cmd_slo(int argc, char** argv);
int cmd_episodes(int argc, char** argv);

}  // namespace brokerctl
