// brokerctl — command-line front end for the broker-set toolkit. usage()
// below is the synopsis; each command group lives in its own file.
#include "cli.hpp"
#include "graph/engine.hpp"

namespace brokerctl {

int usage() {
  std::cerr
      << "usage:\n"
         "  brokerctl gen <out.topo> [scale]\n"
         "  brokerctl import-caida <as-rel.txt> <out.topo> [ixp-members.txt]\n"
         "  brokerctl select <in.topo> <maxsg|mcbg|greedy|db|prb|weighted> <k>\n"
         "  brokerctl eval <in.topo> <algo> <k>\n"
         "  brokerctl export-dot <in.topo> <out.dot> [k]\n"
         "  brokerctl stats <in.topo>\n"
         "  brokerctl stats [--stats-out=<file>] <subcommand> [args...]\n"
         "  brokerctl faults <in.topo> <algo> <k> [max-failed-ixp-frac]\n"
         "  brokerctl health <in.topo> <algo> <k> [probe-interval]\n"
         "  brokerctl serve <in.topo> <k> [--queries <n>] [--churn <events>]\n"
         "                  [--slo <spec>] [--slo-out <f>] [--qtrace-out <f>]\n"
         "                  [--episodes-out <f>]\n"
         "  brokerctl slo [--spec=<spec>] [--out=<f>] <events.jsonl>\n"
         "  brokerctl episodes [--qtrace=<f>] [--out=<f>] [--trace-out=<f>]\n"
         "                     [--top=<n>] <events.jsonl>\n"
         "  brokerctl robust [--groups] <in.topo> <k> [r]\n"
         "  brokerctl record [--events-out=<f>] [--series-out=<f>]\n"
         "                   [--trace-out=<f>] [--interval=<dt>] <subcommand> "
         "[args...]\n"
         "  brokerctl report <events.jsonl> [--window=<w>]\n"
         "  brokerctl topo [--scale <s>]\n"
         "Value flags take --name=<v> or --name <v>. Exit codes: 0 success, 1 "
         "runtime\nfailure (bad file, value or artifact), 2 usage error.\n";
  return 2;
}

namespace {

using Command = int (*)(int argc, char** argv);

Command find_command(std::string_view name) {
  static const std::map<std::string_view, Command> kCommands = {
      {"gen", cmd_gen},
      {"import-caida", cmd_import_caida},
      {"select", [](int argc, char** argv) { return cmd_select(argc, argv, false); }},
      {"eval", [](int argc, char** argv) { return cmd_select(argc, argv, true); }},
      {"export-dot", cmd_export_dot},
      {"stats", cmd_stats},
      {"faults", cmd_faults},
      {"health", cmd_health},
      {"serve", cmd_serve},
      {"robust", cmd_robust},
      {"record", cmd_record},
      {"report", cmd_report},
      {"slo", cmd_slo},
      {"episodes", cmd_episodes},
      {"topo", cmd_topo}};
  const auto it = kCommands.find(name);
  return it == kCommands.end() ? nullptr : it->second;
}

}  // namespace

bool known_subcommand(std::string_view cmd) {
  return find_command(cmd) != nullptr;
}

int dispatch(int argc, char** argv, int first) {
  argc -= first - 1;  // argv[first] becomes the command's argv[1]
  argv += first - 1;
  const std::string cmd = argv[1];
  const Command command = find_command(cmd);
  if (command == nullptr) {
    std::cerr << "brokerctl: unknown subcommand '" << cmd << "'\n";
    return usage();
  }
  try {
    return command(argc, argv);
  } catch (const UsageError& error) {
    std::cerr << "brokerctl " << cmd << ": " << error.what() << '\n';
    return usage();
  }
}

}  // namespace brokerctl

int main(int argc, char** argv) {
  if (argc < 2) return brokerctl::usage();
  try {
    // Reads BSR_THREADS up front, so a malformed value fails every
    // subcommand, not only those that shard.
    (void)bsr::graph::engine::num_threads();
    return brokerctl::dispatch(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "brokerctl: " << error.what() << '\n';
    return 1;
  }
}
