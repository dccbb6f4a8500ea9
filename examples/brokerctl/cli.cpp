#include "cli.hpp"

#include <limits>

#include "broker/baselines.hpp"
#include "broker/greedy_mcb.hpp"
#include "broker/mcbg_approx.hpp"
#include "broker/weighted.hpp"

namespace brokerctl {

Args parse_args(int argc, char** argv, int first,
                std::initializer_list<std::string_view> value_flags,
                std::initializer_list<std::string_view> switches,
                bool stop_at_operand) {
  const auto listed = [](auto names, std::string_view flag) {
    return std::find(names.begin(), names.end(), flag) != names.end();
  };
  Args args;
  int& i = args.rest;  // ends at the first argument left unparsed
  for (i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (stop_at_operand) break;
      args.operands.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag(arg.substr(2, eq - 2));  // npos - 2 clamps
    if (eq == arg.npos && listed(switches, flag)) {
      args.flags[flag];
      continue;
    }
    if (!listed(value_flags, flag)) {
      throw UsageError("unknown flag '" + std::string(arg) + "'");
    }
    std::string value(eq != arg.npos ? arg.substr(eq + 1)
                      : i + 1 < argc ? argv[++i]
                                     : "");
    if (value.empty()) throw UsageError("--" + flag + " needs a value");
    args.flags[flag] = std::move(value);
  }
  return args;
}

std::uint32_t parse_u32(const std::string& what, const std::string& text) {
  std::size_t pos = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || value <= 0 ||
      value > static_cast<long long>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::runtime_error(what + " must be a positive integer, got '" + text +
                             "'");
  }
  return static_cast<std::uint32_t>(value);
}

double parse_positive_double(const std::string& what, const std::string& text,
                             double hi) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || !(value > 0.0) || value > hi) {
    throw std::runtime_error(what + " must be a number in (0, " +
                             bsr::io::format_double(hi, 1) + "], got '" + text +
                             "'");
  }
  return value;
}

bsr::broker::BrokerSet run_algorithm(
    const bsr::topology::InternetTopology& topo, const std::string& algo,
                        std::uint32_t k, std::uint64_t seed) {
  const auto& g = topo.graph;
  if (algo == "maxsg") return bsr::broker::maxsg(g, k).brokers;
  if (algo == "mcbg") {
    bsr::broker::McbgOptions options;
    options.max_roots = 16;
    return bsr::broker::mcbg_approx(g, k, options).brokers;
  }
  if (algo == "greedy") return bsr::broker::greedy_mcb(g, k).brokers;
  if (algo == "db") return bsr::broker::db_top_degree(g, k);
  if (algo == "prb") return bsr::broker::prb_top_pagerank(g, k);
  if (algo == "weighted") {
    // Gravity traffic weights, as in ablation_weighted.
    bsr::graph::Rng rng(seed);
    std::vector<double> weight(g.num_vertices());
    for (bsr::graph::NodeId v = 0; v < g.num_vertices(); ++v) {
      weight[v] = topo.is_ixp(v) ? 0.0 : rng.pareto(1.1, 1.0, 5000.0);
    }
    return bsr::broker::weighted_greedy_mcb(g, k, weight).brokers;
  }
  throw std::runtime_error("unknown algorithm '" + algo +
                           "' (valid: maxsg mcbg greedy db prb weighted)");
}

void print_slo_summary(const bsr::obs::SloReport& report) {
  std::cout << "slo: " << report.samples << " samples, " << report.breaches
            << " breach episode(s), " << report.recovers << " recovered"
            << (report.in_breach ? ", STILL IN BREACH" : "") << "\n";
  for (const auto& obj : report.objectives) {
    if (!obj.enabled) continue;
    std::cout << "  " << obj.name << ": worst burn "
              << bsr::io::format_double(obj.worst_short_burn, 2)
              << " (short) / "
              << bsr::io::format_double(obj.worst_long_burn, 2) << " (long)"
              << (obj.first_breach_time >= 0.0
                      ? ", first breach at t=" +
                            bsr::io::format_double(obj.first_breach_time, 2)
                      : "")
              << "\n";
  }
}

}  // namespace brokerctl
