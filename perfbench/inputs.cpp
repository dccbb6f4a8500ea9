#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "broker/maxsg.hpp"
#include "graph/rng.hpp"
#include "topology/internet.hpp"
#include "topology/serialization.hpp"

namespace bsr::perfbench {

using bsr::graph::NodeId;

namespace {

constexpr std::uint64_t kSaltTopo1 = 1;
constexpr std::uint64_t kSaltTopo10 = 2;
constexpr std::uint64_t kSaltFlows1 = 3;
constexpr std::uint64_t kSaltFlows10 = 4;
constexpr std::uint64_t kSaltChurn = 5;
constexpr std::uint64_t kSaltCrash = 6;

/// Landmark ranks the schedule draws its roles from (RouteService keeps 16).
constexpr std::uint32_t kRanks = 16;

void publish(const std::string& tmp, const std::string& path) {
  std::filesystem::rename(tmp, path);
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode = std::ios::out) {
  std::ofstream out(path, mode | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  return out;
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode = std::ios::in) {
  std::ifstream in(path, mode);
  if (!in) throw std::runtime_error("cannot read " + path);
  return in;
}

void write_broker_list(const std::string& path, const std::vector<NodeId>& ids) {
  std::ofstream out = open_out(path);
  for (const NodeId v : ids) out << v << '\n';
  if (!out.flush()) throw std::runtime_error("failed writing " + path);
}

void write_flows(const std::string& path, const std::vector<bsr::sim::Flow>& flows) {
  std::ofstream out = open_out(path, std::ios::binary);
  const std::uint64_t n = flows.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(flows.data()),
            static_cast<std::streamsize>(flows.size() * sizeof(bsr::sim::Flow)));
  if (!out.flush()) throw std::runtime_error("failed writing " + path);
}

void write_churn(const std::string& path, const ChurnSchedule& s) {
  std::ofstream out = open_out(path);
  out << "perfbench-churn v1\ncycle_steps " << kCycleSteps << "\ncrash_seed " << s.crash_seed
      << '\n';
  for (const std::uint64_t a : s.audits) out << "audit " << a << '\n';
  for (const ChurnEvent& e : s.events) {
    out << "event " << e.step << (e.fail ? " fail " : " heal ") << e.rank << '\n';
  }
  if (!out.flush()) throw std::runtime_error("failed writing " + path);
}

ChurnSchedule make_churn_schedule(std::uint64_t seed, std::uint32_t cycles) {
  ChurnSchedule s;
  s.crash_seed = derive_seed(seed, kSaltCrash);
  bsr::graph::Rng rng(derive_seed(seed, kSaltChurn));
  for (std::uint32_t c = 0; c < cycles; ++c) {
    std::array<std::uint32_t, kRanks> ranks{};
    std::iota(ranks.begin(), ranks.end(), 0U);
    for (std::uint32_t i = kRanks - 1; i > 0; --i) {
      std::swap(ranks[i], ranks[rng.uniform(i + 1)]);
    }
    const std::uint64_t base = std::uint64_t{c} * kCycleSteps;
    const auto [a, b, cc, d, e, f] =
        std::array{ranks[0], ranks[1], ranks[2], ranks[3], ranks[4], ranks[5]};
    const ChurnEvent cycle[] = {
        {base + 0, true, a},   {base + 250, false, a}, {base + 350, true, b},
        {base + 355, true, cc}, {base + 380, false, b}, {base + 600, false, cc},
        {base + 700, true, d},  {base + 702, true, e},  {base + 704, true, f},
        {base + 900, false, d}, {base + 901, false, e}, {base + 902, false, f},
    };
    s.events.insert(s.events.end(), std::begin(cycle), std::end(cycle));
    s.audits.push_back(base + rng.uniform(kCycleSteps));
  }
  return s;
}

/// Writes a topology and its flow pool unless both exist; returns the
/// topology when it had to be generated or loaded, for the broker plan.
bsr::topology::InternetTopology save_topology_and_flows(const std::string& topo_path,
                                                        const std::string& flows_path,
                                                        double scale,
                                                        std::uint64_t topo_seed,
                                                        std::uint64_t flow_seed,
                                                        std::size_t pool) {
  bsr::topology::InternetTopology topo;
  if (std::filesystem::exists(topo_path)) {
    if (std::filesystem::exists(flows_path)) return topo;
    topo = bsr::topology::load_topology_file(topo_path);
  } else {
    auto config = bsr::topology::InternetConfig{}.scaled(scale);
    config.seed = topo_seed;
    topo = bsr::topology::make_internet(config);
    bsr::topology::save_topology_file(topo_path + ".tmp", topo);
    publish(topo_path + ".tmp", topo_path);
  }
  if (!std::filesystem::exists(flows_path)) {
    bsr::sim::DemandConfig demand;
    demand.num_flows = pool;
    bsr::graph::Rng rng(flow_seed);
    write_flows(flows_path + ".tmp", bsr::sim::generate_flows(topo.graph, demand, rng));
    publish(flows_path + ".tmp", flows_path);
  }
  return topo;
}

/// Writes the MaxSG broker list of the topology at `topo_path` (k = `k`, or
/// planned_broker_count when 0) unless it exists; `topo` is that topology
/// when the caller already holds it, else empty.
void save_broker_plan(const std::string& path, const std::string& topo_path,
                      bsr::topology::InternetTopology topo, std::uint32_t k) {
  if (std::filesystem::exists(path)) return;
  if (topo.num_vertices() == 0) topo = bsr::topology::load_topology_file(topo_path);
  const auto plan =
      bsr::broker::maxsg(topo.graph, k != 0 ? k : planned_broker_count(topo.num_vertices()));
  const auto members = plan.brokers.members();
  write_broker_list(path + ".tmp", {members.begin(), members.end()});
  publish(path + ".tmp", path);
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t planned_broker_count(NodeId n) noexcept {
  return std::max<std::uint32_t>(8, n / 100);
}

InputFiles input_files(const std::string& dir) {
  const std::filesystem::path d(dir);
  return InputFiles{(d / "topo1.topo").string(),   (d / "brokers1.txt").string(),
                    (d / "flows1.bin").string(),   (d / "churn.txt").string(),
                    (d / "topo10.topo").string(),  (d / "brokers10.txt").string(),
                    (d / "flows10.bin").string()};
}

void generate_inputs(const std::string& dir, std::uint64_t seed, bool stress,
                     double scale, std::size_t pool) {
  std::filesystem::create_directories(dir);
  const InputFiles f = input_files(dir);
  auto topo = save_topology_and_flows(f.topo1, f.flows1, scale, derive_seed(seed, kSaltTopo1),
                                      derive_seed(seed, kSaltFlows1), pool);
  save_broker_plan(f.brokers1, f.topo1, std::move(topo), 0);
  if (!std::filesystem::exists(f.churn)) {
    write_churn(f.churn + ".tmp", make_churn_schedule(seed, kMaxCycles));
    publish(f.churn + ".tmp", f.churn);
  }
  if (stress) {
    auto topo10 = save_topology_and_flows(f.topo10, f.flows10, 10.0 * scale,
                                          derive_seed(seed, kSaltTopo10),
                                          derive_seed(seed, kSaltFlows10), pool);
    save_broker_plan(f.brokers10, f.topo10, std::move(topo10), kStressBrokers);
  }
}

std::vector<NodeId> read_broker_list(const std::string& path) {
  std::ifstream in = open_in(path);
  std::vector<NodeId> ids;
  NodeId v = 0;
  while (in >> v) ids.push_back(v);
  if (!in.eof()) throw std::runtime_error("malformed broker list " + path);
  return ids;
}

std::vector<bsr::sim::Flow> read_flows(const std::string& path) {
  std::ifstream in = open_in(path, std::ios::binary);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  const auto bytes = std::filesystem::file_size(path);
  if (!in || bytes != sizeof n + n * sizeof(bsr::sim::Flow)) {
    throw std::runtime_error("malformed flow pool " + path);
  }
  std::vector<bsr::sim::Flow> flows(n);
  in.read(reinterpret_cast<char*>(flows.data()),
          static_cast<std::streamsize>(n * sizeof(bsr::sim::Flow)));
  if (!in) throw std::runtime_error("truncated flow pool " + path);
  return flows;
}

ChurnSchedule read_churn(const std::string& path) {
  std::ifstream in = open_in(path);
  std::string magic, version, key;
  if (!(in >> magic >> version) || magic != "perfbench-churn" || version != "v1") {
    throw std::runtime_error("not a churn schedule: " + path);
  }
  ChurnSchedule s;
  while (in >> key) {
    if (key == "cycle_steps") {
      std::uint32_t steps = 0;
      in >> steps;
      if (steps != kCycleSteps) in.setstate(std::ios::failbit);
    } else if (key == "crash_seed") {
      in >> s.crash_seed;
    } else if (key == "audit") {
      s.audits.emplace_back();
      in >> s.audits.back();
    } else if (key == "event") {
      ChurnEvent e;
      std::string kind;
      in >> e.step >> kind >> e.rank;
      if (kind != "fail" && kind != "heal") in.setstate(std::ios::failbit);
      e.fail = kind == "fail";
      if (e.rank >= kRanks) in.setstate(std::ios::failbit);
      s.events.push_back(e);
    } else {
      in.setstate(std::ios::failbit);
    }
    if (!in) throw std::runtime_error("malformed churn schedule " + path);
  }
  return s;
}

}  // namespace bsr::perfbench
