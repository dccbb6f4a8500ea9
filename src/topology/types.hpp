// Node metadata for the AS-level Internet topology.
//
// The paper classifies brokers by offered service (Table 5 / Fig. 5a) using
// the taxonomy of [33]: transit/access providers, content networks,
// enterprise networks, and IXPs treated as independent entities.
#pragma once

#include <cstdint>
#include <string_view>

namespace bsr::topology {

enum class NodeType : std::uint8_t {
  kTransitAccess,  // "T/A" — ISPs selling transit and/or access
  kContent,        // "C"   — content providers / CDNs
  kEnterprise,     // "E"   — enterprise / stub business networks
  kIxp,            // independent Internet eXchange Point entity
};

[[nodiscard]] constexpr std::string_view to_string(NodeType type) noexcept {
  switch (type) {
    case NodeType::kTransitAccess: return "T/A";
    case NodeType::kContent: return "C";
    case NodeType::kEnterprise: return "E";
    case NodeType::kIxp: return "IXP";
  }
  return "?";
}

/// AS hierarchy level. Tier 1 forms the peering clique at the top; stubs buy
/// transit only. IXPs carry kTierNone.
enum class Tier : std::uint8_t {
  kTierNone = 0,  // IXPs
  kTier1 = 1,
  kTier2 = 2,
  kTier3 = 3,
  kStub = 4,
};

struct NodeMeta {
  NodeType type = NodeType::kEnterprise;
  Tier tier = Tier::kStub;

  friend constexpr bool operator==(const NodeMeta&, const NodeMeta&) = default;
};

}  // namespace bsr::topology
