#include "hybrid/reseed.hpp"

#include <vector>

#include "support/hash.hpp"

namespace lbist {

namespace {

/// Where a primary-input node sits in the module's operand ports.
struct PortBit {
  bool on_a = false;
  int bit = 0;
};

}  // namespace

std::optional<SeedPair> find_detecting_pattern(const ModuleNetlist& module,
                                               const GateFault& fault,
                                               int random_budget) {
  const int width = module.width;
  const std::uint32_t mask =
      width == 32 ? 0xFFFFFFFFu : ((std::uint32_t{1} << width) - 1);

  // Phase 1: exhaustive enumeration over the fault's input cone, against
  // three fixed backgrounds for the bits outside the cone.
  const std::vector<int> cone = fault_cone_inputs(module.netlist, fault.node);
  constexpr std::size_t kMaxConeBits = 12;
  if (!cone.empty() && cone.size() <= kMaxConeBits) {
    std::vector<PortBit> port_bits;
    port_bits.reserve(cone.size());
    for (int node : cone) {
      PortBit pb;
      bool found = false;
      for (int bit = 0; bit < width && !found; ++bit) {
        if (module.a[static_cast<std::size_t>(bit)] == node) {
          pb = PortBit{true, bit};
          found = true;
        } else if (module.b[static_cast<std::size_t>(bit)] == node) {
          pb = PortBit{false, bit};
          found = true;
        }
      }
      if (!found) continue;  // input outside the operand ports (unused tie)
      port_bits.push_back(pb);
    }
    const std::uint32_t alternating = 0x55555555u & mask;
    const std::uint32_t backgrounds[3] = {0u, mask, alternating};
    const std::uint32_t combos = std::uint32_t{1} << port_bits.size();
    for (const std::uint32_t bg : backgrounds) {
      for (std::uint32_t c = 0; c < combos; ++c) {
        std::uint32_t a = bg;
        std::uint32_t b = bg;
        for (std::size_t i = 0; i < port_bits.size(); ++i) {
          const std::uint32_t bit = std::uint32_t{1}
                                    << port_bits[i].bit;
          std::uint32_t& word = port_bits[i].on_a ? a : b;
          if ((c >> i) & 1u) {
            word |= bit;
          } else {
            word &= ~bit;
          }
        }
        if (pattern_detects_fault(module, a, b, fault)) {
          return SeedPair{a, b};
        }
      }
    }
  }

  // Phase 2: fixed pseudo-random probing keyed by the fault site, so the
  // search is reproducible and independent of who asks first.
  std::uint64_t rng = 0xB15D0000u ^
                      (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(fault.node))
                       << 1) ^
                      (fault.stuck_one ? 1u : 0u);
  for (int i = 0; i < random_budget; ++i) {
    const std::uint64_t r = splitmix64(rng);
    const std::uint32_t a = static_cast<std::uint32_t>(r) & mask;
    const std::uint32_t b = static_cast<std::uint32_t>(r >> 32) & mask;
    if (pattern_detects_fault(module, a, b, fault)) {
      return SeedPair{a, b};
    }
  }
  return std::nullopt;
}

}  // namespace lbist
