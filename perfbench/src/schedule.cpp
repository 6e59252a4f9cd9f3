// The op schedule: a fixed multiset of ops per round, permuted by the
// seed. Nothing here may let the seed change which work is done — the
// selftest checks two seeds against each other.
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"
#include "core/kb.hpp"

namespace ctkbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Fisher-Yates with our own generator, so the order is the same on
/// every standard library.
void shuffle(std::vector<Op>& ops, std::uint64_t seed, std::uint64_t stream,
             std::uint64_t unit) {
    std::uint64_t state = seed;
    state = splitmix64(state) ^ (stream * 0xD1B54A32D192ED03ULL);
    state = splitmix64(state) ^ (unit * 0x8CB92BA72F3D8DD7ULL);
    for (std::size_t i = ops.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
        std::swap(ops[i - 1], ops[j]);
    }
}

} // namespace

Workload parse_workload(const std::string& name) {
    if (name == "kb-cold") return Workload::KbCold;
    if (name == "kb-regrade") return Workload::KbRegrade;
    if (name == "ctkd-mix") return Workload::CtkdMix;
    throw std::invalid_argument("unknown workload '" + name +
                                "' (kb-cold, kb-regrade, ctkd-mix)");
}

const char* op_class_name(OpClass cls) {
    switch (cls) {
    case OpClass::KbCold: return "kb-cold";
    case OpClass::KbRegrade: return "kb-regrade";
    case OpClass::KbWarm: return "kb-warm";
    case OpClass::Gate: return "gate";
    }
    return "?";
}

std::size_t regrade_copies() {
    return kRegradeCopiesPerFamily * ctk::core::kb::families().size();
}

std::size_t rounds_per_window(Workload workload) {
    // About half a second to a second of ops per window on a 4-core box.
    return workload == Workload::KbCold ? 32 : 1;
}

std::vector<Op> round_ops(Workload workload, std::uint64_t seed,
                          std::size_t stream, std::size_t round) {
    std::vector<Op> ops;
    switch (workload) {
    case Workload::KbCold:
        ops.push_back({OpClass::KbCold, 0});
        break;
    case Workload::KbRegrade:
        for (std::size_t c = 0; c < regrade_copies(); ++c)
            ops.push_back({OpClass::KbRegrade, c});
        shuffle(ops, seed, stream, round);
        break;
    case Workload::CtkdMix:
        // Cycle k of the round sends gate netlist (k + 2 * stream) mod 4:
        // a fixed rotation, so a round holds every netlist once and the
        // two clients start it at different netlists.
        for (std::size_t k = 0; k < kGateNetlists; ++k) {
            std::vector<Op> cycle(kWarmPerCycle, Op{OpClass::KbWarm, 0});
            cycle.push_back({OpClass::Gate, (k + 2 * stream) % kGateNetlists});
            shuffle(cycle, seed, stream, round * kGateNetlists + k);
            ops.insert(ops.end(), cycle.begin(), cycle.end());
        }
        break;
    }
    return ops;
}

std::string op_tag(std::uint64_t seed, std::size_t op_index) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "op %08zx.%016llx", op_index,
                  static_cast<unsigned long long>(seed));
    return buf;
}

} // namespace ctkbench
