// Percentiles, peak memory and CPU steal.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench.hpp"

namespace ctkbench {

namespace {
bool g_hwm_reset = false;
} // namespace

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0), so the peak
    // covers the timed phase and not the references built before it.
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    g_hwm_reset = static_cast<bool>(out);
}

void trim_heap() {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

bool peak_rss_was_reset() { return g_hwm_reset; }

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0.0;
}

CpuTicks cpu_ticks() {
    // "cpu user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string label;
    CpuTicks ticks;
    if (!(in >> label) || label != "cpu") return ticks;
    for (int field = 0; field < 8; ++field) {
        unsigned long long value = 0;
        if (!(in >> value)) return CpuTicks{};
        ticks.total += value;
        if (field == 7) ticks.steal = value;
    }
    return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
    if (to.total <= from.total || to.steal < from.steal) return 0.0;
    return static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

} // namespace ctkbench
