// ctkbench entry point: one workload per process.
//
//   ctkbench --workload kb-cold|kb-regrade|ctkd-mix --seed N --seconds S
//            --trace 0|1 [--sha SHA] [--tmp DIR]
//
// Prints a stamp line, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exit 0 when
// every op matched its reference, 1 on a mismatch, 2 on a usage or
// set-up error (no result line).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef CTKBENCH_BUILD_TYPE
#define CTKBENCH_BUILD_TYPE "unknown"
#endif

namespace ctkbench {

namespace {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// Steal share up to which a window counts as calm.
constexpr double kCalmSteal = 0.02;

using Calm = std::map<std::size_t, std::vector<const Window*>>;

/// Per stream, the windows the end-to-end figures are taken over: those
/// during which the hypervisor took at most kCalmSteal of the host's CPU
/// time, or, when fewer than a quarter of the stream's windows were that
/// calm, the quarter with the least steal. Ops in a window whose vCPUs
/// were preempted wait for the host, not for the program; a change to
/// the program moves calm and stolen windows alike.
Calm calm_windows(const Run& run) {
    Calm calm;
    for (const Window& w : run.windows) calm[w.stream].push_back(&w);
    for (auto& [stream, windows] : calm) {
        std::stable_sort(windows.begin(), windows.end(),
                         [](const Window* a, const Window* b) {
                             return a->steal_share < b->steal_share;
                         });
        const auto quiet = static_cast<std::size_t>(std::count_if(
            windows.begin(), windows.end(), [](const Window* w) {
                return w->steal_share <= kCalmSteal;
            }));
        windows.resize(std::max(quiet, (windows.size() + 3) / 4));
    }
    return calm;
}

/// Median over the calm windows of a latency percentile of each
/// window's primary ops.
double latency(const Calm& calm, double q) {
    std::vector<double> per_window;
    for (const auto& [stream, windows] : calm)
        for (const Window* w : windows)
            if (!w->primary_ms.empty())
                per_window.push_back(percentile(w->primary_ms, q));
    return median(std::move(per_window));
}

/// Rate of `count` per second: per stream the median over its calm
/// windows, summed over the streams, which run side by side.
template <class Count> double rate(const Calm& calm, Count count) {
    double sum = 0.0;
    for (const auto& [stream, windows] : calm) {
        std::vector<double> rates;
        for (const Window* w : windows)
            if (w->wall_s > 0.0)
                rates.push_back(static_cast<double>(count(*w)) / w->wall_s);
        sum += median(std::move(rates));
    }
    return sum;
}

std::size_t calm_count(const Run& run) {
    std::size_t n = 0;
    for (const auto& [stream, windows] : calm_windows(run)) n += windows.size();
    return n;
}

std::vector<Metric> end_to_end(const Run& run) {
    const double attempted =
        run.attempted > 0 ? static_cast<double>(run.attempted) : 1.0;
    const Calm calm = calm_windows(run);
    return {
        {"setup_s", median(run.setup_s), "s"},
        {"op_p50_ms", latency(calm, 0.5), "ms"},
        {"op_p90_ms", latency(calm, 0.9), "ms"},
        {"ops_per_s", rate(calm, [](const Window& w) { return w.ops; }),
         "1/s"},
        {"faults_per_s", rate(calm, [](const Window& w) { return w.faults; }),
         "1/s"},
        {"peak_rss_mb", median(run.epoch_rss_mb), "MB"},
        {"ok_frac", static_cast<double>(run.attempted - run.failed) / attempted,
         "ratio"},
    };
}

std::vector<Metric> per_layer(const Run& run) {
    const Layers& l = run.layers;
    const double kb = run.traced_kb_ops > 0
                          ? static_cast<double>(run.traced_kb_ops)
                          : 1.0;
    const double gate = run.traced_gate_ops > 0
                            ? static_cast<double>(run.traced_gate_ops)
                            : 1.0;
    auto per_kb = [&](const char* key) { return l.get(key) / kb; };
    auto per_gate = [&](const char* key) { return l.get(key) / gate; };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double untraced = percentile(run.untraced_primary_ms, 0.5);
    const double traced = percentile(run.traced_primary_ms, 0.5);
    return {
        {"lockstep.capture_ms", per_kb("lockstep.capture_ms"), "ms"},
        {"lockstep.build_ms", per_kb("lockstep.build_ms"), "ms"},
        {"lockstep.evaluate_ms", per_kb("lockstep.evaluate_ms"), "ms"},
        {"lockstep.captures", per_kb("lockstep.captures"), "count"},
        {"lockstep.lanes_per_capture",
         ratio(l.get("lockstep.lanes"), l.get("lockstep.captures")), "count"},
        {"golden.run_ms", per_kb("golden.run_ms"), "ms"},
        {"golden.runs", per_kb("golden.runs"), "count"},
        {"store.hash_ms", per_kb("store.hash_ms"), "ms"},
        {"store.consult_ms", per_kb("store.consult_ms"), "ms"},
        {"store.hit_ratio", ratio(l.get("store.hits"), l.get("store.consulted")),
         "ratio"},
        {"store.load_ms", per_kb("store.load_ms"), "ms"},
        {"store.save_ms", per_kb("store.save_ms"), "ms"},
        {"store.pairs", per_kb("store.pairs"), "count"},
        {"store.mb", per_kb("store.mb"), "MB"},
        {"plan.compile_ms", per_kb("plan.compile_ms"), "ms"},
        {"report.csv_ms", per_kb("report.csv_ms"), "ms"},
        {"grading.other_ms", per_kb("grading.other_ms"), "ms"},
        {"ctkd.server_ms", per_kb("ctkd.server_ms"), "ms"},
        {"ctkd.transport_ms", per_kb("ctkd.transport_ms"), "ms"},
        {"proto.encode_ms", per_kb("proto.encode_ms"), "ms"},
        {"proto.decode_ms", per_kb("proto.decode_ms"), "ms"},
        {"proto.reply_kb", per_kb("proto.reply_kb"), "KB"},
        {"cache.hit_ratio", run.traced_kb_ops > 0 && l.get("ctkd.server_ms") > 0
                                ? per_kb("cache.hits")
                                : 0.0,
         "ratio"},
        {"gate.request_ms", per_gate("gate.request_ms"), "ms"},
        {"gate.parse_ms", per_gate("gate.parse_ms"), "ms"},
        {"gate.collapse_ms", per_gate("gate.collapse_ms"), "ms"},
        {"gate.tpg_ms", per_gate("gate.tpg_ms"), "ms"},
        {"gate.atpg_ms", per_gate("gate.atpg_ms"), "ms"},
        {"gate.random_detect_ratio", per_gate("gate.random_detect_ratio"),
         "ratio"},
        {"gate.atpg_aborted", per_gate("gate.atpg_aborted"), "count"},
        {"trace.unattributed_share",
         ratio(run.traced_wall_ms - run.attributed_ms, run.traced_wall_ms),
         "ratio"},
        {"trace.overhead_pct",
         untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%"},
    };
}

/// Wall of a fixed single-threaded integer loop, median of 5: how fast
/// the host ran this process, for reading results from a shared box.
double calibration_ms() {
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        std::uint64_t x = 88172645463325252ULL;
        for (int i = 0; i < 2'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        volatile std::uint64_t sink = x;
        (void)sink;
        samples.push_back(ms_between(t0, Clock::now()));
    }
    return percentile(std::move(samples), 0.5);
}

int usage(const std::string& why) {
    std::cerr << "ctkbench: " << why
              << "\nusage: ctkbench --workload kb-cold|kb-regrade|ctkd-mix "
                 "--seed N --seconds S --trace 0|1 [--sha SHA] [--tmp DIR]\n";
    return 2;
}

} // namespace

} // namespace ctkbench

int main(int argc, char** argv) {
    using namespace ctkbench;
    Args args;
    std::string sha = "unknown";
    std::string tmp;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (i + 1 >= argc) return usage("missing value for " + a);
            const std::string v = argv[++i];
            if (a == "--workload") {
                args.workload = parse_workload(v);
                args.workload_name = v;
                have_workload = true;
            } else if (a == "--seed") {
                args.seed = std::stoull(v);
            } else if (a == "--seconds") {
                args.seconds = std::stod(v);
            } else if (a == "--trace") {
                args.trace = v != "0";
            } else if (a == "--sha") {
                sha = v;
            } else if (a == "--tmp") {
                tmp = v;
            } else {
                return usage("unknown option " + a);
            }
        }
    } catch (const std::exception& e) {
        return usage(e.what());
    }
    if (!have_workload) return usage("--workload is required");
    // Sockets are bound relative to the per-process temp dir, which keeps
    // their paths short whatever the checkout's path is.
    if (!tmp.empty() && chdir(tmp.c_str()) != 0)
        return usage("cannot enter --tmp " + tmp);

    const double calibration = calibration_ms();
    Run run;
    try {
        switch (args.workload) {
        case Workload::KbCold: run_kb_cold(args, run); break;
        case Workload::KbRegrade: run_kb_regrade(args, run); break;
        case Workload::CtkdMix: run_ctkd_mix(args, run); break;
        }
    } catch (const std::exception& e) {
        std::cerr << "ctkbench: " << args.workload_name
                  << " set-up failed: " << e.what() << "\n";
        return 2;
    }
    if (!run.correct)
        std::cerr << "ctkbench: MISMATCH: " << run.mismatch << "\n";

    std::ostringstream stamp;
    stamp << "{\"workload\":" << json_string(args.workload_name)
          << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
          << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
          << ",\"workers\":" << kWorkers
          << ",\"compiler\":" << json_string(compiler())
          << ",\"build_type\":" << json_string(CTKBENCH_BUILD_TYPE)
          << ",\"git_sha\":" << json_string(sha)
          << ",\"calibration_ms\":" << json_number(calibration)
          << ",\"timed_wall_s\":" << json_number(run.wall_s)
          << ",\"steal_share\":" << json_number(run.steal_share)
          << ",\"setup_samples\":" << run.setup_s.size()
          << ",\"memory_epochs\":" << run.epoch_rss_mb.size()
          << ",\"windows\":" << run.windows.size()
          << ",\"calm_windows\":" << calm_count(run)
          << ",\"peak_rss\":"
          << json_string(peak_rss_was_reset()
                             ? "median VmHWM of the memory epochs"
                             : "VmHWM of the whole process")
          << ",\"ops\":{";
    bool first = true;
    for (const auto& [cls, n] : run.ops_by_class) {
        stamp << (first ? "" : ",") << json_string(cls) << ":" << n;
        first = false;
    }
    stamp << "}}";
    std::cout << "stamp " << stamp.str() << "\n";

    std::ostringstream result;
    result << "{\"correct\": " << (run.correct ? "true" : "false")
           << ", \"attempted\": " << run.attempted
           << ", \"failed\": " << run.failed << ", \"metrics\": {";
    first = true;
    for (const Metric& m : args.trace ? per_layer(run) : end_to_end(run)) {
        result << (first ? "" : ", ") << json_string(m.name)
               << ": {\"value\": " << json_number(m.value)
               << ", \"unit\": " << json_string(m.unit) << "}";
        first = false;
    }
    result << "}}";
    std::cout << result.str() << std::endl;
    return run.correct ? 0 : 1;
}
