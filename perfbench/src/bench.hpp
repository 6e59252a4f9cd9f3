// ctkbench — the repository's end-to-end benchmark (see perfbench/README.md).
//
// Three workloads, each in its own process:
//
//   kb-cold     one op = one cold `ctkgrade --kb --universe scaled
//               --lockstep` grade of the whole knowledge base, plans
//               compiled inside the op, tests remark-tagged per op;
//   kb-regrade  one op = one `ctkgrade --kb --store` run after a
//               one-test edit on one of N renamed family copies;
//   ctkd-mix    an in-process CtkdServer driven by two closed-loop
//               clients sending warm full-KB and gate-mode requests.
//
// The seed only permutes a fixed multiset of ops inside whole rounds
// (schedule.cpp); it never changes which work is done. Every timed op's
// output is compared byte for byte with a reference built from the
// oracle engines before its time counts.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/gradestore.hpp"
#include "core/grading.hpp"
#include "gate/netlist.hpp"
#include "model/test.hpp"

namespace ctkbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline Clock::time_point deadline_after(Clock::time_point start,
                                        double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

/// Grading workers of every workload (the box is a shared 4-core one).
inline constexpr unsigned kWorkers = 2;
/// kb-regrade: copies of each KB family (5 families each).
inline constexpr std::size_t kRegradeCopiesPerFamily = 4;
/// ctkd-mix: requests per client cycle, and gate netlists in rotation.
inline constexpr std::size_t kWarmPerCycle = 7;
inline constexpr std::size_t kGateNetlists = 4;
inline constexpr std::size_t kClients = 2;

// -- schedule (schedule.cpp) ------------------------------------------------

enum class Workload { KbCold, KbRegrade, CtkdMix };
enum class OpClass { KbCold, KbRegrade, KbWarm, Gate };

struct Op {
    OpClass cls = OpClass::KbCold;
    /// kb-regrade: the family copy edited; gate: the netlist index.
    std::size_t arg = 0;
    bool operator==(const Op& o) const { return cls == o.cls && arg == o.arg; }
    bool operator<(const Op& o) const {
        return cls != o.cls ? cls < o.cls : arg < o.arg;
    }
};

/// Parses a workload name; throws std::invalid_argument when unknown.
Workload parse_workload(const std::string& name);
const char* op_class_name(OpClass cls);

/// Family copies kb-regrade grades (kRegradeCopiesPerFamily x families).
std::size_t regrade_copies();

/// The ops of round `round` of `stream` (the ctkd-mix client; 0 for the
/// KB workloads). A round is the smallest unit that holds the workload's
/// whole fixed multiset: one op for kb-cold, one edit per copy for
/// kb-regrade, kGateNetlists cycles of kWarmPerCycle warm requests plus
/// one gate request for ctkd-mix. The seed permutes ops inside a round
/// and nothing else.
std::vector<Op> round_ops(Workload workload, std::uint64_t seed,
                          std::size_t stream, std::size_t round);

/// Op-unique remark tag, fixed width so every op hashes the same bytes.
std::string op_tag(std::uint64_t seed, std::size_t op_index);

/// The ctkd-mix gate rotation (kGateNetlists entries): comparator(12),
/// where PODEM dominates; ripple_adder(128) and parity_tree(256), where
/// random TPG dominates; mux_tree(6), split between the two.
std::vector<ctk::gate::Netlist> gate_netlists();

// -- KB inputs (kb_inputs.cpp) ----------------------------------------------

/// One KB family as the library's kb_grading_setup builds it (scaled
/// universe), plus its source suite for tagging.
struct FamilyTemplate {
    std::string base;
    ctk::model::TestSuite suite;
    ctk::core::FamilyGradingSetup setup;
};

/// kb_grading_setup for every KB family — the grading set-up of one
/// `ctkgrade --kb --universe scaled` run.
std::vector<FamilyTemplate> load_kb_templates();

/// Compile one family copy named `name` whose tests carry `tag` in their
/// first step's remark: script, plan and fault universe are built here,
/// the backend factories are the template's.
ctk::core::FamilyGradingSetup compile_copy(const FamilyTemplate& family,
                                           const std::string& name,
                                           const std::string& tag);

/// kb-regrade copy j: family j % 5, copy j / 5.
std::string copy_name(const std::vector<FamilyTemplate>& families,
                      std::size_t copy);
std::string copy_tag(std::size_t copy, std::size_t revision);

/// Options of the graded runs: kWorkers workers, scaled universe,
/// lockstep engine.
ctk::core::GradingOptions grading_options(ctk::core::GradeStore* store);

/// Run one GradingCampaign over `setups` and return the coverage CSV.
std::string grade_csv(std::vector<ctk::core::FamilyGradingSetup> setups,
                      ctk::core::GradingOptions options);

/// Reference CSV from the oracle: per-fault GradingCampaign (no store,
/// no lockstep engine) over exactly these setups.
std::string oracle_csv(std::vector<ctk::core::FamilyGradingSetup> setups);

// -- per-layer accounting (trace.cpp) ----------------------------------------

/// Sums of layer times (ms) and counts over traced ops. Keys are the
/// per-layer metric names of BENCHMARK.json.
struct Layers {
    std::map<std::string, double> sum;
    void add(const std::string& key, double value) { sum[key] += value; }
    [[nodiscard]] double get(const std::string& key) const {
        const auto it = sum.find(key);
        return it == sum.end() ? 0.0 : it->second;
    }
    void merge(const Layers& other) {
        for (const auto& [k, v] : other.sum) sum[k] += v;
    }
};

/// What the golden/store shadow hands the lockstep shadow: per family
/// the golden run and, per fault, the test indices left to evaluate.
struct ShadowState {
    std::vector<ctk::core::RunResult> golden;
    std::vector<std::vector<std::vector<std::size_t>>> eval_tests;
};

/// Golden runs, store hashing and store consult of one grading, timed
/// around the library calls GradingCampaign::run_all makes on the same
/// input. With `store` null the grading is cold (every pair evaluated).
ShadowState shadow_golden_and_store(
    const std::vector<ctk::core::FamilyGradingSetup>& setups,
    const ctk::core::GradeStore* store, Layers& layers);
/// The lockstep engine phases (build, capture, evaluate) on kWorkers
/// threads, for the pairs the golden/store shadow left to evaluate.
void shadow_lockstep(const std::vector<ctk::core::FamilyGradingSetup>& setups,
                     const ShadowState& state, Layers& layers);
/// Sum of the shadowed layers that run inside GradingCampaign::run_all.
double run_all_layer_ms(const Layers& op_layers);

/// Gate grading of one .bench text, split into its library calls.
void shadow_gate(const std::string& text, const std::string& name,
                 Layers& layers);

// -- runs (main.cpp) ----------------------------------------------------------

struct Args {
    Workload workload = Workload::KbCold;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// One measurement window: a fixed number of whole rounds of one stream
/// (a ctkd-mix client; the KB workloads have one stream), so every
/// window holds the same work whatever the seed. End-to-end metrics are
/// medians over the calm windows (main.cpp): a burst of load from the
/// host's other tenants slows the windows it hits, not the figure.
struct Window {
    std::size_t stream = 0;
    double wall_s = 0.0;             ///< first round start to last op end
    std::size_t ops = 0;             ///< completed ops, every class
    std::size_t faults = 0;          ///< faults graded by those ops
    std::vector<double> primary_ms;  ///< op latencies of the primary class
    double steal_share = 0.0;        ///< CPU steal over the window
};

/// Rounds per window: kb-cold rounds are a single op.
std::size_t rounds_per_window(Workload workload);

/// What one workload run measured. main.cpp turns it into metrics.
struct Run {
    bool correct = true;
    std::string mismatch;            ///< first reference mismatch
    std::size_t attempted = 0;       ///< ops started in the timed phase
    std::size_t failed = 0;          ///< ops that threw or timed out
    std::map<std::string, std::size_t> ops_by_class;
    std::vector<double> setup_s;     ///< one sample per fresh set-up
    std::vector<Window> windows;     ///< the timed phase, window by window
    double wall_s = 0.0;             ///< timed wall
    double steal_share = 0.0;        ///< CPU steal over the timed wall
    /// Peak resident set (MB) of each memory epoch of the timed phase:
    /// a KB window, or a second of ctkd-mix. Each starts from a trimmed
    /// heap and a reset peak.
    std::vector<double> epoch_rss_mb;
    // -- traced runs (every other round is traced) ------------------------
    Layers layers;                   ///< sums over traced ops
    std::size_t traced_kb_ops = 0;   ///< denominator of the KB layers
    std::size_t traced_gate_ops = 0; ///< denominator of the gate layers
    double traced_wall_ms = 0.0;     ///< op wall of traced ops
    double attributed_ms = 0.0;      ///< part of it layer calls account for
    std::vector<double> traced_primary_ms;   ///< for trace.overhead_pct
    std::vector<double> untraced_primary_ms; ///< same run, tracing off

    /// Record a mismatch (first one wins) — the run is then wrong.
    void fail_check(const std::string& what) {
        if (correct) mismatch = what;
        correct = false;
    }
};

void run_kb_cold(const Args& args, Run& run);
void run_kb_regrade(const Args& args, Run& run);
void run_ctkd_mix(const Args& args, Run& run);

/// Peak resident set since the last reset_peak_rss(), in MB. When the
/// kernel refuses the reset the peak covers the whole process.
void reset_peak_rss();
/// Hand the allocator's free pages back to the kernel (glibc), so a
/// window's peak counts the memory it uses, not what earlier windows
/// left cached in the allocator's arenas.
void trim_heap();
bool peak_rss_was_reset();
double peak_rss_mb();

/// Host-wide CPU time from /proc/stat (all zero when unreadable). The
/// steal column is time the hypervisor gave to other guests: on a shared
/// virtual machine it is what slows whole runs down.
struct CpuTicks {
    unsigned long long steal = 0;
    unsigned long long total = 0;
};
CpuTicks cpu_ticks();
/// Share of CPU time stolen between two readings (0 when unknown).
double steal_share(const CpuTicks& from, const CpuTicks& to);

double percentile(std::vector<double> values, double q);

} // namespace ctkbench
