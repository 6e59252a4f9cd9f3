// kb-cold and kb-regrade: one-shot `ctkgrade --kb` runs, in-process.
//
// An op's wall is the sum of its phases, each timed around one library
// call: store load, plan compile, GradingCampaign::run_all, store save,
// coverage CSV. In traced rounds the layer shadows (trace.cpp) run on
// the same input between compile and run_all, outside the op's wall.
#include <iostream>

#include "bench.hpp"
#include "report/report.hpp"

namespace ctkbench {

namespace {

using ctk::core::FamilyGradingSetup;
using ctk::core::GradeStore;

/// The op phases that make up its wall.
const char* const kPhases[] = {"store.load_ms", "plan.compile_ms",
                               "grading.run_all_ms", "store.save_ms",
                               "report.csv_ms"};

template <class Fn> auto timed(Layers& op, const char* key, Fn fn) {
    const auto t0 = Clock::now();
    auto out = fn();
    op.add(key, ms_between(t0, Clock::now()));
    return out;
}

/// Grade `setups` against `store` (null = cold). A traced op first runs
/// the layer shadows on the same setups.
ctk::core::GradingResult grade(std::vector<FamilyGradingSetup> setups,
                               GradeStore* store, bool traced, Layers& op) {
    if (traced)
        shadow_lockstep(setups, shadow_golden_and_store(setups, store, op),
                        op);
    ctk::core::GradingCampaign grading(grading_options(store));
    for (auto& setup : setups) grading.add(std::move(setup));
    return timed(op, "grading.run_all_ms", [&] { return grading.run_all(); });
}

/// Close one op: its wall, and in a traced op the layer accounting —
/// grading.other is the run_all wall the shadowed layers do not cover,
/// which is also the op wall no layer call accounts for.
double finish_op(Run& run, Layers& op, bool traced) {
    double wall = 0.0;
    for (const char* phase : kPhases) wall += op.get(phase);
    if (traced) {
        const double other =
            op.get("grading.run_all_ms") - run_all_layer_ms(op);
        op.add("grading.other_ms", other);
        run.layers.merge(op);
        ++run.traced_kb_ops;
        run.traced_wall_ms += wall;
        run.attributed_ms += wall - other;
    }
    return wall;
}

void check_csv(Run& run, const std::string& csv, const std::string& ref,
               const std::string& what) {
    if (csv != ref)
        run.fail_check(what + ": coverage CSV differs from the oracle "
                              "reference");
}

std::string csv_of(const ctk::core::GradingResult& result) {
    return ctk::report::coverage_to_csv(result.to_coverage());
}

/// Runs windows of whole rounds until the deadline (the window in
/// progress finishes); in a traced run every other round is traced.
/// `between()` runs before each window, outside its wall: the set-up
/// samples, spread over the run. `op(op, traced)` returns the op's wall
/// (ms) and the faults it graded, or throws on failure.
template <class Between, class RoundStart, class OpFn>
void timed_rounds(const Args& args, Run& run, Between between,
                  RoundStart round_start, OpFn op) {
    const CpuTicks ticks = cpu_ticks();
    const auto start = Clock::now();
    const auto deadline = deadline_after(start, args.seconds);
    const std::size_t per_window = rounds_per_window(args.workload);
    for (std::size_t round = 0; run.correct && Clock::now() < deadline;) {
        between();
        Window window;
        trim_heap();
        reset_peak_rss();
        const CpuTicks window_ticks = cpu_ticks();
        const auto window_start = Clock::now();
        for (std::size_t r = 0; r < per_window && run.correct; ++r, ++round) {
            const bool traced = args.trace && round % 2 == 1;
            round_start();
            for (const Op& o : round_ops(args.workload, args.seed, 0, round)) {
                ++run.attempted;
                ++run.ops_by_class[op_class_name(o.cls)];
                double ms = 0.0;
                std::size_t faults = 0;
                try {
                    std::tie(ms, faults) = op(o, traced);
                } catch (const std::exception& e) {
                    ++run.failed;
                    std::cerr << "ctkbench: op failed: " << e.what() << "\n";
                    continue;
                }
                if (!run.correct) break;
                ++window.ops;
                window.faults += faults;
                window.primary_ms.push_back(ms);
                if (args.trace)
                    (traced ? run.traced_primary_ms : run.untraced_primary_ms)
                        .push_back(ms);
            }
        }
        window.wall_s = ms_between(window_start, Clock::now()) / 1000.0;
        window.steal_share = steal_share(window_ticks, cpu_ticks());
        run.epoch_rss_mb.push_back(peak_rss_mb());
        run.windows.push_back(std::move(window));
    }
    run.wall_s = ms_between(start, Clock::now()) / 1000.0;
    run.steal_share = steal_share(ticks, cpu_ticks());
}

} // namespace

void run_kb_cold(const Args& args, Run& run) {
    // Set-up: the grading set-up of one ctkgrade --kb run (suites,
    // stands, compiled plans, fault universes). Sampled once here and
    // three times between timed windows, so the median spans the run.
    auto setup = [&run] {
        const auto t0 = Clock::now();
        auto families = load_kb_templates();
        run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        return families;
    };
    const std::vector<FamilyTemplate> families = setup();

    auto compile_all = [&](const std::string& tag) {
        std::vector<FamilyGradingSetup> setups;
        for (const auto& f : families)
            setups.push_back(compile_copy(f, f.base, tag));
        return setups;
    };
    const std::string ref = oracle_csv(compile_all("reference"));
    Layers unused;
    // Warm-up op (untimed): thread stacks, allocator arenas.
    check_csv(run, csv_of(grade(compile_all("warm-up"), nullptr, false, unused)),
              ref, "kb-cold warm-up");

    std::size_t op_index = 0;
    auto between = [&] {
        for (int rep = 0; rep < 3; ++rep) (void)setup();
    };
    timed_rounds(args, run, between, [] {}, [&](const Op&, bool traced) {
        // A fresh tag per op: no plan-test hash repeats inside a run.
        const std::string tag = op_tag(args.seed, op_index++);
        Layers op;
        auto setups =
            timed(op, "plan.compile_ms", [&] { return compile_all(tag); });
        const auto result = grade(std::move(setups), nullptr, traced, op);
        const std::string csv =
            timed(op, "report.csv_ms", [&] { return csv_of(result); });
        check_csv(run, csv, ref, "kb-cold op " + tag);
        return std::make_pair(finish_op(run, op, traced),
                              result.fault_count());
    });
}

void run_kb_regrade(const Args& args, Run& run) {
    const std::vector<FamilyTemplate> families = load_kb_templates();
    const std::size_t copies = regrade_copies();
    const std::vector<std::size_t> unedited(copies, 0);
    std::vector<std::size_t> revision = unedited;
    auto compile_all = [&](const std::vector<std::size_t>& revisions) {
        std::vector<FamilyGradingSetup> setups;
        for (std::size_t c = 0; c < copies; ++c)
            setups.push_back(compile_copy(families[c % families.size()],
                                          copy_name(families, c),
                                          copy_tag(c, revisions[c])));
        return setups;
    };

    // Set-up: the first `ctkgrade --kb --store` run — every copy graded
    // cold into an empty store, which is then saved. Sampled once here
    // and once between timed windows, so the median spans the run.
    Layers unused;
    auto setup = [&] {
        const auto t0 = Clock::now();
        GradeStore store;
        (void)grade(compile_all(unedited), &store, false, unused);
        auto saved = std::make_pair(store.pairs_to_csv_text(),
                                    store.certificates_to_csv_text());
        run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        return saved;
    };
    const std::pair<std::string, std::string> base = setup();
    const std::string ref = oracle_csv(compile_all(unedited));

    // Every round starts from the set-up's saved store and unedited
    // copies, so every round does the same work in a different order.
    std::string pairs;
    std::string certs;
    auto round_start = [&] {
        pairs = base.first;
        certs = base.second;
        revision = unedited;
    };
    // Revisions are op-unique: an edit never restores earlier content.
    std::size_t next_revision = 1;
    round_start();
    {
        // Warm-up op (untimed); the first round starts from scratch.
        revision[0] = next_revision++;
        GradeStore store = GradeStore::from_csv_text(pairs, certs);
        check_csv(run,
                  csv_of(grade(compile_all(revision), &store, false, unused)),
                  ref, "kb-regrade warm-up");
    }

    auto between = [&] { (void)setup(); };
    timed_rounds(args, run, between, round_start,
                 [&](const Op& edit, bool traced) {
        revision[edit.arg] = next_revision++; // the one-test edit
        Layers op;
        GradeStore store = timed(op, "store.load_ms", [&] {
            return GradeStore::from_csv_text(pairs, certs);
        });
        auto setups = timed(op, "plan.compile_ms",
                            [&] { return compile_all(revision); });
        const auto result = grade(std::move(setups), &store, traced, op);
        std::tie(pairs, certs) = timed(op, "store.save_ms", [&] {
            return std::make_pair(store.pairs_to_csv_text(),
                                  store.certificates_to_csv_text());
        });
        const std::string csv =
            timed(op, "report.csv_ms", [&] { return csv_of(result); });
        check_csv(run, csv, ref,
                  "kb-regrade edit of " + copy_name(families, edit.arg));
        if (traced) {
            op.add("store.pairs", static_cast<double>(store.pair_count()));
            op.add("store.mb",
                   static_cast<double>(pairs.size() + certs.size()) / 1e6);
        }
        return std::make_pair(finish_op(run, op, traced),
                              result.fault_count());
    });
}

} // namespace ctkbench
