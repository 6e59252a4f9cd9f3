// Per-layer accounting for traced runs. Every span is recorded here, in
// the benchmark's own code, around a call into a library module's
// public entry point — the same calls GradingCampaign::run_all and
// gate::grade_netlist make, on the same input. Nothing reads the
// library's own bookkeeping (GradingResult::lockstep_*, store stats).
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/strings.hpp"
#include "core/lockstep.hpp"
#include "gate/atpg.hpp"
#include "gate/bench_io.hpp"
#include "gate/faults.hpp"
#include "gate/grade.hpp"
#include "gate/tpg.hpp"

namespace ctkbench {

namespace {

/// fn(0..count-1) on kWorkers threads (the grading pool's width). The
/// first exception a worker hits is rethrown after every thread joined.
template <class Fn> void parallel_for(std::size_t count, Fn fn) {
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto worker = [&] {
        try {
            for (std::size_t i = next++; i < count; i = next++) fn(i);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 1; w < kWorkers; ++w) pool.emplace_back(worker);
    worker();
    for (auto& t : pool) t.join();
    if (error) std::rethrow_exception(error);
}

// Evaluate one test for a block of faults. The packed evaluate_block is
// used when the engine has it; a tree that keeps only the scalar walk
// still builds and is measured through evaluate().
template <class E>
auto evaluate_lanes(const E& engine, std::size_t test,
                    const std::vector<std::size_t>& faults,
                    std::vector<ctk::core::LockstepEval>& out, int)
    -> decltype(engine.evaluate_block(test, faults, out), void()) {
    engine.evaluate_block(test, faults, out);
}
template <class E>
void evaluate_lanes(const E& engine, std::size_t test,
                    const std::vector<std::size_t>& faults,
                    std::vector<ctk::core::LockstepEval>& out, long) {
    out.clear();
    for (const std::size_t f : faults) out.push_back(engine.evaluate(f, test));
}

} // namespace

ShadowState shadow_golden_and_store(
    const std::vector<ctk::core::FamilyGradingSetup>& setups,
    const ctk::core::GradeStore* store, Layers& layers) {
    ShadowState state;
    state.golden.resize(setups.size());
    state.eval_tests.resize(setups.size());
    std::size_t consulted = 0;
    std::size_t hits = 0;
    for (std::size_t fi = 0; fi < setups.size(); ++fi) {
        const auto& setup = setups[fi];
        const auto& plan = *setup.plan;
        const std::size_t nt = plan.tests().size();

        auto t0 = Clock::now();
        auto backend = setup.make_golden(setup.stand);
        state.golden[fi] = plan.execute(*backend);
        layers.add("golden.run_ms", ms_between(t0, Clock::now()));
        layers.add("golden.runs", 1);

        auto& eval = state.eval_tests[fi];
        eval.resize(setup.universe.size());
        if (!store) {
            for (auto& tests : eval)
                for (std::size_t t = 0; t < nt; ++t) tests.push_back(t);
            continue;
        }

        t0 = Clock::now();
        const auto hashes = ctk::core::plan_test_hashes(plan, setup.stand);
        std::vector<std::string> golden_fp;
        for (const auto& test : state.golden[fi].tests)
            golden_fp.push_back(ctk::str::fnv1a_hex(
                ctk::core::detection_fingerprint(test)));
        layers.add("store.hash_ms", ms_between(t0, Clock::now()));

        // Consult per (fault, test); a hit must also match the fresh
        // golden fingerprint. Tests past the first cached detection are
        // never evaluated (the drop-aware merge does not look there).
        t0 = Clock::now();
        for (std::size_t k = 0; k < setup.universe.size(); ++k) {
            const std::string fid = setup.universe[k].id();
            std::size_t stop = nt;
            std::vector<std::size_t> stale;
            for (std::size_t t = 0; t < nt; ++t) {
                const auto* rec = store->find_pair(
                    setup.family, plan.tests()[t].name, hashes[t], fid);
                ++consulted;
                if (rec && rec->golden_fp == golden_fp[t]) {
                    ++hits;
                    if (rec->differs && t < stop) stop = t;
                } else {
                    stale.push_back(t);
                }
            }
            for (const std::size_t t : stale)
                if (t < stop) eval[k].push_back(t);
        }
        layers.add("store.consult_ms", ms_between(t0, Clock::now()));
    }
    layers.add("store.consulted", static_cast<double>(consulted));
    layers.add("store.hits", static_cast<double>(hits));
    return state;
}

void shadow_lockstep(const std::vector<ctk::core::FamilyGradingSetup>& setups,
                     const ShadowState& state, Layers& layers) {
    using ctk::core::LockstepFamily;
    std::vector<std::unique_ptr<LockstepFamily>> engines(setups.size());

    auto t0 = Clock::now();
    for (std::size_t fi = 0; fi < setups.size(); ++fi) {
        const auto& setup = setups[fi];
        LockstepFamily::Config cfg;
        cfg.plan = setup.plan;
        cfg.golden = &state.golden[fi];
        cfg.make_device = setup.make_device;
        cfg.universe = &setup.universe;
        if (setup.stand.variables().has("ubatt"))
            cfg.ubatt = setup.stand.variables().get("ubatt");
        cfg.eval_tests = state.eval_tests[fi];
        engines[fi] = LockstepFamily::build(std::move(cfg));
    }
    layers.add("lockstep.build_ms", ms_between(t0, Clock::now()));

    std::vector<std::pair<LockstepFamily*, std::size_t>> captures;
    for (auto& engine : engines)
        if (engine)
            for (std::size_t c = 0; c < engine->capture_count(); ++c)
                captures.emplace_back(engine.get(), c);
    t0 = Clock::now();
    parallel_for(captures.size(), [&](std::size_t i) {
        captures[i].first->run_capture(captures[i].second);
    });
    layers.add("lockstep.capture_ms", ms_between(t0, Clock::now()));
    layers.add("lockstep.captures", static_cast<double>(captures.size()));

    // One block per (family, test): the faults scheduled on that test,
    // split into 64-lane words so both workers get work.
    struct Block {
        const LockstepFamily* engine;
        std::size_t test;
        std::vector<std::size_t> faults;
    };
    std::vector<Block> blocks;
    std::size_t lanes = 0;
    for (std::size_t fi = 0; fi < setups.size(); ++fi) {
        if (!engines[fi]) continue;
        const std::size_t nt = setups[fi].plan->tests().size();
        for (std::size_t t = 0; t < nt; ++t) {
            Block block{engines[fi].get(), t, {}};
            const auto& eval = state.eval_tests[fi];
            for (std::size_t k = 0; k < eval.size(); ++k) {
                for (const std::size_t et : eval[k])
                    if (et == t) block.faults.push_back(k);
                if (block.faults.size() == 64) {
                    lanes += 64;
                    blocks.push_back(block);
                    block.faults.clear();
                }
            }
            lanes += block.faults.size();
            if (!block.faults.empty()) blocks.push_back(std::move(block));
        }
    }
    t0 = Clock::now();
    for (auto& engine : engines)
        if (engine) (void)engine->validate();
    parallel_for(blocks.size(), [&](std::size_t i) {
        std::vector<ctk::core::LockstepEval> out;
        evaluate_lanes(*blocks[i].engine, blocks[i].test, blocks[i].faults,
                       out, 0);
    });
    layers.add("lockstep.evaluate_ms", ms_between(t0, Clock::now()));
    layers.add("lockstep.lanes", static_cast<double>(lanes));
}

double run_all_layer_ms(const Layers& op) {
    return op.get("golden.run_ms") + op.get("store.hash_ms") +
           op.get("store.consult_ms") + op.get("lockstep.build_ms") +
           op.get("lockstep.capture_ms") + op.get("lockstep.evaluate_ms");
}

void shadow_gate(const std::string& text, const std::string& name,
                 Layers& layers) {
    using namespace ctk::gate;
    auto t0 = Clock::now();
    const Netlist net = parse_bench(text, name);
    layers.add("gate.parse_ms", ms_between(t0, Clock::now()));

    t0 = Clock::now();
    const std::vector<Fault> faults = collapse_faults(net);
    layers.add("gate.collapse_ms", ms_between(t0, Clock::now()));

    // The calls grade_netlist makes, with its defaults (pattern budget,
    // TPG seed, frames per pattern) and one worker.
    const GateGradeOptions defaults;
    RandomTpgOptions ropts;
    ropts.max_patterns = defaults.max_patterns;
    ropts.frames_per_pattern = net.is_sequential() ? 8 : 1;
    ropts.seed = defaults.seed;
    ropts.jobs = 1;
    t0 = Clock::now();
    const RandomTpgResult rnd = random_tpg(net, faults, ropts);
    const auto group = to_coverage(net, faults, rnd.faultsim);
    layers.add("gate.tpg_ms", ms_between(t0, Clock::now()));
    layers.add("gate.random_detect_ratio",
               faults.empty() ? 0.0
                              : static_cast<double>(rnd.faultsim.detected) /
                                    static_cast<double>(faults.size()));

    double atpg_ms = 0.0;
    if (!net.is_sequential() && rnd.faultsim.detected < faults.size()) {
        t0 = Clock::now();
        const AtpgResult atpg = run_atpg(net, faults, group, defaults.atpg);
        atpg_ms = ms_between(t0, Clock::now());
        layers.add("gate.atpg_aborted", static_cast<double>(atpg.aborted));
    }
    layers.add("gate.atpg_ms", atpg_ms);
}

} // namespace ctkbench
