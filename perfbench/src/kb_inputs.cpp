// KB inputs of the benchmark: tagged and renamed family copies compiled
// the way kb_grading_setup compiles a family, and the oracle references.
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "core/kb.hpp"
#include "core/plan.hpp"
#include "model/method.hpp"
#include "report/report.hpp"
#include "script/script.hpp"
#include "sim/fault_inject.hpp"

namespace ctkbench {

namespace {

// The lockstep engine is opted into by a GradingOptions field today; a
// tree where it is the only engine drops the field, and the benchmark
// must still build there.
template <class O>
auto enable_lockstep(O& options, int) -> decltype(options.lockstep = true,
                                                  void()) {
    options.lockstep = true;
}
template <class O> void enable_lockstep(O&, long) {}

} // namespace

std::vector<FamilyTemplate> load_kb_templates() {
    std::vector<FamilyTemplate> out;
    for (const auto& family : ctk::core::kb::families()) {
        FamilyTemplate t;
        t.base = family;
        t.suite = ctk::core::kb::suite_for(family);
        t.setup = ctk::core::kb_grading_setup(
            family, {}, ctk::sim::UniverseOptions::scaled());
        out.push_back(std::move(t));
    }
    return out;
}

ctk::core::FamilyGradingSetup compile_copy(const FamilyTemplate& family,
                                           const std::string& name,
                                           const std::string& tag) {
    ctk::model::TestSuite suite = family.suite;
    for (auto& test : suite.tests)
        if (!test.steps.empty())
            test.steps.front().remark += " [" + tag + "]";

    const auto registry = ctk::model::MethodRegistry::builtin();
    ctk::core::FamilyGradingSetup setup;
    setup.family = name;
    setup.script = ctk::script::compile(suite, registry);
    setup.stand = family.setup.stand;
    setup.plan = std::make_shared<ctk::core::CompiledPlan>(
        ctk::core::CompiledPlan::compile(setup.script, setup.stand));
    setup.universe = ctk::sim::make_fault_universe(
        ctk::core::plan_fault_surface(*setup.plan),
        ctk::sim::UniverseOptions::scaled());
    setup.make_golden = family.setup.make_golden;
    setup.make_faulty = family.setup.make_faulty;
    setup.make_device = family.setup.make_device;
    return setup;
}

std::string copy_name(const std::vector<FamilyTemplate>& families,
                      std::size_t copy) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "_c%02zu", copy / families.size());
    return families[copy % families.size()].base + buf;
}

std::string copy_tag(std::size_t copy, std::size_t revision) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "copy %02zu rev %08zx", copy, revision);
    return buf;
}

ctk::core::GradingOptions grading_options(ctk::core::GradeStore* store) {
    ctk::core::GradingOptions options;
    options.jobs = kWorkers;
    options.universe = ctk::sim::UniverseOptions::scaled();
    options.store = store;
    enable_lockstep(options, 0);
    return options;
}

std::string grade_csv(std::vector<ctk::core::FamilyGradingSetup> setups,
                      ctk::core::GradingOptions options) {
    ctk::core::GradingCampaign grading(std::move(options));
    for (auto& setup : setups) grading.add(std::move(setup));
    return ctk::report::coverage_to_csv(grading.run_all().to_coverage());
}

std::string oracle_csv(std::vector<ctk::core::FamilyGradingSetup> setups) {
    // Without a device factory a family grades per fault: one faulty
    // device stepped through the whole suite per fault.
    for (auto& setup : setups) setup.make_device = nullptr;
    ctk::core::GradingOptions options;
    options.jobs = kWorkers;
    return grade_csv(std::move(setups), options);
}

} // namespace ctkbench
