// ctkbench selftest: the seed may only permute a fixed multiset of ops.
//
//  * two seeds yield the same multiset of ops per round (copies edited,
//    gate circuits, request classes) and the same total faults, and
//    differ only in order;
//  * no two kb-cold ops share a plan-test hash (a one-shot CLI never
//    sees an in-process cache), and no two kb-regrade copies share one;
//  * the remark tag changes the plan-test hash but not the verdicts:
//    the oracle grades a tagged, renamed copy exactly like the original.
//
// Exit 0 when every check holds; prints each failure and exits 1.
#include <algorithm>
#include <iostream>
#include <set>

#include "bench.hpp"
#include "core/gradestore.hpp"
#include "gate/faults.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
}

using namespace ctkbench;

std::vector<Op> sorted(std::vector<Op> ops) {
    std::sort(ops.begin(), ops.end());
    return ops;
}

/// Faults an op grades: the whole compiled KB (kb-regrade: every copy)
/// for KB ops, the collapsed universe of its netlist for gate ops.
std::size_t op_faults(const Op& op, std::size_t kb_total,
                      const std::vector<std::size_t>& gate_faults) {
    switch (op.cls) {
    case OpClass::KbCold:
    case OpClass::KbWarm: return kb_total;
    case OpClass::KbRegrade: return kb_total * kRegradeCopiesPerFamily;
    case OpClass::Gate: return gate_faults.at(op.arg);
    }
    return 0;
}

void check_seed_invariance(const std::vector<FamilyTemplate>& families) {
    std::size_t kb_total = 0;
    for (const auto& f : families) kb_total += f.setup.universe.size();
    std::vector<std::size_t> gate_faults;
    for (const auto& net : gate_netlists())
        gate_faults.push_back(ctk::gate::collapse_faults(net).size());
    const std::pair<Workload, std::size_t> workloads[] = {
        {Workload::KbCold, 1},
        {Workload::KbRegrade, 1},
        {Workload::CtkdMix, kClients}};
    for (const auto& [workload, streams] : workloads) {
        for (std::size_t stream = 0; stream < streams; ++stream) {
            bool order_differs = false;
            for (std::size_t round = 0; round < 6; ++round) {
                const auto a = round_ops(workload, 1, stream, round);
                const auto b = round_ops(workload, 987654321, stream, round);
                const std::string where =
                    "workload " + std::to_string(static_cast<int>(workload)) +
                    " stream " + std::to_string(stream) + " round " +
                    std::to_string(round);
                expect(sorted(a) == sorted(b),
                       where + ": seeds give different op multisets");
                expect(sorted(a) == sorted(round_ops(workload, 1, stream, 0)),
                       where + ": rounds hold different op multisets");
                std::size_t fa = 0;
                std::size_t fb = 0;
                for (const Op& op : a) fa += op_faults(op, kb_total, gate_faults);
                for (const Op& op : b) fb += op_faults(op, kb_total, gate_faults);
                expect(fa == fb, where + ": seeds give different fault totals");
                order_differs = order_differs || !(a == b);
            }
            if (workload != Workload::KbCold)
                expect(order_differs, "seed does not permute workload " +
                                          std::to_string(
                                              static_cast<int>(workload)));
        }
    }
    // The ctkd-mix round shape: 7 warm + 1 gate per cycle, every netlist
    // once per round.
    const auto ops = round_ops(Workload::CtkdMix, 5, 1, 3);
    expect(ops.size() == kGateNetlists * (kWarmPerCycle + 1),
           "ctkd-mix round size");
    std::set<std::size_t> netlists;
    for (const Op& op : ops)
        if (op.cls == OpClass::Gate) netlists.insert(op.arg);
    expect(netlists.size() == kGateNetlists,
           "ctkd-mix round misses a gate netlist");
    // kb-regrade: every copy edited exactly once per round.
    const auto edits = round_ops(Workload::KbRegrade, 5, 0, 2);
    std::set<std::size_t> copies;
    for (const Op& op : edits) copies.insert(op.arg);
    expect(edits.size() == regrade_copies() &&
               copies.size() == regrade_copies(),
           "kb-regrade round does not edit every copy once");
}

std::vector<std::string> test_hashes(const ctk::core::FamilyGradingSetup& s) {
    return ctk::core::plan_test_hashes(*s.plan, s.stand);
}

void check_unique_hashes(const std::vector<FamilyTemplate>& families) {
    std::set<std::string> seen;
    std::size_t total = 0;
    for (std::size_t op = 0; op < 64; ++op)
        for (const auto& f : families)
            for (const auto& h :
                 test_hashes(compile_copy(f, f.base, op_tag(7, op)))) {
                seen.insert(h);
                ++total;
            }
    expect(seen.size() == total, "kb-cold ops share a plan-test hash");

    seen.clear();
    total = 0;
    for (std::size_t c = 0; c < regrade_copies(); ++c)
        for (std::size_t rev = 0; rev < 3; ++rev)
            for (const auto& h : test_hashes(
                     compile_copy(families[c % families.size()],
                                  copy_name(families, c), copy_tag(c, rev)))) {
                seen.insert(h);
                ++total;
            }
    expect(seen.size() == total, "kb-regrade copies share a plan-test hash");
}

void check_remark_ignored(const std::vector<FamilyTemplate>& families) {
    std::vector<ctk::core::FamilyGradingSetup> plain;
    std::vector<ctk::core::FamilyGradingSetup> tagged;
    for (const auto& f : families) {
        plain.push_back(f.setup);
        tagged.push_back(compile_copy(f, f.base, op_tag(3, 11)));
        expect(test_hashes(plain.back()) != test_hashes(tagged.back()),
               f.base + ": the remark tag does not change the plan hash");
    }
    const std::string ref = oracle_csv(plain);
    expect(oracle_csv(tagged) == ref,
           "a remark tag changes the oracle's verdicts");
    // The benchmark's own grading options agree with the oracle.
    expect(grade_csv(tagged, grading_options(nullptr)) == ref,
           "lockstep grading differs from the oracle");
}

} // namespace

int main() {
    const std::vector<FamilyTemplate> families = load_kb_templates();
    check_seed_invariance(families);
    check_unique_hashes(families);
    check_remark_ignored(families);
    if (g_failures == 0) std::cout << "ctkbench selftest: all checks pass\n";
    return g_failures == 0 ? 0 : 1;
}
