// ctkd-mix: an in-process CtkdServer (2 sessions, request jobs clamped to
// 1) driven by kClients closed-loop clients — CI bots that wait for each
// reply — sending warm full-KB requests and gate-mode requests.
#include <atomic>
#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "gate/bench_io.hpp"
#include "gate/circuits.hpp"
#include "gate/grade.hpp"
#include "report/report.hpp"
#include "service/client.hpp"
#include "service/proto.hpp"
#include "service/server.hpp"

namespace ctkbench {

namespace {

using ctk::service::DaemonClient;
using ctk::service::GradeReply;
using ctk::service::GradeRequestMsg;

/// A request not answered within this bound counts as failed.
constexpr double kOpTimeoutMs = 10'000.0;

struct GateInput {
    std::string name;
    std::string text; ///< .bench text sent in the request
    std::string ref;  ///< oracle CSV
};

std::vector<GateInput> gate_inputs() {
    using namespace ctk::gate;
    std::vector<GateInput> out;
    for (const auto& net : gate_netlists()) {
        GateInput in;
        in.name = net.name();
        in.text = emit_bench(net);
        // Oracle: one worker, per-fault (unpacked) simulation.
        GateGradeOptions options;
        options.jobs = 1;
        options.fault_packed = false;
        ctk::core::CoverageMatrix matrix;
        matrix.groups.push_back(
            grade_netlist(parse_bench(in.text, in.name), options).coverage);
        in.ref = ctk::report::coverage_to_csv(matrix);
        out.push_back(std::move(in));
    }
    return out;
}

GradeRequestMsg kb_request() {
    GradeRequestMsg request; // empty family list = the whole KB
    request.universe = 1;
    request.jobs = kWorkers;
    request.lockstep = 1;
    return request;
}

GradeRequestMsg gate_request(const GateInput& in) {
    GradeRequestMsg request;
    request.mode = static_cast<std::uint8_t>(ctk::service::GradeMode::Gate);
    request.jobs = kWorkers;
    request.netlist_name = in.name;
    request.netlist_text = in.text;
    return request;
}

std::unique_ptr<ctk::service::CtkdServer> start_server(const std::string& path) {
    ctk::service::ServerOptions options;
    options.socket_path = path;
    options.max_sessions = 2;
    options.max_request_jobs = 1;
    auto server = std::make_unique<ctk::service::CtkdServer>(options);
    server->start();
    return server;
}

/// Stop a daemon and free it. CtkdServer::stop() notifies idle sessions
/// without holding their queue mutex, so a session caught between its
/// wait predicate and the wait itself misses the wakeup, and stop()
/// never returns (about once in 1,500 start/stop cycles when clients
/// disconnect just before the stop). The sessions are given a moment to
/// park first; the stop then runs on a helper thread with a deadline,
/// and on overrun the daemon is left behind with a warning so the run
/// still ends.
void stop_daemon(std::unique_ptr<ctk::service::CtkdServer> server) {
    if (!server) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> stopped = done->get_future();
    std::thread stopper([raw = server.get(), done] {
        try {
            raw->stop();
        } catch (const std::exception& e) {
            std::cerr << "ctkbench: daemon stop failed: " << e.what() << "\n";
        }
        done->set_value();
    });
    if (stopped.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready) {
        stopper.join();
        return;
    }
    stopper.detach();
    (void)server.release();
    std::cerr << "ctkbench: warning: CtkdServer::stop() did not return "
                 "within 10 s; the daemon is left behind\n";
}

/// Re-encode a reply the way the daemon frames it, then decode it the
/// way the client does: the protocol layer's share of a request.
void shadow_proto(const GradeReply& reply, Layers& layers) {
    using namespace ctk::service;
    std::vector<std::pair<FrameType, std::string>> frames;
    auto t0 = Clock::now();
    std::size_t bytes = 0;
    for (std::size_t g = 0; g < reply.matrix.groups.size(); ++g) {
        const auto& group = reply.matrix.groups[g];
        GroupBeginMsg begin;
        begin.family_index = static_cast<std::uint32_t>(g);
        begin.name = group.name;
        begin.status = group.status;
        begin.setup_error = group.setup_error ? 1 : 0;
        begin.setup_message = group.setup_message;
        begin.fault_count = group.entries.size();
        frames.emplace_back(FrameType::GroupBegin, encode(begin));
        for (std::size_t k = 0; k < group.entries.size(); ++k) {
            VerdictMsg verdict;
            verdict.family_index = static_cast<std::uint32_t>(g);
            verdict.fault_index = k;
            verdict.entry = group.entries[k];
            frames.emplace_back(FrameType::Verdict, encode(verdict));
        }
    }
    frames.emplace_back(FrameType::Done, encode(reply.done));
    for (const auto& [type, payload] : frames)
        bytes += encode_frame(type, payload).size();
    layers.add("proto.encode_ms", ms_between(t0, Clock::now()));
    layers.add("proto.reply_kb", static_cast<double>(bytes) / 1024.0);

    t0 = Clock::now();
    for (const auto& [type, payload] : frames) {
        if (type == FrameType::GroupBegin)
            (void)decode_group_begin(payload);
        else if (type == FrameType::Verdict)
            (void)decode_verdict(payload);
        else
            (void)decode_done(payload);
    }
    layers.add("proto.decode_ms", ms_between(t0, Clock::now()));
}

/// What one client thread measured, plus its failures.
struct ClientLog {
    Run run;
    std::string error; ///< last failed request
    std::string fatal; ///< failure outside a request
};

/// Fold one client's run into the workload's.
void absorb(Run& run, const Run& client) {
    if (!client.correct) run.fail_check(client.mismatch);
    run.attempted += client.attempted;
    run.failed += client.failed;
    for (const auto& [k, v] : client.ops_by_class) run.ops_by_class[k] += v;
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
    };
    append(run.traced_primary_ms, client.traced_primary_ms);
    append(run.untraced_primary_ms, client.untraced_primary_ms);
    run.windows.insert(run.windows.end(), client.windows.begin(),
                       client.windows.end());
    run.layers.merge(client.layers);
    run.traced_kb_ops += client.traced_kb_ops;
    run.traced_gate_ops += client.traced_gate_ops;
    run.traced_wall_ms += client.traced_wall_ms;
    run.attributed_ms += client.attributed_ms;
}

} // namespace

std::vector<ctk::gate::Netlist> gate_netlists() {
    using namespace ctk::gate;
    std::vector<Netlist> nets;
    nets.push_back(circuits::comparator(12));
    nets.push_back(circuits::ripple_adder(128));
    nets.push_back(circuits::parity_tree(256));
    nets.push_back(circuits::mux_tree(6));
    return nets;
}

void run_ctkd_mix(const Args& args, Run& run) {
    const std::vector<FamilyTemplate> families = load_kb_templates();
    std::vector<ctk::core::FamilyGradingSetup> setups;
    for (const auto& f : families)
        setups.push_back(compile_copy(f, f.base, "reference"));
    const std::string kb_ref = oracle_csv(setups);
    const std::vector<GateInput> gates = gate_inputs();
    // The store a warm entry holds: what a cold store-backed grading of
    // the same KB leaves behind (for the traced golden/store shadow).
    ctk::core::GradeStore warm_store;
    (void)grade_csv(setups, grading_options(&warm_store));

    // Set-up: daemon start plus both clients' first requests, sent
    // together on the cold entry. Fresh daemons are timed before and
    // after the timed phase, so the median spans the run; the last one
    // before it serves the timed phase.
    auto fresh_daemon = [&](int rep, std::string& path) {
        path = "ctkd-" + std::to_string(rep) + ".sock";
        const auto t0 = Clock::now();
        auto daemon = start_server(path);
        std::vector<std::string> csv(kClients);
        std::vector<std::string> errors(kClients);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                try {
                    DaemonClient client(path);
                    csv[c] = ctk::report::coverage_to_csv(
                        client.grade(kb_request()).matrix);
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        for (auto& t : clients) t.join();
        run.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        for (std::size_t c = 0; c < kClients; ++c) {
            if (!errors[c].empty()) {
                stop_daemon(std::move(daemon));
                throw std::runtime_error("set-up request failed: " +
                                         errors[c]);
            }
            if (csv[c] != kb_ref)
                run.fail_check("ctkd-mix cold request differs from the "
                               "oracle reference");
        }
        return daemon;
    };
    constexpr int kSetupsBefore = 8;
    constexpr int kSetupsAfter = 7;
    std::unique_ptr<ctk::service::CtkdServer> server;
    std::string socket_path;
    for (int rep = 0; rep < kSetupsBefore; ++rep) {
        stop_daemon(std::move(server));
        server = fresh_daemon(rep, socket_path);
    }

    std::vector<ClientLog> logs(kClients);
    std::vector<std::unique_ptr<DaemonClient>> connections;
    for (std::size_t c = 0; c < kClients; ++c) {
        connections.push_back(std::make_unique<DaemonClient>(socket_path));
        // Warm-up request (untimed).
        (void)connections.back()->grade(kb_request());
    }

    const CpuTicks ticks = cpu_ticks();
    const auto start = Clock::now();
    const auto deadline = deadline_after(start, args.seconds);
    auto client_rounds = [&](std::size_t c) {
        ClientLog& log = logs[c];
        Run& mine = log.run;
        DaemonClient& client = *connections[c];
        for (std::size_t round = 0;
             mine.correct && Clock::now() < deadline; ++round) {
            const bool traced = args.trace && round % 2 == 1;
            // A client round is one window (rounds_per_window is 1 here).
            Window& window = mine.windows.emplace_back();
            window.stream = c;
            const CpuTicks window_ticks = cpu_ticks();
            const auto window_start = Clock::now();
            for (const Op& op : round_ops(args.workload, args.seed, c, round)) {
                ++mine.attempted;
                ++mine.ops_by_class[op_class_name(op.cls)];
                const bool warm = op.cls == OpClass::KbWarm;
                const GateInput* gate = warm ? nullptr : &gates[op.arg];
                GradeReply reply;
                double ms = 0.0;
                try {
                    const auto t0 = Clock::now();
                    reply = client.grade(warm ? kb_request()
                                              : gate_request(*gate));
                    ms = ms_between(t0, Clock::now());
                } catch (const std::exception& e) {
                    ++mine.failed;
                    log.error = e.what();
                    continue;
                }
                const std::string csv =
                    ctk::report::coverage_to_csv(reply.matrix);
                if (csv != (warm ? kb_ref : gate->ref)) {
                    mine.fail_check(std::string("ctkd-mix ") +
                                    (warm ? "warm KB" : gate->name.c_str()) +
                                    " reply differs from the oracle "
                                    "reference");
                    break;
                }
                if (ms > kOpTimeoutMs) {
                    ++mine.failed;
                    continue;
                }
                ++window.ops;
                window.faults += reply.matrix.fault_count();
                if (warm) {
                    window.primary_ms.push_back(ms);
                    if (args.trace)
                        (traced ? mine.traced_primary_ms
                                : mine.untraced_primary_ms)
                            .push_back(ms);
                }
                if (!traced) continue;

                Layers op_layers;
                double attributed = 0.0;
                if (warm) {
                    const double server_ms = reply.done.wall_s * 1000.0;
                    op_layers.add("ctkd.server_ms", server_ms);
                    op_layers.add("ctkd.transport_ms", ms - server_ms);
                    op_layers.add("cache.hits", reply.done.cache_hit ? 1 : 0);
                    shadow_proto(reply, op_layers);
                    (void)shadow_golden_and_store(setups, &warm_store,
                                                  op_layers);
                    attributed = (ms - server_ms) +
                                 op_layers.get("proto.encode_ms") +
                                 op_layers.get("golden.run_ms") +
                                 op_layers.get("store.hash_ms") +
                                 op_layers.get("store.consult_ms");
                    ++mine.traced_kb_ops;
                } else {
                    op_layers.add("gate.request_ms", ms);
                    shadow_gate(gate->text, gate->name, op_layers);
                    attributed = op_layers.get("gate.parse_ms") +
                                 op_layers.get("gate.collapse_ms") +
                                 op_layers.get("gate.tpg_ms") +
                                 op_layers.get("gate.atpg_ms");
                    ++mine.traced_gate_ops;
                }
                mine.layers.merge(op_layers);
                mine.traced_wall_ms += ms;
                mine.attributed_ms += attributed;
            }
            window.wall_s = ms_between(window_start, Clock::now()) / 1000.0;
            window.steal_share = steal_share(window_ticks, cpu_ticks());
        }
    };
    // A failure outside a request (the check, the traced shadows) must
    // not escape the thread; it aborts the run after the join.
    std::atomic<std::size_t> finished{0};
    auto client_loop = [&](std::size_t c) {
        try {
            client_rounds(c);
        } catch (const std::exception& e) {
            logs[c].fatal = e.what();
        }
        ++finished;
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back(client_loop, c);
    // Memory epochs of one second while the clients run; the epoch the
    // last client ends in is dropped unless it is the only one.
    while (finished < kClients) {
        trim_heap();
        reset_peak_rss();
        const auto epoch_end = deadline_after(Clock::now(), 1.0);
        while (finished < kClients && Clock::now() < epoch_end)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (finished < kClients || run.epoch_rss_mb.empty())
            run.epoch_rss_mb.push_back(peak_rss_mb());
    }
    for (auto& t : clients) t.join();
    run.wall_s = ms_between(start, Clock::now()) / 1000.0;
    run.steal_share = steal_share(ticks, cpu_ticks());

    connections.clear();
    stop_daemon(std::move(server));
    for (int rep = kSetupsBefore; rep < kSetupsBefore + kSetupsAfter; ++rep) {
        std::string path;
        stop_daemon(fresh_daemon(rep, path));
    }

    for (const ClientLog& log : logs) {
        if (!log.fatal.empty())
            throw std::runtime_error("client failed: " + log.fatal);
        if (!log.error.empty())
            std::cerr << "ctkbench: request failed: " << log.error << "\n";
        absorb(run, log.run);
    }
}

} // namespace ctkbench
