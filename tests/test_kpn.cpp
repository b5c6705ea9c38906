// Tests for the KPN target: metamodel, UML→KPN mapping (the §3
// retargeting), generic round trip, and Kahn-semantics execution
// including the initial-token ↔ temporal-barrier correspondence.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cases/cases.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "kpn/generic.hpp"
#include "kpn/model.hpp"
#include "run_with_stack.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::kpn;

Network pipeline_network() {
    Network n("pipe");
    Process& src = n.add_process("src");
    src.add_output("x");
    Process& mid = n.add_process("mid");
    mid.add_input("x");
    mid.add_output("y");
    Process& sink = n.add_process("sink");
    sink.add_input("y");
    sink.add_output("z");
    n.connect(src, 0, mid, 0, "x");
    n.connect(mid, 0, sink, 0, "y");
    n.add_network_output(sink, 0, "z");
    return n;
}

KernelRegistry inc_registry() {
    KernelRegistry reg;
    Kernel inc = [](std::span<const double> in, std::span<double> out,
                    std::vector<double>&) {
        double sum = 0.0;
        for (double v : in) sum += v;
        if (!out.empty()) out[0] = sum + 1.0;
    };
    for (const char* k : {"src", "mid", "sink", "work", "A", "B", "C", "D", "E",
                          "F", "G", "H", "I", "J", "L", "M", "T1", "T2", "T3"})
        reg.register_kernel(k, inc);
    return reg;
}

TEST(KpnModel, StructureAndLookups) {
    Network n = pipeline_network();
    EXPECT_EQ(n.processes().size(), 3u);
    EXPECT_NE(n.find_process("mid"), nullptr);
    EXPECT_EQ(n.find_process("ghost"), nullptr);
    EXPECT_EQ(n.channels().size(), 2u);
    EXPECT_EQ(n.network_outputs().size(), 1u);
    const Process* mid = n.find_process("mid");
    EXPECT_EQ(mid->input_named("x"), 0u);
    EXPECT_FALSE(mid->input_named("nope").has_value());
    EXPECT_TRUE(n.check().empty());
}

TEST(KpnModel, DuplicateProcessRejected) {
    Network n("n");
    n.add_process("p");
    EXPECT_THROW(n.add_process("p"), std::invalid_argument);
}

TEST(KpnModel, CheckFindsUnfedInputs) {
    Network n("n");
    Process& p = n.add_process("p");
    p.add_input("lonely");
    auto problems = n.check();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("unfed"), std::string::npos);
}

TEST(KpnModel, CheckFindsDoubleFeeds) {
    Network n("n");
    Process& a = n.add_process("a");
    a.add_output("x");
    Process& b = n.add_process("b");
    b.add_input("x");
    n.connect(a, 0, b, 0, "x");
    n.connect(a, 0, b, 0, "x");  // same consumer port twice
    EXPECT_FALSE(n.check().empty());
}

TEST(KpnModel, ConnectValidatesPorts) {
    Network n("n");
    Process& a = n.add_process("a");
    a.add_output("x");
    Process& b = n.add_process("b");
    b.add_input("x");
    EXPECT_THROW(n.connect(a, 5, b, 0, "x"), std::out_of_range);
    EXPECT_THROW(n.connect(a, 0, b, 9, "x"), std::out_of_range);
}

TEST(KpnGeneric, RoundTrip) {
    Network n = pipeline_network();
    n.channels()[0].initial_tokens = 2;
    Network back = from_generic(to_generic(n));
    EXPECT_EQ(back.processes().size(), 3u);
    EXPECT_EQ(back.channels().size(), 2u);
    EXPECT_EQ(back.channels()[0].initial_tokens, 2u);
    EXPECT_EQ(back.network_outputs().size(), 1u);
    EXPECT_TRUE(back.check().empty());
    EXPECT_TRUE(kpn_metamodel().check().empty());
}

// --- execution -------------------------------------------------------------------

TEST(KpnExecute, PipelinePropagatesTokens) {
    Network n = pipeline_network();
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    KpnResult r = exec.run(5);
    EXPECT_EQ(r.rounds, 5u);
    EXPECT_EQ(r.firings, 15u);
    // z = ((0+1)+1)+1 per round with stateless increment kernels.
    ASSERT_EQ(r.outputs.at("z").size(), 5u);
    EXPECT_DOUBLE_EQ(r.outputs.at("z")[0], 3.0);
    EXPECT_EQ(r.channel_tokens.at("x"), 5u);
    EXPECT_EQ(r.channel_tokens.at("y"), 5u);
    EXPECT_LE(r.max_queue_depth, 1u);  // single-rate pipeline stays bounded
}

TEST(KpnExecute, NetworkInputsFeedTokens) {
    Network n("io");
    Process& p = n.add_process("work");
    p.add_input("u");
    p.add_output("y");
    n.add_network_input(p, 0, "u");
    n.add_network_output(p, 0, "y");
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    exec.set_input("u", [](std::size_t k) { return static_cast<double>(k) * 10; });
    KpnResult r = exec.run(3);
    ASSERT_EQ(r.outputs.at("y").size(), 3u);
    EXPECT_DOUBLE_EQ(r.outputs.at("y")[2], 21.0);  // 20 + 1
}

TEST(KpnExecute, MissingKernelRejected) {
    Network n("n");
    Process& p = n.add_process("mystery");
    p.add_output("x");
    KernelRegistry empty;
    EXPECT_THROW(Executor(n, empty), std::runtime_error);
}

TEST(KpnExecute, MalformedNetworkRejected) {
    Network n("n");
    Process& p = n.add_process("work");
    p.add_input("unfed");
    KernelRegistry reg = inc_registry();
    EXPECT_THROW(Executor(n, reg), std::runtime_error);
}

TEST(KpnExecute, CyclicWithoutTokensReadBlocks) {
    Network n("cycle");
    Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b");
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    try {
        exec.run(1);
        FAIL() << "expected ReadBlockedError";
    } catch (const ReadBlockedError& e) {
        EXPECT_EQ(e.blocked().size(), 2u);
    }
}

TEST(KpnExecute, InitialTokenUnblocksCycle) {
    Network n("cycle");
    Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b").initial_tokens = 1;
    KernelRegistry reg = inc_registry();
    Executor exec(n, reg);
    KpnResult r = exec.run(4);
    EXPECT_EQ(r.firings, 8u);
    EXPECT_LE(r.max_queue_depth, 1u);
}

TEST(KpnExecute, MaxQueueDepthIsTheDeepestQueueAfterAnyFiring) {
    // The depth is observed after each firing, seeded queues included; the
    // values are those of a scan of every queue after every firing.
    KernelRegistry reg = inc_registry();
    diag::DiagnosticEngine engine;
    auto ring = [](std::size_t seeds) {
        // B fires first and drains the seeded A→B queue before A refills it.
        auto n = std::make_unique<Network>("ring");
        Process& b = n->add_process("B");
        b.add_input("x");
        b.add_output("y");
        Process& a = n->add_process("A");
        a.add_input("y");
        a.add_output("x");
        n->connect(a, 0, b, 0, "x").initial_tokens = seeds;
        n->connect(b, 0, a, 0, "y");
        return n;
    };
    {
        auto n = ring(3);
        Executor exec(*n, reg);
        EXPECT_EQ(exec.run(4).max_queue_depth, 3u);
    }
    {
        // The watchdog stops after B's firing: only the seeds were seen.
        auto n = ring(3);
        Executor exec(*n, reg);
        KpnResult r = exec.run(4, engine, {1});
        EXPECT_TRUE(r.budget_exhausted);
        EXPECT_EQ(r.max_queue_depth, 2u);
    }
    {
        // src feeds a seeded queue, then C and D wait on each other.
        Network n("stall");
        Process& src = n.add_process("src");
        src.add_output("x");
        Process& mid = n.add_process("mid");
        mid.add_input("x");
        Process& c = n.add_process("C");
        c.add_input("d");
        c.add_output("c");
        Process& d = n.add_process("D");
        d.add_input("c");
        d.add_output("d");
        n.connect(src, 0, mid, 0, "x").initial_tokens = 2;
        n.connect(c, 0, d, 0, "c");
        n.connect(d, 0, c, 0, "d");
        Executor exec(n, reg);
        KpnResult r = exec.run(2, engine);
        EXPECT_TRUE(r.deadlocked);
        EXPECT_EQ(r.max_queue_depth, 3u);
    }
    {
        // Nothing fires: E holds two tokens for F, but F also waits on E's
        // second output and E on F.
        Network n("stuck");
        Process& e = n.add_process("E");
        e.add_input("f");
        e.add_output("u");
        e.add_output("v");
        Process& f = n.add_process("F");
        f.add_input("u");
        f.add_input("v");
        f.add_output("f");
        n.connect(e, 0, f, 0, "u").initial_tokens = 2;
        n.connect(e, 1, f, 1, "v");
        n.connect(f, 0, e, 0, "f");
        Executor exec(n, reg);
        KpnResult r = exec.run(1, engine);
        EXPECT_TRUE(r.deadlocked);
        EXPECT_EQ(r.firings, 0u);
        EXPECT_EQ(r.max_queue_depth, 0u);
    }
}

// --- UML → KPN mapping --------------------------------------------------------------

TEST(KpnMapping, SyntheticBecomesTwelveProcesses) {
    uml::Model syn = cases::synthetic_model();
    KpnMappingOutput out = map_to_kpn(syn);
    EXPECT_TRUE(out.warnings.empty());
    EXPECT_EQ(out.network.processes().size(), 12u);
    EXPECT_EQ(out.network.channels().size(), 14u);  // one per Fig. 7(a) edge
    EXPECT_EQ(out.initial_tokens_inserted, 0u);     // the DAG needs none
    EXPECT_TRUE(out.network.check().empty());
    // Rules fired through the engine.
    EXPECT_EQ(out.stats.applications.at("Thread2Process"), 12u);
    EXPECT_EQ(out.stats.applications.at("Model2Network"), 1u);
}

TEST(KpnMapping, SyntheticExecutes) {
    uml::Model syn = cases::synthetic_model();
    KpnMappingOutput out = map_to_kpn(syn);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    KpnResult r = exec.run(10);
    EXPECT_EQ(r.firings, 120u);
    // Every channel moved one token per round (counts are keyed by the
    // variable, so fan-out variables accumulate across their channels).
    std::map<std::string, std::size_t> expected;
    for (const ChannelDecl& c : out.network.channels())
        expected[c.variable] += 10u;
    for (const auto& [var, tokens] : r.channel_tokens)
        EXPECT_EQ(tokens, expected.at(var)) << var;
}

TEST(KpnMapping, CraneGetsInitialTokenForItsLoop) {
    uml::Model crane = cases::crane_model();
    KpnMappingOutput out = map_to_kpn(crane);
    EXPECT_EQ(out.network.processes().size(), 3u);
    EXPECT_EQ(out.network.channels().size(), 4u);
    // The T1→T2→T3→T1 loop needs exactly one seed (it breaks both cycles,
    // mirroring the single UnitDelay of the CAAM branch).
    EXPECT_GE(out.initial_tokens_inserted, 1u);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    EXPECT_NO_THROW(exec.run(20));
}

TEST(KpnMapping, CraneWithoutSeedsReadBlocks) {
    uml::Model crane = cases::crane_model();
    KpnMappingOptions options;
    options.auto_initial_tokens = false;
    KpnMappingOutput out = map_to_kpn(crane, options);
    KernelRegistry reg = inc_registry();
    Executor exec(out.network, reg);
    EXPECT_THROW(exec.run(1), ReadBlockedError);
}

TEST(KpnMapping, IoBecomesNetworkPorts) {
    uml::Model didactic = cases::didactic_model();
    KpnMappingOutput out = map_to_kpn(didactic);
    // T3's getValue → network input "s"; T2's setOut → network output "w"
    // ... except w is an <<IO>> write of a locally computed value, which
    // needs an output port on T2.
    ASSERT_EQ(out.network.network_inputs().size(), 1u);
    EXPECT_EQ(out.network.network_inputs()[0].variable, "s");
    ASSERT_EQ(out.network.network_outputs().size(), 1u);
    EXPECT_EQ(out.network.network_outputs()[0].variable, "w");
    EXPECT_TRUE(out.network.check().empty());
}

TEST(KpnMapping, LongProcessChainNeedsNoDeepStack) {
    // A ring of 40,000 threads, each forwarding a value to the next: the
    // initial-token search walks one path through every process, on a
    // 1 MiB stack. The diagram is built without name lookups, which would
    // make the set-up quadratic.
    constexpr int kThreads = 40000;
    auto var = [](int i) { return "x" + std::to_string(i); };
    uml::ModelBuilder b("chain");
    std::vector<uml::ObjectInstance*> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.push_back(&b.thread("T" + std::to_string(i)));
    uml::SequenceDiagram& sd = b.seq("sd").done();
    uml::Lifeline& platform = sd.add_lifeline(b.platform());
    std::vector<uml::Lifeline*> lifelines;
    for (uml::ObjectInstance* t : threads) lifelines.push_back(&sd.add_lifeline(*t));
    for (int i = 0; i < kThreads; ++i) {
        uml::MessageBuilder(sd.add_message(*lifelines[i], platform, "gain"))
            .arg(var((i + kThreads - 1) % kThreads))
            .result(var(i));
        uml::MessageBuilder(
            sd.add_message(*lifelines[i], *lifelines[(i + 1) % kThreads], "SetX"))
            .arg(var(i));
    }
    uml::Model model = b.take();
    const core::CommModel comm = core::analyze_communication(model);
    std::optional<KpnMappingOutput> out;
    ASSERT_TRUE(test_support::run_with_stack(1u << 20, [&] {
        out.emplace(map_to_kpn(model, comm));
    }));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->network.processes().size(), std::size_t{kThreads});
    EXPECT_EQ(out->network.channels().size(), std::size_t{kThreads});
    EXPECT_EQ(out->initial_tokens_inserted, 1u);
    EXPECT_EQ(out->network.channels().back().initial_tokens, 1u);
    EXPECT_TRUE(out->warnings.empty());
}

TEST(KpnMapping, EquivalentStructureToCaamChannels) {
    // The KPN channels and the CAAM channels describe the same links.
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    KpnMappingOutput out = map_to_kpn(syn, comm);
    std::set<std::string> kpn_links;
    for (const ChannelDecl& c : out.network.channels())
        kpn_links.insert(c.producer->name() + ">" + c.consumer->name() + ":" +
                         c.variable);
    std::set<std::string> comm_links;
    for (const core::Channel& c : comm.channels())
        comm_links.insert(c.producer->name() + ">" + c.consumer->name() + ":" +
                          c.variable);
    EXPECT_EQ(kpn_links, comm_links);
}

}  // namespace
